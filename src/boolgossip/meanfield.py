r"""Mean-field density approximation for the AND/OR pair on dense graphs.

Write delta(t) for the expected fraction of 1-valued nodes after t gossip
steps and p for the per-draw probability of OR. Ignoring correlations, one
step changes the density by

    delta(t+1) - delta(t) = (2/n) (p^2 - (1-p)^2) delta(t) (1 - delta(t)),

whose continuum limit integrates to the logistic closed form

    delta(t) = delta0 / ((1 - delta0) exp(2 (1 - 2 p) t / n) + delta0).

Time counts gossip steps (pair activations) throughout. The module is
independent of the rule-set machinery, so the boundary values p in {0, 1}
are allowed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, PreconditionError

KIND_CLOSED = "meanfield_closed"
KIND_RECURSION = "meanfield_recursion"
KIND_EMPIRICAL = "empirical"

_CLAMP_SLACK = 1e-12
MAX_GRID_POINTS = 1 << 20  # sample points of one trajectory


@dataclass(frozen=True)
class MeanFieldParams:
    """Node count, probability of OR per draw, and initial density."""

    n: int
    p_star: float
    delta0: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be positive, got {self.n}")
        if not 0.0 <= self.p_star <= 1.0:
            raise ValueError(f"p_star must lie in [0, 1], got {self.p_star}")
        if not 0.0 <= self.delta0 <= 1.0:
            raise ValueError(f"delta0 must lie in [0, 1], got {self.delta0}")


@dataclass(frozen=True)
class DensityTrajectory:
    """Density samples over strictly increasing step indices."""

    steps: tuple[int, ...]
    density: tuple[float, ...]
    kind: str

    def __post_init__(self):
        if len(self.steps) != len(self.density):
            raise ValueError("steps and density lengths differ")
        if any(b <= a for a, b in zip(self.steps, self.steps[1:])):
            raise ValueError("steps must be strictly increasing")
        if any(not 0.0 <= d <= 1.0 for d in self.density):
            raise ValueError("densities must lie in [0, 1]")


def closed_form(params: MeanFieldParams, t):
    """Logistic closed-form density at step t (scalar or array).

    The fixed points delta0 = 0 and 1 stay put. From any other delta0, an
    exponential that overflows gives the limit 0 with no warning.
    """
    d0 = params.delta0
    x = 2.0 * (1.0 - 2.0 * params.p_star) * np.asarray(t, float) / params.n
    if d0 in (0.0, 1.0):
        value = np.full_like(x, d0)
    else:
        with np.errstate(over="ignore"):
            value = d0 / ((1.0 - d0) * np.exp(x) + d0)
    if np.ndim(t) == 0:
        return float(value)
    return value


def closed_form_trajectory(
    params: MeanFieldParams, horizon: int, sample_every: int = 1
) -> DensityTrajectory:
    """Closed-form density sampled on a step grid up to the horizon."""
    steps = _sample_grid(horizon, sample_every)
    density = closed_form(params, np.array(steps))
    return DensityTrajectory(steps, tuple(float(d) for d in density), KIND_CLOSED)


def recursion(params: MeanFieldParams, horizon: int) -> DensityTrajectory:
    """Iterate the one-step density recursion for `horizon` steps.

    The drift keeps exact fixed points at 0 and 1, and a step of size
    |2 (2p - 1) / n| <= 1 keeps the density in [0, 1]; a larger one, which
    only n = 1 allows, is refused with PreconditionError. Floating error may
    leave [0, 1] by less than 1e-12 and is clamped, anything larger would be
    a bug and raises.
    """
    coef = 2.0 * (2.0 * params.p_star - 1.0) / params.n
    if abs(coef) > 1.0:
        raise PreconditionError(
            f"recursion step 2(2p - 1)/n = {coef:g} can leave [0, 1]: "
            "it must lie in [-1, 1]"
        )
    steps = _sample_grid(horizon, 1)
    values = np.empty(horizon + 1)
    d = params.delta0
    values[0] = d
    for t in range(1, horizon + 1):
        d = d + coef * d * (1.0 - d)
        if d < 0.0 or d > 1.0:
            if d < -_CLAMP_SLACK or d > 1.0 + _CLAMP_SLACK:
                raise ArithmeticError(f"density recursion left [0,1]: {d!r}")
            d = min(1.0, max(0.0, d))
        values[t] = d
    return DensityTrajectory(steps, tuple(float(v) for v in values), KIND_RECURSION)


def _sample_grid(horizon: int, sample_every: int) -> tuple[int, ...]:
    """Steps 0, e, 2e, ... below the horizon, then the horizon itself.
    Raises CapacityError, before any allocation, past MAX_GRID_POINTS."""
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    if sample_every < 1:
        raise ValueError(f"sample interval must be positive, got {sample_every}")
    points = -(-horizon // sample_every) + 1
    if points > MAX_GRID_POINTS:
        raise CapacityError(
            f"a grid of {points} sample points exceeds the cap of {MAX_GRID_POINTS}"
        )
    steps = list(range(0, horizon + 1, sample_every))
    if steps[-1] != horizon:
        steps.append(horizon)
    return tuple(steps)


def to_csv(trajectories) -> str:
    """Render trajectories as CSV rows `t,density,kind` under one header."""
    lines = ["t,density,kind"]
    for traj in trajectories:
        for t, d in zip(traj.steps, traj.density):
            lines.append(f"{t},{d!r},{traj.kind}")
    return "\n".join(lines) + "\n"
