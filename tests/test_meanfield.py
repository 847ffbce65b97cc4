"""Logistic density approximation: closed form, recursion, and CSV output."""

from __future__ import annotations

import math

import numpy as np
import pytest

from boolgossip import chain, graphs, meanfield, rules, simulate
from boolgossip.errors import CapacityError, PreconditionError
from boolgossip.meanfield import DensityTrajectory, MeanFieldParams


def test_params_validation():
    MeanFieldParams(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        MeanFieldParams(0, 0.5, 0.5)
    with pytest.raises(ValueError):
        MeanFieldParams(10, -0.1, 0.5)
    with pytest.raises(ValueError):
        MeanFieldParams(10, 0.5, 1.5)


def test_trajectory_validation():
    DensityTrajectory((0, 2, 5), (0.1, 0.2, 0.3), meanfield.KIND_CLOSED)
    with pytest.raises(ValueError):
        DensityTrajectory((0, 1), (0.1,), meanfield.KIND_CLOSED)
    with pytest.raises(ValueError):
        DensityTrajectory((0, 0), (0.1, 0.2), meanfield.KIND_CLOSED)
    with pytest.raises(ValueError):
        DensityTrajectory((0, 1), (0.1, 1.2), meanfield.KIND_CLOSED)


def test_closed_form_boundary_and_scalar():
    params = MeanFieldParams(50, 0.3, 0.4)
    assert meanfield.closed_form(params, 0) == pytest.approx(0.4, abs=1e-15)
    assert isinstance(meanfield.closed_form(params, 7), float)
    arr = meanfield.closed_form(params, np.array([0, 1, 2]))
    assert arr.shape == (3,)
    # Balanced draws leave the density flat.
    flat = MeanFieldParams(50, 0.5, 0.37)
    for t in (0, 10, 1000):
        assert meanfield.closed_form(flat, t) == pytest.approx(0.37, abs=1e-15)


def test_closed_form_symmetry_and_monotonicity():
    # Swapping the roles of the two values mirrors the trajectory.
    for p, d0 in ((0.3, 0.2), (0.45, 0.7), (0.9, 0.05)):
        a = MeanFieldParams(100, p, d0)
        b = MeanFieldParams(100, 1.0 - p, 1.0 - d0)
        for t in (0, 3, 50, 400, 5000):
            assert meanfield.closed_form(a, t) == pytest.approx(
                1.0 - meanfield.closed_form(b, t), abs=1e-12
            )
    down = MeanFieldParams(100, 0.4, 0.6)
    values = [meanfield.closed_form(down, t) for t in range(0, 2000, 25)]
    assert all(b < a for a, b in zip(values, values[1:]))
    up = MeanFieldParams(100, 0.6, 0.4)
    values = [meanfield.closed_form(up, t) for t in range(0, 2000, 25)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_recursion_fixed_points():
    for d0 in (0.0, 1.0):
        traj = meanfield.recursion(MeanFieldParams(30, 0.2, d0), 500)
        assert set(traj.density) == {d0}
        assert traj.kind == meanfield.KIND_RECURSION
        assert traj.steps == tuple(range(501))


def test_recursion_tracks_closed_form():
    # Discretization error stays within 5/n across a 160n-step horizon.
    for n in (100, 1000):
        params = MeanFieldParams(n, 0.43, 0.5)
        horizon = 160 * n
        traj = meanfield.recursion(params, horizon)
        exact = meanfield.closed_form(params, np.array(traj.steps))
        gap = float(np.max(np.abs(np.array(traj.density) - exact)))
        assert gap <= 5.0 / n


def test_recursion_refuses_a_step_past_one():
    # The step 2(2p - 1)/n passes 1 in size only for n = 1, and then one
    # step can leave [0, 1] (from 0.75 at p = 1: 0.75 + 2 * 0.1875 = 1.125).
    for p_star in (1.0, 0.0, 0.8, 0.2):
        with pytest.raises(PreconditionError, match="must lie in"):
            meanfield.recursion(MeanFieldParams(1, p_star, 0.75), 3)
    for p_star in (0.75, 0.25, 0.5):
        traj = meanfield.recursion(MeanFieldParams(1, p_star, 0.75), 20)
        assert all(0.0 <= d <= 1.0 for d in traj.density)
    assert meanfield.recursion(MeanFieldParams(2, 1.0, 0.75), 3).density[1] == 0.9375


def test_recursion_rejects_negative_horizon():
    with pytest.raises(ValueError):
        meanfield.recursion(MeanFieldParams(10, 0.5, 0.5), -1)


def test_closed_form_trajectory_grid():
    params = MeanFieldParams(20, 0.4, 0.5)
    traj = meanfield.closed_form_trajectory(params, 10, sample_every=4)
    assert traj.steps == (0, 4, 8, 10)
    assert traj.kind == meanfield.KIND_CLOSED
    assert meanfield.closed_form_trajectory(params, 8, sample_every=4).steps == (
        0,
        4,
        8,
    )
    with pytest.raises(ValueError):
        meanfield.closed_form_trajectory(params, 10, sample_every=0)


def test_grid_cap_admits_its_last_point(monkeypatch):
    monkeypatch.setattr(meanfield, "MAX_GRID_POINTS", 11)
    params = MeanFieldParams(20, 0.4, 0.5)
    assert len(meanfield.recursion(params, 10).steps) == 11
    assert len(meanfield.closed_form_trajectory(params, 100, sample_every=10).steps) == 11
    with pytest.raises(CapacityError, match="cap of 11"):
        meanfield.recursion(params, 11)
    with pytest.raises(CapacityError, match="12 sample points"):
        meanfield.closed_form_trajectory(params, 101, sample_every=10)


def test_grid_cap_refuses_before_allocating():
    # A grid of 10^18 points could never be allocated, so reaching the
    # CapacityError shows that the check comes first, on every path that
    # builds a grid.
    params = MeanFieldParams(1000, 0.49, 0.5)
    huge = 10**18
    with pytest.raises(CapacityError, match="exceeds the cap"):
        meanfield.recursion(params, huge)
    with pytest.raises(CapacityError, match="exceeds the cap"):
        meanfield.closed_form_trajectory(params, huge, sample_every=7)
    spec = chain.ChainSpec(graphs.make("cycle", 4), rules.RuleSet((1, 7)))
    config = simulate.SimConfig(spec, huge, rounds=10, seed=1, delta0=0.5)
    with pytest.raises(CapacityError, match="exceeds the cap"):
        simulate.run(config)


def test_to_csv_round_trip():
    params = MeanFieldParams(20, 0.4, 0.5)
    closed = meanfield.closed_form_trajectory(params, 6, sample_every=3)
    rec = meanfield.recursion(params, 2)
    text = meanfield.to_csv([closed, rec])
    lines = text.strip().splitlines()
    assert lines[0] == "t,density,kind"
    assert len(lines) == 1 + 3 + 3
    t, d, kind = lines[1].split(",")
    assert (int(t), kind) == (0, meanfield.KIND_CLOSED)
    # repr round-trips the float exactly
    assert float(d) == closed.density[0]
    assert lines[-1].endswith(meanfield.KIND_RECURSION)
    assert math.isclose(float(lines[-1].split(",")[1]), rec.density[2])
