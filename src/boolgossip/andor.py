"""Closed-form structure of the chain under the AND/OR rule pair.

With rules {AND, OR} the all-zeros and all-ones states are the only
absorbing states and the number of communication classes depends only on
the graph shape: 2n on a line, m+3 / m+2 on even / odd cycles, 5 on any
other graph without an odd cycle, and 3 otherwise.

The line and cycle cases are organized by state reductions: run-length
collapse along the path order, and the cyclic variant that also drops the
last digit when it matches the first. States on a line communicate exactly
when they share a reduction. A reduction alternates, so a line class is
keyed by the bit of the lower-labelled end and the number of
unequal-endpoint edges; on a cycle the class is fixed by that count alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, absorption_probabilities
from .errors import CapacityError, PreconditionError
from .graphs import (
    Graph,
    ShapeTag,
    bipartition,
    classify_shape,
    has_odd_cycle,
    is_connected,
)
from .rules import AND_OR

MAX_PARTITION_N = 16


@dataclass(frozen=True)
class ReducedState:
    """A run-length collapsed state: nonempty digits with no equal neighbors.

    Cyclic reductions additionally have unequal first/last digits and, when
    longer than one digit, even length.
    """

    digits: tuple[int, ...]
    cyclic: bool = False

    def __post_init__(self):
        if not self.digits:
            raise ValueError("reduced state must be nonempty")
        if any(d not in (0, 1) for d in self.digits):
            raise ValueError(f"digits must be bits: {self.digits}")
        for a, b in zip(self.digits, self.digits[1:]):
            if a == b:
                raise ValueError(f"consecutive equal digits in {self.digits}")
        if self.cyclic and len(self.digits) > 1:
            if self.digits[0] == self.digits[-1]:
                raise ValueError(f"cyclic reduction ends equal: {self.digits}")
            if len(self.digits) % 2 != 0:
                raise ValueError(f"cyclic reduction has odd length: {self.digits}")

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return "".join(str(d) for d in self.digits)


def _collapse(values) -> tuple[int, ...]:
    out = [values[0]]
    for v in values[1:]:
        if v != out[-1]:
            out.append(v)
    return tuple(out)


def line_reduce(s: int, n: int) -> ReducedState:
    """Run-length collapse of a state along the node order 1..n."""
    if n < 1 or not 0 <= s < 1 << n:
        raise ValueError(f"state {s} out of range for n={n}")
    values = [s >> i & 1 for i in range(n)]
    return ReducedState(_collapse(values))


def cycle_reduce(s: int, n: int) -> ReducedState:
    """Cyclic reduction: collapse along 1..n, then drop the last digit when
    it equals the first. The length equals the number of unequal-endpoint
    edges around the cycle (or 1 for constant states)."""
    digits = line_reduce(s, n).digits
    if len(digits) > 1 and digits[-1] == digits[0]:
        digits = digits[:-1]
    return ReducedState(digits, cyclic=True)


@dataclass(frozen=True)
class ClassPrediction:
    """Predicted class partition: per-class state sets and display labels."""

    chi: int
    classes: tuple[frozenset[int], ...]
    labels: tuple[str, ...]


def predict_chi(g: Graph) -> int:
    """Closed-form class count of the AND/OR chain from the graph shape."""
    if not is_connected(g):
        raise PreconditionError("class-count formula needs a connected graph")
    tag = classify_shape(g)
    if tag is ShapeTag.LINE:
        return 2 * g.n
    if tag is ShapeTag.CYCLE:
        return g.n // 2 + (3 if g.n % 2 == 0 else 2)
    return 3 if has_odd_cycle(g) else 5


def _fibers(key: np.ndarray, count: int) -> list[frozenset[int]]:
    # The states of each key value 0..count-1, in key order.
    order = np.argsort(key, kind="stable")
    cuts = np.cumsum(np.bincount(key, minlength=count))[:-1]
    return [frozenset(part.tolist()) for part in np.split(order, cuts)]


def predict_classes(g: Graph) -> ClassPrediction:
    """Explicit predicted class partition of the AND/OR chain.

    Line: one class per reduction, keyed by 2 * unequal + the bit of the
    lower-labelled end, which is the (length, digits) order. Other shapes:
    the two constant states and, when the graph is bipartite, its two
    colorings as singletons; then on a cycle one class per even count of
    unequal-endpoint edges, and elsewhere everything else.
    """
    if not is_connected(g):
        raise PreconditionError("class prediction needs a connected graph")
    n = g.n
    if n > MAX_PARTITION_N:
        raise CapacityError(f"n={n} exceeds the partition cap of {MAX_PARTITION_N}")
    full = (1 << n) - 1
    tag = classify_shape(g)
    if tag in (ShapeTag.LINE, ShapeTag.CYCLE):
        states = np.arange(full + 1)[:, None]
        i, j = np.array(g.edges).T - 1
        unequal = ((states >> i ^ states >> j) & 1).sum(axis=1)
    if tag is ShapeTag.LINE:
        end = min(v for v in range(1, n + 1) if g.degree(v) == 1)
        key = 2 * unequal + (states[:, 0] >> (end - 1) & 1)
        labels = ["reduction " + ("01" * n)[k % 2 :][: k // 2 + 1] for k in range(2 * n)]
        return ClassPrediction(2 * n, tuple(_fibers(key, 2 * n)), tuple(labels))

    colors = bipartition(g)
    fixed = [0, full]
    labels = ["all-zeros", "all-ones"]
    if colors is not None:
        side = sum(1 << (v - 1) for v in range(1, n + 1) if colors[v])
        name = "alternating" if tag is ShapeTag.CYCLE else "coloring"
        fixed += [side, full ^ side]
        labels += [name, name + " complement"]
    classes = [frozenset({s}) for s in fixed]
    if tag is ShapeTag.CYCLE:
        classes += _fibers(unequal, n)[2:n:2]
        labels += [f"{d} unequal edges" for d in range(2, n, 2)]
    else:
        mixed = np.ones(full + 1, dtype=bool)
        mixed[fixed] = False
        classes.append(frozenset(np.flatnonzero(mixed).tolist()))
        labels.append("mixed")
    return ClassPrediction(len(classes), tuple(classes), tuple(labels))


def consensus_probability(spec: ChainSpec, start: int) -> float:
    """Probability that the AND/OR chain absorbs at all-ones from `start`."""
    if spec.rules.op_set != AND_OR:
        raise PreconditionError("closed-form consensus needs the AND/OR rule pair")
    full = (1 << spec.graph.n) - 1
    if start in (0, full):
        raise PreconditionError("start state is already absorbing")
    dist = absorption_probabilities(spec, start)
    return dist.get(full, 0.0)
