"""Closed-form absorbing-structure oracles, no chain construction needed.

Every state falls into exactly one of six classes by its pattern of equal
and unequal edges; whether it is absorbing depends only on that class and
on which stability family contains the rule set (the absorbing module's
predicates mirror the stability families in the rules module).

The chain-level verdict also has a closed form: for the nine
parity-sensitive rule sets the chain is absorbing exactly when the graph
has no odd cycle; for every other rule set the verdict does not depend on
the graph at all.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import PreconditionError
from .graphs import Graph, has_odd_cycle, is_connected
from .rules import (
    NEIGHBOR_COPY,
    ONE_STABLE,
    OP_DIFF,
    OP_FIRST,
    OP_IMPLIED_BY,
    PARITY_FAMILIES,
    SPLIT_STABLE,
    ZERO_STABLE,
)


class StateClass(Enum):
    ALL_ZERO = "all-zero"
    ALL_ONE = "all-one"
    PROPER = "proper-coloring"  # every edge has unequal endpoints
    ZERO_PAIR_ONLY = "zero-pair-only"  # some 0-0 edge, no 1-1 edge, some 1
    ONE_PAIR_ONLY = "one-pair-only"  # some 1-1 edge, no 0-0 edge, some 0
    BOTH_PAIRS = "both-pairs"  # a 0-0 edge and a 1-1 edge


# Rule families under which each state class is frozen.
_STABLE_FAMILY = {
    StateClass.ALL_ZERO: ZERO_STABLE,
    StateClass.ALL_ONE: ONE_STABLE,
    StateClass.PROPER: SPLIT_STABLE,
    StateClass.ZERO_PAIR_ONLY: frozenset({OP_DIFF, OP_FIRST}),
    StateClass.ONE_PAIR_ONLY: frozenset({OP_FIRST, OP_IMPLIED_BY}),
    StateClass.BOTH_PAIRS: frozenset({OP_FIRST}),
}
# The classes told apart by their edge patterns, not by constancy alone.
_EDGE_CLASSES = (
    StateClass.PROPER,
    StateClass.ZERO_PAIR_ONLY,
    StateClass.ONE_PAIR_ONLY,
    StateClass.BOTH_PAIRS,
)


def absorbing_rows(g: Graph, ops, states: np.ndarray) -> np.ndarray:
    """Vectorized closed-form absorbing test over a (rows, n) 0/1 matrix.

    A row on a connected graph is absorbing exactly when the rule set lies
    inside the family that freezes its state class; used by the simulator
    for early exit. Only the masks of the classes the rule set
    freezes are built: the constant rows from one count of ones per row,
    and the four edge-pattern classes from one scan of the edges, made only
    when the rule set freezes one of them. Under AND/OR, for one, only the
    constant rows can be absorbing, and those need no edges.
    """
    ops = frozenset(ops)
    if not ops:
        raise ValueError("rule set must be nonempty")
    states = np.asarray(states)
    frozen = {cls for cls, family in _STABLE_FAMILY.items() if ops <= family}
    ones = np.einsum("ij->i", states, dtype=np.intp)
    out = np.zeros(states.shape[0], dtype=bool)
    if StateClass.ALL_ZERO in frozen:
        out |= ones == 0
    if StateClass.ALL_ONE in frozen:
        out |= ones == states.shape[1]
    edge_frozen = [cls in frozen for cls in _EDGE_CLASSES]
    if any(edge_frozen):
        zero_pair = np.zeros(states.shape[0], dtype=np.uint8)
        one_pair = np.zeros(states.shape[0], dtype=np.uint8)
        for i, j in g.edges:
            a = states[:, i - 1]
            b = states[:, j - 1]
            zero_pair |= (a == 0) & (b == 0)
            one_pair |= (a == 1) & (b == 1)
        # A row that holds both values is in _EDGE_CLASSES[2 * one_pair +
        # zero_pair]; a row with no 0 or no 1 is constant.
        mixed = (ones > 0) & (ones < states.shape[1])
        out |= mixed & np.array(edge_frozen).reshape(2, 2)[one_pair, zero_pair]
    return out


def is_absorbing_chain_oracle(g: Graph, ops) -> bool:
    """Closed-form absorbing-chain decision from (graph, rule set) alone.

    Parity-sensitive rule sets: absorbing iff the graph has no odd cycle.
    All other rule sets: absorbing iff the set lies inside ZERO_STABLE or
    inside ONE_STABLE but not inside NEIGHBOR_COPY, independent of the
    graph. The NEIGHBOR_COPY exception: when every operator copies the
    neighbour on disagreement, an unequal edge can only swap, so a state
    with a single dissenting value keeps exactly one dissenter forever and
    never reaches a consensus state (the only absorbing states such sets
    admit on a connected graph).
    """
    ops = frozenset(ops)
    if not ops:
        raise ValueError("rule set must be nonempty")
    if not is_connected(g):
        raise PreconditionError("the oracle needs a connected graph")
    if ops in PARITY_FAMILIES:
        return not has_odd_cycle(g)
    if ops <= NEIGHBOR_COPY:
        return False
    return ops <= ZERO_STABLE or ops <= ONE_STABLE


def oracle_reason(g: Graph, ops) -> tuple[bool, str]:
    """The branch of is_absorbing_chain_oracle that decides (g, ops): the
    verdict it gives and, in words, why. It takes the oracle's branches in
    the oracle's order, for the CLI to print; the oracle itself stays a bare
    lookup, since callers run it over all 65535 rule sets.
    """
    ops = frozenset(ops)
    if ops in PARITY_FAMILIES:
        if has_odd_cycle(g):
            return False, "rules are parity-sensitive and an odd cycle is present"
        return True, "rules are parity-sensitive and the graph has no odd cycle"
    if ops <= NEIGHBOR_COPY:
        return False, "rules only copy the neighbour, so one dissenter never vanishes"
    inside = []
    if ops <= ZERO_STABLE:
        inside.append("the all-zeros-stable family")
    if ops <= ONE_STABLE:
        inside.append("the all-ones-stable family")
    if inside:
        return True, "rules lie inside " + " and ".join(inside)
    return False, "rules fix neither all-zeros nor all-ones"
