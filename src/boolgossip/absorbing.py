"""Absorbing states and the closed-form absorbing-chain oracle.

A state is absorbing when no edge of it has an edge code that some draw
pair of the rule set moves. Which codes move is read from the chain's
reach table at each call, so the step rule keeps one definition; the read
is a table lookup, too cheap to cache.

The chain-level verdict has a closed form: for the nine parity-sensitive
rule sets the chain is absorbing exactly when the graph has no odd cycle;
for every other rule set the verdict does not depend on the graph at all.
"""

from __future__ import annotations

import numpy as np

from .chain import _reach
from .errors import PreconditionError
from .graphs import Graph, has_odd_cycle, is_connected
from .rules import NEIGHBOR_COPY, ONE_STABLE, OPS, PARITY_FAMILIES, ZERO_STABLE


def absorbing_rows(g: Graph, ops, states: np.ndarray) -> np.ndarray:
    """Vectorized absorbing test over a (rows, n) 0/1 matrix of a connected
    graph, used by the simulator for early exit.

    A row is absorbing when none of its edges has a movable code. When an
    unequal edge can move, only constant rows can be absorbing, and one
    count of ones per row decides them with no edge read: under AND/OR,
    for one. Otherwise only the movable equal codes are looked for, one
    scan of the edges for each.
    """
    ops = frozenset(ops)
    if not ops:
        raise ValueError("rule set must be nonempty")
    # movable[c]: some draw pair from ops moves an edge in code c.
    movable = _reach(ops).any(axis=1)
    states = np.asarray(states)
    if movable[1]:
        ones = np.einsum("ij->i", states, dtype=np.intp)
        out = np.zeros(states.shape[0], dtype=bool)
        if not movable[0]:
            out |= ones == 0
        if not movable[3]:
            out |= ones == states.shape[1]
        return out
    out = np.ones(states.shape[0], dtype=bool)
    for value in (0, 1):
        if movable[3 * value]:
            for i, j in g.edges:
                out &= (states[:, i - 1] != value) | (states[:, j - 1] != value)
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

    Operators must lie in 0..15, as RuleSet, parse_rules and mask_ops
    ensure. The oracle does not check it: sweeps call it once per rule mask,
    and a full range check adds a fifth to a half to each call.
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
    """The verdict of is_absorbing_chain_oracle on (g, ops) and, in words,
    the branch that decides it, for the CLI to print. It refuses what the
    oracle refuses, and operators outside 0..15.
    """
    ops = frozenset(ops)
    if not ops <= frozenset(OPS):
        raise ValueError(f"operator index out of range: {set(ops - frozenset(OPS))}")
    verdict = is_absorbing_chain_oracle(g, ops)
    if ops in PARITY_FAMILIES:
        cycle = "the graph has no odd cycle" if verdict else "an odd cycle is present"
        return verdict, "rules are parity-sensitive and " + cycle
    if ops <= NEIGHBOR_COPY:
        return verdict, "rules only copy the neighbour, so one dissenter never vanishes"
    inside = []
    if ops <= ZERO_STABLE:
        inside.append("the all-zeros-stable family")
    if ops <= ONE_STABLE:
        inside.append("the all-ones-stable family")
    if inside:
        return verdict, "rules lie inside " + " and ".join(inside)
    return verdict, "rules fix neither all-zeros nor all-ones"
