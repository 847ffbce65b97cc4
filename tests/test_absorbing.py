"""State classification, absorbing-state predicates, and the chain-level oracle."""

from __future__ import annotations

import enum
import functools
import random
import types

import numpy as np
import pytest

import corpus
from boolgossip import absorbing, chain, graphs, rules
from boolgossip.errors import PreconditionError


class StateClass(enum.Enum):
    ALL_ZERO = "all-zero"
    ALL_ONE = "all-one"
    PROPER = "proper-coloring"  # every edge has unequal endpoints
    ZERO_PAIR_ONLY = "zero-pair-only"  # some 0-0 edge, no 1-1 edge, some 1
    ONE_PAIR_ONLY = "one-pair-only"  # some 1-1 edge, no 0-0 edge, some 0
    BOTH_PAIRS = "both-pairs"  # a 0-0 edge and a 1-1 edge


# The scalar reference for absorbing_rows, in the paper's closed form: one
# state word at a time, each of the six state classes decided by a walk over
# the edges and frozen by its own rule family.
STABLE_FAMILY = {
    StateClass.ALL_ZERO: rules.ZERO_STABLE,
    StateClass.ALL_ONE: rules.ONE_STABLE,
    StateClass.PROPER: rules.SPLIT_STABLE,
    StateClass.ZERO_PAIR_ONLY: frozenset({rules.OP_DIFF, rules.OP_FIRST}),
    StateClass.ONE_PAIR_ONLY: frozenset({rules.OP_FIRST, rules.OP_IMPLIED_BY}),
    StateClass.BOTH_PAIRS: frozenset({rules.OP_FIRST}),
}


def classify_state(g: graphs.Graph, s: int) -> StateClass:
    """The unique state class of s on a connected graph."""
    if not graphs.is_connected(g):
        raise PreconditionError("state classification needs a connected graph")
    if s == 0:
        return StateClass.ALL_ZERO
    if s == (1 << g.n) - 1:
        return StateClass.ALL_ONE
    zero_pair = one_pair = False
    for i, j in g.edges:
        bi = s >> (i - 1) & 1
        bj = s >> (j - 1) & 1
        if bi == 0 and bj == 0:
            zero_pair = True
        elif bi == 1 and bj == 1:
            one_pair = True
    if not zero_pair and not one_pair:
        return StateClass.PROPER
    if zero_pair and one_pair:
        return StateClass.BOTH_PAIRS
    if zero_pair:
        return StateClass.ZERO_PAIR_ONLY
    return StateClass.ONE_PAIR_ONLY


def is_absorbing_state(g: graphs.Graph, s: int, ops) -> bool:
    """The rule set lies inside the family that freezes the class of s."""
    ops = frozenset(ops)
    if not ops:
        raise ValueError("rule set must be nonempty")
    return ops <= STABLE_FAMILY[classify_state(g, s)]


def _parse(bits: str) -> int:
    return chain.parse_state(bits, len(bits))


def test_classify_state_cases(paw):
    cycle = graphs.make("cycle", 4)
    assert classify_state(cycle, _parse("0000")) is StateClass.ALL_ZERO
    assert classify_state(cycle, _parse("1111")) is StateClass.ALL_ONE
    assert classify_state(cycle, _parse("0101")) is StateClass.PROPER
    assert classify_state(cycle, _parse("0001")) is StateClass.ZERO_PAIR_ONLY
    assert classify_state(cycle, _parse("0111")) is StateClass.ONE_PAIR_ONLY
    assert classify_state(cycle, _parse("1100")) is StateClass.BOTH_PAIRS
    # The paw has no proper two-coloring, so mixed states always expose a pair.
    assert classify_state(paw, _parse("0001")) is StateClass.ZERO_PAIR_ONLY
    assert classify_state(paw, _parse("1011")) is StateClass.ONE_PAIR_ONLY
    assert classify_state(paw, _parse("0011")) is StateClass.BOTH_PAIRS


def test_classify_state_rejects_disconnected():
    g = graphs.Graph(4, ((1, 2), (3, 4)))
    with pytest.raises(PreconditionError):
        classify_state(g, 5)


def test_classify_state_exhaustive_consistency():
    # Recompute each class from edge censuses and compare.
    rng = random.Random(11)
    for _ in range(20):
        g = corpus.random_connected_graph(rng.randrange(2, 8), rng)
        for s in range(1 << g.n):
            zero_pair = one_pair = False
            for i, j in g.edges:
                a = (s >> (i - 1)) & 1
                b = (s >> (j - 1)) & 1
                if a == b:
                    if a:
                        one_pair = True
                    else:
                        zero_pair = True
            if s == 0:
                want = StateClass.ALL_ZERO
            elif s == (1 << g.n) - 1:
                want = StateClass.ALL_ONE
            elif not zero_pair and not one_pair:
                want = StateClass.PROPER
            elif zero_pair and one_pair:
                want = StateClass.BOTH_PAIRS
            elif zero_pair:
                want = StateClass.ZERO_PAIR_ONLY
            else:
                want = StateClass.ONE_PAIR_ONLY
            assert classify_state(g, s) is want


def test_is_absorbing_state_examples(paw, square_1243):
    assert is_absorbing_state(paw, _parse("0000"), {2, 3})
    assert not is_absorbing_state(paw, _parse("1111"), {2})
    assert is_absorbing_state(square_1243, _parse("0110"), {2, 0xB})
    assert is_absorbing_state(square_1243, _parse("1001"), {2, 0xB})
    assert not is_absorbing_state(square_1243, _parse("0000"), {2, 0xB})
    with pytest.raises(ValueError):
        is_absorbing_state(paw, 0, set())


def test_is_absorbing_state_matches_transition_row():
    rng = random.Random(29)
    graph_pool = [
        graphs.parse_edge_list("1 2"),
        graphs.make("line", 3),
        graphs.make("cycle", 3),
        graphs.make("cycle", 4),
        graphs.make("star", 5),
    ]
    for g in graph_pool:
        for _ in range(30):
            size = rng.choice((1, 2))
            ops = tuple(sorted(rng.sample(rules.OPS, size)))
            spec = chain.ChainSpec(g, rules.RuleSet(ops))
            s = rng.randrange(1 << g.n)
            row = chain.transition_row(spec, s)
            assert is_absorbing_state(g, s, ops) == (
                row.targets == ((s, 1.0),)
            )


def test_absorbing_rows_matches_scalar(paw):
    rng = random.Random(41)
    for g in (graphs.make("cycle", 4), paw, graphs.make("star", 5)):
        size = 1 << g.n
        all_states = np.array(
            [[(s >> (i - 1)) & 1 for i in range(1, g.n + 1)] for s in range(size)],
            dtype=np.uint8,
        )
        for _ in range(25):
            ops = frozenset(corpus.random_rule_set(rng))
            mask = absorbing.absorbing_rows(g, ops, all_states)
            assert mask.shape == (size,) and mask.dtype == np.bool_
            for s in range(size):
                assert bool(mask[s]) == is_absorbing_state(g, s, ops)


def test_absorbing_rows_constant_only_sets():
    # Rule sets outside the four edge-pattern families freeze only the
    # constant rows, and the test must not read the edges for them; the
    # edge-family sets still scan the edges and freeze non-constant rows.
    rng = random.Random(43)
    constant_only = (
        {rules.OP_AND, rules.OP_OR},
        {rules.OP_AND},
        {rules.OP_OR},
        {rules.OP_FALSE, rules.OP_XOR},  # inside ZERO_STABLE only
        rules.NEIGHBOR_COPY,
    )
    edge_family = (
        {rules.OP_FIRST},
        {rules.OP_DIFF},
        {rules.OP_DIFF, rules.OP_IMPLIED_BY},
    )
    no_edges = types.SimpleNamespace(edges=None)  # iterating it raises
    for g in (graphs.make("complete", 12), graphs.make("star", 9)):
        full = (1 << g.n) - 1
        # Constant rows, the star's two proper colourings, a lone one, and
        # random rows.
        words = [0, full, 1, full ^ 1, 2] + [rng.randrange(full) for _ in range(200)]
        rows = np.array(
            [[(s >> i) & 1 for i in range(g.n)] for s in words], dtype=np.uint8
        )
        for ops in constant_only + edge_family:
            mask = absorbing.absorbing_rows(g, ops, rows)
            assert mask.tolist() == [
                is_absorbing_state(g, s, ops) for s in words
            ]
            if ops in constant_only:
                assert not mask[2:].any()
                assert (absorbing.absorbing_rows(no_edges, ops, rows) == mask).all()
            elif g.n == 9:  # star(9) has proper colourings, complete(12) none
                assert mask[2:].any()


def test_absorbing_rows_counts_ones_past_255():
    # Rows of 300 nodes: a ones count kept in a byte would read the
    # all-ones row as 44 ones and the 256-ones rows as constant zeros.
    n = 300
    full = (1 << n) - 1
    star_ones = (1 << 257) - 2  # the star's leaves 2..257 hold 1
    words = [0, full, (1 << 256) - 1, star_ones, star_ones | 1]
    rows = np.array([[(s >> i) & 1 for i in range(n)] for s in words], dtype=np.uint8)
    assert rows.sum(axis=1).tolist() == [0, 300, 256, 256, 257]
    rule_sets = (
        {rules.OP_AND, rules.OP_OR},
        {rules.OP_DIFF, rules.OP_FIRST},  # freezes the zero-pair-only rows
        {rules.OP_FIRST, rules.OP_IMPLIED_BY},  # and the one-pair-only rows
    )
    for g in (graphs.make("star", n), graphs.make("cycle", n)):
        for ops in rule_sets:
            mask = absorbing.absorbing_rows(g, ops, rows)
            assert mask.tolist() == [is_absorbing_state(g, s, ops) for s in words]
    # On the star, star_ones is zero-pair-only, and the other mixed rows,
    # whose centre holds 1, are one-pair-only: the edge scan decides them.
    star = graphs.make("star", n)
    assert absorbing.absorbing_rows(star, rule_sets[1], rows).tolist() == [
        True, False, False, True, False
    ]
    assert absorbing.absorbing_rows(star, rule_sets[2], rows).tolist() == [
        False, True, True, False, True
    ]


def test_absorbing_rows_matches_analyze_per_reach_table(paw):
    # absorbing_rows reads only which edge codes move, so one rule set per
    # reach table covers every rule set; analyze builds the chain itself.
    tables = {}
    for mask in range(1, 1 << 16):
        ops = rules.mask_ops(mask)
        tables.setdefault(chain._reach(ops).tobytes(), ops)
    assert len(tables) == 72
    for g in (
        graphs.make("line", 5),
        graphs.make("cycle", 5),
        graphs.make("cycle", 6),
        graphs.make("star", 5),
        graphs.make("complete", 5),
        paw,
    ):
        words = np.arange(1 << g.n)
        all_states = (words[:, None] >> np.arange(g.n) & 1).astype(np.uint8)
        for ops in tables.values():
            want = chain.analyze(chain.ChainSpec(g, rules.RuleSet(tuple(sorted(ops)))))
            got = absorbing.absorbing_rows(g, ops, all_states)
            assert (got == want.absorbing).all(), (g, sorted(ops))


def test_absorbing_rows_rejects_operators_out_of_range():
    g = graphs.make("cycle", 4)
    rows = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1]], dtype=np.uint8)
    for ops in ({16}, {-1}, {1, 7, 99}):
        with pytest.raises(ValueError, match="out of range"):
            absorbing.absorbing_rows(g, ops, rows)
    with pytest.raises(ValueError, match="nonempty"):
        absorbing.absorbing_rows(g, set(), rows)


def test_absorbing_set_closed_form_small_graphs():
    # analyze() and the stability-family predicate must name the same states.
    rng = random.Random(59)
    for _ in range(200):
        g = corpus.random_connected_graph(rng.randrange(2, 7), rng)
        ops = tuple(sorted(corpus.random_rule_set(rng)))
        analysis = chain.analyze(chain.ChainSpec(g, rules.RuleSet(ops)))
        expected = {
            s
            for s in range(1 << g.n)
            if is_absorbing_state(g, s, ops)
        }
        assert analysis.absorbing_states == expected


def test_oracle_parity_branch():
    bipartite = [
        graphs.make("line", 4),
        graphs.make("cycle", 4),
        graphs.make("cycle", 6),
        graphs.make("star", 5),
    ]
    odd = [
        graphs.make("cycle", 3),
        graphs.make("cycle", 5),
        graphs.parse_edge_list("1 2\n2 3\n2 4\n3 4"),
        graphs.make("complete", 4),
    ]
    for fam in rules.PARITY_FAMILIES:
        for g in bipartite:
            assert absorbing.is_absorbing_chain_oracle(g, frozenset(fam))
        for g in odd:
            assert not absorbing.is_absorbing_chain_oracle(g, frozenset(fam))


def test_oracle_neighbor_copy_exception():
    # Ops that always adopt the neighbour's value can only swap an unequal
    # edge, so a lone dissenter circulates forever and consensus never comes.
    line4 = graphs.make("line", 4)
    for ops in ({0x4}, {0x5}, {0x4, 0x5}, {0xD}, {0x5, 0xD}):
        assert not absorbing.is_absorbing_chain_oracle(line4, frozenset(ops))
        brute = chain.analyze(chain.ChainSpec(line4, rules.RuleSet(tuple(sorted(ops)))))
        assert not brute.is_absorbing_chain
    # {4, D} covers both stable sides, so it escapes the stability branch
    # anyway; the carve-out changes nothing there.
    assert not absorbing.is_absorbing_chain_oracle(line4, frozenset({0x4, 0xD}))


def test_oracle_stability_branch():
    g = graphs.make("cycle", 5)
    assert absorbing.is_absorbing_chain_oracle(g, frozenset({1, 7}))
    assert absorbing.is_absorbing_chain_oracle(g, frozenset({0}))
    assert absorbing.is_absorbing_chain_oracle(g, frozenset({0xF}))
    assert absorbing.is_absorbing_chain_oracle(g, frozenset({1, 3, 5}))
    # NAND-style sets stabilize neither consensus.
    assert not absorbing.is_absorbing_chain_oracle(g, frozenset({0x8}))
    assert not absorbing.is_absorbing_chain_oracle(g, frozenset({0xC}))
    assert not absorbing.is_absorbing_chain_oracle(g, frozenset({1, 0xE}))


def test_oracle_rejections():
    g = graphs.make("cycle", 4)
    with pytest.raises(ValueError):
        absorbing.is_absorbing_chain_oracle(g, frozenset())
    split = graphs.Graph(4, ((1, 2), (3, 4)))
    with pytest.raises(PreconditionError):
        absorbing.is_absorbing_chain_oracle(split, frozenset({1, 7}))


def test_oracle_parity_lookup_matches_predicate():
    # By brute force: the rule sets whose verdict differs between an odd and
    # an even cycle are exactly the parity families the oracle looks up.
    odd = chain.sweep_absorbing_verdicts(graphs.make("cycle", 3))
    even = chain.sweep_absorbing_verdicts(graphs.make("cycle", 4))
    differ = np.flatnonzero(odd[1:] != even[1:]) + 1
    assert {rules.mask_ops(int(mask)) for mask in differ} == rules.PARITY_FAMILIES


def test_oracle_runs_graph_bfs_once(monkeypatch):
    calls = []
    walk = graphs.Graph._bfs.func

    def counted(g):
        calls.append(g)
        return walk(g)

    bfs = functools.cached_property(counted)
    bfs.__set_name__(graphs.Graph, "_bfs")
    monkeypatch.setattr(graphs.Graph, "_bfs", bfs)
    g = graphs.make("cycle", 7)
    verdicts = [
        absorbing.is_absorbing_chain_oracle(g, rules.mask_ops(mask))
        for mask in range(1, 1 << 16)
    ]
    assert calls == [g]
    assert sum(verdicts) > 0
    split = graphs.Graph(4, ((1, 2), (3, 4)))
    for _ in range(2):
        with pytest.raises(PreconditionError):
            absorbing.is_absorbing_chain_oracle(split, frozenset({1, 7}))
    assert calls == [g, split]


def test_oracle_reason_branch_matches_oracle():
    # The branch the CLI words must give the oracle's verdict on every rule
    # set, on an odd and an even cycle (the parity families tell them apart).
    for g in (graphs.make("cycle", 3), graphs.make("cycle", 4)):
        reasons = set()
        for mask in range(1, 1 << 16):
            ops = rules.mask_ops(mask)
            verdict, reason = absorbing.oracle_reason(g, ops)
            assert verdict == absorbing.is_absorbing_chain_oracle(g, ops), mask
            reasons.add(reason)
        assert len(reasons) == 6


def test_oracle_reason_refuses_what_the_oracle_refuses():
    # No verdict for a disconnected graph, an empty rule set, or an operator
    # outside 0..15: none of them is a question the oracle answers.
    split = graphs.Graph(4, ((1, 2), (3, 4)))
    with pytest.raises(PreconditionError, match="connected"):
        absorbing.oracle_reason(split, {1, 7})
    g = graphs.make("cycle", 4)
    with pytest.raises(ValueError, match="nonempty"):
        absorbing.oracle_reason(g, set())
    with pytest.raises(ValueError, match="out of range"):
        absorbing.oracle_reason(g, {16})


def _same_verdict(g1, g2, ops):
    ruleset = rules.RuleSet(tuple(sorted(ops)))
    a1 = chain.analyze(chain.ChainSpec(g1, ruleset))
    a2 = chain.analyze(chain.ChainSpec(g2, ruleset))
    return a1.is_absorbing_chain == a2.is_absorbing_chain


def test_graph_independence_checker():
    # Non-parity rule sets get one verdict regardless of the graph, so a
    # star and a triangle must agree; a parity family tells them apart.
    star = graphs.make("star", 5)
    tri = graphs.make("cycle", 3)
    assert _same_verdict(star, tri, frozenset({1, 7}))
    assert _same_verdict(star, tri, frozenset({0x8}))
    assert _same_verdict(star, tri, frozenset({0x4}))
    assert not _same_verdict(star, tri, frozenset({0x2, 0xA}))


def test_graph_independence_random_nonparity():
    rng = random.Random(71)
    checked = 0
    while checked < 25:
        ops = frozenset(corpus.random_rule_set(rng))
        if rules.is_parity_family(ops):
            continue
        g1 = corpus.random_connected_graph(rng.randrange(2, 7), rng)
        g2 = corpus.random_connected_graph(rng.randrange(2, 7), rng)
        assert _same_verdict(g1, g2, ops)
        checked += 1
