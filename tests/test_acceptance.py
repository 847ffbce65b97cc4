"""Numbered acceptance gate; conftest prints one line per criterion.

Each test_c<N>_* function belongs to criterion N. Advisory checks are
test_advisory_* and never fail the run.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np
import pytest

import corpus
from boolgossip import absorbing, andor, chain, graphs, meanfield, rules, simulate

_C1_ELAPSED: dict[str, float] = {}


def _brute_chi(g: graphs.Graph) -> int:
    return chain.analyze(chain.ChainSpec(g, rules.RuleSet((1, 7)))).class_count


def _chi_group(name: str, graph_list, expected) -> None:
    t0 = time.perf_counter()
    for g, want in zip(graph_list, expected):
        predicted = andor.predict_chi(g)
        assert predicted == want
        assert _brute_chi(g) == predicted
    _C1_ELAPSED[name] = time.perf_counter() - t0


def test_c1_lines():
    ns = range(2, 13)
    _chi_group(
        "lines", [graphs.make("line", n) for n in ns], [2 * n for n in ns]
    )


def test_c1_cycles():
    ns = range(3, 15)
    _chi_group(
        "cycles",
        [graphs.make("cycle", n) for n in ns],
        [n // 2 + (3 if n % 2 == 0 else 2) for n in ns],
    )


def test_c1_stars():
    ns = range(4, 9)
    _chi_group("stars", [graphs.make("star", n) for n in ns], [5] * len(ns))


def test_c1_random_trees():
    rng = random.Random(1001)
    pool = [corpus.random_nonline_tree(rng.randrange(4, 11), rng) for _ in range(25)]
    _chi_group("trees", pool, [5] * 25)


def test_c1_random_bipartite():
    rng = random.Random(1002)
    pool = []
    while len(pool) < 25:
        g = corpus.random_bipartite_nontree(rng.randrange(4, 11), rng)
        # A cycle graph is bipartite and non-tree but has its own count;
        # the chi=5 claim covers the remaining shapes.
        if graphs.classify_shape(g) is graphs.ShapeTag.GENERAL_BIPARTITE:
            pool.append(g)
    _chi_group("bipartite", pool, [5] * 25)


def test_c1_random_odd_cycles():
    rng = random.Random(1003)
    pool = []
    while len(pool) < 25:
        g = corpus.random_odd_cycle_graph(rng.randrange(4, 11), rng)
        if graphs.classify_shape(g) is graphs.ShapeTag.GENERAL_ODD:
            pool.append(g)
    _chi_group("odd", pool, [3] * 25)


def test_c1_total_runtime():
    assert set(_C1_ELAPSED) == {
        "lines",
        "cycles",
        "stars",
        "trees",
        "bipartite",
        "odd",
    }
    assert sum(_C1_ELAPSED.values()) < 120.0


def test_c2_worked_examples(paw):
    four_cycle = graphs.make("cycle", 4)
    assert andor.predict_chi(four_cycle) == 5
    assert _brute_chi(four_cycle) == 5
    assert andor.predict_chi(paw) == 3
    assert _brute_chi(paw) == 3


def test_c3_exhaustive_rule_sweep(paw):
    pool = [
        graphs.parse_edge_list("1 2"),
        graphs.make("line", 3),
        graphs.make("cycle", 3),
        graphs.make("cycle", 4),
        paw,
        graphs.make("star", 4),
    ]
    t0 = time.perf_counter()
    mismatches = 0
    for g in pool:
        brute = chain.sweep_absorbing_verdicts(g)
        for mask in range(1, 1 << 16):
            oracle = absorbing.is_absorbing_chain_oracle(g, rules.mask_ops(mask))
            if oracle != bool(brute[mask]):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 300.0


def test_c4_parity_census(paw):
    found = {
        frozenset(rules.mask_ops(mask))
        for mask in range(1, 1 << 16)
        if rules.is_parity_family(rules.mask_ops(mask))
    }
    assert len(found) == 9
    assert found == set(rules.PARITY_FAMILIES)
    bipartite = [
        graphs.make("line", 4),
        graphs.make("cycle", 4),
        graphs.make("cycle", 6),
        graphs.make("star", 5),
    ]
    odd = [
        graphs.make("cycle", 3),
        graphs.make("cycle", 5),
        paw,
        graphs.make("complete", 4),
    ]
    for fam in found:
        ruleset = rules.RuleSet(tuple(sorted(fam)))
        for g in bipartite:
            assert absorbing.is_absorbing_chain_oracle(g, fam)
            assert chain.analyze(chain.ChainSpec(g, ruleset)).is_absorbing_chain
        for g in odd:
            assert not absorbing.is_absorbing_chain_oracle(g, fam)
            assert not chain.analyze(chain.ChainSpec(g, ruleset)).is_absorbing_chain


def test_c5_absorbing_state_sets(paw, square_1243):
    def words(*bits):
        return {chain.parse_state(b, 4) for b in bits}

    paw_set = chain.analyze(
        chain.ChainSpec(paw, rules.RuleSet((0x2, 0x3)))
    ).absorbing_states
    assert paw_set == words(
        "0000", "1010", "1001", "1000", "0100", "0010", "0001"
    )
    square_analysis = chain.analyze(
        chain.ChainSpec(square_1243, rules.RuleSet((0x2, 0xB)))
    )
    assert square_analysis.absorbing_states == words("1001", "0110")
    paw_2b = chain.analyze(chain.ChainSpec(paw, rules.RuleSet((0x2, 0xB))))
    assert not paw_2b.is_absorbing_chain
    assert not absorbing.is_absorbing_chain_oracle(paw, frozenset({0x2, 0xB}))


def _and_or_spec(g: graphs.Graph, p_star: Fraction) -> chain.ChainSpec:
    return chain.ChainSpec(g, rules.RuleSet((1, 7), (1 - p_star, p_star)))


def test_c6_solver_row_sums():
    spec = _and_or_spec(graphs.make("cycle", 4), Fraction(3, 10))
    full = 15
    for start in range(1, full):
        dist = chain.absorption_probabilities(spec, start)
        assert set(dist) == {0, full}
        assert abs(sum(dist.values()) - 1.0) <= 1e-9


def test_c6_monte_carlo_matches_solver():
    spec = _and_or_spec(graphs.make("cycle", 4), Fraction(3, 10))
    full = 15
    rounds = 100_000
    for start in range(1, full):
        exact = chain.absorption_probabilities(spec, start)
        result = simulate.run(
            simulate.SimConfig(spec, 400, rounds, seed=600 + start, start=start)
        )
        for word in (0, full):
            estimate = result.absorption_counts.get(word, 0) / rounds
            assert abs(estimate - exact[word]) <= 0.01


def test_c6_single_edge_value():
    spec = _and_or_spec(graphs.parse_edge_list("1 2"), Fraction(3, 10))
    dist = chain.absorption_probabilities(spec, chain.parse_state("01", 2))
    assert abs(dist[3] - 9 / 58) <= 1e-9
    dist = chain.absorption_probabilities(spec, chain.parse_state("10", 2))
    assert abs(dist[3] - 9 / 58) <= 1e-9


def test_c7_density_gap_complete_200():
    g = graphs.make("complete", 200)
    for p_star in (Fraction(49, 100), Fraction(51, 100)):
        spec = _and_or_spec(g, p_star)
        config = simulate.SimConfig(
            spec, horizon=40 * 200, rounds=500, seed=700, delta0=0.5
        )
        result = simulate.run(config)
        params = meanfield.MeanFieldParams(200, float(p_star), 0.5)
        predicted = meanfield.closed_form(
            params, np.array(result.density_mean.steps)
        )
        gap = float(
            np.max(np.abs(np.array(result.density_mean.density) - predicted))
        )
        assert gap <= 0.05


@pytest.mark.xfail(strict=False, reason="advisory tolerance, not a gate")
def test_advisory_regular_graph_density():
    g = graphs.make("regular", 200, seed=81, d=100)
    spec = _and_or_spec(g, Fraction(49, 100))
    config = simulate.SimConfig(
        spec, horizon=40 * 200, rounds=500, seed=701, delta0=0.5
    )
    result = simulate.run(config)
    params = meanfield.MeanFieldParams(200, 0.49, 0.5)
    predicted = meanfield.closed_form(params, np.array(result.density_mean.steps))
    gap = float(np.max(np.abs(np.array(result.density_mean.density) - predicted)))
    assert gap <= 0.08


def _is_subsequence(short, long) -> bool:
    it = iter(long)
    return all(any(d == x for x in it) for d in short)


def test_c8_line_reduction_subsequence():
    rng = random.Random(801)
    ops = (rules.OP_AND, rules.OP_OR)
    for _ in range(10_000):
        n = rng.randrange(2, 17)
        s = rng.randrange(1 << n)
        i = rng.randrange(1, n)
        before = andor.line_reduce(s, n).digits
        t = chain.step_pair(s, (i, i + 1), rng.choice(ops), rng.choice(ops))
        after = andor.line_reduce(t, n).digits
        assert _is_subsequence(after, before), (n, s, i)


def test_c8_cycle_reduction_parity_monotone():
    rng = random.Random(802)
    ops = (rules.OP_AND, rules.OP_OR)
    cycles = {n: graphs.make("cycle", n) for n in range(3, 17)}
    for _ in range(10_000):
        n = rng.randrange(3, 17)
        s = rng.randrange(1 << n)
        edge = cycles[n].edges[rng.randrange(n)]
        before = andor.cycle_reduce(s, n)
        assert len(before) == 1 or len(before) % 2 == 0
        t = chain.step_pair(s, edge, rng.choice(ops), rng.choice(ops))
        after = andor.cycle_reduce(t, n)
        assert len(after) == 1 or len(after) % 2 == 0
        assert len(after) <= len(before), (n, s, edge)


def test_c8_star_partition_matches_brute():
    for n in range(4, 9):
        g = graphs.make("star", n)
        predicted = set(andor.predict_classes(g).classes)
        brute = {
            frozenset(c)
            for c in chain.analyze(chain.ChainSpec(g, rules.RuleSet((1, 7)))).classes()
        }
        assert predicted == brute


def test_c9_support_invariance():
    rng = random.Random(901)
    for _ in range(50):
        g = corpus.random_connected_graph(rng.randrange(2, 9), rng)
        ops = tuple(sorted(corpus.random_rule_set(rng)))
        analyses = []
        for _ in range(2):
            probs = corpus.random_probs(len(ops), rng)
            weights = corpus.random_probs(len(g.edges), rng)
            spec = chain.ChainSpec(g, rules.RuleSet(ops, probs), weights)
            analyses.append(chain.analyze(spec))
        a, b = analyses
        assert (a.class_of == b.class_of).all()
        assert a.class_count == b.class_count
        assert (a.absorbing == b.absorbing).all()
        assert (a.transient == b.transient).all()
        assert a.is_absorbing_chain == b.is_absorbing_chain
