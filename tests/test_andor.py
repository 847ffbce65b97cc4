"""Closed-form class structure of the AND/OR chain versus brute force."""

from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction

import pytest

import corpus
from boolgossip import andor, chain, errors, graphs, rules
from boolgossip.andor import ReducedState
from boolgossip.errors import CapacityError, PreconditionError


def _parse(bits: str) -> int:
    return chain.parse_state(bits, len(bits))


def _brute_partition(g: graphs.Graph) -> set[frozenset[int]]:
    analysis = chain.analyze(chain.ChainSpec(g, rules.RuleSet((1, 7))))
    return {frozenset(c) for c in analysis.classes()}


def test_reduced_state_validation():
    assert str(ReducedState((0, 1, 0))) == "010"
    assert len(ReducedState((0,))) == 1
    with pytest.raises(ValueError):
        ReducedState(())
    with pytest.raises(ValueError):
        ReducedState((0, 2))
    with pytest.raises(ValueError):
        ReducedState((0, 0, 1))
    with pytest.raises(ValueError):
        ReducedState((0, 1, 0), cyclic=True)  # cyclic ends must differ
    assert ReducedState((0, 1), cyclic=True).digits == (0, 1)
    assert ReducedState((1,), cyclic=True).digits == (1,)


def test_line_reduce():
    assert andor.line_reduce(_parse("00110"), 5).digits == (0, 1, 0)
    assert andor.line_reduce(0, 4).digits == (0,)
    assert andor.line_reduce(15, 4).digits == (1,)
    assert andor.line_reduce(_parse("0101"), 4).digits == (0, 1, 0, 1)
    with pytest.raises(ValueError):
        andor.line_reduce(16, 4)


def test_line_reduce_idempotent():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randrange(1, 14)
        s = rng.randrange(1 << n)
        digits = andor.line_reduce(s, n).digits
        packed = sum(d << i for i, d in enumerate(digits))
        assert andor.line_reduce(packed, len(digits)).digits == digits


def test_cycle_reduce():
    assert andor.cycle_reduce(_parse("0110"), 4).digits == (0, 1)
    assert andor.cycle_reduce(_parse("0101"), 4).digits == (0, 1, 0, 1)
    assert andor.cycle_reduce(_parse("0011"), 4).digits == (0, 1)
    assert andor.cycle_reduce(0, 6).digits == (0,)
    assert andor.cycle_reduce(63, 6).digits == (1,)


def test_cycle_reduce_length_counts_unequal_edges():
    rng = random.Random(23)
    for n in (3, 4, 5, 8, 11):
        g = graphs.make("cycle", n)
        for _ in range(60):
            s = rng.randrange(1 << n)
            unequal = sum(
                1
                for i, j in g.edges
                if (s >> (i - 1) & 1) != (s >> (j - 1) & 1)
            )
            reduced = andor.cycle_reduce(s, n)
            assert len(reduced) == max(unequal, 1)
            assert len(reduced) == 1 or len(reduced) % 2 == 0


def test_predict_chi_closed_forms():
    for n in range(2, 13):
        assert andor.predict_chi(graphs.make("line", n)) == 2 * n
    for n in range(3, 15):
        expected = n // 2 + (3 if n % 2 == 0 else 2)
        assert andor.predict_chi(graphs.make("cycle", n)) == expected
    assert andor.predict_chi(graphs.make("star", 6)) == 5
    assert andor.predict_chi(graphs.make("complete", 4)) == 3
    paw = graphs.parse_edge_list("1 2\n2 3\n2 4\n3 4")
    assert andor.predict_chi(paw) == 3
    spider = graphs.parse_edge_list("1 2\n2 3\n2 4\n4 5\n4 6")
    assert andor.predict_chi(spider) == 5
    with pytest.raises(PreconditionError):
        andor.predict_chi(graphs.Graph(4, ((1, 2), (3, 4))))


def test_predict_classes_is_a_partition():
    for g in (
        graphs.make("line", 5),
        graphs.make("cycle", 6),
        graphs.make("star", 5),
        graphs.make("complete", 4),
    ):
        pred = andor.predict_classes(g)
        assert pred.chi == len(pred.classes) == len(pred.labels)
        assert pred.chi == andor.predict_chi(g)
        seen: set[int] = set()
        for cls in pred.classes:
            assert cls and not (cls & seen)
            seen |= cls
        assert seen == set(range(1 << g.n))


def test_predict_classes_matches_brute_force():
    rng = random.Random(37)
    pool = [
        graphs.make("line", 2),
        graphs.make("line", 5),
        graphs.make("cycle", 5),
        graphs.make("cycle", 6),
        graphs.make("star", 5),
        graphs.parse_edge_list("1 2\n2 3\n2 4\n3 4"),
        corpus.random_nonline_tree(7, rng),
        corpus.random_odd_cycle_graph(6, rng),
    ]
    for g in pool:
        pred = andor.predict_classes(g)
        assert set(pred.classes) == _brute_partition(g)


def test_predict_classes_labels_and_order():
    rng = random.Random(41)
    for n in range(2, 9):
        # Node v of the path 1..n is relabelled perm[v - 1], so the path
        # order differs from the label order; walk it from the lower end.
        perm = rng.sample(range(1, n + 1), n)
        g = graphs.Graph(n, tuple((perm[v - 1], perm[v]) for v in range(1, n)))
        order = perm if perm[0] < perm[-1] else perm[::-1]
        pred = andor.predict_classes(g)
        assert pred.chi == len(pred.labels) == 2 * n
        digits = [label.removeprefix("reduction ") for label in pred.labels]
        assert digits == sorted(digits, key=lambda d: (len(d), d))
        for label, members in zip(pred.labels, pred.classes):
            for s in members:
                walked = sum((s >> (v - 1) & 1) << idx for idx, v in enumerate(order))
                assert label == f"reduction {andor.line_reduce(walked, n)}"
        assert sum(map(len, pred.classes)) == 1 << n
    for n in range(3, 10):
        g = graphs.make("cycle", n)
        pred = andor.predict_classes(g)
        alternating = ["alternating", "alternating complement"] if n % 2 == 0 else []
        unequal = [f"{d} unequal edges" for d in range(2, n, 2)]
        assert list(pred.labels) == ["all-zeros", "all-ones"] + alternating + unequal
        for label, members in zip(pred.labels, pred.classes):
            if label.endswith("unequal edges"):
                d = int(label.split()[0])
                for s in members:
                    assert sum((s >> (i - 1) ^ s >> (j - 1)) & 1 for i, j in g.edges) == d
    theta = graphs.parse_edge_list("1 2\n2 3\n3 4\n4 1\n2 5\n5 4")
    assert andor.predict_classes(theta).labels == (
        "all-zeros",
        "all-ones",
        "coloring",
        "coloring complement",
        "mixed",
    )
    paw = graphs.parse_edge_list("1 2\n2 3\n2 4\n3 4")
    assert andor.predict_classes(paw).labels == ("all-zeros", "all-ones", "mixed")


def test_predict_classes_star_fibers():
    pred = andor.predict_classes(graphs.make("star", 4))
    by_label = dict(zip(pred.labels, pred.classes))
    assert by_label["all-zeros"] == {_parse("0000")}
    assert by_label["all-ones"] == {_parse("1111")}
    assert by_label["coloring"] == {_parse("0111")}
    assert by_label["coloring complement"] == {_parse("1000")}
    assert len(by_label["mixed"]) == 12


def test_predict_classes_line2_singletons():
    pred = andor.predict_classes(graphs.make("line", 2))
    assert pred.chi == 4
    assert all(len(c) == 1 for c in pred.classes)


def test_predict_classes_cap():
    # The largest partitions under the 2 GiB budget are line(22), cycle(22)
    # and complete(23); one node more is refused at once.
    for kind, n in (("line", 23), ("cycle", 23), ("complete", 24)):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="over the budget of 2 GiB"):
            andor.predict_classes(graphs.make(kind, n))
        assert time.perf_counter() - start < 0.1


def test_predict_classes_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(errors, "BUDGET_BYTES", 1 << 20)
    for kind in ("line", "cycle", "star", "complete"):
        g = graphs.make(kind, 14)
        tracemalloc.start()
        with pytest.raises(CapacityError, match="over the budget"):
            andor.predict_classes(g)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 1 << 16


def test_predict_classes_budget_is_checked_against_the_estimate(monkeypatch):
    # line(10): 2^10 states, 16 B for each of its 9 edges and 144 B each.
    need = (1 << 10) * (16 * 9 + 144)
    monkeypatch.setattr(errors, "BUDGET_BYTES", need)
    assert andor.predict_classes(graphs.make("line", 10)).chi == 20
    monkeypatch.setattr(errors, "BUDGET_BYTES", need - 1)
    with pytest.raises(CapacityError):
        andor.predict_classes(graphs.make("line", 10))


def test_predict_classes_estimate_bounds_its_peak():
    # With the budget set to the traced peak of a partition, the same graph
    # is refused: the estimate is an upper bound on every shape.
    for kind, n in (
        ("line", 10),
        ("line", 15),
        ("cycle", 14),
        ("star", 14),
        ("complete", 15),
    ):
        g = graphs.make(kind, n)
        tracemalloc.start()
        andor.predict_classes(g)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(errors, "BUDGET_BYTES", peak)
            with pytest.raises(CapacityError, match="budget"):
                andor.predict_classes(g)


def test_consensus_probability_preconditions():
    g = graphs.make("cycle", 4)
    with pytest.raises(PreconditionError):
        andor.consensus_probability(
            chain.ChainSpec(g, rules.RuleSet((1,))), _parse("0101")
        )
    spec = chain.ChainSpec(g, rules.RuleSet((1, 7)))
    with pytest.raises(PreconditionError):
        andor.consensus_probability(spec, 0)
    with pytest.raises(PreconditionError):
        andor.consensus_probability(spec, 15)


def test_consensus_probability_single_edge():
    g = graphs.parse_edge_list("1 2")
    spec = chain.ChainSpec(
        g, rules.RuleSet((1, 7), (Fraction(7, 10), Fraction(3, 10)))
    )
    p = andor.consensus_probability(spec, _parse("01"))
    assert abs(p - 9 / 58) <= 1e-9


def test_consensus_probability_symmetry():
    # With p = 1/2 a self-complementary start must split evenly.
    spec = chain.ChainSpec(graphs.make("cycle", 4), rules.RuleSet((1, 7)))
    p = andor.consensus_probability(spec, _parse("0101"))
    assert abs(p - 0.5) <= 1e-9
