"""State encoding, pair updates, chain structure, and the absorption solver."""

from __future__ import annotations

import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

import corpus
from boolgossip import absorbing, andor, chain, errors, graphs, rules
from boolgossip.errors import CapacityError, ParseError, PreconditionError, SolverError


def test_state_round_trip():
    assert chain.parse_state("100", 3) == 1
    assert chain.format_state(1, 3) == "100"
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 12)
        s = rng.randrange(1 << n)
        assert chain.parse_state(chain.format_state(s, n), n) == s
    with pytest.raises(ParseError):
        chain.parse_state("102", 3)
    with pytest.raises(ParseError):
        chain.parse_state("10", 3)
    with pytest.raises(ValueError):
        chain.format_state(8, 3)


def test_step_pair_basics():
    s01 = chain.parse_state("01", 2)
    assert chain.step_pair(s01, (1, 2), rules.OP_FIRST, rules.OP_FIRST) == s01
    assert chain.step_pair(s01, (1, 2), rules.OP_OR, rules.OP_OR) == chain.parse_state(
        "11", 2
    )
    assert chain.step_pair(s01, (1, 2), rules.OP_AND, rules.OP_AND) == 0
    s11 = chain.parse_state("11", 2)
    assert chain.step_pair(s11, (1, 2), rules.OP_XOR, rules.OP_XOR) == 0
    with pytest.raises(ValueError):
        chain.step_pair(0, (2, 1), 1, 1)


def test_step_pair_void_rule():
    # Differing draws that would flip both endpoints leave the state alone.
    s01 = chain.parse_state("01", 2)
    assert chain.step_pair(s01, (1, 2), rules.OP_OR, rules.OP_AND) == s01
    # The same two flips through a single operator are allowed.
    swap = chain.step_pair(s01, (1, 2), 0x4, 0x4)
    assert swap == chain.parse_state("10", 2)
    # And a differing pair where only one side flips is allowed.
    assert chain.step_pair(s01, (1, 2), rules.OP_AND, rules.OP_OR) == s01
    assert chain.step_pair(
        s01, (1, 2), rules.OP_OR, rules.OP_FIRST
    ) == chain.parse_state("11", 2)


def test_pair_step_is_symmetric_in_its_endpoints():
    # chain._moves gives a node one flip column whichever end of an edge it
    # sits at, which holds because swapping the two draws and the two code
    # bits swaps the outcome's code bits.
    def swap(c):
        return (c & 1) << 1 | c >> 1

    for k in range(16):
        for l in range(16):
            for c in range(4):
                assert chain._PAIR_STEP[k, l, swap(c)] == swap(chain._PAIR_STEP[l, k, c])


def test_reach_matches_step_pair_for_every_mask():
    # The reference ORs, for each draw pair (k, l) and edge code c, the move
    # step_pair makes into every mask holding both k and l.
    masks = np.arange(1 << 16)
    expected = np.zeros((1 << 16, 4, 4), dtype=bool)
    for k in range(16):
        for l in range(16):
            both = (masks >> k & 1) & (masks >> l & 1) == 1
            for c in range(4):
                t = chain.step_pair(c, (1, 2), k, l)
                if t != c:
                    expected[both, c, t] = True
    got = np.stack([chain._reach(rules.mask_ops(mask)) for mask in range(1, 1 << 16)])
    differ = np.flatnonzero((got != expected[1:]).any(axis=(1, 2))) + 1
    assert differ.size == 0, f"{differ.size} masks differ, first {differ[:5].tolist()}"
    assert len(np.unique(got.reshape(-1, 16), axis=0)) == 72


def test_step_pair_touches_only_edge_bits():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(2, 10)
        s = rng.randrange(1 << n)
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        t = chain.step_pair(s, (i, j), rng.randrange(16), rng.randrange(16))
        mask = (1 << (i - 1)) | (1 << (j - 1))
        assert (s & ~mask) == (t & ~mask)


def test_chain_spec_validation():
    g = graphs.make("line", 3)
    with pytest.raises(PreconditionError):
        chain.ChainSpec(graphs.Graph(4, ((1, 2), (3, 4))), rules.RuleSet((1, 7)))
    with pytest.raises(ValueError):
        chain.ChainSpec(g, rules.RuleSet((1, 7)), (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        chain.ChainSpec(g, rules.RuleSet((1, 7)), (0.9, 0.3))
    spec = chain.ChainSpec(g, rules.RuleSet((1, 7)))
    assert spec.edge_weights == (Fraction(1, 2), Fraction(1, 2))


def test_transition_row_single_edge_hand_case():
    g = graphs.parse_edge_list("1 2")
    spec = chain.ChainSpec(g, rules.RuleSet((rules.OP_AND, rules.OP_OR), (0.7, 0.3)))
    row = chain.transition_row(spec, chain.parse_state("01", 2))
    # (AND,AND) -> 00; (OR,OR) -> 11; the two mixed draws keep 01 (one is
    # the identity, the other is voided).
    assert row.targets == (
        (chain.parse_state("00", 2), 0.49),
        (chain.parse_state("01", 2), 0.42),
        (chain.parse_state("11", 2), 0.09),
    )


def test_transition_row_identity_cases():
    g = graphs.make("cycle", 4)
    spec = chain.ChainSpec(g, rules.RuleSet((1, 7)))
    assert chain.transition_row(spec, 0).targets == ((0, 1.0),)
    lazy = chain.ChainSpec(g, rules.RuleSet((rules.OP_FIRST,)))
    for s in (0, 5, 9, 15):
        assert chain.transition_row(lazy, s).targets == ((s, 1.0),)


def test_transition_row_pure_and():
    g = graphs.parse_edge_list("1 2")
    spec = chain.ChainSpec(g, rules.RuleSet((rules.OP_AND,)))
    row = chain.transition_row(spec, chain.parse_state("01", 2))
    assert row.targets == ((0, 1.0),)


def test_row_stochasticity_random_specs():
    rng = random.Random(77)
    for _ in range(40):
        g = corpus.random_connected_graph(rng.randrange(2, 7), rng)
        ops = tuple(sorted(corpus.random_rule_set(rng)))
        probs = corpus.random_probs(len(ops), rng)
        weights = corpus.random_probs(len(g.edges), rng)
        spec = chain.ChainSpec(g, rules.RuleSet(ops, probs), weights)
        for _ in range(5):
            s = rng.randrange(1 << g.n)
            row = chain.transition_row(spec, s)
            total = math.fsum(p for _, p in row.targets)
            assert abs(total - 1.0) <= 1e-12
            assert all(p > 0 for _, p in row.targets)
            assert [t for t, _ in row.targets] == sorted(t for t, _ in row.targets)


def _reference_row_targets(spec, s):
    # The per-state accumulation loop transition_row used before the
    # per-spec table, summing Fractions of the exact values it reads; new
    # rows must equal it exactly.
    weights = tuple(map(chain._exact_value, spec.edge_weights))
    probs = tuple(map(chain._exact_value, spec.rules.probs))
    acc: dict[int, Fraction] = {}
    for w, edge in zip(weights, spec.graph.edges):
        for k, pk in zip(spec.rules.ops, probs):
            wk = w * pk
            for l, pl in zip(spec.rules.ops, probs):
                t = chain.step_pair(s, edge, k, l)
                acc[t] = acc.get(t, 0) + wk * pl
    return tuple((t, float(p)) for t, p in sorted(acc.items()))


def test_transition_row_matches_reference_accumulation():
    rng = random.Random(404)
    specs = []
    for _ in range(30):
        g = corpus.random_connected_graph(rng.randrange(2, 7), rng)
        ops = tuple(sorted(corpus.random_rule_set(rng)))
        # Random floats do not lift to small fractions: their exact values.
        specs.append(
            chain.ChainSpec(
                g,
                rules.RuleSet(ops, corpus.random_probs(len(ops), rng)),
                corpus.random_probs(len(g.edges), rng),
            )
        )
        # Uniform Fractions: the exact path.
        specs.append(chain.ChainSpec(g, rules.RuleSet(ops)))
    # Decimal floats that lift exactly.
    specs.append(
        chain.ChainSpec(graphs.make("cycle", 5), rules.RuleSet((1, 7), (0.7, 0.3)))
    )
    # A common denominator far beyond 2^53.
    g = graphs.make("complete", 4)
    head = (Fraction(1, 999983), Fraction(1, 999979))
    weights = head + ((1 - sum(head)) / 4,) * 4
    p1, p2 = Fraction(1, 1000003), Fraction(2, 999961)
    probs = (p1, p2, 1 - p1 - p2)
    denom = math.lcm(*(w.denominator for w in weights)) * math.lcm(
        *(p.denominator for p in probs)
    ) ** 2
    assert denom > 2**53
    specs.append(chain.ChainSpec(g, rules.RuleSet((1, 7, 2), probs), weights))
    for spec in specs:
        for s in range(1 << spec.graph.n):
            row = chain.transition_row(spec, s)
            assert row.targets == _reference_row_targets(spec, s)


def test_float_values_give_the_rows_of_their_exact_fractions():
    # A float that no small fraction rounds back to is taken at its exact
    # binary value: the spec gives the rows and absorption probabilities,
    # equal by ==, of the spec built from Fraction(v) of each value.
    rng = random.Random(505)
    pairs = []
    for _ in range(12):
        g = corpus.random_connected_graph(rng.randrange(2, 7), rng)
        # AND and OR with any of the two projections: an absorbing chain.
        extra = rng.sample((rules.OP_FIRST, 0x5), rng.randrange(3))
        ops = tuple(sorted({rules.OP_AND, rules.OP_OR, *extra}))
        probs = corpus.random_probs(len(ops), rng)
        weights = corpus.random_probs(len(g.edges), rng)
        fractions = (tuple(map(Fraction, probs)), tuple(map(Fraction, weights)))
        pairs.append(
            (
                chain.ChainSpec(g, rules.RuleSet(ops, probs), weights),
                chain.ChainSpec(g, rules.RuleSet(ops, fractions[0]), fractions[1]),
            )
        )
    # A decimal that lifts (0.7 to 7/10) beside floats that do not.
    g = graphs.make("cycle", 5)
    mixed = (0.7, 0.2, 0.1000000000000001)
    exact = (Fraction(7, 10), Fraction(1, 5), Fraction(mixed[2]))
    ops = (rules.OP_AND, rules.OP_OR, rules.OP_FIRST)
    weights = (0.1, 0.2, 0.3, 0.1, 0.30000000000000004)
    exact_weights = weights[:4] + (Fraction(weights[4]),)
    pairs.append(
        (
            chain.ChainSpec(g, rules.RuleSet(ops, mixed), weights),
            chain.ChainSpec(g, rules.RuleSet(ops, exact), exact_weights),
        )
    )
    for spec, fractions in pairs:
        for s in range(1 << spec.graph.n):
            row = chain.transition_row(spec, s)
            assert row == chain.transition_row(fractions, s)
            assert row.targets == _reference_row_targets(fractions, s)
        start = min(chain.analyze(spec).transient_states)
        assert chain.absorption_probabilities(
            spec, start
        ) == chain.absorption_probabilities(fractions, start)


def test_chain_spec_table_keeps_equality_and_hash():
    g = graphs.make("cycle", 5)
    spec = chain.ChainSpec(g, rules.RuleSet((1, 7), (0.7, 0.3)))
    chain.transition_row(spec, 3)
    assert "_steps" in vars(spec)
    fresh = chain.ChainSpec(g, rules.RuleSet((1, 7), (0.7, 0.3)))
    assert "_steps" not in vars(fresh)
    assert spec == fresh and fresh == spec
    assert hash(spec) == hash(fresh)
    assert len({spec, fresh}) == 1
    # The float weights, converted once when the spec is built.
    assert "_float_weights" in vars(fresh) and "_float_weights" not in repr(fresh)
    assert fresh._float_weights.tolist() == [float(w) for w in fresh.edge_weights]
    assert not fresh._float_weights.flags.writeable


def test_analyze_matches_transition_rows():
    # The vectorized support must agree with literal row enumeration.
    rng = random.Random(13)
    for _ in range(25):
        g = corpus.random_connected_graph(rng.randrange(2, 6), rng)
        ops = tuple(sorted(corpus.random_rule_set(rng)))
        spec = chain.ChainSpec(g, rules.RuleSet(ops))
        analysis = chain.analyze(spec)
        size = 1 << g.n
        succ = {}
        for s in range(size):
            row = chain.transition_row(spec, s)
            expected_absorbing = row.targets == ((s, 1.0),)
            assert bool(analysis.absorbing[s]) == expected_absorbing
            succ[s] = [t for t, _ in row.targets]
            for t in succ[s]:
                if t != s:
                    # Arcs stay inside a class or leave a transient one.
                    same = analysis.class_of[s] == analysis.class_of[t]
                    assert same or analysis.transient[s]
        # Classes are the SCCs of the row digraph, up to relabelling, and a
        # state is transient when it reaches a state that cannot come back.
        reach = {}
        for s in range(size):
            seen, stack = {s}, [s]
            while stack:
                for t in succ[stack.pop()]:
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            reach[s] = seen
        for s in range(size):
            scc = {t for t in reach[s] if s in reach[t]}
            same_class = set(
                np.nonzero(analysis.class_of == analysis.class_of[s])[0].tolist()
            )
            assert same_class == scc
            assert bool(analysis.transient[s]) == any(
                s not in reach[t] for t in reach[s]
            )


def _coo_support_classes(spec):
    """Reference: the support as one arc per edge and move, repeats included,
    merged by scipy's COO-to-CSR conversion, and its strong components."""
    g = spec.graph
    reach = chain._reach(spec.rules.op_set)
    size = 1 << g.n
    states = np.arange(size, dtype=np.int32)
    src, dst = [], []
    for i, j in g.edges:
        code = (states >> (i - 1) & 1) | (states >> (j - 1) & 1) << 1
        for flip in (1, 2, 3):
            moved = states[reach[code, code ^ flip]]
            src.append(moved)
            dst.append(moved ^ ((flip & 1) << (i - 1) | (flip >> 1) << (j - 1)))
    src, dst = np.concatenate(src), np.concatenate(dst)
    adj = sparse.csr_matrix(
        (np.ones(len(src), dtype=bool), (src, dst)), shape=(size, size)
    )
    _, labels = csgraph.connected_components(adj, directed=True, connection="strong")
    return labels


def test_support_rows_are_canonical():
    # Each row of the support table is sorted and has one entry per move:
    # the states one step reaches, each once, and s itself for each
    # blocked move. csgraph loops or miscounts on repeated targets other
    # than s, so none may appear.
    rng = random.Random(29)
    specs = []
    for _ in range(50):
        g = corpus.random_connected_graph(rng.randrange(2, 8), rng)
        ops = sorted(corpus.random_rule_set(rng))
        specs.append(chain.ChainSpec(g, rules.RuleSet(ops)))
    # Dense graphs and double flips: XOR (6) turns 11 into 00, and 0xB
    # (a OR NOT b) turns 00 into 11.
    specs += [
        chain.ChainSpec(graphs.make(kind, n), rules.RuleSet(ops))
        for kind, n, ops in (
            ("cycle", 16, (1, 7)),
            ("complete", 14, (1, 7)),
            ("complete", 10, (1, 6, 7)),
            ("star", 12, (2, 0xB)),
        )
    ]
    for spec in specs:
        g = spec.graph
        reach = chain._reach(spec.rules.op_set)
        targets, stuck = chain._support(g, reach)
        cols = g.n + len(g.edges) * chain._has_double_flips(reach)
        assert targets.dtype == np.int32 and targets.shape == (1 << g.n, cols)
        assert (np.diff(targets, axis=1) >= 0).all()
        for s, row in enumerate(targets.tolist()):
            moves = [t for t in row if t != s]
            assert len(set(moves)) == len(moves)
            row_targets = chain.transition_row(spec, s).targets
            assert set(moves) == {t for t, _ in row_targets} - {s}
            assert bool(stuck[s]) == (not moves)
        labels = _coo_support_classes(spec)
        assert chain.analyze(spec).class_of.tobytes() == labels.tobytes()


def test_analyze_classes_partition():
    g = graphs.make("cycle", 5)
    analysis = chain.analyze(chain.ChainSpec(g, rules.RuleSet((1, 7))))
    parts = analysis.classes()
    assert len(parts) == analysis.class_count
    assert sum(len(p) for p in parts) == 1 << 5
    assert analysis.absorbing_states == {0, 31}
    assert analysis.transient_states == set(range(1, 31))


def test_analyze_caps():
    big = graphs.make("cycle", 25)
    with pytest.raises(CapacityError):
        chain.analyze(chain.ChainSpec(big, rules.RuleSet((1, 7))))


def test_analyze_refuses_before_allocating():
    # The byte estimate runs first: no state array is made, so a refusal
    # is quick and small.
    for kind in ("cycle", "complete"):
        for ops in ((1, 7), (rules.OP_XOR,)):
            spec = chain.ChainSpec(graphs.make(kind, 24), rules.RuleSet(ops))
            tracemalloc.start()
            start = time.perf_counter()
            with pytest.raises(CapacityError, match="budget"):
                chain.analyze(spec)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert elapsed < 1.0
            assert peak < 1 << 20


class _Admitted(Exception):
    """Raised by a stand-in move build: the input passed the byte estimate."""


def test_analyze_budget_admits_without_allocating(monkeypatch):
    # The estimate alone decides, and nothing is allocated: an admitted
    # input reaches the move build, which raises a marker here. n = 23 fits
    # under AND/OR; so does complete(20) with its 190 double-flip columns,
    # whose measured peak the README gives under its estimate. n = 24 is
    # refused (test_analyze_refuses_before_allocating).
    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(chain, "_moves", admitted)
    for kind, n, ops in (
        ("cycle", 23, (1, 7)),
        ("complete", 23, (1, 7)),
        ("complete", 20, (1, 6, 7)),
    ):
        with pytest.raises(_Admitted):
            chain.analyze(chain.ChainSpec(graphs.make(kind, n), rules.RuleSet(ops)))


def test_analyze_estimate_bounds_its_peak():
    # With the budget set to the peak that analyze was measured at, the
    # same input must be refused: the estimate is an upper bound.
    for kind, n, ops in (
        ("cycle", 16, (1, 7)),
        ("complete", 14, (1, 7)),
        ("complete", 12, (1, 6, 7)),
        ("star", 12, (2, 0xB)),
    ):
        spec = chain.ChainSpec(graphs.make(kind, n), rules.RuleSet(ops))
        tracemalloc.start()
        chain.analyze(spec)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(errors, "BUDGET_BYTES", peak)
            with pytest.raises(CapacityError, match="budget"):
                chain.analyze(spec)


def test_analyze_closed_classes_past_one_block():
    # More states than one block of the closed-class pass: under AND/OR
    # every state but the two consensus states is transient.
    for kind, n in (("cycle", 13), ("complete", 13), ("line", 14)):
        assert 1 << n > chain._CLOSED_BLOCK
        a = chain.analyze(chain.ChainSpec(graphs.make(kind, n), rules.RuleSet((1, 7))))
        assert a.is_absorbing_chain
        assert a.transient_states == frozenset(range(1, (1 << n) - 1))


def test_support_invariance_quick():
    g = graphs.parse_edge_list("1 2\n2 3\n2 4\n3 4")
    base = chain.analyze(chain.ChainSpec(g, rules.RuleSet((2, 0xB))))
    skew = chain.analyze(
        chain.ChainSpec(
            g,
            rules.RuleSet((2, 0xB), (0.99, 0.01)),
            (0.7, 0.1, 0.1, 0.1),
        )
    )
    assert (base.class_of == skew.class_of).all()
    assert base.class_count == skew.class_count
    assert (base.absorbing == skew.absorbing).all()
    assert base.is_absorbing_chain == skew.is_absorbing_chain


def test_absorption_probabilities_single_edge():
    g = graphs.parse_edge_list("1 2")
    pure_or = chain.ChainSpec(g, rules.RuleSet((rules.OP_OR,)))
    dist = chain.absorption_probabilities(pure_or, chain.parse_state("01", 2))
    # The map covers every absorbing state, including unreachable ones.
    assert dist == {chain.parse_state("00", 2): 0.0, chain.parse_state("11", 2): 1.0}


def test_absorption_probabilities_sum_and_residual():
    g = graphs.make("cycle", 4)
    spec = chain.ChainSpec(g, rules.RuleSet((1, 7), (0.7, 0.3)))
    full = (1 << 4) - 1
    for s in range(1, full):
        dist = chain.absorption_probabilities(spec, s)
        assert set(dist) == {0, full}
        assert abs(sum(dist.values()) - 1.0) <= 1e-9
        assert all(p >= 0 for p in dist.values())


def _exact_absorption(spec):
    # Fraction rows built from step_pair, then Gauss-Jordan elimination on
    # [I - Q | R]: row s of the result is the exact absorption law from s.
    size = 1 << spec.graph.n
    rows = []
    for s in range(size):
        row = {}
        for w, edge in zip(spec.edge_weights, spec.graph.edges):
            for k, pk in zip(spec.rules.ops, spec.rules.probs):
                for l, pl in zip(spec.rules.ops, spec.rules.probs):
                    t = chain.step_pair(s, edge, k, l)
                    row[t] = row.get(t, 0) + Fraction(w) * Fraction(pk) * Fraction(pl)
        rows.append(row)
    absorbing_ids = [s for s in range(size) if rows[s].get(s) == 1]
    transient_ids = [s for s in range(size) if rows[s].get(s) != 1]
    a = [
        [int(s == t) - rows[s].get(t, 0) for t in transient_ids]
        + [rows[s].get(t, 0) for t in absorbing_ids]
        for s in transient_ids
    ]
    nt = len(transient_ids)
    for c in range(nt):
        pivot = next(r for r in range(c, nt) if a[r][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(nt):
            if r != c and a[r][c] != 0:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return {
        s: dict(zip(absorbing_ids, a[idx][nt:])) for idx, s in enumerate(transient_ids)
    }


@pytest.mark.parametrize(
    "kind, ops, absorbing_count", [("star", (3, 0xB), 17), ("line", (2, 3), 13)]
)
def test_absorption_probabilities_many_absorbing_states(kind, ops, absorbing_count):
    # R has many columns here, and the absorbing states sit among the
    # transient ones in word order.
    spec = chain.ChainSpec(
        graphs.make(kind, 5), rules.RuleSet(ops, (Fraction(1, 3), Fraction(2, 3)))
    )
    exact = _exact_absorption(spec)
    assert len(next(iter(exact.values()))) == absorbing_count
    for start, law in exact.items():
        dist = chain.absorption_probabilities(spec, start)
        assert dist.keys() == law.keys()
        assert all(abs(dist[t] - p) <= 1e-12 for t, p in law.items())


def test_absorption_probabilities_rejections():
    g = graphs.make("cycle", 4)
    spec = chain.ChainSpec(g, rules.RuleSet((1, 7)))
    with pytest.raises(PreconditionError):
        chain.absorption_probabilities(spec, 0)
    copy_spec = chain.ChainSpec(graphs.make("line", 3), rules.RuleSet((0x4,)))
    with pytest.raises(PreconditionError):
        chain.absorption_probabilities(copy_spec, 1)  # chain is not absorbing
    big = graphs.make("line", chain.MAX_SOLVE_N + 1)
    with pytest.raises(CapacityError):
        chain.absorption_probabilities(
            chain.ChainSpec(big, rules.RuleSet((1, 7))), 1
        )


def test_absorption_probabilities_start_range(monkeypatch):
    spec = chain.ChainSpec(graphs.make("cycle", 4), rules.RuleSet((1, 7)))

    def no_analyze(_spec):
        raise AssertionError("the start is checked before the analysis")

    monkeypatch.setattr(chain, "analyze", no_analyze)
    for start in (-2, -1, 16, 1 << 20):
        with pytest.raises(ValueError, match=f"state {start} out of range for n=4"):
            chain.absorption_probabilities(spec, start)
        with pytest.raises(ValueError, match="out of range"):
            andor.consensus_probability(spec, start)


def test_sweep_matches_analyze_sample():
    g = graphs.make("line", 3)
    verdicts = chain.sweep_absorbing_verdicts(g)
    rng = random.Random(3)
    for _ in range(120):
        mask = rng.randrange(1, 1 << 16)
        ops = tuple(sorted(rules.mask_ops(mask)))
        brute = chain.analyze(chain.ChainSpec(g, rules.RuleSet(ops)))
        assert bool(verdicts[mask]) == brute.is_absorbing_chain
    big = graphs.make("complete", 18)
    with pytest.raises(CapacityError):
        chain.sweep_absorbing_verdicts(big)


def test_sweep_refuses_before_allocating(monkeypatch):
    # Past the budget the estimate refuses at once: complete(18) and
    # line(20) at 2 GiB, and with the budget patched down, small graphs
    # whose move tables would take a few hundred kB.
    for g in (graphs.make("complete", 18), graphs.make("line", 20)):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="over the budget of 2 GiB"):
            chain.sweep_absorbing_verdicts(g)
        assert time.perf_counter() - start < 0.1
    monkeypatch.setattr(errors, "BUDGET_BYTES", 1 << 20)
    for g in (graphs.make("complete", 8), graphs.make("line", 10)):
        tracemalloc.start()
        with pytest.raises(CapacityError, match="over the budget"):
            chain.sweep_absorbing_verdicts(g)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 1 << 16


def test_sweep_budget_admits_without_allocating(monkeypatch):
    # complete(17) and line(19) fit the budget (1.4 GiB estimated): each
    # reaches the move build, which raises a marker here.
    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(chain, "_moves", admitted)
    for g in (graphs.make("complete", 17), graphs.make("line", 19)):
        with pytest.raises(_Admitted):
            chain.sweep_absorbing_verdicts(g)


def test_sweep_estimate_bounds_its_peak():
    # With the budget set to the traced peak of a sweep, the same graph is
    # refused: the estimate is an upper bound, dense and sparse.
    for g in (
        graphs.make("line", 8),
        graphs.make("complete", 10),
        graphs.make("star", 12),
        graphs.make("cycle", 13),
        graphs.make("complete", 13),
    ):
        tracemalloc.start()
        chain.sweep_absorbing_verdicts(g)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(errors, "BUDGET_BYTES", peak)
            with pytest.raises(CapacityError, match="budget"):
                chain.sweep_absorbing_verdicts(g)


@pytest.fixture(scope="module")
def table_masks() -> list[int]:
    """The smallest mask of each distinct reach table. A mask's table is
    built straight from _PAIR_STEP: some draw pair of the set moves edge
    code c to c' != c."""
    codes = np.arange(4)
    moved = (chain._PAIR_STEP[..., None] == codes) & (codes[:, None] != codes)
    member = np.arange(1, 1 << 16)[:, None] >> np.arange(16) & 1 == 1
    pairs = (member[:, :, None] & member[:, None, :]).reshape(-1, 256)
    tables = pairs.astype(np.float32) @ moved.reshape(256, 16) > 0
    _, first = np.unique(tables, axis=0, return_index=True)
    return (first + 1).tolist()


# line(7) needs six growing passes of the sweep's backward fixpoint and
# star(6) four; the others need two or three.
@pytest.mark.parametrize(
    "g",
    [
        graphs.parse_edge_list("1 2"),
        graphs.make("line", 3),
        graphs.make("cycle", 3),
        graphs.make("cycle", 5),
        graphs.parse_edge_list("1 2\n2 3\n2 4\n3 4"),
        graphs.make("star", 6),
        graphs.make("complete", 5),
        graphs.make("line", 7),
    ],
    ids=["edge", "line3", "cycle3", "cycle5", "paw", "star6", "complete5", "line7"],
)
def test_sweep_matches_analyze_per_table(g, table_masks):
    verdicts = chain.sweep_absorbing_verdicts(g)
    assert len(table_masks) == 72
    for mask in table_masks:
        spec = chain.ChainSpec(g, rules.RuleSet(tuple(sorted(rules.mask_ops(mask)))))
        assert bool(verdicts[mask]) == chain.analyze(spec).is_absorbing_chain, mask


@pytest.mark.parametrize("family", ["line", "complete"])
def test_sweep_matches_oracle_on_every_mask(family):
    # n = 14: 2^14 states under each of the 72 reach tables, about 1 s.
    g = graphs.make(family, 14)
    verdicts = chain.sweep_absorbing_verdicts(g)
    mismatches = [
        mask
        for mask in range(1, 1 << 16)
        if absorbing.is_absorbing_chain_oracle(g, rules.mask_ops(mask))
        != bool(verdicts[mask])
    ]
    assert mismatches == []


def test_export_dot_color_counts():
    g = graphs.make("cycle", 4)
    spec = chain.ChainSpec(g, rules.RuleSet((1, 7)))
    text = chain.export_dot(spec)
    node_lines = [line for line in text.splitlines() if "fillcolor" in line]
    assert len(node_lines) == 16
    colors = {line.split('fillcolor="')[1].split('"')[0] for line in node_lines}
    assert len(colors) == 5
    assert text.count("doublecircle") == 2
    paw = graphs.parse_edge_list("1 2\n2 3\n2 4\n3 4")
    spec = chain.ChainSpec(paw, rules.RuleSet((1, 7)))
    text = chain.export_dot(spec)
    node_lines = [line for line in text.splitlines() if "fillcolor" in line]
    colors = {line.split('fillcolor="')[1].split('"')[0] for line in node_lines}
    assert len(node_lines) == 16
    assert len(colors) == 3


def test_export_dot_double_flip_arcs():
    # Recorded text: XOR on a path flips both ends of a 1-1 edge at once.
    spec = chain.ChainSpec(graphs.make("line", 3), rules.RuleSet((rules.OP_XOR,)))
    text = chain.export_dot(spec)
    assert text == """digraph chain {
  node [style=filled];
  "000" [fillcolor="0.000 0.400 0.950" shape=doublecircle];
  "100" [fillcolor="0.618 0.400 0.950"];
  "010" [fillcolor="0.236 0.400 0.950"];
  "110" [fillcolor="0.618 0.400 0.950"];
  "001" [fillcolor="0.618 0.400 0.950"];
  "101" [fillcolor="0.854 0.400 0.950"];
  "011" [fillcolor="0.618 0.400 0.950"];
  "111" [fillcolor="0.618 0.400 0.950"];
  "100" -> "110";
  "010" -> "110";
  "010" -> "011";
  "110" -> "000";
  "110" -> "111";
  "001" -> "011";
  "101" -> "111";
  "011" -> "000";
  "011" -> "111";
  "111" -> "100";
  "111" -> "001";
}
"""


def test_export_dot_cap():
    big = graphs.make("line", chain.MAX_DOT_N + 1)
    spec = chain.ChainSpec(big, rules.RuleSet((1, 7)))
    with pytest.raises(CapacityError):
        chain.export_dot(spec)


def test_export_csv():
    g = graphs.parse_edge_list("1 2")
    spec = chain.ChainSpec(g, rules.RuleSet((1, 7), (0.7, 0.3)))
    text = chain.export_csv(spec)
    lines = text.strip().splitlines()
    assert lines[0] == "source,target,prob"
    sums: dict[str, float] = {}
    for line in lines[1:]:
        src, dst, prob = line.split(",")
        assert set(src) <= {"0", "1"} and len(src) == 2
        sums[src] = sums.get(src, 0.0) + float(prob)
    assert set(sums) == {"00", "01", "10", "11"}
    for total in sums.values():
        assert abs(total - 1.0) <= 1e-12


def test_absorption_certificate(monkeypatch):
    # The solve returns only answers whose l1 error bound is within
    # RESIDUAL_TOL, so the probabilities of an absorbing chain add up to 1
    # within it.
    tol = chain.RESIDUAL_TOL
    for n in (8, 11):
        spec = chain.ChainSpec(graphs.make("complete", n), rules.RuleSet((1, 7), (0.5, 0.5)))
        dist = chain.absorption_probabilities(spec, 1)
        assert abs(1.0 - math.fsum(dist.values())) <= tol

    # Valid weights that sum to 1 - 1e-12 leak mass at every step. The
    # leaked mass is absorbed nowhere, and the certificate still holds, so
    # the solve returns within 1e-9 of the answer for weights that sum to 1.
    g = graphs.make("cycle", 10)
    ruleset = rules.RuleSet((1, 7), (0.5, 0.5))
    leaky = chain.ChainSpec(g, ruleset, (0.1,) * 9 + (0.1 - 1e-12,))
    dist = chain.absorption_probabilities(leaky, 1)
    exact = chain.absorption_probabilities(chain.ChainSpec(g, ruleset), 1)
    assert all(abs(dist[a] - exact[a]) < 1e-9 for a in exact)

    # An answer moved by 1e-8 at state 1110000000 is rejected, although the
    # signed sum of its residual stays near 0: no step absorbs from there,
    # so the move only shifts mass between transient states. Transient
    # states are ordered by word and 0 is the only smaller absorbing one, so
    # state s sits at entry s - 1.
    solve = chain.gmres

    def nudged(*args, **kwargs):
        y, info = solve(*args, **kwargs)
        y[0b111 - 1] += 1e-8
        return y, info

    monkeypatch.setattr(chain, "gmres", nudged)
    with pytest.raises(SolverError, match="error bound"):
        chain.absorption_probabilities(chain.ChainSpec(g, ruleset), 1)
    monkeypatch.setattr(chain, "gmres", solve)

    # Below the bound any float answer can reach, the solve raises and
    # reports the bound.
    monkeypatch.setattr(chain, "RESIDUAL_TOL", 1e-17)
    with pytest.raises(SolverError, match="error bound"):
        chain.absorption_probabilities(leaky, 1)


@pytest.mark.parametrize("kind", ["line", "cycle", "star", "complete"])
def test_absorption_martingale_oracle(kind):
    # At P(OR) = 1/2 the count of ones is a martingale: on a discordant
    # edge OR-OR adds a one, AND-AND removes one, both with probability
    # 1/4, and the mixed draws are void or leave the edge alone. So from k
    # ones the chain ends at all-ones with probability k/n.
    spec_rules = rules.RuleSet((1, 7), (Fraction(1, 2), Fraction(1, 2)))
    rng = random.Random(11)
    for n in (3, 6, 10):
        spec = chain.ChainSpec(graphs.make(kind, n), spec_rules)
        full = (1 << n) - 1
        for start in rng.sample(range(1, full), 4):
            dist = chain.absorption_probabilities(spec, start)
            k = bin(start).count("1")
            assert abs(dist[full] - k / n) <= 1e-12
            assert abs(dist[0] - (n - k) / n) <= 1e-12


@pytest.mark.parametrize("p_or", [Fraction(3, 10), Fraction(2, 3)])
def test_absorption_gamblers_ruin_oracle(p_or):
    # On complete(n) with uniform weights every discordant edge is as
    # likely, so the count of ones moves up with probability p^2 and down
    # with q^2 per effective step: a gambler's ruin with r = (q / p)^2.
    spec_rules = rules.RuleSet((1, 7), (1 - p_or, p_or))
    r = ((1 - p_or) / p_or) ** 2
    for n in (3, 7, 10):
        spec = chain.ChainSpec(graphs.make("complete", n), spec_rules)
        full = (1 << n) - 1
        for k in range(1, n):
            start = (1 << k) - 1
            dist = chain.absorption_probabilities(spec, start)
            want = float((1 - r**k) / (1 - r**n))
            assert abs(dist[full] - want) <= 1e-12
