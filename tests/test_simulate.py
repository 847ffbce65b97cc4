"""Monte Carlo simulator: determinism, schedule invariance, and calibration."""

from __future__ import annotations

import collections
import logging
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from boolgossip import chain, graphs, philox, rules, simulate
from boolgossip.errors import PreconditionError


def _spec(g=None, ops=(1, 7), probs=()):
    if g is None:
        g = graphs.make("cycle", 4)
    return chain.ChainSpec(g, rules.RuleSet(ops, probs))


def test_config_validation():
    spec = _spec()
    with pytest.raises(PreconditionError):
        simulate.SimConfig(spec, 10, 5, 1)  # neither start nor delta0
    with pytest.raises(PreconditionError):
        simulate.SimConfig(spec, 10, 5, 1, start=3, delta0=0.5)
    with pytest.raises(PreconditionError):
        simulate.SimConfig(spec, 10, 5, 1, start=16)
    with pytest.raises(PreconditionError):
        simulate.SimConfig(spec, 10, 5, 1, delta0=1.5)
    with pytest.raises(PreconditionError):
        simulate.SimConfig(spec, 0, 5, 1, start=3)
    with pytest.raises(PreconditionError):
        simulate.SimConfig(spec, 10, 0, 1, start=3)
    with pytest.raises(PreconditionError):
        simulate.SimConfig(spec, 10, 5, 1, start=3, sample_every=0)


def test_deterministic_replay():
    config = simulate.SimConfig(_spec(), 60, 300, seed=9, delta0=0.5)
    a = simulate.run(config)
    b = simulate.run(config)
    assert a.density_mean == b.density_mean
    assert a.absorption_counts == b.absorption_counts
    assert a.consensus_fraction == b.consensus_fraction
    c = simulate.run(simulate.SimConfig(_spec(), 60, 300, seed=10, delta0=0.5))
    assert c.density_mean != a.density_mean


def test_sampling_schedule_invariance():
    # Counter-addressed draws make outcomes independent of batching, so only
    # the recorded grid changes with sample_every.
    base = dict(horizon=48, rounds=200, seed=4, start=chain.parse_state("1000", 4))
    fine = simulate.run(simulate.SimConfig(_spec(), **base, sample_every=2))
    coarse = simulate.run(simulate.SimConfig(_spec(), **base, sample_every=6))
    fine_at = dict(zip(fine.density_mean.steps, fine.density_mean.density))
    for t, d in zip(coarse.density_mean.steps, coarse.density_mean.density):
        assert fine_at[t] == d
    assert fine.absorption_counts == coarse.absorption_counts
    assert fine.consensus_fraction == coarse.consensus_fraction


def test_identity_rules_freeze_everything():
    start = chain.parse_state("0110", 4)
    config = simulate.SimConfig(
        _spec(ops=(rules.OP_FIRST,)), 30, 50, seed=2, start=start
    )
    result = simulate.run(config)
    assert set(result.density_mean.density) == {0.5}
    assert result.absorption_counts == {start: 50}
    assert result.consensus_fraction == 0.0


def test_all_zero_initial_density():
    config = simulate.SimConfig(_spec(), 20, 40, seed=3, delta0=0.0)
    result = simulate.run(config)
    assert set(result.density_mean.density) == {0.0}
    assert result.absorption_counts == {0: 40}
    assert result.consensus_fraction == 1.0


def test_initial_density_calibration():
    g = graphs.make("complete", 30)
    config = simulate.SimConfig(_spec(g), 1, 400, seed=11, delta0=0.3)
    result = simulate.run(config)
    d0 = result.density_mean.density[0]
    sigma = math.sqrt(0.3 * 0.7 / (30 * 400))
    assert abs(d0 - 0.3) < 5 * sigma


def test_density_bounds_and_per_step_motion():
    config = simulate.SimConfig(
        _spec(), 80, 120, seed=6, delta0=0.5, sample_every=1
    )
    result = simulate.run(config)
    dens = result.density_mean.density
    assert all(0.0 <= d <= 1.0 for d in dens)
    # One step touches at most two nodes per round.
    assert all(abs(b - a) <= 2 / 4 + 1e-12 for a, b in zip(dens, dens[1:]))


def test_estimator_matches_solver():
    g = graphs.make("cycle", 4)
    spec = _spec(g)
    start = chain.parse_state("1000", 4)
    exact = chain.absorption_probabilities(spec, start)[15]
    rounds = 4000
    config = simulate.SimConfig(spec, 400, rounds, seed=12, start=start)
    result = simulate.run(config)
    assert sum(result.absorption_counts.values()) == rounds  # all absorbed
    assert result.consensus_fraction == 1.0
    estimate = result.absorption_counts.get(15, 0) / rounds
    sigma = math.sqrt(exact * (1 - exact) / rounds)
    assert abs(estimate - exact) <= 3 * sigma


def test_balanced_start_splits_evenly():
    start = chain.parse_state("0101", 4)
    config = simulate.SimConfig(_spec(), 400, 10000, seed=13, start=start)
    result = simulate.run(config)
    estimate = result.absorption_counts.get(15, 0) / 10000
    assert abs(estimate - 0.5) <= 0.02


def test_seeded_streams_beyond_and_or():
    # Recorded outputs for rule sets where a single operator flips both
    # endpoints ({2,B}, {6}) or differing draws hit the void rule ({1,6,7}).
    # Entries: ops, start kwargs, ones per sample point, absorptions, consensus.
    g = graphs.make("cycle", 6)
    rounds = 64
    starts = (dict(delta0=0.5), dict(start=chain.parse_state("110000", 6)))
    cases = (
        ((2, 0xB), 0, (197, 186, 182, 194, 190, 192, 191), {21: 19, 42: 26}, 0.0),
        ((2, 0xB), 1, (128, 186, 180, 200, 189, 194, 190), {21: 21, 42: 23}, 0.0),
        ((6,), 0, (197, 131, 78, 46, 35, 22, 12), {0: 59}, 0.921875),
        ((6,), 1, (128, 92, 46, 34, 26, 23, 12), {0: 59}, 0.921875),
        ((1, 6, 7), 0, (197, 163, 150, 141, 126, 110, 117), {0: 25}, 0.40625),
        ((1, 6, 7), 1, (128, 101, 94, 94, 84, 78, 83), {0: 36}, 0.578125),
    )
    for ops, which, ones, absorbed, consensus in cases:
        config = simulate.SimConfig(
            _spec(g, ops), 48, rounds, seed=21, sample_every=8, **starts[which]
        )
        result = simulate.run(config)
        assert result.density_mean.steps == (0, 8, 16, 24, 32, 40, 48)
        assert result.density_mean.density == tuple(c / (rounds * 6) for c in ones)
        assert result.absorption_counts == absorbed
        assert result.consensus_fraction == consensus


def test_seeded_streams_weighted_and_clamped(monkeypatch):
    # Recorded outputs for the pick paths the other stream tests leave out:
    # unequal Fraction edge weights with three or four operators of unequal
    # probability, and uniform weights whose float cumsum ends below 1, with
    # one step word in eight forced into the top four uniforms below 1 so
    # that edge and operator picks land past the last bound and are clamped.
    g = graphs.make("complete", 5)
    weights = tuple(Fraction(k, 55) for k in range(1, 11))
    rounds = 64
    cases = (
        ((7, 1, 0xB, 6), (Fraction(1, 2), Fraction(1, 5), Fraction(1, 5), Fraction(1, 10)),
         dict(delta0=0.5), (162, 234, 265, 256, 261, 263, 271), {}, 0.4375),
        ((7, 1, 0xB, 6), (Fraction(1, 2), Fraction(1, 5), Fraction(1, 5), Fraction(1, 10)),
         dict(start=chain.parse_state("11000", 5)),
         (128, 247, 267, 258, 262, 265, 271), {}, 0.4375),
        ((1, 3, 7), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), dict(delta0=0.5),
         (162, 92, 65, 49, 45, 44, 41), {31: 8, 0: 55}, 0.984375),
    )
    for ops, probs, start, ones, absorbed, consensus in cases:
        spec = chain.ChainSpec(g, rules.RuleSet(ops, probs), weights)
        config = simulate.SimConfig(spec, 60, rounds, seed=31, sample_every=10, **start)
        result = simulate.run(config)
        assert result.density_mean.steps == (0, 10, 20, 30, 40, 50, 60)
        assert result.density_mean.density == tuple(c / (rounds * 5) for c in ones)
        assert result.absorption_counts == absorbed
        assert result.consensus_fraction == consensus

    plain = simulate.block

    def forced(seed, tag, major, minor):
        # The word (2**53 - 1 - offset) << 11 has the uniform
        # 1 - 2**-53 * (1 + offset).
        words = plain(seed, tag, major, minor)
        if tag != simulate.TAG_STEP:
            return words
        out = []
        for w in words:
            top = (w & np.uint64(7)) == 0
            offset = w >> np.uint64(3) & np.uint64(3)
            out.append(np.where(top, (np.uint64(2**53 - 1) - offset) << np.uint64(11), w))
        return tuple(out)

    monkeypatch.setattr(simulate, "block", forced)
    spec = _spec(graphs.make("complete", 8), (1, 2, 6, 7, 8, 0xB, 0xD))
    assert np.cumsum([float(w) for w in spec.edge_weights])[-1] == 1 - 3 * 2.0**-53
    assert np.cumsum([float(p) for p in spec.rules.probs])[-1] == 1 - 2 * 2.0**-53
    config = simulate.SimConfig(
        spec, 64, rounds, seed=32, sample_every=16, start=chain.parse_state("11110000", 8)
    )
    result = simulate.run(config)
    assert result.density_mean.steps == (0, 16, 32, 48, 64)
    ones = (256, 275, 268, 276, 263)
    assert result.density_mean.density == tuple(c / (rounds * 8) for c in ones)
    assert result.absorption_counts == {}
    assert result.consensus_fraction == 0.0


def test_step_table_matches_step_pair():
    # One round per operator pair and edge code, stepped as run() steps its
    # rounds: the ends' bytes gathered from the flat states and or-ed with
    # the pair's operator bits into one uint16 key of _STEP_BITS.
    ops = np.arange(16)
    pairs = simulate._byte_pair(ops[:, None] << 1, ops << 1).reshape(-1)
    k, l, c = np.indices((16, 16, 4)).reshape(3, -1)
    flat = np.stack([c & 1, c >> 1], axis=-1).astype(np.uint8).reshape(-1)
    slots = np.arange(len(flat)).reshape(-1, 2)
    simulate._step(flat, slots, pairs[k * 16 + l])
    new = flat.reshape(-1, 2)
    got = new[:, 0] | new[:, 1] << 1
    want = [chain.step_pair(int(s), (1, 2), int(a), int(b)) for a, b, s in zip(k, l, c)]
    assert got.tolist() == want


def test_count_rows_matches_per_row_packing():
    # Reference: the per-row packing the grouped count replaced.
    def per_row(rows):
        packed = np.packbits(rows, axis=1, bitorder="little")
        return collections.Counter(
            int.from_bytes(row.tobytes(), "little") for row in packed
        )

    rng = np.random.default_rng(8)
    for n in (1, 7, 8, 9, 63, 64, 65, 1000):
        base = rng.integers(0, 2, (6, n), dtype=np.uint8)
        base[0] = 0
        base[1] = 1
        rows = base[rng.integers(0, len(base), 300)]
        counts = simulate._count_rows(rows)
        assert counts == per_row(rows)
        assert sum(counts.values()) == 300


def test_draw_memory_bounded_by_block_size():
    # One sample interval of 5000 steps x 400 rounds is drawn in blocks, so
    # the peak does not grow with sample_every; outcomes are unchanged.
    spec = _spec(graphs.make("complete", 50))
    base = dict(horizon=5000, rounds=400, seed=3, delta0=0.5)
    tracemalloc.start()
    try:
        single = simulate.run(simulate.SimConfig(spec, **base, sample_every=5000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A counter costs about 33 B while its block is drawn (its four words).
    assert peak < 48 * simulate._DRAW_COUNTERS
    default = simulate.run(simulate.SimConfig(spec, **base))
    assert single.density_mean.steps == (0, 5000)
    assert single.density_mean.density[-1] == default.density_mean.density[-1]
    assert single.absorption_counts == default.absorption_counts
    assert single.consensus_fraction == default.consensus_fraction


def test_progress_logging(caplog, monkeypatch):
    monkeypatch.setattr(simulate, "_LOG_SECONDS", 0.0)
    config = simulate.SimConfig(
        _spec(graphs.make("cycle", 12)), 40, 20, seed=5, delta0=0.5, sample_every=8
    )
    simulate.run(config)
    assert not caplog.records  # INFO is below the default level
    caplog.set_level(logging.INFO, logger="boolgossip.simulate")
    simulate.run(config)
    lines = [r.getMessage() for r in caplog.records]
    assert lines and lines[0].startswith("step 8 of 40, ")
    assert lines[0].endswith(" of 20 rounds alive")


def test_pick_matches_searchsorted():
    # Reference: the clamped search over uniforms that the word picks
    # replaced. Words sit at the first word K << 11 of each bound b < 1
    # (K = ceil(b * 2**53)), one word below it, at the top of its block of
    # 2**11 words, at 0, at 2**64 - 1 and at random. The last table has
    # bounds at and past 1, which no word reaches.
    rng = np.random.default_rng(9)
    top = np.uint64(2**64 - 1)
    for m in (1, 2, 3, 15, 16, 17, 4950, 499500):
        skewed = np.full(m, 1e-9 / m)
        skewed[m // 3] = 1.0 - skewed[:-1].sum()
        tables = (
            (Fraction(1, m),) * m,
            tuple(rng.random(m) / m * 2),
            tuple(skewed),
            (2.0 / m,) * m,
        )
        for weights in tables:
            cum = np.cumsum([float(w) for w in weights])
            k = np.ceil(cum[cum < 1.0] * 2.0**53).astype(np.uint64)
            first = k << np.uint64(11)
            words = np.concatenate(
                (
                    first,
                    first - np.uint64(1),
                    first | np.uint64(2**11 - 1),
                    np.array([0, top], dtype=np.uint64),
                    rng.integers(0, top, 1000, dtype=np.uint64, endpoint=True),
                )
            )
            u = philox.uniforms(words)
            expected = np.minimum(np.searchsorted(cum, u, side="right"), m - 1)
            pick = simulate._picker(weights)
            assert (pick(words) == expected).all()
            cut = len(words) // 2 * 2
            grid = pick(words[:cut].reshape(2, -1))
            assert grid.shape == (2, cut // 2)
            assert (grid.reshape(-1) == expected[:cut]).all()
            # A word array that is not C-ordered gives the same picks.
            grid = pick(np.asfortranarray(words[:cut].reshape(2, -1)))
            assert (grid.reshape(-1) == expected[:cut]).all()
            assert (pick(words[::-1]) == expected[::-1]).all()
