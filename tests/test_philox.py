"""Word-for-word verification of the counter-based generator against numpy."""

from __future__ import annotations

import random

import numpy as np
from numpy.random import Philox

from boolgossip import philox


def _numpy_words(counter, key):
    """Four raw output words from numpy's Philox at an explicit state."""
    bg = Philox(key=0)
    state = bg.state
    state["state"]["counter"] = np.array(counter, dtype=np.uint64)
    state["state"]["key"] = np.array(key, dtype=np.uint64)
    state["buffer_pos"] = 4  # force a fresh block on the next draw
    bg.state = state
    return bg.random_raw(4)


_U64 = (1 << 64) - 1


def _check_against_numpy(counter, key):
    # numpy increments counter word 0 before generating the block, so word
    # 0 must not be 0 here (numpy would carry into word 1).
    expected = _numpy_words(((counter[0] - 1) & _U64, *counter[1:]), key)
    ours = philox.philox4(*counter, *key)
    assert [int(w) for w in ours] == [int(w) for w in expected]


def test_matches_numpy_philox():
    rng = random.Random(101)
    cases = [((0, 0, 0, 0), (0, 0)), ((1, 2, 3, 4), (5, 6))]
    for _ in range(10):
        counter = tuple(rng.randrange(1 << 64) for _ in range(4))
        key = tuple(rng.randrange(1 << 64) for _ in range(2))
        cases.append((counter, key))
    for counter, key in cases:
        expected = _numpy_words(counter, key)
        # numpy increments counter word 0 before generating the block.
        c0 = (counter[0] + 1) & 0xFFFFFFFFFFFFFFFF
        ours = philox.philox4(c0, counter[1], counter[2], counter[3], *key)
        assert [int(w) for w in ours] == [int(w) for w in expected]


def test_carry_words_match_numpy():
    # All-ones words and all-ones 32-bit limbs drive every carry in the limb
    # products and the key schedule.
    edges = (_U64, _U64 - 1, 0xFFFFFFFF, 1 << 32, _U64 ^ 0xFFFFFFFF, 1)
    for word in edges:
        _check_against_numpy((word,) * 4, (word, word))
    rng = random.Random(103)
    for _ in range(30):
        counter = tuple(rng.choice(edges + (0,)) for _ in range(4))
        key = tuple(rng.choice(edges + (0,)) for _ in range(2))
        _check_against_numpy((counter[0] or 1, *counter[1:]), key)


def test_chunked_call_matches_slices():
    # One call spans several internal chunks and a ragged tail; it must give
    # what separate calls on slices that straddle the chunk edges give.
    size = 3 * philox._CHUNK + 7
    rng = np.random.default_rng(5)
    c0 = rng.integers(0, _U64, size, dtype=np.uint64, endpoint=True)
    c3 = rng.integers(0, _U64, size, dtype=np.uint64, endpoint=True)
    c1 = np.arange(size, dtype=np.uint64)
    whole = philox.philox4(c0, c1, 9, c3, 11, 13)
    cuts = [0, 5, philox._CHUNK + 1, 2 * philox._CHUNK - 3, size]
    parts = [
        philox.philox4(c0[a:b], c1[a:b], 9, c3[a:b], 11, 13)
        for a, b in zip(cuts, cuts[1:])
    ]
    for k in range(4):
        assert (whole[k] == np.concatenate([p[k] for p in parts])).all()
    # 2-D broadcast: rows x steps, as the simulator addresses its draws.
    rows, steps = 11, size // 11
    assert rows * steps == size
    major = np.arange(rows, dtype=np.uint64)[:, None]
    minor = np.arange(steps, dtype=np.uint64)
    grid = philox.block(17, 1, major, minor)
    assert all(w.shape == (rows, steps) for w in grid)
    for r in range(rows):
        row = philox.block(17, 1, np.uint64(r), minor)
        for k in range(4):
            assert (grid[k][r] == row[k]).all()


def test_inputs_left_unchanged():
    rng = np.random.default_rng(6)
    size = philox._CHUNK + 3
    inputs = [rng.integers(0, _U64, size, dtype=np.uint64, endpoint=True) for _ in range(4)]
    saved = [x.copy() for x in inputs]
    words = philox.philox4(*inputs, 1, 2)
    assert all((x == y).all() for x, y in zip(inputs, saved))
    assert not any(np.shares_memory(w, x) for w in words for x in inputs)
    major = inputs[0][:, None][:5]
    minor = inputs[1][:7]
    saved = major.copy(), minor.copy()
    philox.block(3, 4, major, minor)
    assert (major == saved[0]).all() and (minor == saved[1]).all()


def test_philox4_broadcasts():
    c0 = np.arange(8, dtype=np.uint64)
    words = philox.philox4(c0, 0, 0, 0, 7, 9)
    assert all(w.shape == (8,) for w in words)
    for i in range(8):
        single = philox.philox4(int(c0[i]), 0, 0, 0, 7, 9)
        assert [int(w[i]) for w in words] == [int(w) for w in single]


def test_block_addressing():
    seed, tag = 42, 3
    major = np.array([0, 0, 1], dtype=np.uint64)
    minor = np.array([0, 1, 0], dtype=np.uint64)
    words = philox.block(seed, tag, major, minor)
    direct = philox.philox4(major, minor, 0, 0, seed, tag)
    for w, d in zip(words, direct):
        assert (w == d).all()
    # Distinct addresses give distinct words; identical addresses repeat.
    flat = {tuple(int(w[i]) for w in words) for i in range(3)}
    assert len(flat) == 3
    again = philox.block(seed, tag, major, minor)
    for w, a in zip(words, again):
        assert (w == a).all()
    other_tag = philox.block(seed, tag + 1, major, minor)
    assert any((w != o).any() for w, o in zip(words, other_tag))
    other_seed = philox.block(seed + 1, tag, major, minor)
    assert any((w != o).any() for w, o in zip(words, other_seed))


def test_uniforms_range_and_mean():
    words = philox.block(7, 1, np.arange(20000, dtype=np.uint64), 0)
    u = philox.uniforms(np.concatenate(words))
    assert u.min() >= 0.0 and u.max() < 1.0
    # 80k draws: the sample mean sits within 5 sigma of 1/2.
    assert abs(float(u.mean()) - 0.5) < 5 * 0.2887 / (80000**0.5)


def _reference_words(counter, key):
    """Philox4x64-10 on one counter in Python integers."""
    x0, x1, x2, x3 = counter
    k0, k1 = key
    for _ in range(philox._ROUNDS):
        p0 = 0xD2E7470EE14C6C93 * x0
        p1 = 0xCA5A826395121157 * x2
        x0, x1, x2, x3 = (p1 >> 64) ^ x1 ^ k0, p1 & _U64, (p0 >> 64) ^ x3 ^ k1, p0 & _U64
        k0 = (k0 + philox._W0) & _U64
        k1 = (k1 + philox._W1) & _U64
    return x0, x1, x2, x3


def test_chunked_rounds_match_flat_reference():
    # Chunks filled from broadcast views of the counters must give, per
    # element, the words of the flat per-element reference.
    assert _reference_words((1, 2, 3, 4), (5, 6)) == tuple(
        int(w) for w in _numpy_words((0, 2, 3, 4), (5, 6))
    )
    rng = np.random.default_rng(7)
    big = philox._CHUNK + 5

    def rand(*shape):
        return rng.integers(0, _U64, shape, dtype=np.uint64, endpoint=True)

    cases = (
        (rand(9, 1), rand(1, 1), 0, 0),  # T = 1
        (rand(3, 1), rand(1, big), 0, 0),  # T > _CHUNK
        (rand(1, 1), rand(1, 37), 0, 0),  # R = 1
        (rand(37), rand(5, 1), 0, 0),  # steps x rounds, as the simulator asks
        (rand(7, 1), rand(1, 6), rand(7, 1), rand(1, 6)),
        (rand(40), 3, 0, 0),  # 1-D
        (rand(40), rand(40), rand(40), rand(40)),  # x0 full size from the start
        (rand(6, 5), rand(5), rand(1, 5), 0),
        (rand(2, 1, 3), rand(1, 4, 1), 0, 0),  # 3-D
        (rand(0, 1), rand(1, 5), 0, 0),  # empty
        (5, 6, 7, 8),  # scalars
    )
    for counters in cases:
        saved = [np.array(c, copy=True) for c in counters]
        words = philox.philox4(*counters, 11, 12)
        for c, s in zip(counters, saved):
            assert (np.asarray(c) == s).all()
        shape = np.broadcast_shapes(*(np.shape(c) for c in counters))
        assert all(w.shape == shape for w in words)
        flat = [np.broadcast_to(c, shape).reshape(-1) for c in counters]
        size = flat[0].size
        picks = range(size) if size <= 400 else rng.integers(0, size, 400)
        for i in picks:
            expected = _reference_words(tuple(int(c[i]) for c in flat), (11, 12))
            assert tuple(int(w.reshape(-1)[i]) for w in words) == expected
        # The same counters as contiguous full-size arrays fill the chunks
        # from plain slices.
        whole = philox.philox4(*(np.ascontiguousarray(c) for c in flat), 11, 12)
        for w, v in zip(words, whole):
            assert (w.reshape(-1) == v).all()


def _assert_words_equal(got, want):
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert g.dtype == np.uint64 and g.shape == w.shape
        assert (g == w).all()


def _philox4_block(seed, tag, major, minor):
    return philox.philox4(major, minor, 0, 0, seed, tag)


def _compiled(seed, tag, ids, minor):
    """The numpy path, called directly whatever the density cutoff says."""
    ids = np.asarray(ids, dtype=np.uint64)
    minor = np.asarray(minor, dtype=np.uint64)
    words = philox._compiled_rows(seed, tag, ids, minor.reshape(-1))
    return [w.reshape(np.broadcast_shapes(ids.shape, minor.shape)) for w in words]


def test_compiled_rows_match_philox4():
    rng = np.random.default_rng(11)
    big = 2 * philox._CHUNK + 9  # rows longer than one piece

    def gapped(span, density):
        ids = np.sort(rng.choice(span, int(span * density), replace=False))
        ids[0], ids[-1] = 0, span - 1  # keep the span
        return np.unique(ids).astype(np.uint64) + np.uint64(3)

    cutoff = philox._DENSE_MIN
    cases = [
        # lo = 0 borrows from minor; lo = 0 at minor 0 wraps all 256 bits.
        (np.arange(300, dtype=np.uint64), np.uint64(0)),
        (np.arange(300, dtype=np.uint64), np.uint64(1)),
        (np.arange(300, dtype=np.uint64), np.uint64(399)),
        (np.arange(300, dtype=np.uint64), np.array([[0], [1], [399]], dtype=np.uint64)),
        (np.arange(big, dtype=np.uint64), np.array([[5], [0]], dtype=np.uint64)),
        # a single id
        (np.array([0], dtype=np.uint64), np.uint64(0)),
        (np.array([123456789], dtype=np.uint64), np.array([[7], [8]], dtype=np.uint64)),
        # gaps on both sides of the density cutoff, one span over pieces
        (gapped(5000, cutoff / 2), np.array([[2], [3]], dtype=np.uint64)),
        (gapped(5000, min(1.0, cutoff * 2)), np.array([[2], [3]], dtype=np.uint64)),
        (gapped(big, cutoff * 1.5), np.array([[4]], dtype=np.uint64)),
        # non-consecutive, descending and repeated steps; a scalar step
        (np.arange(10, 500, dtype=np.uint64),
         np.array([[9], [2], [400], [2], [2**64 - 1]], dtype=np.uint64)),
        (gapped(3000, 0.5), np.uint64(2**40 + 5)),
        # ids up to 2**64 - 1: a row ends there without carrying into minor
        (np.arange(2**64 - 300, 2**64, dtype=np.uint64),
         np.array([[0], [1], [2**64 - 1]], dtype=np.uint64)),
    ]
    for seed, tag in ((0, 0), (42, 1), (_U64, _U64)):
        for ids, minor in cases:
            want = _philox4_block(seed, tag, ids, minor)
            _assert_words_equal(_compiled(seed, tag, ids, minor), want)
            _assert_words_equal(philox.block(seed, tag, ids, minor), want)


def test_block_dispatch(monkeypatch):
    # Inputs that are not sorted rows of ids, or too sparse for their span,
    # go to philox4 and give its words; dense sorted rows go to numpy.
    used = []
    compiled = philox._compiled_rows

    def spy(*args):
        used.append(True)
        return compiled(*args)

    monkeypatch.setattr(philox, "_compiled_rows", spy)
    ids = np.arange(1000, dtype=np.uint64)
    column = np.array([[3], [4]], dtype=np.uint64)
    fallback = (
        (ids[::-1].copy(), column),  # unsorted
        (np.repeat(ids, 2), column),  # repeated ids
        (np.array([0, 2**64 - 1], dtype=np.uint64), column),  # sparse, up to 2**64 - 1
        (ids[:: int(2 / philox._DENSE_MIN)].copy(), column),  # below the cutoff
        (ids[: philox._ROW_IDS // 2].copy(), column),  # too few ids a row
        (np.array([2**64 - 1, 0, 1] * 40, dtype=np.uint64), column),  # wrapped
        (ids.reshape(20, 50), np.uint64(1)),  # 2-D major
        (ids, np.arange(1000, dtype=np.uint64)),  # element-wise minor
        (ids, np.arange(2, dtype=np.uint64)[:, None, None]),  # 3-D minor
        (np.zeros(0, dtype=np.uint64), column),  # empty
        (ids, np.zeros((0, 1), dtype=np.uint64)),  # no rows
    )
    for major, minor in fallback:
        words = philox.block(9, 1, major, minor)
        _assert_words_equal(words, _philox4_block(9, 1, major, minor))
    assert not used
    for major, minor in ((ids, column), (ids, np.uint64(3)), (ids[::2].copy(), column)):
        words = philox.block(9, 1, major, minor)
        _assert_words_equal(words, _philox4_block(9, 1, major, minor))
    assert len(used) == 3


def test_compiled_words_own_their_buffers():
    ids = np.arange(5, 3000, 2, dtype=np.uint64)
    for major, minor in (
        (ids, np.array([[1], [2]], dtype=np.uint64)),
        (ids, np.uint64(1)),
        (np.arange(3000, dtype=np.uint64), np.array([[0]], dtype=np.uint64)),
    ):
        saved = major.copy(), np.array(minor, copy=True)
        words = philox.block(17, 2, major, minor)
        assert (major == saved[0]).all() and (minor == saved[1]).all()
        for k, w in enumerate(words):
            assert not np.shares_memory(w, major) and not np.shares_memory(w, minor)
            assert not any(np.shares_memory(w, v) for v in words[k + 1 :])
