"""Vectorized Philox4x64-10 counter-based random numbers.

The simulator addresses randomness by content, not by sequence position:
the draws for replication r at step t are a pure function of
(seed, stream tag, r, t). That makes results independent of batching,
early exits, and parallel schedules.

One block maps a 256-bit counter (c0, c1, c2, c3) and a 128-bit key
(k0, k1) to four 64-bit words through ten multiply-xor rounds. block()
draws them two ways, with the same words:

- numpy's compiled Philox, for sorted rows of ids at one step each (the
  simulator's alive rounds, and the initial states). Its counter runs
  through consecutive c0, so a row is one contiguous run from the lowest id
  to the highest; the ids' blocks are gathered from it when it has gaps.
  numpy's Generator API does not address counters, so the generator is
  placed at the start of each row through its counter and advance().
- philox4, the rounds in numpy ufuncs, for everything else: unsorted or
  repeated ids, other shapes, and ids too sparse in their span or too few
  in a row to pay for numpy's per-row cost. It runs in place over
  fixed-size chunks of the counters, each filled from a broadcast view of
  the inputs, so the working buffers stay in cache and no full-length
  temporaries are built.

The test suite checks philox4 word for word against numpy's Philox and a
plain-integer reference, and the numpy path against philox4.
"""

from __future__ import annotations

import math

import numpy as np

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_U64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

_ROUNDS = 10
# Counters per chunk: the ten working buffers take 80 B per counter, about
# 1.3 MB in all, and each chunk costs some 300 ufunc calls of fixed overhead.
_CHUNK = 16384

# uniform in [0, 1): top 53 bits scaled by 2^-53
_TO_DOUBLE = 2.0**-53
_SHIFT11 = np.uint64(11)


def _mulhilo(a: np.uint64, b, hi, lo, t, u):
    """Full 64x64 -> 128 bit product via 32-bit limbs, written to (hi, lo).
    b is overwritten; t and u are scratch."""
    a_lo = a & _MASK32
    a_hi = a >> _SHIFT32
    np.multiply(b, a, out=lo)
    np.right_shift(b, _SHIFT32, out=t)  # b_hi
    b &= _MASK32  # b_lo
    np.multiply(b, a_lo, out=hi)
    hi >>= _SHIFT32
    b *= a_hi
    b += hi  # cross1 = a_hi * b_lo + (a_lo * b_lo >> 32)
    np.bitwise_and(b, _MASK32, out=u)
    b >>= _SHIFT32
    np.multiply(t, a_hi, out=hi)
    hi += b
    t *= a_lo
    t += u  # cross2 = a_lo * b_hi + (cross1 & mask)
    t >>= _SHIFT32
    hi += t  # a_hi * b_hi + (cross1 >> 32) + (cross2 >> 32)


def philox4(c0, c1, c2, c3, k0: int, k1: int):
    """Run the ten Philox rounds on array counters with a scalar key.

    c0..c3 are broadcastable uint64 arrays (or scalars); returns the four
    output words as uint64 arrays of the broadcast shape, each in its own
    buffer so that a caller can drop the words it is done with. The inputs
    are only read.
    """
    x = [np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3)]
    shape = np.broadcast_shapes(*(c.shape for c in x))
    size = math.prod(shape)
    keys = [
        (np.uint64((k0 + r * _W0) & _U64), np.uint64((k1 + r * _W1) & _U64))
        for r in range(_ROUNDS)
    ]
    # The rounds run chunk by chunk over a (rows, cols) view of the broadcast
    # counters: whole rows per chunk, or pieces of one row longer than a chunk.
    cols = max(shape[-1] if shape else 1, 1)
    rows = size // cols
    views = [np.broadcast_to(c, shape).reshape(rows, cols) for c in x]
    out = [np.empty((rows, cols), dtype=np.uint64) for _ in range(4)]
    step_rows = max(1, _CHUNK // cols)
    width = min(cols, _CHUNK)
    work = np.empty((10, min(step_rows, rows) * width), dtype=np.uint64)
    for r0 in range(0, rows, step_rows):
        r1 = min(r0 + step_rows, rows)
        for s in range(0, cols, width):
            e = min(s + width, cols)
            bufs = work[:, : (r1 - r0) * (e - s)].reshape(10, r1 - r0, e - s)
            x0, x1, x2, x3, h0, l0, h1, l1, t, u = bufs
            for buf, view in zip((x0, x1, x2, x3), views):
                buf[...] = view[r0:r1, s:e]
            for key0, key1 in keys:
                _mulhilo(_M0, x0, h0, l0, t, u)
                _mulhilo(_M1, x2, h1, l1, t, u)
                h1 ^= x1
                h1 ^= key0
                h0 ^= x3
                h0 ^= key1
                x0, x1, x2, x3, h0, l0, h1, l1 = h1, l1, h0, l0, x0, x1, x2, x3
            for word, buf in zip(out, (x0, x1, x2, x3)):
                word[r0:r1, s:e] = buf
    return tuple(word.reshape(shape) for word in out)


def uniforms(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to doubles in [0, 1)."""
    return (words >> _SHIFT11).astype(np.float64) * _TO_DOUBLE


# block() takes numpy's compiled Philox when the ids pay for it: numpy
# draws every counter of the span [lo, hi] of a row, about a fifth of the
# cost of philox4 per counter, and each row costs an advance() and a few
# calls, about as much as philox4 on 80 counters. Timed on a 2-vCPU Xeon
# (numpy 2.4) over spans of 2000 to 100k ids: numpy is faster from about a
# fifth of the span drawn, and from about 100 contiguous ids a row.
_DENSE_MIN = 0.2
_ROW_IDS = 80
_U256 = (1 << 256) - 1


def _compiled_rows(seed: int, tag: int, ids: np.ndarray, steps: np.ndarray) -> list:
    """The words of block(seed, tag, ids, steps[:, None]) from numpy's Philox.

    ids must be strictly increasing. numpy's Philox, given the counter and
    key, yields the words of counters (lo, t), (lo + 1, t), ... in order.
    It increments its 256-bit counter before each block, so a row starts one
    below (lo, t), which borrows from t when lo = 0. From the end of a row,
    advance() moves it to the start of the next. Each row is drawn in pieces
    of at most _CHUNK counters into one (steps, ids, 4) buffer, as numpy
    yields them: a piece is copied whole when the span has no gaps, and
    otherwise its ids' blocks are taken from it. The four words are strided
    views of that buffer, which lives as long as any of them.
    """
    lo = int(ids[0])
    span = int(ids[-1]) - lo + 1
    bounds = [*range(0, span, _CHUNK), span]
    gaps = len(ids) < span
    if gaps:
        offsets = ids.astype(np.intp)
        offsets -= offsets[0]
        cuts = np.searchsorted(offsets, bounds).tolist()
    else:
        cuts = bounds
    # A piece: its counters, the index range [i, j) of its ids, and, when
    # the span has gaps, their offsets within the piece.
    pieces = []
    for a, b, i, j in zip(bounds, bounds[1:], cuts, cuts[1:]):
        local = None
        if gaps:
            local = offsets[i:j]
            local -= a
        pieces.append((b - a, i, j, local))
    buf = np.empty((len(steps), len(ids), 4), dtype=np.uint64)
    prev = int(steps[0])
    start = (lo + (prev << 64) - 1) & _U256
    bits = np.random.Philox(
        counter=np.array([start >> s & _U64 for s in (0, 64, 128, 192)], dtype=np.uint64),
        key=np.array([int(seed) & _U64, int(tag) & _U64], dtype=np.uint64),
    )
    for row, t in enumerate(steps.tolist()):
        if row:
            bits.advance((((t - prev) << 64) - span) & _U256)
            prev = t
        for size, i, j, local in pieces:
            raw = bits.random_raw(4 * size).reshape(-1, 4)
            if local is None:
                buf[row, i:j] = raw
            else:
                # The offsets lie in the piece; mode="raise" would buffer out.
                np.take(raw, local, axis=0, out=buf[row, i:j], mode="clip")
    return [buf[..., k] for k in range(4)]


def block(seed: int, tag: int, major, minor):
    """The four words for counter (major, minor, 0, 0) under key (seed, tag).

    major/minor are broadcastable integer arrays; this is the addressing
    scheme the simulator uses (major = replication, minor = step or block).

    When major is a strictly increasing 1-D array and minor a scalar or a
    column, each row (one minor value) is a run of counters that numpy's
    compiled Philox draws in order; that path is taken when the ids fill
    enough of their span and a row holds enough of them (_DENSE_MIN,
    _ROW_IDS). Any other input runs philox4: unsorted or repeated ids have
    no run to draw, and other shapes are not rows of one minor value.
    Both paths give the same words. philox4 puts each in its own buffer;
    numpy's path returns views of one buffer of whole blocks, which no two
    words share an element of.
    """
    major = np.asarray(major, dtype=np.uint64)
    minor = np.asarray(minor, dtype=np.uint64)
    steps = minor.reshape(-1)
    if (
        major.ndim == 1
        and len(steps)
        and minor.shape in ((), (len(steps), 1))
        and len(major)
        and len(major) >= _DENSE_MIN * (int(major[-1]) - int(major[0]) + 1) + _ROW_IDS
        and (major[1:] > major[:-1]).all()
    ):
        words = _compiled_rows(seed, tag, major, steps)
        shape = np.broadcast_shapes(major.shape, minor.shape)
        return tuple(word.reshape(shape) for word in words)
    zeros = np.uint64(0)
    return philox4(major, minor, zeros, zeros, seed, tag)
