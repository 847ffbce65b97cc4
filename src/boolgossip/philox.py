"""Vectorized Philox4x64-10 counter-based random numbers.

The simulator addresses randomness by content, not by sequence position:
the draws for replication r at step t are a pure function of
(seed, stream tag, r, t). That makes results independent of batching,
early exits, and parallel schedules. numpy's Generator API does not expose
this kind of counter addressing, so the Philox4x64-10 transform is
implemented here directly (and verified word-for-word against numpy's own
Philox bit generator in the test suite).

One block maps a 256-bit counter (c0, c1, c2, c3) and a 128-bit key
(k0, k1) to four 64-bit words through ten multiply-xor rounds. The rounds
run in place over fixed-size chunks of the counters, so the working
buffers stay in cache and no full-length temporaries are built.
"""

from __future__ import annotations

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
    output words as uint64 arrays of the broadcast shape. The inputs are
    only read.
    """
    counters = np.broadcast_arrays(
        *(np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3))
    )
    shape = counters[0].shape
    flat = [c.reshape(-1) for c in counters]
    size = flat[0].size
    keys = [
        (np.uint64((k0 + r * _W0) & _U64), np.uint64((k1 + r * _W1) & _U64))
        for r in range(_ROUNDS)
    ]
    out = np.empty((4, size), dtype=np.uint64)
    width = max(1, min(_CHUNK, size))
    work = np.empty((10, width), dtype=np.uint64)
    for s in range(0, size, width):
        e = min(s + width, size)
        x0, x1, x2, x3, h0, l0, h1, l1, t, u = work[:, : e - s]
        for buf, src in zip((x0, x1, x2, x3), flat):
            buf[...] = src[s:e]
        for key0, key1 in keys:
            _mulhilo(_M0, x0, h0, l0, t, u)
            _mulhilo(_M1, x2, h1, l1, t, u)
            h1 ^= x1
            h1 ^= key0
            h0 ^= x3
            h0 ^= key1
            x0, x1, x2, x3, h0, l0, h1, l1 = h1, l1, h0, l0, x0, x1, x2, x3
        for word, buf in zip(out, (x0, x1, x2, x3)):
            word[s:e] = buf
    return tuple(word.reshape(shape) for word in out)


def uniforms(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to doubles in [0, 1)."""
    return (words >> _SHIFT11).astype(np.float64) * _TO_DOUBLE


def block(seed: int, tag: int, major, minor):
    """The four words for counter (major, minor, 0, 0) under key (seed, tag).

    major/minor are broadcastable integer arrays; this is the addressing
    scheme the simulator uses (major = replication, minor = step or block).
    """
    zeros = np.uint64(0)
    return philox4(major, minor, zeros, zeros, seed, tag)
