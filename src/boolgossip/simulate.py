"""Seeded Monte Carlo simulation of the gossip process.

Each replication round draws an initial state (fixed, or i.i.d. Bernoulli
per node), then repeatedly selects an edge by the edge weights and two
operators i.i.d. from the rule set (smaller-indexed endpoint first) and
applies the simultaneous pair update by looking it up in the edge-outcome
table that chain builds from chain.step_pair, void rule included.

All randomness is counter-addressed: the draws for round r at step t are a
pure function of (seed, r, t), so results are bit-identical under any
batching or early-exit schedule. Rounds that reach an absorbing state are
retired early (their density stays frozen, which is what the dynamics
would do anyway), and absorption is detected at density-sample points, so
the horizon sample always catches it. Absorbed rows are tallied by sorting
their packed bytes, one Python int per distinct absorbed state.

An edge or operator is the count of cumulative-weight bounds at or below
the uniform of its Philox word, read from the word itself by integer
thresholds: summed comparisons for up to 15 entries, a guide table for
more. Picks are small unsigned integers, and the two operator picks make
one index into a uint16 table of operator pairs. The alive rounds' states
are one compacted array of bytes, so a step is one flat gather of the two
ends' bytes of every round's edge, read as one uint16, one or with the
round's operator pair, one lookup in a 16 KB table and one scatter. Ones
are counted only at sample points, as the alive rows' ones plus a running
total over the retired rows.

The step draws of a sample interval are made in blocks of a bounded number
of counters, so memory stays flat however long the interval is. A counter
costs 32 B while its block is drawn (one buffer of its four Philox words),
42 B at the peak, when the edge pick's word is copied out of that buffer
beside the operator pair (2 B), and less after: the edge pick and the two
end slots (16 B). Long runs log a progress line at most every ten seconds.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .absorbing import absorbing_rows
from .chain import _PAIR_STEP, ChainSpec
from .errors import PreconditionError
from .meanfield import KIND_EMPIRICAL, DensityTrajectory, _sample_grid
from .philox import _SHIFT11, block, uniforms

TAG_INIT = 0
TAG_STEP = 1

# Step draws are made in blocks of at most this many counters, so memory
# does not grow with sample_every. Under tracemalloc a block of 2^16
# counters peaks at 2.9 MB, 44 B a counter (see the module docstring).
# Timed on a 2-vCPU Xeon (glibc, numpy 2.4) over blocks of one size, a
# pass of 800 rounds on complete(100) and 100k on cycle(4) costs the same
# CPU time from 2^16 to 2^18 counters a block, and so does 2000 rounds on
# complete(1000), whose edge tables (16 MB) are gathered from at random.
# The peak RSS of that pass grows with the block: 72 MB at 2^16, 75 MB at
# 2^17 and 83 MB at 2^18, the import taking 62 MB.
_DRAW_COUNTERS = 1 << 16
# Least time between two progress lines (INFO, logger boolgossip.simulate).
_LOG_SECONDS = 10.0

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimConfig:
    """Simulation request: chain spec, start rule, horizon, rounds, seed.

    Exactly one of `start` (a state word) and `delta0` (i.i.d. Bernoulli
    initial density) must be given. Densities are recorded every
    `sample_every` steps (default: n) plus the horizon itself.
    """

    spec: ChainSpec
    horizon: int
    rounds: int
    seed: int
    start: int | None = None
    delta0: float | None = None
    sample_every: int | None = None

    def __post_init__(self):
        if (self.start is None) == (self.delta0 is None):
            raise PreconditionError("give exactly one of start and delta0")
        n = self.spec.graph.n
        if self.start is not None and not 0 <= self.start < 1 << n:
            raise PreconditionError(f"start state out of range for n={n}")
        if self.delta0 is not None and not 0.0 <= self.delta0 <= 1.0:
            raise PreconditionError(f"delta0 must lie in [0, 1]: {self.delta0}")
        if self.horizon < 1:
            raise PreconditionError(f"horizon must be >= 1, got {self.horizon}")
        if self.rounds < 1:
            raise PreconditionError(f"rounds must be >= 1, got {self.rounds}")
        if self.sample_every is not None and self.sample_every < 1:
            raise PreconditionError("sample_every must be positive")


@dataclass
class SimResult:
    """Averaged density trajectory, absorption tallies, and consensus rate.

    absorption_counts maps absorbed state words to the number of rounds
    that ended there; rounds still unabsorbed at the horizon are not
    counted. consensus_fraction is the fraction of rounds whose final
    state was all-equal.
    """

    density_mean: DensityTrajectory
    absorption_counts: dict[int, int]
    consensus_fraction: float


def _count_rows(rows: np.ndarray) -> dict[int, int]:
    """Count the distinct rows of a (rows, n) 0/1 matrix, keyed by state word.

    Rows are packed to bytes and sorted, so each distinct row costs one
    int.from_bytes call however often it repeats; words stay exact for any n.
    """
    packed = np.packbits(rows, axis=1, bitorder="little")
    packed = packed[np.lexsort(packed.T)]
    starts = np.flatnonzero(
        np.concatenate(([True], (packed[1:] != packed[:-1]).any(axis=1)))
    )
    counts = np.diff(np.append(starts, len(packed)))
    return {
        int.from_bytes(packed[i].tobytes(), "little"): int(c)
        for i, c in zip(starts, counts)
    }


def _initial_states(config: SimConfig) -> np.ndarray:
    n = config.spec.graph.n
    rounds = config.rounds
    if config.start is not None:
        bits = np.array([config.start >> i & 1 for i in range(n)], dtype=np.uint8)
        return np.tile(bits, (rounds, 1))
    states = np.empty((rounds, n), dtype=np.uint8)
    ids = np.arange(rounds, dtype=np.uint64)
    for blk in range((n + 3) // 4):
        words = block(config.seed, TAG_INIT, ids, np.uint64(blk))
        for pos in range(4):
            node = 4 * blk + pos
            if node >= n:
                break
            states[:, node] = uniforms(words[pos]) < config.delta0
    return states


# Tables of at most this many entries are picked by summed comparisons,
# one pass over the words per bound; larger ones by a guide table, which
# costs about the same at any size. Over 400k words on a 2-vCPU Xeon the
# summed pick takes about 0.8 ms at 2 entries and 3.3 ms at 15 (3.9 ms at
# 17), the guide table 3.2 to 4.5 ms up to 4950 entries and 7.5 ms at
# 499500, whose tables take 8 MB.
_SUMMED_MAX = 15


def _picker(weights):
    """The draw of an index from a weight table, as a function of Philox words.

    A word w stands for the uniform u = (w >> 11) * 2^-53, and the pick is
    the count of the bounds cum[:-1] that are <= u, where cum is the float
    cumsum of the weights. That is min(searchsorted(cum, u, "right"),
    m - 1), so a cumsum that ends below 1 still gives the last entry. The
    weights are positive, so each bound b is, and u >= b holds exactly
    when w > last_b = (K_b << 11) - 1 with K_b = ceil(b * 2^53) >= 1; a
    bound with K_b >= 2^53 never fires, and clamping K_b to 2^53 makes its
    last_b 2^64 - 1, which no word passes. Small tables sum w > last_b over
    the bounds into uint8. Larger tables take a candidate from a guide
    table of 2^L >= 2m equal cells (Chen and Asau), read at the top L bits
    of the word, whose entry is the count of bounds the cell's first word
    passes, so the candidate is never too high. It is kept when w does not
    pass its bound, moved up by one when it does, and the words still
    unresolved go to searchsorted. Picks come in the smallest unsigned type
    that holds m - 1.
    """
    bounds = np.cumsum(np.asarray(weights, dtype=np.float64))[:-1]
    k = np.minimum(np.ceil(bounds * 2.0**53), 2.0**53).astype(np.uint64)
    last = (k << _SHIFT11) - np.uint64(1)
    if len(last) < _SUMMED_MAX:

        def pick(words):
            idx = np.zeros(words.shape, dtype=np.uint8)
            for b in last:
                idx += words > b
            return idx

        return pick
    bits = (2 * len(last) + 1).bit_length()
    shift = np.uint64(64 - bits)
    starts = np.arange(1 << bits, dtype=np.uint64) << shift
    guide = np.searchsorted(last, starts, side="left")
    guide = guide.astype(np.min_scalar_type(len(last)))
    upper = np.append(last, np.uint64(2**64 - 1))

    def pick(words):
        flat = words.reshape(-1)
        # The cells, below 2^bits, read as intp so that take needs no copy.
        idx = guide.take((flat >> shift).view(np.intp))
        miss = np.flatnonzero(flat > upper.take(idx))
        if len(miss):
            late_w = flat[miss]
            moved = idx[miss] + 1
            late = late_w > upper[moved]
            moved[late] = np.searchsorted(last, late_w[late], side="left")
            idx[miss] = moved
        return idx.reshape(words.shape)

    return pick


def _byte_pair(first, second):
    """The bytes (first, second), broadcast together, read as one uint16."""
    pair = np.stack(np.broadcast_arrays(first, second), axis=-1).astype(np.uint8)
    return pair.view(np.uint16)[..., 0]


def _step_table():
    """_STEP_BITS[_byte_pair(k << 1 | b_i, l << 1 | b_j)]: the new bits of i
    and of j, as _byte_pair(b_i', b_j'), when i holds b_i and draws k and j
    holds b_j and draws l. A step gathers the two ends' bytes, reads them as
    one uint16 and ors in _byte_pair(k << 1, l << 1) to make the key; on a
    little-endian machine it is k << 1 | l << 9 | b_i | b_j << 8, under 2^13.
    """
    k, l, b_j, b_i = np.indices((16, 16, 2, 2))
    new = _PAIR_STEP.reshape(16, 16, 2, 2)  # code b_i | b_j << 1 as (b_j, b_i)
    table = np.zeros(1 << 13, dtype=np.uint16)
    table[_byte_pair(k << 1 | b_i, l << 1 | b_j)] = _byte_pair(new & 1, new >> 1)
    return table


_STEP_BITS = _step_table()


def _step(flat, slots, pair):
    """Apply one step to every round: slots holds the flat indices in flat
    of each round's two ends, pair each round's operator bits of the key."""
    key = flat[slots].view(np.uint16).reshape(-1)
    key |= pair
    flat[slots] = _STEP_BITS.take(key).view(np.uint8).reshape(-1, 2)


def run(config: SimConfig) -> SimResult:
    """Simulate all rounds and aggregate densities, absorptions, consensus."""
    spec = config.spec
    g = spec.graph
    n = g.n
    rounds = config.rounds
    op_set = spec.rules.op_set
    # Both 0-based ends of an edge as one 16-byte item, so that one take
    # copies whole pairs.
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2) - 1
    ends = ends.view(np.dtype((np.void, 2 * ends.itemsize))).reshape(-1)
    edge_pick = _picker(spec._float_weights)
    op_pick = _picker(spec.rules.probs)
    # pairs[k * m + l]: the operator bits of _STEP_BITS's key when the ends
    # draw operators k and l. At most 16 operators, so k * m + l and the
    # picks fit in uint8.
    ops = np.array(spec.rules.ops)
    m_ops = np.uint8(len(ops))
    pairs = _byte_pair(ops[:, None] << 1, ops << 1).reshape(-1)
    sample = config.sample_every if config.sample_every is not None else n
    ts = _sample_grid(config.horizon, sample)

    # live holds the states of the alive rounds, compacted at each
    # retirement; retired_ones counts the ones of the retired rows.
    live = _initial_states(config)
    alive = np.arange(rounds, dtype=np.int64)
    retired_ones = 0
    absorption_counts: dict[int, int] = {}
    consensus = 0
    full = (1 << n) - 1

    def retire_absorbed():
        nonlocal live, alive, retired_ones, consensus
        if len(alive) == 0:
            return
        done = absorbing_rows(g, op_set, live)
        if done.any():
            rows = live.compress(done, axis=0)
            retired_ones += int(np.count_nonzero(rows))
            for word, count in _count_rows(rows).items():
                absorption_counts[word] = absorption_counts.get(word, 0) + count
                if word == 0 or word == full:
                    consensus += count
            keep = ~done
            live = live.compress(keep, axis=0)
            alive = alive.compress(keep)

    def advance(t0, t1):
        # Words come as (steps, alive rounds), so each step reads one
        # contiguous row; round r at step t draws counter (r, t, 0, 0).
        words = block(
            config.seed,
            TAG_STEP,
            alive.astype(np.uint64),
            np.arange(t0, t1, dtype=np.uint64)[:, None],
        )
        pick = op_pick(words[1])
        pick *= m_ops
        pick += op_pick(words[2])
        pair = pairs.take(pick)
        del pick
        # The words may be views of one buffer of whole blocks (32 B a
        # counter). The edge pick makes temporaries of its word's size, so
        # its word is copied out and the buffer dropped first.
        w0 = np.ascontiguousarray(words[0])
        del words
        edge = edge_pick(w0)
        del w0
        # slots[k, r] holds the flat indices in live of the two ends of the
        # edge that round r updates at step k.
        slots = ends.take(edge).view(np.intp).reshape(t1 - t0, len(alive), 2)
        del edge
        slots += (np.arange(len(alive)) * n)[:, None]
        flat = live.reshape(-1)
        for k in range(t1 - t0):
            _step(flat, slots[k], pair[k])

    def density():
        return float(retired_ones + np.count_nonzero(live)) / (rounds * n)

    densities = [density()]
    retire_absorbed()
    logged = time.monotonic()
    for t0, t1 in zip(ts, ts[1:]):
        if len(alive):
            steps = max(1, _DRAW_COUNTERS // len(alive))
            for s0 in range(t0, t1, steps):
                s1 = min(s0 + steps, t1)
                advance(s0, s1)
                if time.monotonic() - logged >= _LOG_SECONDS:
                    logged = time.monotonic()
                    _log.info(
                        "step %d of %d, %d of %d rounds alive",
                        s1, config.horizon, len(alive), rounds,
                    )
        densities.append(density())
        retire_absorbed()

    # Unabsorbed rounds whose final state happens to be all-equal still count
    # toward consensus.
    if len(alive):
        ones = live.sum(axis=1, dtype=np.int64)
        consensus += int(np.count_nonzero(ones == 0))
        consensus += int(np.count_nonzero(ones == n))

    trajectory = DensityTrajectory(ts, tuple(densities), KIND_EMPIRICAL)
    return SimResult(
        density_mean=trajectory,
        absorption_counts=absorption_counts,
        consensus_fraction=consensus / rounds,
    )
