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
its uniform draw: summed comparisons for up to 15 entries, a guide table
for more. The alive rounds' states are one compacted array, so a step is
one flat gather of both ends of every round's edge, one table lookup and
one scatter. Ones are counted only at sample points, as the alive rows'
ones plus a running total over the retired rows.

The step draws of a sample interval are made in blocks of a bounded number
of counters, so memory stays flat however long the interval is. Long runs
log a progress line at most every ten seconds.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .absorbing import absorbing_rows
from .chain import _PAIR_STEP, ChainSpec
from .errors import PreconditionError
from .meanfield import KIND_EMPIRICAL, DensityTrajectory
from .philox import block, uniforms

TAG_INIT = 0
TAG_STEP = 1

# Step draws are made in blocks of at most this many counters, about 64 B
# each while a block is live, so memory does not grow with sample_every.
# The perfbench intervals (at most 400k counters) fit in one block.
_DRAW_COUNTERS = 1 << 19
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
# one pass over the draws per bound; larger ones by a guide table, which
# costs about the same at any size. Over 400k draws on a 2-vCPU Xeon the
# summed pick takes about 0.8 ms at 2 entries and 9 ms at 15, the guide
# table 8 to 11 ms at any size.
_SUMMED_MAX = 15


def _picker(weights):
    """The draw of an index from a weight table, as a function of uniforms.

    It maps u to the count of the bounds cum[:-1] that are <= u, where cum
    is the float cumsum of the weights. That is min(searchsorted(cum, u,
    "right"), m - 1), so a cumsum that ends below 1 still gives the last
    entry. Small tables sum u >= b over the bounds. Larger tables take a
    candidate from a guide table of at least 2m equal cells (Chen and
    Asau), whose entry is the index at the left end of the cell, so the
    candidate is never too high. It is kept when u is below its upper
    bound, moved up by one when not, and the draws still unresolved go to
    searchsorted.
    """
    bounds = np.cumsum([float(w) for w in weights])[:-1]
    if len(bounds) < _SUMMED_MAX:

        def pick(u):
            idx = np.zeros(u.shape, dtype=np.intp)
            for b in bounds:
                idx += u >= b
            return idx

        return pick
    cells = 1 << (2 * len(bounds) + 1).bit_length()
    guide = np.searchsorted(bounds, np.arange(cells) / cells, side="right")
    # int32 cells halve the table (8 MB to 4 MB at 499500 edges); the
    # gathered candidates are cast back so the later gathers index by intp.
    if len(bounds) < 2**31:
        guide = guide.astype(np.int32)
    upper = np.append(bounds, np.inf)

    def pick(u):
        flat_u = u.reshape(-1)
        # u * cells is exact (cells is a power of two), so the cell holds u.
        idx = guide[(flat_u * cells).astype(np.intp)].astype(np.intp)
        miss = np.flatnonzero(flat_u >= upper[idx])
        if len(miss):
            late_u = flat_u[miss]
            moved = idx[miss] + 1
            late = late_u >= upper[moved]
            moved[late] = np.searchsorted(bounds, late_u[late], side="right")
            idx[miss] = moved
        return idx.reshape(u.shape)

    return pick


# _STEP_BITS[k << 6 | l << 2 | c]: the new bits (of i, of j) of _PAIR_STEP
# as two bytes read as one uint16, so one gather gives both endpoints.
_STEP_BITS = (
    np.stack([_PAIR_STEP & 1, _PAIR_STEP >> 1], axis=-1).view(np.uint16).reshape(-1)
)


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
    edge_pick = _picker(spec.edge_weights)
    op_pick = _picker(spec.rules.probs)
    ops = np.array(spec.rules.ops, dtype=np.intp)
    op_i, op_j = ops << 6, ops << 2
    sample = config.sample_every if config.sample_every is not None else n
    ts = list(range(0, config.horizon + 1, sample))
    if ts[-1] != config.horizon:
        ts.append(config.horizon)

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
            rows = live[done]
            retired_ones += int(np.count_nonzero(rows))
            for word, count in _count_rows(rows).items():
                absorption_counts[word] = absorption_counts.get(word, 0) + count
                if word == 0 or word == full:
                    consensus += count
            live = live[~done]
            alive = alive[~done]

    def advance(t0, t1):
        # Words come as (steps, alive rounds), so each step reads one
        # contiguous row; round r at step t draws counter (r, t, 0, 0).
        # The words are separate arrays; each is dropped once used.
        w0, w1, w2 = block(
            config.seed,
            TAG_STEP,
            alive.astype(np.uint64),
            np.arange(t0, t1, dtype=np.uint64)[:, None],
        )[:3]
        pair = op_i.take(op_pick(uniforms(w1))) | op_j.take(op_pick(uniforms(w2)))
        del w1, w2
        # slots[k, r] holds the flat indices in live of the two ends of the
        # edge that round r updates at step k.
        slots = ends.take(edge_pick(uniforms(w0))).view(np.intp)
        del w0
        slots += np.repeat(np.arange(len(alive)) * n, 2)
        slots = slots.reshape(t1 - t0, len(alive), 2)
        flat = live.reshape(-1)
        for k in range(t1 - t0):
            bits = flat[slots[k]]
            new = _STEP_BITS[pair[k] | (bits[:, 0] | bits[:, 1] << 1)]
            flat[slots[k]] = new.view(np.uint8).reshape(-1, 2)

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

    trajectory = DensityTrajectory(tuple(ts), tuple(densities), KIND_EMPIRICAL)
    return SimResult(
        density_mean=trajectory,
        absorption_counts=absorption_counts,
        consensus_fraction=consensus / rounds,
    )
