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


def run(config: SimConfig) -> SimResult:
    """Simulate all rounds and aggregate densities, absorptions, consensus."""
    spec = config.spec
    g = spec.graph
    n = g.n
    rounds = config.rounds
    op_set = spec.rules.op_set
    pair_step = _PAIR_STEP.reshape(256, 4)
    edge_i = np.array([i - 1 for i, _ in g.edges], dtype=np.int64)
    edge_j = np.array([j - 1 for _, j in g.edges], dtype=np.int64)
    cum_w = np.cumsum([float(w) for w in spec.edge_weights])
    cum_p = np.cumsum([float(p) for p in spec.rules.probs])
    ops_arr = np.array(spec.rules.ops, dtype=np.int64)
    sample = config.sample_every if config.sample_every is not None else n
    ts = list(range(0, config.horizon + 1, sample))
    if ts[-1] != config.horizon:
        ts.append(config.horizon)

    states = _initial_states(config)
    ones = states.sum(axis=1, dtype=np.int64)
    alive = np.arange(rounds, dtype=np.int64)
    absorption_counts: dict[int, int] = {}
    consensus = 0
    full = (1 << n) - 1

    def pick(cum, words):
        return np.minimum(
            np.searchsorted(cum, uniforms(words), side="right"), len(cum) - 1
        )

    def retire_absorbed():
        nonlocal alive, consensus
        if len(alive) == 0:
            return
        done = absorbing_rows(g, op_set, states[alive])
        if done.any():
            for word, count in _count_rows(states[alive[done]]).items():
                absorption_counts[word] = absorption_counts.get(word, 0) + count
                if word == 0 or word == full:
                    consensus += count
            alive = alive[~done]

    def advance(t0, t1):
        w0, w1, w2, _ = block(
            config.seed,
            TAG_STEP,
            alive.astype(np.uint64)[:, None],
            np.arange(t0, t1, dtype=np.uint64),
        )
        edge_pick = pick(cum_w, w0)
        pair = ops_arr[pick(cum_p, w1)] << 4 | ops_arr[pick(cum_p, w2)]
        for k in range(t1 - t0):
            eidx = edge_pick[:, k]
            ni = edge_i[eidx]
            nj = edge_j[eidx]
            a = states[alive, ni]
            b = states[alive, nj]
            new = pair_step[pair[:, k], a | b << 1]
            new_a = new & 1
            new_b = new >> 1
            states[alive, ni] = new_a
            states[alive, nj] = new_b
            ones[alive] += (new_a.astype(np.int64) - a) + (
                new_b.astype(np.int64) - b
            )

    densities = [float(ones.sum()) / (rounds * n)]
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
        densities.append(float(ones.sum()) / (rounds * n))
        retire_absorbed()

    # Unabsorbed rounds whose final state happens to be all-equal still count
    # toward consensus.
    if len(alive):
        consensus += int(np.count_nonzero(ones[alive] == 0))
        consensus += int(np.count_nonzero(ones[alive] == n))

    trajectory = DensityTrajectory(tuple(ts), tuple(densities), KIND_EMPIRICAL)
    return SimResult(
        density_mean=trajectory,
        absorption_counts=absorption_counts,
        consensus_fraction=consensus / rounds,
    )
