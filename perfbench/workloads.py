"""The benchmark workloads: their inputs, tasks and output checks.

There are two workloads, each made of parts run one after another in every
pass: `exact` (the parts `classes`, `sweep` and `absorb`: the exhaustive
chain, oracle and solver computations) and `sim` (the parts `sim-dense` and
`sim-sparse`: the Monte Carlo simulator). A pass over two or three parts
takes about 7 s, and a long run of such passes averages over the load
spells of a shared machine, which keeps `wall_s` steady.

A workload is a list of tasks. Each task calls one public `boolgossip` entry
point through an `Api` object (plain or traced, see tracing.py), and has a
check that compares the answer with a closed form or an exact oracle and
returns the deviation. Checks run outside the timed region, except the
oracle comparison of `sweep`, which is that workload's product.

The seed is turned into a node relabelling and a simulator seed; the
library only ever sees the generated graphs, start words and seeds. The
start words are fixed patterns moved by the relabelling, so every seed asks
for the same amount of work on an isomorphic chain: the seed changes the
inputs, not the cost.

Sizes are smaller than the baseline rows in ROADMAP.md so that a pass takes
a few seconds and several passes fit in one run; see perfbench/README.md for
the rows left out on purpose.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import boolgossip as bg

AND_OR = (bg.OP_AND, bg.OP_OR)
DEFAULT_SEED = 0
ABSORB_TOL = 1e-9
DENSITY_GAP_TOL = 0.05
MC_TOL = 0.01

# Output digests of the simulator tasks at DEFAULT_SEED and full scale.
# Seeded streams must stay bit-identical, so any change here is a failure.
RECORDED_DIGESTS = {
    "sim-dense/complete100": "6bd04c8b74bd6a57",
    "sim-sparse/cycle4-start1": "35b8d04ca2ab4ca6",
    "sim-sparse/cycle4-start3": "3d7cca62819445c1",
    "sim-sparse/cycle4-start5": "a5f40f10f396bae0",
    "sim-sparse/cycle4-start7": "19c523da10439f14",
}

# workload -> its parts, run in this order in every pass
WORKLOADS = {
    "exact": ("classes", "sweep", "absorb"),
    "sim": ("sim-dense", "sim-sparse"),
}

# part -> (full-scale parameters, tiny parameters for the self-test)
SIZES = {
    "classes": ({"cycle": 16, "complete": 14}, {"cycle": 6, "complete": 5}),
    "sweep": ({"cycle": 10, "complete": 7}, {"cycle": 5, "complete": 4}),
    "absorb": ({"cycle": 11, "line": 10}, {"cycle": 5, "line": 4}),
    "sim-dense": (
        {"n": 100, "rounds": 800, "steps_per_node": 20},
        {"n": 30, "rounds": 800, "steps_per_node": 10},
    ),
    "sim-sparse": ({"rounds": 100_000, "horizon": 400}, {"rounds": 20_000, "horizon": 100}),
}


@dataclass
class Task:
    """One timed call and the check of its answer.

    call(api) returns the output; check(output) returns the deviation from
    the reference (0 for exact answers) or raises CheckFailed.
    digest(output) is a canonical hash used to compare traced and untraced
    outputs and, for the simulator, the recorded digests.
    """

    name: str
    call: Callable[[Any], Any]
    check: Callable[[Any], float]
    digest: Callable[[Any], str]


class CheckFailed(Exception):
    """An answer disagreed with its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def relabel(g: bg.Graph, perm: list[int]) -> bg.Graph:
    """The same graph with node i renamed perm[i-1]."""
    return bg.Graph(g.n, tuple((perm[i - 1], perm[j - 1]) for i, j in g.edges))


def relabel_state(s: int, perm: list[int]) -> int:
    return sum(1 << (perm[i] - 1) for i in range(len(perm)) if s >> i & 1)


def _perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def _and_or(g: bg.Graph, p_or: Fraction | None = None) -> bg.ChainSpec:
    if p_or is None:
        return bg.ChainSpec(g, bg.RuleSet(AND_OR))
    return bg.ChainSpec(g, bg.RuleSet(AND_OR, (1 - p_or, p_or)))


# ---------------------------------------------------------------- classes


def _classes(rng, size):
    tasks = []
    for kind in ("cycle", "complete"):
        n = size[kind]
        g = relabel(bg.make(kind, n), _perm(rng, n))
        spec = _and_or(g)
        full = (1 << n) - 1

        def check(a, g=g, full=full):
            want = bg.predict_chi(g)
            _require(a.class_count == want, f"{a.class_count} classes, want {want}")
            got = np.nonzero(a.absorbing)[0].tolist()
            _require(got == [0, full], f"absorbing states {got[:4]}...")
            return 0.0

        tasks.append(
            Task(
                f"classes/{kind}{n}",
                lambda api, spec=spec: api.analyze(spec),
                check,
                lambda a: _sha(a.class_count, a.class_of.tobytes(), a.absorbing.tobytes()),
            )
        )
    return tasks


# ---------------------------------------------------------------- sweep


def _sweep_pool(size):
    """The six graphs of acceptance criterion 3, then one larger cycle and
    one larger complete graph."""
    return [
        ("edge", bg.parse_edge_list("1 2")),
        ("line3", bg.make("line", 3)),
        ("cycle3", bg.make("cycle", 3)),
        ("cycle4", bg.make("cycle", 4)),
        ("paw", bg.Graph(4, ((1, 2), (1, 3), (2, 3), (3, 4)))),
        ("star4", bg.make("star", 4)),
        (f"cycle{size['cycle']}", bg.make("cycle", size["cycle"])),
        (f"complete{size['complete']}", bg.make("complete", size["complete"])),
    ]


def _sweep(rng, size, tiny):
    pool = _sweep_pool(size)
    if tiny:
        pool = pool[-2:]
    rule_sets = [bg.mask_ops(mask) for mask in range(1, 1 << 16)]
    tasks = []
    for label, g in pool:
        g = relabel(g, _perm(rng, g.n))

        def call(api, g=g):
            verdicts = api.sweep(g)
            mismatches = sum(
                api.oracle(g, ops) != bool(verdicts[mask])
                for mask, ops in enumerate(rule_sets, start=1)
            )
            return verdicts, mismatches

        def check(out):
            _require(out[1] == 0, f"{out[1]} masks disagree with the oracle")
            return 0.0

        tasks.append(
            Task(
                f"sweep/{label}",
                call,
                check,
                lambda out: _sha(out[0].tobytes(), out[1]),
            )
        )
    return tasks


# ---------------------------------------------------------------- absorb


def _absorb(rng, size):
    # Fixed start patterns (node 1 is bit 0) moved by the relabelling:
    # a lone one and an adjacent pair on the cycle, one end and the left
    # half on the line.
    cases = (
        ("cycle", size["cycle"], Fraction(3, 10), (0b1, 0b11)),
        ("line", size["line"], Fraction(1, 2), (0b1, (1 << size["line"] // 2) - 1)),
    )
    tasks = []
    for kind, n, p_or, patterns in cases:
        perm = _perm(rng, n)
        spec = _and_or(relabel(bg.make(kind, n), perm), p_or)
        full = (1 << n) - 1
        for pattern in patterns:
            start = relabel_state(pattern, perm)

            def check(dist, n=n, full=full, start=start, martingale=p_or == Fraction(1, 2)):
                _require(set(dist) == {0, full}, f"absorbing states {sorted(dist)}")
                err = abs(sum(dist.values()) - 1.0)
                if martingale:
                    err = max(err, abs(dist[full] - bin(start).count("1") / n))
                _require(err <= ABSORB_TOL, f"deviation {err:.3e} > {ABSORB_TOL}")
                return err

            tasks.append(
                Task(
                    f"absorb/{kind}{n}-start{pattern:b}",
                    lambda api, spec=spec, start=start: api.solve(spec, start),
                    check,
                    lambda dist: _sha(sorted(dist.items())),
                )
            )
    return tasks


# ---------------------------------------------------------------- simulator


def _sim_digest(res) -> str:
    return _sha(
        res.density_mean.steps,
        res.density_mean.density,
        sorted(res.absorption_counts.items()),
        res.consensus_fraction,
    )


def _sim_dense(rng, size):
    n = size["n"]
    p_or = Fraction(49, 100)
    spec = _and_or(bg.make("complete", n), p_or)
    config = bg.SimConfig(
        spec,
        horizon=size["steps_per_node"] * n,
        rounds=size["rounds"],
        seed=rng.randrange(1 << 32),
        delta0=0.5,
    )
    params = bg.MeanFieldParams(n, float(p_or), 0.5)

    def check(res):
        predicted = bg.closed_form(params, np.array(res.density_mean.steps))
        gap = float(np.max(np.abs(np.array(res.density_mean.density) - predicted)))
        _require(gap <= DENSITY_GAP_TOL, f"mean-field gap {gap:.4f} > {DENSITY_GAP_TOL}")
        return gap

    return [Task(f"sim-dense/complete{n}", lambda api: api.run(config), check, _sim_digest)]


def _sim_sparse(rng, size):
    n = 4
    perm = _perm(rng, n)
    spec = _and_or(relabel(bg.make("cycle", n), perm), Fraction(3, 10))
    full = (1 << n) - 1
    tasks = []
    # One start from each orbit of the 14 transient states under the
    # cycle's symmetries: one 1, an adjacent pair, an opposite pair, three 1s.
    for pattern in (0b0001, 0b0011, 0b0101, 0b0111):
        start = relabel_state(pattern, perm)
        config = bg.SimConfig(
            spec, size["horizon"], size["rounds"], seed=rng.randrange(1 << 32), start=start
        )
        exact = bg.absorption_probabilities(spec, start)

        def check(res, rounds=config.rounds, exact=exact):
            err = max(
                abs(res.absorption_counts.get(w, 0) / rounds - exact[w]) for w in (0, full)
            )
            _require(err <= MC_TOL, f"Monte Carlo deviation {err:.4f} > {MC_TOL}")
            return err

        tasks.append(
            Task(
                f"sim-sparse/cycle4-start{pattern}",
                lambda api, config=config: api.run(config),
                check,
                _sim_digest,
            )
        )
    return tasks


NAMES = tuple(WORKLOADS)


def _part(part: str, seed: int, tiny: bool) -> list[Task]:
    rng = random.Random(f"{part}:{seed}")
    size = SIZES[part][1 if tiny else 0]
    if part == "classes":
        return _classes(rng, size)
    if part == "sweep":
        return _sweep(rng, size, tiny)
    if part == "absorb":
        return _absorb(rng, size)
    if part == "sim-dense":
        return _sim_dense(rng, size)
    return _sim_sparse(rng, size)


def build(name: str, seed: int, tiny: bool = False) -> list[Task]:
    """The tasks of workload `name`, with inputs drawn from `seed`.

    Each part draws from its own generator, so a part's inputs do not
    depend on the other parts of its workload.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    return [task for part in WORKLOADS[name] for task in _part(part, seed, tiny)]


def warm_up(api) -> None:
    """One call of every entry point at cycle(4), the same in every workload.

    It loads the lazily imported parts of numpy and scipy, and in a traced
    run it gives every layer at least one measured span.
    """
    g = bg.make("cycle", 4)
    spec = _and_or(g, Fraction(3, 10))
    api.analyze(spec)
    api.sweep(g)
    for mask in (0x82, 0xFFFF):
        api.oracle(g, bg.mask_ops(mask))
    api.solve(spec, 1)
    api.run(bg.SimConfig(spec, horizon=8, rounds=16, seed=1, start=1))
