"""One workload in one process: set up, signal ready, run timed passes.

Started by run.py with `src` on PYTHONPATH and thread counts set to 1. It
prints `ready` once set-up is done (run.py times set-up up to that line),
then runs passes over the workload's tasks until `--seconds` is used up,
and prints its result as one JSON line.

With --trace 1 it alternates untraced and traced passes; the difference of
their median pass times is the tracing overhead. Every output is compared
with that of the first pass, so a traced output that differs from the
untraced one counts as a failure.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from statistics import median

import numpy as np
import scipy

import workloads
from tracing import LAYER_METRICS, Api, Tracer, layer_metrics, self_times


class Runner:
    """Runs passes over the tasks and checks every answer."""

    def __init__(self, tasks, check_digests):
        self.tasks = tasks
        self.check_digests = check_digests
        self.attempted = 0
        self.failures: list[str] = []
        self.max_err = 0.0
        self.digests: dict[str, str] = {}

    def run_pass(self, api, tracer=None) -> tuple[float, list[np.ndarray]]:
        """Time one pass; return its wall time and the span rows of each task."""
        wall = 0.0
        rows = []
        for task in self.tasks:
            self.attempted += 1
            if tracer is not None:
                tracer.task_id += 1
                lo = len(tracer)
            t0 = time.perf_counter()
            try:
                out = task.call(api)
            except Exception as exc:  # a task that raises counts as failed
                wall += time.perf_counter() - t0
                self.failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
                continue
            wall += time.perf_counter() - t0
            if tracer is not None:
                rows.append(np.arange(lo, len(tracer)))
            self._check(task, out)
        return wall, rows

    def _check(self, task, out) -> None:
        try:
            self.max_err = max(self.max_err, task.check(out))
            digest = task.digest(out)
        except Exception as exc:  # a failed check counts against the task
            self.failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
            return
        first = self.digests.setdefault(task.name, digest)
        recorded = workloads.RECORDED_DIGESTS.get(task.name)
        if digest != first:
            self.failures.append(f"{task.name}: output differs between passes")
        elif self.check_digests and recorded is not None and digest != recorded:
            self.failures.append(f"{task.name}: digest {digest} != recorded {recorded}")

    def run_for(self, seconds, modes):
        """Rounds of one pass per (api, tracer) mode, until another round
        would overrun `seconds` (at least one round). A tracer is installed
        only during its own passes."""
        walls = [[] for _ in modes]
        rows = [[] for _ in modes]
        t_start = time.perf_counter()
        while True:
            for i, (api, tracer) in enumerate(modes):
                if tracer is not None:
                    tracer.install()
                try:
                    wall, pass_rows = self.run_pass(api, tracer)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                walls[i].append(wall)
                rows[i].append(pass_rows)
            spent = time.perf_counter() - t_start
            if spent + sum(median(w) for w in walls) > seconds:
                return walls, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans (.npz)")
    args = parser.parse_args(argv)

    tasks = workloads.build(args.workload, args.seed, args.tiny)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        workloads.warm_up(Api(tracer))
        tracer.uninstall()
        warm_rows = np.arange(len(tracer))
    else:
        workloads.warm_up(Api())
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(tasks, args.seed == workloads.DEFAULT_SEED and not args.tiny)
    result: dict = {}
    if tracer is None:
        (walls,), _ = runner.run_for(args.seconds, [(Api(), None)])
        result["walls"] = walls
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        (plain_walls, traced_walls), (_, traced_rows) = runner.run_for(
            args.seconds, [(Api(), None), (Api(tracer), tracer)]
        )
        spans = tracer.arrays()
        samples = []
        self_time_ok = True
        for wall, pass_rows in zip(traced_walls, traced_rows):
            rows = np.concatenate([warm_rows, *pass_rows])
            samples.append(layer_metrics(spans, rows))
            own = sum(float(self_times(spans, r).sum()) for r in pass_rows)
            self_time_ok &= own <= wall + 1e-9
        metrics = {key: median(s[key] for s in samples) for key in samples[0]}
        metrics["trace.overhead_s"] = median(traced_walls) - median(plain_walls)
        metrics = {key: [metrics[key], unit] for key, unit in LAYER_METRICS.items()}
        result.update(
            walls=plain_walls,
            traced_walls=traced_walls,
            layers=metrics,
            absent=tracer.absent,
            self_time_ok=self_time_ok,
        )
        if args.spans:
            tracer.save(args.spans)
    result.update(
        attempted=runner.attempted,
        failures=runner.failures,
        max_err=runner.max_err,
        digests=runner.digests,
        versions={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
