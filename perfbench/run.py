"""Benchmark of boolgossip: two workloads over chain, solver, oracle and simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 0 --seconds 60 --trace 0

Each workload runs in fresh child processes (perfbench/worker.py), one
thread each, one after another: a closed loop with one client. Set-up is
timed in SETUP_SAMPLES processes and reported as the median; the last of
them goes on to run the timed passes, and `wall_s` is the trimmed mean of
their times (see trimmed_mean). A traced run starts only that one.
With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer ones. Every
answer is checked; a task that raises or fails its check counts in
`failed`. A copy of the result, stamped with the commit, the versions and
the machine, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact", "sim")  # as in workloads.WORKLOADS
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values without the lowest and highest fifth.

    Host load on a shared machine comes in spells of tens of seconds, so
    pass times fall into a fast and a slow group. A median then jumps
    between the groups from run to run; a mean moves smoothly with the
    share of slow passes, and trimming drops a single stalled pass.
    """
    values = sorted(values)
    k = len(values) // 5
    return mean(values[k:len(values) - k])


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Child:
    """A worker process; killed if it outlives the run's deadline."""

    def __init__(self, argv, env, root, deadline):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=root, text=True)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.timer.start()

    def wait_ready(self) -> float:
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.close()
            raise RuntimeError(f"worker did not get ready: {line!r}")
        return time.perf_counter() - self.started

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate()
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out

    def close(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    src = root / "src"
    if not (src / "boolgossip" / "__init__.py").is_file():
        print(f"no boolgossip sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])

    setup = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        child = Child(base + ["--setup-only"], env, root, deadline)
        setup.append(child.wait_ready())
        child.finish()
    spans = ["--spans", str(out_dir / f"{tag}-spans.npz")] if args.trace else []
    child = Child(base + spans, env, root, deadline)
    setup.append(child.wait_ready())
    res = json.loads(child.finish().splitlines()[-1])

    failed = len(res["failures"])
    attempted = res["attempted"]
    stamp = {
        "commit": git_commit(root),
        **res["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
    else:
        values = {
            "setup_s": median(setup),
            "wall_s": trimmed_mean(res["walls"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(res['walls'])} setup_samples={len(setup)}")
    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    for name in res.get("absent", []):
        print(f"# absent span {name}: the library no longer has it")
    if not res.get("self_time_ok", True):
        print("# WARNING span self times exceed the traced pass time")
    for failure in res["failures"][:20]:
        print(f"# FAILED {failure}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} tasks)")
    print(f"max_err {res['max_err']:.6g} abs")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    (out_dir / f"{tag}.json").write_text(json.dumps(
        {"stamp": stamp, "setup_s_samples": setup, "error_rate": failed / attempted,
         **line, **res}, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
