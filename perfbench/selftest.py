"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it runs run.py untraced and traced with --tiny, and
checks that the run is correct, that every metric BENCHMARK.json names is
reported with its unit, that the traced outputs equal the untraced ones,
that each layer the workload exercises has spans inside its tasks, and that
span self times fit in the traced pass. Last, it checks that the benchmark
refuses to run without the library sources. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# Spans that must occur inside the tasks of each workload, not only in the
# warm-up.
EXERCISED = {
    "exact": ("chain.analyze", "chain.scc", "chain.sweep", "absorbing.oracle",
              "chain.solve", "chain.transition_row"),
    "sim": ("simulate.run", "philox.block", "philox.uniforms", "absorbing.rows"),
}


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def spans_in_tasks(path: Path) -> set[str]:
    import numpy as np

    with np.load(path) as spans:
        names = spans["names"]
        return {str(names[i]) for i in np.unique(spans["name"][spans["task"] >= 0])}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(EXERCISED):
        fail("BENCHMARK.json workloads differ from the self-test's")
    for workload in EXERCISED:
        for trace in (0, 1):
            proc = run(workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace={trace}: result keys {sorted(line)}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                fail(f"{workload} trace={trace}: {proc.stdout}")
            units = {k: m["unit"] for k, m in line["metrics"].items()}
            if units != wanted[trace]:
                fail(f"{workload} trace={trace}: metrics {units} != {wanted[trace]}")
            for name, metric in line["metrics"].items():
                if not isinstance(metric["value"], (int, float)):
                    fail(f"{workload} {name} is not a number")
            if trace:
                tag = f"{workload}-seed0-trace1-tiny"
                result = json.loads((OUT / f"{tag}.json").read_text())
                plain = json.loads((OUT / f"{workload}-seed0-trace0-tiny.json").read_text())
                if result["digests"] != plain["digests"]:
                    fail(f"{workload}: traced and untraced runs gave different outputs")
                if not result["self_time_ok"]:
                    fail(f"{workload}: span self times exceed the traced pass time")
                missing = set(EXERCISED[workload]) - spans_in_tasks(OUT / f"{tag}-spans.npz")
                if missing:
                    fail(f"{workload}: no spans of {sorted(missing)} inside its tasks")
            print(f"ok {workload} trace={trace}")

    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("exact", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"run without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
