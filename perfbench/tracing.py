"""Spans around the calls between boolgossip's modules, recorded from outside.

`Api` is how the workloads call the library. `Api(None)` calls the public
functions directly. `Api(tracer)` wraps each of them in a span and, while
the tracer is installed, also rebinds the module attributes that the
library calls across module boundaries:

    chain.analyze, chain.transition_row     (called by absorption_probabilities)
    chain.csgraph.connected_components      (the SCC step, through a shim)
    simulate.block, simulate.uniforms       (Philox draws)
    simulate.absorbing_rows                 (early-exit absorption check)

A name the library no longer has is reported as absent and left unwrapped.
Spans live in flat arrays in memory and are written out at the end.
"""

from __future__ import annotations

import time
import types
from array import array

import numpy as np

import boolgossip as bg
from boolgossip import chain, simulate

# Span names, one per layer boundary.
ANALYZE = "chain.analyze"
SCC = "chain.scc"
SWEEP = "chain.sweep"
SOLVE = "chain.solve"
ROW = "chain.transition_row"
ORACLE = "absorbing.oracle"
ROWS = "absorbing.rows"
RUN = "simulate.run"
BLOCK = "philox.block"
UNIFORMS = "philox.uniforms"
SPAN_NAMES = (ANALYZE, SCC, SWEEP, SOLVE, ROW, ORACLE, ROWS, RUN, BLOCK, UNIFORMS)
_NAME_ID = {name: idx for idx, name in enumerate(SPAN_NAMES)}

# Per-layer metrics of a traced run: name -> unit.
LAYER_METRICS = {
    "chain.analyze.calls": "count",
    "chain.analyze.s": "s",
    "chain.analyze.self_s": "s",
    "chain.states": "count",
    "chain.scc.calls": "count",
    "chain.scc.s": "s",
    "chain.sweep.s": "s",
    "chain.sweep.self_s": "s",
    "absorbing.oracle.calls": "count",
    "absorbing.oracle.s": "s",
    "chain.transition_row.calls": "count",
    "chain.transition_row.s": "s",
    "chain.rows_per_solve": "count",
    "chain.solve.s": "s",
    "chain.solve.self_s": "s",
    "absorbing.rows.calls": "count",
    "absorbing.rows.s": "s",
    "absorbing.rows.tested": "count",
    "absorbing.rows.hit_ratio": "ratio",
    "philox.block.calls": "count",
    "philox.block.s": "s",
    "philox.counters": "count",
    "philox.ns_per_counter": "ns",
    "philox.uniforms.s": "s",
    "simulate.run.s": "s",
    "simulate.run.self_s": "s",
    "simulate.round_steps": "count",
    "simulate.retired_ratio": "ratio",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span store. Each span has a name, start, end, parent index,
    task id and two work figures (a, b) whose meaning depends on the name."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.task = array("q")
        self.a = array("d")
        self.b = array("d")
        self.stack = [-1]
        self.task_id = -1
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.start)

    def span(self, name, fn, work=None):
        """fn wrapped in a span; work(args, result) -> (a, b) if given."""
        name_id = _NAME_ID[name]
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1])
            self.task.append(self.task_id)
            self.end.append(0.0)
            self.a.append(0.0)
            self.b.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if work is not None:
                self.a[idx], self.b[idx] = work(args, result)
            return result

        return wrapped

    def _rebind(self, owner, attr, name, work=None):
        if not hasattr(owner, attr):
            self.absent.append(name)
            return
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, work))

    def install(self):
        """Rebind the cross-module attributes; undo with uninstall()."""
        self.absent = []
        self._rebind(chain, "analyze", ANALYZE)
        self._rebind(chain, "transition_row", ROW)
        if hasattr(chain, "csgraph"):
            shim = types.SimpleNamespace(**vars(chain.csgraph))
            self._saved.append((chain, "csgraph", chain.csgraph))
            chain.csgraph = shim
            self._rebind(shim, "connected_components", SCC, _scc_work)
        else:
            self.absent.append(SCC)
        self._rebind(simulate, "block", BLOCK, _block_work)
        self._rebind(simulate, "uniforms", UNIFORMS)
        self._rebind(simulate, "absorbing_rows", ROWS, _rows_work)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "task": np.frombuffer(self.task, dtype=np.int64),
            "a": np.frombuffer(self.a),
            "b": np.frombuffer(self.b),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())


def _scc_work(args, result):
    return float(args[0].shape[0]), 0.0


def _block_work(args, result):
    _seed, tag, major, minor = args
    return float(np.broadcast(major, minor).size), float(tag)


def _rows_work(args, result):
    return float(len(result)), float(np.count_nonzero(result))


def _run_work(args, result):
    return float(args[0].rounds), 0.0


class Api:
    """The public calls the workloads make, traced when given a tracer."""

    def __init__(self, tracer: Tracer | None = None):
        calls = {
            "analyze": (bg.analyze, ANALYZE, None),
            "sweep": (bg.sweep_absorbing_verdicts, SWEEP, None),
            "solve": (bg.absorption_probabilities, SOLVE, None),
            "run": (bg.run, RUN, _run_work),
            "oracle": (bg.is_absorbing_chain_oracle, ORACLE, None),
        }
        for attr, (fn, name, work) in calls.items():
            setattr(self, attr, fn if tracer is None else tracer.span(name, fn, work))


def self_times(spans: dict[str, np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Duration minus the time covered by direct children, for span indices
    `rows`. Spans come from one thread, so children never overlap."""
    dur = spans["end"] - spans["start"]
    child_time = np.zeros(len(dur))
    parents = spans["parent"][rows]
    inner = parents >= 0
    np.add.at(child_time, parents[inner], dur[rows][inner])
    return dur[rows] - child_time[rows]


def layer_metrics(spans: dict[str, np.ndarray], rows: np.ndarray) -> dict[str, float]:
    """Per-layer metrics over the span indices `rows` (whole call trees)."""
    names = spans["name"][rows]
    dur = (spans["end"] - spans["start"])[rows]
    own = self_times(spans, rows)
    a = spans["a"][rows]
    b = spans["b"][rows]

    def pick(name):
        return names == _NAME_ID[name]

    def total(name, values=dur):
        return float(values[pick(name)].sum())

    def calls(name):
        return float(np.count_nonzero(pick(name)))

    solve_rows = np.nonzero(pick(SOLVE))[0]
    rows_in_solve = np.isin(spans["parent"][rows][pick(ROW)], rows[solve_rows])
    tested = total(ROWS, a)
    counters = total(BLOCK, a)
    rounds = total(RUN, a)
    step_counters = float(a[pick(BLOCK) & (b == getattr(simulate, "TAG_STEP", 1))].sum())
    retired = float(
        b[pick(ROWS) & np.isin(spans["parent"][rows], rows[pick(RUN)])].sum()
    )
    return {
        "chain.analyze.calls": calls(ANALYZE),
        "chain.analyze.s": total(ANALYZE),
        "chain.analyze.self_s": total(ANALYZE, own),
        "chain.states": total(SCC, a),
        "chain.scc.calls": calls(SCC),
        "chain.scc.s": total(SCC),
        "chain.sweep.s": total(SWEEP),
        "chain.sweep.self_s": total(SWEEP, own),
        "absorbing.oracle.calls": calls(ORACLE),
        "absorbing.oracle.s": total(ORACLE),
        "chain.transition_row.calls": calls(ROW),
        "chain.transition_row.s": total(ROW),
        "chain.rows_per_solve": _ratio(np.count_nonzero(rows_in_solve), len(solve_rows)),
        "chain.solve.s": total(SOLVE),
        "chain.solve.self_s": total(SOLVE, own),
        "absorbing.rows.calls": calls(ROWS),
        "absorbing.rows.s": total(ROWS),
        "absorbing.rows.tested": tested,
        "absorbing.rows.hit_ratio": _ratio(total(ROWS, b), tested),
        "philox.block.calls": calls(BLOCK),
        "philox.block.s": total(BLOCK),
        "philox.counters": counters,
        "philox.ns_per_counter": _ratio(total(BLOCK) * 1e9, counters),
        "philox.uniforms.s": total(UNIFORMS),
        "simulate.run.s": total(RUN),
        "simulate.run.self_s": total(RUN, own),
        "simulate.round_steps": step_counters,
        "simulate.retired_ratio": _ratio(retired, rounds),
    }


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
