"""Wrappers around hamlink's public functions, patched from outside.

Every public function of cli, files, synth, symcore, lqss and verify gets
one wrapper, bound wherever a hamlink module bound the original, so calls
through ``from .x import f`` names are caught as well and no file of the
package changes.  numpy.linalg's svd, cond, solve and eigvals are wrapped
at the package attribute hamlink calls them through.

With tracing on, a wrapper records a span (name, start, end, parent).
Spans stay in memory in the order their calls began and are written out
when the run ends.  The benchmark opens a ``job`` span around each job, so
a job's spans are the contiguous run that follows it.  With tracing off,
only functions that have an observer are wrapped, and the wrapper just
hands the result to the observer.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

TRACED_MODULES = ("cli", "files", "synth", "symcore", "lqss", "verify")
LINALG = ("svd", "cond", "solve", "eigvals")

# Per-layer metrics and their units.  Unless noted in the README, a value
# is the median over the traced jobs of that job's total.
LAYER_METRICS = {
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
    "files.load_problem_ms": "ms",
    "files.load_report_ms": "ms",
    "files.save_report_ms": "ms",
    "files.make_provenance_ms": "ms",
    "files.save_problem_ms": "ms",
    "files.report_bytes": "B",
    "files.write_mb_per_s": "MB/s",
    "files.read_mb_per_s": "MB/s",
    "symcore.jmat_calls": "count",
    "symcore.as_even_matrix_calls": "count",
    "symcore.sharp_adjoint_calls": "count",
    "synth.synthesize_ms": "ms",
    "synth.self_ms": "ms",
    "symcore.special_svd_ms": "ms",
    "symcore.cayley_sigma_from_x_ms": "ms",
    "synth.hamiltonian_corrections_ms": "ms",
    "synth.coupling_relation_residual_ms": "ms",
    "verify.check_equivalence_ms": "ms",
    "verify.check_self_ms": "ms",
    "lqss.direct_dynamics_ms": "ms",
    "linalg.svd_calls": "count",
    "linalg.cond_calls": "count",
    "linalg.solve_calls": "count",
    "linalg.eigvals_calls": "count",
    "verify.closed_loop_dynamics_ms": "ms",
    "verify.simulate_moments_ms": "ms",
    "verify.rk4_steps_per_s": "1/s",
    "verify.compare_moment_trajectories_ms": "ms",
    "verify.trajectory_mb": "MB",
    "trace.overhead_pct": "%",
}

_READS = ("files.load_problem", "files.load_report")
_PATH_ARG = {
    "files.load_problem": (0, "path"),
    "files.load_report": (0, "path"),
    "files.save_problem": (1, "path"),
    "files.save_report": (3, "path"),
}


def _probe(name, args, kwargs, result):
    """Bytes a document call read or wrote, or the size of a trajectory."""
    if name in _PATH_ARG:
        index, key = _PATH_ARG[name]
        return os.path.getsize(kwargs[key] if key in kwargs else args[index])
    if name == "verify.simulate_moments":
        nbytes = result.times.nbytes + result.means.nbytes + result.covariances.nbytes
        return [len(result.times) - 1, nbytes]
    return None


def public_functions() -> dict[int, tuple[str, object]]:
    """id -> (layer.name, function) for the traced modules and numpy.linalg."""
    out = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"hamlink.{short}")
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[id(obj)] = (f"{short}.{attr}", obj)
    for attr in LINALG:
        fn = getattr(np.linalg, attr)
        out[id(fn)] = (f"linalg.{attr}", fn)
    return out


class Instruments:
    """Installs wrappers; records spans when trace is true."""

    def __init__(self, trace: bool, observers: dict | None = None):
        self.trace = trace
        self.observers = observers or {}
        self.names: list[str] = []
        self.spans: list = []
        self.extra: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches: list = []
        self.origin = time.perf_counter()

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        observer = self.observers.get(name)
        if not self.trace:
            def observed(*args, **kwargs):
                result = fn(*args, **kwargs)
                observer(result, args, kwargs)
                return result
            return observed

        idx = self._name_index(name)
        spans, stack, extra, clock = self.spans, self._stack, self.extra, time.perf_counter
        probe = name in _PATH_ARG or name == "verify.simulate_moments"

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (idx, t0, t1, parent)
            if probe:
                extra[i] = _probe(name, args, kwargs, result)
            if observer is not None:
                observer(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Bind a wrapper at every site that holds a public function."""
        originals = public_functions()
        wrappers = {}
        sites = [m for n, m in sys.modules.items() if n == "hamlink" or n.startswith("hamlink.")]
        sites.append(np.linalg)
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is None or entry[1] is not obj:
                    continue
                name = entry[0]
                if not self.trace and name not in self.observers:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                setattr(mod, attr, wrappers[id(obj)])
                self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def job(self, fn):
        """Call fn() inside a root span named job and return its result."""
        idx = self._name_index("job")
        i = len(self.spans)
        self.spans.append(None)
        self._stack.append(i)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[i] = (idx, t0, t1, -1)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: a header, then one span a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            header = {"names": self.names, "row": ["name", "start_s", "end_s", "parent", "bytes or [steps, bytes]"]}
            out.write(json.dumps(header) + "\n")
            for i, (idx, t0, t1, parent) in enumerate(self.spans):
                row = [idx, round(t0 - self.origin, 9), round(t1 - self.origin, 9), parent]
                if i in self.extra:
                    row.append(self.extra[i])
                out.write(json.dumps(row) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the job spans, medians over jobs."""
        names, spans, extra = self.names, self.spans, self.extra
        child = [0.0] * len(spans)
        for idx, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        job_idx = self._name_index("job")
        starts = [i for i, s in enumerate(spans) if s[0] == job_idx]
        rows = []
        for j, start in enumerate(starts):
            end = starts[j + 1] if j + 1 < len(starts) else len(spans)
            time_in = defaultdict(float)
            calls = defaultdict(int)
            nbytes = defaultdict(int)
            steps = 0
            cli_self = synth_self = check_self = 0.0
            for i in range(start + 1, end):
                idx, t0, t1, _ = spans[i]
                name = names[idx]
                dur = t1 - t0
                time_in[name] += dur
                calls[name] += 1
                if name.startswith("cli."):
                    cli_self += dur - child[i]
                elif name.startswith("synth."):
                    synth_self += dur - child[i]
                if name == "verify.check_equivalence":
                    check_self += dur - child[i]
                if i in extra:
                    if name == "verify.simulate_moments":
                        steps += extra[i][0]
                        nbytes[name] += extra[i][1]
                    else:
                        nbytes[name] += extra[i]
            read_s = sum(time_in[n] for n in _READS)
            row = {
                "cli.self_ms": 1e3 * cli_self,
                "synth.self_ms": 1e3 * synth_self,
                "verify.check_self_ms": 1e3 * check_self,
                "files.report_bytes": nbytes["files.save_report"],
                "files.write_mb_per_s": _rate(nbytes["files.save_report"] / 1e6, time_in["files.save_report"]),
                "files.read_mb_per_s": _rate(sum(nbytes[n] for n in _READS) / 1e6, read_s),
                "verify.rk4_steps_per_s": _rate(steps, time_in["verify.simulate_moments"]),
                "verify.trajectory_mb": nbytes["verify.simulate_moments"] / 1e6,
            }
            for metric, unit in LAYER_METRICS.items():
                if metric in row or metric in ("files.save_problem_ms", "trace.overhead_pct"):
                    continue
                base = metric.rsplit("_", 1)[0]
                row[metric] = calls[base] if unit == "count" else 1e3 * time_in[base]
            rows.append(row)
        out = {m: statistics.median(r[m] for r in rows) for m in rows[0]} if rows else {}
        saves = [t1 - t0 for idx, t0, t1, _ in spans if names[idx] == "files.save_problem"]
        out["files.save_problem_ms"] = 1e3 * statistics.median(saves) if saves else 0.0
        return out


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0
