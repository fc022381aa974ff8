"""Benchmark of the synth -> verify -> simulate pipeline.

    python3 perfbench/run.py --workload batch_small --seed 1 --seconds 30 --trace 0

Runs one workload and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones (jobs_per_s, job_p50_ms,
peak_rss_mb, setup_s); with --trace 1 they are the per-layer ones of a
traced run.  See perfbench/README.md.

This process only orchestrates; it imports neither numpy nor hamlink.  Each
set-up and each measurement happens in a fresh child process (child.py),
with BLAS at one thread and pinned to one CPU.  setup_s is the median, over
SETUPS children, of the time from starting the child to its READY line.
The middle one of those children goes on to the timed phase, so that the
set-ups are spread over the whole run: the host's speed drifts over
seconds, and set-ups made back to back would all see the same state.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch_small", "dense_api", "moment_verify")
SETUPS = 7
# Every child is killed once the whole run has taken this long, so that the
# command ends within 180 s even if a child hangs.
DEADLINE_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(HERE)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, workdir: Path, setup_only: bool, deadline: float) -> dict:
    """Start one child; return its machine line, set-up time and result."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    out = {"machine": None, "setup_s": None, "result": None}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith("MACHINE "):
                out["machine"] = line[len("MACHINE "):].strip()
            elif line.strip() == "READY":
                out["setup_s"] = time.perf_counter() - start
            elif line.startswith("RESULT "):
                out["result"] = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or out["setup_s"] is None:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    if not setup_only and out["result"] is None:
        raise RuntimeError("child printed no result")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one set-up and small inputs, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hamlink" / "__init__.py").is_file():
        print(f"error: no hamlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    setups = 1 if (args.smoke or args.trace) else SETUPS
    setup_times = []
    final = None
    for i in range(setups):
        measuring = i == setups // 2
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
        try:
            child = run_child(args, workdir, not measuring, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if i == 0:
            print(f"machine: {child['machine']}", flush=True)
        setup_times.append(child["setup_s"])
        if measuring:
            final = child["result"]
    try:
        work_root.rmdir()
    except OSError:
        pass

    if args.trace:
        metrics = final["per_layer"]
        print(f"traced {final['jobs']} jobs, {final['spans']} spans written to "
              f"{final['trace_file']}", flush=True)
    else:
        values = {
            "jobs_per_s": final["jobs_per_s"],
            "job_p50_ms": final["job_p50_ms"],
            "peak_rss_mb": final["peak_rss_mb"],
            "setup_s": statistics.median(setup_times),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        print(f"{final['jobs']} jobs in {final['wall_s']:.2f} s; set-up times "
              + ", ".join(f"{t:.3f}" for t in setup_times) + " s", flush=True)
    print(json.dumps({
        "correct": final["correct"],
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
