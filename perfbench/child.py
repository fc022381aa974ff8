"""One workload in one fresh process.

Started by run.py with the thread count fixed to one.  It pins itself to the
highest CPU it may run on, where the system allows it.  It prints
``MACHINE <line>`` once hamlink is imported, ``READY`` once set-up is done
(imports, inputs, documents, warm-up), and, unless --setup-only is given,
``RESULT <json>`` after the timed phase and the checks.  A traced run writes
its spans to perfbench/_traces/<workload>-seed<seed>.jsonl.

    python3 perfbench/child.py --workload batch_small --seed 1 --seconds 30 \
        --trace 0 --workdir perfbench/_work/manual
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _pin() -> int | None:
    """Pin this process to one CPU; return it, or None if not pinned."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        print(f"warning: could not pin to one CPU: {exc}", file=sys.stderr)
        return None
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    cpu = _pin()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hamlink

    if Path(hamlink.__file__).resolve().parent != src / "hamlink":
        print(f"error: imported hamlink from {hamlink.__file__}, not {src}", file=sys.stderr)
        return 2

    from machine import machine_line
    from workloads import WORKLOADS, run_workload

    print("MACHINE " + machine_line(cpu), flush=True)
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir), args.smoke)
    trace_out = None
    if args.trace and not args.setup_only:
        trace_out = HERE / "_traces" / f"{args.workload}-seed{args.seed}.jsonl"
    result = run_workload(
        workload,
        seconds=args.seconds,
        trace=bool(args.trace),
        setup_only=args.setup_only,
        trace_out=trace_out,
    )
    if result is not None:
        if trace_out is not None:
            result["trace_file"] = str(trace_out.relative_to(ROOT))
        print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
