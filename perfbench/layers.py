"""Per-layer times of the pipeline at fixed sizes.

    python3 perfbench/layers.py

Prints the machine line, then one markdown table: the median time of each
traced public function per call of the pipeline (save_problem, load_problem,
synthesize, check_equivalence, make_provenance, save_report, load_report,
one 10-step simulate_moments), at n = 2, 8, 32, 128 and 256 modes per side
and for the bundled demo.  Problems are seeded, full rank, with two
external channels per system.  Runs with BLAS at one thread, pinned to one
CPU where the system allows it.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIZES = (2, 8, 32, 128, 256)
REPEATS = {2: 20, 8: 20, 32: 10, 128: 3, 256: 2, "demo": 20}
STEPS = 10
DT = 1e-3
ROWS = (
    "files.save_problem",
    "files.load_problem",
    "synth.synthesize",
    "symcore.special_svd",
    "symcore.cayley_sigma_from_x",
    "synth.hamiltonian_corrections",
    "synth.coupling_relation_residual",
    "verify.check_equivalence",
    "lqss.direct_dynamics",
    "files.make_provenance",
    "files.save_report",
    "files.load_report",
    "verify.closed_loop_dynamics",
    "verify.simulate_moments",
)


def _problem(n, seed: int = 7):
    import numpy as np

    import hamlink
    from inputs import seeded_system

    if n == "demo":
        return hamlink.demo_problem()
    rng = np.random.default_rng([seed, n])
    di = hamlink.DirectInteraction(
        sys_a=seeded_system(rng, n, 2), sys_b=seeded_system(rng, n, 2), r_ab=rng.normal(size=(2 * n, 2 * n))
    )
    return hamlink.Problem(interaction=di, options=hamlink.SynthOptions())


def _pipeline(workdir: Path, problem) -> None:
    import hamlink
    import hamlink.files

    path = workdir / "problem.json"
    report_path = workdir / "problem.report.json"
    hamlink.save_problem(problem, path)
    loaded = hamlink.load_problem(path)
    di = loaded.interaction
    fr = hamlink.synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options=loaded.options)
    report = hamlink.check_equivalence(di, fr)
    provenance = hamlink.files.make_provenance(path, loaded.options)
    hamlink.save_report(fr, report, provenance, report_path)
    doc = hamlink.load_report(report_path)
    hamlink.closed_loop_dynamics(di, doc.realization)
    hamlink.simulate_moments(hamlink.direct_dynamics(di), STEPS * DT, DT)


def _times(instruments) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for idx, t0, t1, _ in instruments.spans:
        out.setdefault(instruments.names[idx], []).append(t1 - t0)
    return out


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    cpu = None
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        cpu = None
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    from machine import machine_line
    from tracing import Instruments

    print(f"machine: {machine_line(cpu)}", flush=True)
    columns = [*SIZES, "demo"]
    table: dict = {}
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="layers-", dir=work_root))
    try:
        for n in columns:
            problem = _problem(n)
            _pipeline(workdir, problem)  # warm-up, untraced
            instruments = Instruments(trace=True)
            instruments.install()
            try:
                for _ in range(REPEATS[n]):
                    _pipeline(workdir, problem)
            finally:
                instruments.uninstall()
            table[n] = {name: statistics.median(v) for name, v in _times(instruments).items()}
            print(f"  n={n}: {REPEATS[n]} repeats", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    print()
    print("| layer (ms per call) | " + " | ".join(c if c == "demo" else f"n={c}" for c in columns) + " |")
    print("|---|" + "---:|" * len(columns))
    for name in ROWS:
        cells = [f"{1e3 * table[c].get(name, float('nan')):.3g}" for c in columns]
        label = f"{name} ({STEPS} steps)" if name == "verify.simulate_moments" else name
        print(f"| {label} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
