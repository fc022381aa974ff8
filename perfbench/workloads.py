"""The three workloads, the timed phase and the output checks.

A workload has a fixed list of jobs, one round.  The timed phase runs whole
rounds until the run length has passed, so every run attempts the same mix
of operations and the share of failed operations is exact.  A job is a
closed loop: the next starts when the previous returns.  Checks run after
the timed phase and compare every output against checks.py, which is
imported only then, so that scipy adds neither to set-up time nor to the
resident set of the timed phase.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hamlink
import hamlink.cli
import hamlink.files
from hamlink import EquivalenceReport

import inputs
from tracing import LAYER_METRICS, Instruments

REALIZATION_FIELDS = ("c_a", "c_b", "x", "sigma", "r_a", "r_b")


def _job(fn, name: str, known_failure: bool = False):
    """Label a job with the input it runs on and whether it fails today."""
    fn.input_name = name
    fn.known_failure = known_failure
    return fn


def run_cli(argv: list[str]) -> tuple[int, str]:
    """hamlink.cli.main with its output captured; a crash returns -1."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = hamlink.cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a crash of the run
            traceback.print_exc(file=buf)
            code = -1
    return code, buf.getvalue()


def _passed(text: str) -> bool:
    return text.rstrip().endswith("verdict: PASS")


def _report_from_verification(v: dict) -> EquivalenceReport:
    margin = v["sigma_unit_margin"]
    return EquivalenceReport(
        drift_residual=v["drift_residual"],
        skew_drift_residual=v["skew_drift_residual"],
        noise_residual=v["noise_residual"],
        coupling_residual=v["coupling_residual"],
        sigma_unit_margin=math.inf if margin is None else margin,
        flags=v["flags"],
        tol=v["tol"],
        moment_residual=v.get("moment_residual"),
        moment_tol=v.get("moment_tol"),
    )


def check_report_file(problem: Path, report: Path, requested_m, rank_tol) -> list[str]:
    """Independent checks of a written report, plus its round trip.

    The report must reload through hamlink with every matrix bit-identical
    to the standard json parse, and writing the reloaded report again must
    give the same bytes.
    """
    import checks

    text = report.read_text()
    p = checks.parse_problem(problem.read_text())
    ours = checks.parse_report(text, p["n_a"], p["n_b"])
    errors = checks.check_realization(p, ours, requested_m, rank_tol)
    if not ours["verification"]["passed"]:
        errors.append("report verdict is FAIL")
    doc = hamlink.load_report(report)
    for name in REALIZATION_FIELDS:
        if not checks.same_bits(getattr(doc.realization, name), ours[name]):
            errors.append(f"reloaded {name} differs from the document")
    rewritten = hamlink.files.report_to_json(
        doc.realization, _report_from_verification(doc.verification), doc.provenance
    )
    if rewritten != text:
        errors.append("rewriting the reloaded report changes its bytes")
    return [f"{report.name}: {e}" for e in errors]


class BatchSmall:
    """hamlink synth then hamlink verify on small documents, through cli.main."""

    name = "batch_small"
    observers: dict = {}

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed, self.workdir = seed, workdir
        self.docs = []
        self.outputs: dict[str, set] = {}
        self.last: dict[str, tuple] = {}

    def setup(self) -> None:
        self.docs = inputs.batch_documents(self.seed, self.workdir)
        self.jobs = [self._job_for(doc) for doc in self.docs]

    def _job_for(self, doc):
        def job():
            c1, out1 = run_cli(doc.synth_argv)
            c2, out2 = run_cli(doc.verify_argv)
            record = (c1, out1, c2, out2)
            self.outputs.setdefault(doc.name, set()).add(record)
            self.last[doc.name] = record
            return (c1, c2)

        return _job(job, doc.name, doc.known_failure)

    def warm_up(self) -> None:
        for job in self.jobs:
            job()

    def check(self) -> list[str]:
        errors = []
        for doc in self.docs:
            if len(self.outputs[doc.name]) != 1:
                errors.append(f"{doc.name}: output changed between rounds")
            c1, out1, c2, out2 = self.last[doc.name]
            if c1 != 0:
                continue
            if not _passed(out1) or (c2 == 0 and not _passed(out2)):
                errors.append(f"{doc.name}: exit 0 without verdict PASS")
            errors += check_report_file(doc.problem, doc.report, doc.requested_m, doc.rank_tol)
        return errors


class DenseApi:
    """synthesize then check_equivalence from Python near n = 128."""

    name = "dense_api"
    observers: dict = {}

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed, self.workdir, self.smoke = seed, workdir, smoke
        self.fingerprints: dict[str, set] = {}
        self.last: dict[str, tuple] = {}

    def setup(self) -> None:
        self.problems = inputs.dense_problems(self.seed, self.smoke)
        self.jobs = [self._job_for(name, di) for name, di in self.problems]

    def _job_for(self, name, di):
        def job():
            try:
                fr = hamlink.synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
            except hamlink.HamlinkError:
                return (1, 1)
            try:
                rep = hamlink.check_equivalence(di, fr)
            except hamlink.HamlinkError:
                return (0, 1)
            self.last[name] = (fr, rep)
            self.fingerprints.setdefault(name, set()).add(
                (fr.m, rep.drift_residual, *(float(getattr(fr, f).sum()) for f in REALIZATION_FIELDS))
            )
            return (0, 0 if rep.passed else 3)

        return _job(job, name)

    def warm_up(self) -> None:
        for job in self.jobs:
            job()

    def check(self) -> list[str]:
        import checks

        errors = []
        for name, di in self.problems:
            if name not in self.last:
                continue
            if len(self.fingerprints[name]) != 1:
                errors.append(f"{name}: output changed between rounds")
            fr, rep = self.last[name]
            if not rep.passed:
                continue
            p = checks.problem_from_interaction(di)
            ours = checks.realization_dict(fr)
            errors += [f"{name}: {e}" for e in checks.check_realization(p, ours, None, 1e-10)]
            path = self.workdir / f"{name}.report.json"
            path.write_text(hamlink.files.report_to_json(fr, rep, {"tool": "perfbench"}))
            doc = hamlink.load_report(path)
            parsed = checks.parse_report(path.read_text(), p["n_a"], p["n_b"])
            for f in REALIZATION_FIELDS:
                mine = getattr(fr, f)
                if not (checks.same_bits(getattr(doc.realization, f), mine) and checks.same_bits(parsed[f], mine)):
                    errors.append(f"{name}: {f} does not round-trip bit-identically")
        return errors


class MomentVerify:
    """hamlink verify --simulate T DT on strongly damped problems."""

    name = "moment_verify"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed, self.workdir, self.smoke = seed, workdir, smoke
        self.captured: list[dict] = []
        # The first run of each document is kept whole for the checks; later
        # rounds leave only a fingerprint, so that the memory held during the
        # timed phase does not grow with the number of rounds.
        self.first: dict[str, tuple] = {}
        self.fingerprints: dict[str, set] = {}
        self.observers = {"verify.simulate_moments": self._sample}

    def _sample(self, traj, args, kwargs) -> None:
        """Keep a few rows of each trajectory hamlink integrates."""
        dt = kwargs["dt"] if "dt" in kwargs else args[2]
        n = len(traj.times) - 1
        steps = sorted({k for k in (1, 2, 5, 10, 20, 50, 100, 200) if k <= n}
                       | {int(round(x)) for x in np.linspace(0, n, 9)})
        self.captured.append({
            "dt": dt,
            "steps": steps,
            "means": traj.means[steps].copy(),
            "covs": traj.covariances[steps].copy(),
        })

    def setup(self) -> None:
        self.docs = inputs.moment_documents(self.seed, self.workdir, self.smoke)
        for doc in self.docs:
            code, out = run_cli(doc.synth_argv)
            if code != 0:
                raise RuntimeError(f"set-up synth of {doc.name} exited {code}:\n{out}")
        self.jobs = [self._job_for(doc) for doc in self.docs]

    def _job_for(self, doc):
        def job():
            self.captured = []
            code, out = run_cli(doc.verify_argv)
            self.first.setdefault(doc.name, (code, out, self.captured))
            self.fingerprints.setdefault(doc.name, set()).add((code, out, *(
                hash((c["means"].tobytes(), c["covs"].tobytes())) for c in self.captured
            )))
            self.captured = []
            return (code,)

        return _job(job, doc.name)

    def warm_up(self) -> None:
        for doc in (self.docs[1], self.docs[2]):
            run_cli(doc.verify_argv[:4] + ["0.01", repr(inputs.MOMENT_DT)])
        self.captured = []

    def check(self) -> list[str]:
        import checks

        errors = []
        for doc in self.docs:
            errors += check_report_file(doc.problem, doc.report, None, doc.rank_tol)
            p = checks.parse_problem(doc.problem.read_text())
            moments = checks.exact_moments(p)
            if doc.name not in self.first:
                continue
            if len(self.fingerprints[doc.name]) != 1:
                errors.append(f"{doc.name}: output changed between rounds")
            code, out, trajectories = self.first[doc.name]
            if code != 0:
                continue
            if not _passed(out) or "moment_residual" not in out:
                errors.append(f"{doc.name}: exit 0 without a passing moment comparison")
            if len(trajectories) != 2:
                errors.append(f"{doc.name}: {len(trajectories)} trajectories, expected 2")
            for samples in trajectories:
                errors += [f"{doc.name}: {e}" for e in checks.check_trajectory(p, samples, moments)]
        return errors


WORKLOADS = {w.name: w for w in (BatchSmall, DenseApi, MomentVerify)}


def timed_phase(workload, seconds: float, call) -> dict:
    """Whole rounds of the workload's jobs until `seconds` have passed."""
    latencies = []
    attempted = failed = 0
    unexpected = []
    clock = time.perf_counter
    start = clock()
    while True:
        for job in workload.jobs:
            t0 = clock()
            codes = call(job)
            latencies.append(clock() - t0)
            attempted += len(codes)
            bad = sum(1 for c in codes if c != 0)
            failed += bad
            if bad and not job.known_failure:
                unexpected.append(job.input_name)
        if clock() - start >= seconds:
            break
    wall = clock() - start
    return {
        "jobs": len(latencies),
        "wall_s": wall,
        "jobs_per_s": len(latencies) / wall,
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "attempted": attempted,
        "failed": failed,
        "unexpected": sorted(set(unexpected)),
    }


def run_workload(workload, seconds: float, trace: bool, setup_only: bool, trace_out: Path | None):
    """Set up, print READY, then measure, check and return the result."""
    plain = Instruments(trace=False, observers=workload.observers)
    tracer = Instruments(trace=True, observers=workload.observers) if trace else None
    (tracer or plain).install()
    workload.setup()
    workload.warm_up()
    if tracer:
        tracer.uninstall()
        plain.install()
    gc.collect()
    print("READY", flush=True)
    if setup_only:
        plain.uninstall()
        return None

    if not trace:
        phase = timed_phase(workload, seconds, lambda job: job())
        phase["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        phases = [phase]
    else:
        base = timed_phase(workload, seconds / 2, lambda job: job())
        plain.uninstall()
        tracer.install()
        traced = timed_phase(workload, seconds / 2, tracer.job)
        tracer.uninstall()
        plain.install()
        phases = [base, traced]
    plain.uninstall()

    errors = workload.check()
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    unexpected = sorted({n for ph in phases for n in ph["unexpected"]})
    if unexpected:
        print(f"unexpected failed operations on: {', '.join(unexpected)}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(ph["attempted"] for ph in phases),
        "failed": sum(ph["failed"] for ph in phases),
        "jobs": sum(ph["jobs"] for ph in phases),
    }
    if not trace:
        result.update({k: phases[0][k] for k in ("jobs_per_s", "job_p50_ms", "peak_rss_mb", "wall_s")})
    else:
        layers = tracer.layer_metrics()
        layers["trace.overhead_pct"] = 100.0 * (base["jobs_per_s"] / traced["jobs_per_s"] - 1.0)
        result["per_layer"] = {
            name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS.items()
        }
        result["spans"] = len(tracer.spans)
        if trace_out is not None:
            tracer.write(trace_out)
    return result
