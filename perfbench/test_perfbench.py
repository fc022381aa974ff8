"""Tests of the benchmark itself: smoke runs, checks that bite, metric names.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import hamlink  # noqa: E402
from hamlink import demo_problem, direct_dynamics, simulate_moments, synthesize  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("machine: ")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def smoke(request):
    return request.param, run_bench(request.param, 0)


def test_smoke_run_is_correct(smoke):
    workload, result = smoke
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0
    # Only the scaled demos of batch_small fail: synth and verify on each.
    per_round = {"batch_small": (4, 54), "dense_api": (0, 6), "moment_verify": (0, 8)}[workload]
    assert result["failed"] * per_round[1] == result["attempted"] * per_round[0]


def test_end_to_end_names_match_benchmark_json(smoke):
    _, result = smoke
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_names_match_benchmark_json():
    result = run_bench("moment_verify", 1)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["verify.simulate_moments_ms"] > 0
    assert metrics["verify.trajectory_mb"] > 0
    assert metrics["files.load_report_ms"] > 0


@pytest.fixture(scope="module")
def demo():
    problem = demo_problem()
    di = problem.interaction
    fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
    return checks.problem_from_interaction(di), checks.realization_dict(fr)


def test_checks_accept_a_synthesized_realization(demo):
    p, fr = demo
    assert checks.check_realization(p, fr, None, 1e-10) == []


@pytest.mark.parametrize("field", ["sigma", "r_a", "c_b", "x"])
def test_checks_reject_a_corrupted_realization(demo, field):
    p, fr = demo
    bad = dict(fr)
    bad[field] = fr[field].copy()
    bad[field][0, 1] += 1e-6
    assert checks.check_realization(p, bad, None, 1e-10)


def test_checks_reject_a_wrong_channel_count(demo):
    p, fr = demo
    assert checks.check_realization(p, fr, 3, 1e-10)


def test_checks_reject_the_scaled_demo():
    di = demo_problem().interaction
    scaled = hamlink.DirectInteraction(sys_a=di.sys_a, sys_b=di.sys_b, r_ab=1e12 * di.r_ab)
    fr = synthesize(scaled.sys_a.r, scaled.sys_b.r, scaled.r_ab)
    errors = checks.check_realization(
        checks.problem_from_interaction(scaled), checks.realization_dict(fr), None, 1e-10
    )
    assert any("drift" in e for e in errors)


def _samples(traj, dt, steps):
    return {"dt": dt, "steps": steps, "means": traj.means[steps], "covs": traj.covariances[steps]}


def test_trajectory_check_accepts_rk4_and_rejects_wrong_ones():
    di = demo_problem().interaction
    p = checks.problem_from_interaction(di)
    dt = 1e-3
    traj = simulate_moments(direct_dynamics(di), 0.3, dt)
    steps = [1, 2, 5, 10, 50, 100, 300]
    assert checks.check_trajectory(p, _samples(traj, dt, steps)) == []

    perturbed = _samples(traj, dt, steps)
    perturbed["covs"] = perturbed["covs"].copy()
    perturbed["covs"][-1, 0, 0] += 1e-9
    assert checks.check_trajectory(p, perturbed)

    coarse = simulate_moments(direct_dynamics(di), 0.3, 2 * dt)
    even = [10, 50, 100, 300]
    wrong_step = _samples(coarse, dt, [k // 2 for k in even])
    wrong_step["steps"] = even
    assert checks.check_trajectory(p, wrong_step)

    drifted = _samples(traj, dt, steps)
    drifted["means"] = np.full_like(drifted["means"], 1e-9)
    assert checks.check_trajectory(p, drifted)
