"""Command-line interface, driven through main(argv)."""

import dataclasses
import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import LONG, with_long_integer
from hamlink import (
    DAMPING_RATE,
    DirectInteraction,
    LqssParams,
    Problem,
    SynthOptions,
    check_equivalence,
    demo_problem,
    direct_dynamics,
    load_problem,
    save_problem,
    simulate_moments,
    synthesize,
)
from hamlink import cli
from hamlink.cli import main
from hamlink.files import load_mixing_matrix

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def demo_paths(tmp_path):
    problem = tmp_path / "demo.json"
    save_problem(demo_problem(), problem)
    return problem, tmp_path / "demo.report.json"


@pytest.fixture()
def nine_mode_problem(tmp_path):
    """A damped 4-mode / 5-mode problem: state dimension 18, which takes the
    split step, and settles on a stationary float state within 2000 steps."""
    rng = np.random.default_rng(7)
    amp = np.sqrt(DAMPING_RATE)

    def side(n):
        return LqssParams(
            n=n, r=np.zeros((2 * n, 2 * n)), c=amp * np.eye(2 * n), d=np.eye(2 * n)
        )

    r_ab = rng.normal(size=(8, 10))
    r_ab *= 20.0 / np.linalg.norm(r_ab, 2)
    path = tmp_path / "nine.json"
    save_problem(Problem(DirectInteraction(side(4), side(5), r_ab), SynthOptions()), path)
    return path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExample:
    def test_writes_problem_and_prints_expectations(self, tmp_path, capsys):
        out_path = tmp_path / "p.json"
        code, out, err = run(["example", "--output", str(out_path)], capsys)
        assert code == 0
        assert out_path.exists()
        assert "channel count" in out
        assert "22.9" in out

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(["example"], capsys)
        assert code == 0
        assert (tmp_path / "demo_problem.json").exists()


class TestSynth:
    def test_synthesizes_and_reports(self, demo_paths, capsys):
        problem, report = demo_paths
        code, out, _ = run(["synth", str(problem)], capsys)
        assert code == 0
        assert report.exists()
        assert "verdict: PASS" in out
        assert "drift_residual" in out
        doc = json.loads(report.read_text())
        assert doc["m"] == 2
        assert doc["verification"]["passed"] is True

    def test_explicit_output_path(self, demo_paths, tmp_path, capsys):
        problem, _ = demo_paths
        target = tmp_path / "custom.json"
        code, _, _ = run(["synth", str(problem), "-o", str(target)], capsys)
        assert code == 0
        assert target.exists()

    def test_infeasible_channel_count_is_exit_2(self, demo_paths, capsys):
        problem, _ = demo_paths
        code, _, err = run(["synth", str(problem), "--m", "1"], capsys)
        assert code == 2
        assert "at least m=2" in err

    @pytest.mark.parametrize("zero_coupling", [False, True])
    def test_negative_channel_count_is_exit_1(
        self, demo_paths, tmp_path, capsys, zero_coupling
    ):
        # malformed input, not an infeasible count: with a zero coupling the
        # bound is m=0, which m=-1 would otherwise fall below
        problem, _ = demo_paths
        if zero_coupling:
            doc = json.loads(problem.read_text())
            doc["r_ab"] = np.zeros((4, 6)).tolist()
            problem = tmp_path / "decoupled.json"
            problem.write_text(json.dumps(doc))
        code, _, err = run(["synth", str(problem), "--m=-1"], capsys)
        assert code == 1
        assert "m must be a nonnegative integer" in err
        assert not problem.with_suffix(".report.json").exists()

    def test_oversized_channel_count_is_exit_1(self, demo_paths, capsys):
        problem, _ = demo_paths
        code, _, err = run(["synth", str(problem), "--m", "3"], capsys)
        assert code == 1
        assert "exceeds" in err

    def test_free_parameters_land_in_provenance(self, demo_paths, capsys):
        problem, report = demo_paths
        code, _, _ = run(
            ["synth", str(problem), "--m", "2", "--y1", "0.5,2", "--y2", "1,1"],
            capsys,
        )
        assert code == 0
        recorded = json.loads(report.read_text())["provenance"]["options"]
        assert recorded["m"] == 2
        assert recorded["y1"] == [0.5, 2.0]
        assert recorded["y2"] == [1.0, 1.0]

    def test_p_matrix_file(self, demo_paths, tmp_path, capsys):
        problem, report = demo_paths
        p_path = tmp_path / "p_mix.json"
        # quadrature embedding of the unitary diag(1, -1): orthogonal and symplectic
        p_path.write_text(json.dumps(np.diag([1.0, -1.0, 1.0, -1.0]).tolist()))
        code, out, _ = run(["synth", str(problem), "--p-matrix", str(p_path)], capsys)
        assert code == 0
        assert "verdict: PASS" in out
        recorded = json.loads(report.read_text())["provenance"]["options"]
        assert recorded["p"][0][0] == 1.0

    def test_bad_csv_is_exit_1(self, demo_paths, capsys):
        problem, _ = demo_paths
        code, _, err = run(["synth", str(problem), "--y1", "0.5,abc"], capsys)
        assert code == 1
        assert "comma-separated numbers" in err

    def test_usage_error_is_exit_1(self, demo_paths, capsys):
        # argparse reads "-1,-1" as an option; its usage error must not
        # exit 2, the code of an infeasible channel count
        problem, _ = demo_paths
        code, _, err = run(["synth", str(problem), "--y2", "-1,-1"], capsys)
        assert code == 1
        assert "expected one argument" in err

    def test_negative_csv_after_equals_sign(self, demo_paths, capsys):
        problem, _ = demo_paths
        code, _, err = run(["synth", str(problem), "--y2=-1,-1"], capsys)
        assert code == 1
        assert "y1*y2 = -1" in err
        code, out, _ = run(["synth", str(problem), "--y2=-0.5,-2"], capsys)
        assert code == 0
        assert "verdict: PASS" in out

    def test_p_matrix_with_nan_literal_is_exit_1(self, demo_paths, tmp_path, capsys):
        problem, _ = demo_paths
        p_path = tmp_path / "p_nan.json"
        p_path.write_text("[[NaN, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]")
        code, _, err = run(["synth", str(problem), "--p-matrix", str(p_path)], capsys)
        assert code == 1
        assert "documents cannot contain NaN" in err

    @pytest.mark.parametrize("document", ["problem", "p-matrix"])
    def test_integer_past_the_digit_limit_is_exit_1(self, demo_paths, tmp_path, document):
        # Run as a process: an exception that escaped main would print a
        # traceback there.
        problem, _ = demo_paths
        argv = [sys.executable, "-m", "hamlink", "synth", str(problem)]
        if document == "problem":
            doc = json.loads(problem.read_text())
            doc["options"]["m"] = LONG
            problem.write_text(with_long_integer(json.dumps(doc)))
            bad = problem
        else:
            bad = tmp_path / "p_long.json"
            bad.write_text(with_long_integer(json.dumps([[LONG, 0], [0, 1]])))
            argv += ["--p-matrix", str(bad)]
        result = subprocess.run(argv, capture_output=True, text=True)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert f"{bad}: an integer has too many digits to read" in result.stderr

    @pytest.mark.parametrize(
        "flag,needle",
        [
            ("--tol=-1e-8", "--tol"),
            ("--tol=nan", "--tol"),
            ("--tol=inf", "--tol"),
            ("--rank-tol=2", "rank_tol"),
            ("--rank-tol=nan", "rank_tol"),
        ],
    )
    def test_bad_tolerance_is_exit_1(self, demo_paths, capsys, flag, needle):
        problem, report = demo_paths
        code, _, err = run(["synth", str(problem), flag], capsys)
        assert code == 1
        assert needle in err
        assert not report.exists()

    def test_zero_coupling_gives_empty_loop(self, demo_paths, tmp_path, capsys):
        problem, _ = demo_paths
        doc = json.loads(problem.read_text())
        doc["r_ab"] = np.zeros((4, 6)).tolist()
        decoupled = tmp_path / "decoupled.json"
        decoupled.write_text(json.dumps(doc))
        code, out, _ = run(["synth", str(decoupled)], capsys)
        assert code == 0
        assert "verdict: PASS" in out
        report = json.loads((tmp_path / "decoupled.report.json").read_text())
        assert report["m"] == 0

    def test_missing_file_is_exit_1(self, tmp_path, capsys):
        code, _, err = run(["synth", str(tmp_path / "absent.json")], capsys)
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize("field", ["r_ab", "y1"])
    def test_integer_too_large_for_a_float_is_exit_1(self, demo_paths, capsys, field):
        problem, _ = demo_paths
        doc = json.loads(problem.read_text())
        if field == "r_ab":
            doc["r_ab"][0][0] = 10**400
        else:
            doc["options"]["y1"] = [10**400, 1]
        problem.write_text(json.dumps(doc))
        code, _, err = run(["synth", str(problem)], capsys)
        assert code == 1
        assert f"'{field}' has an integer too large for a float" in err

    def test_bad_option_entry_names_the_file_once(self, demo_paths, capsys):
        problem, _ = demo_paths
        doc = json.loads(problem.read_text())
        doc["options"]["y1"] = [1.0, "x"]
        bad = problem.with_name("bad_y1.json")
        bad.write_text(json.dumps(doc))
        code, _, err = run(["synth", str(bad)], capsys)
        assert code == 1
        assert err == f"error: {bad}: 'y1' entry 1 is not a number\n"

    def test_malformed_file_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "hamlink-problem", "format_version": 1}')
        code, _, err = run(["synth", str(bad)], capsys)
        assert code == 1
        assert "missing field" in err


class TestBatch:
    def test_worst_exit_code_wins(self, tmp_path, capsys):
        save_problem(demo_problem(), tmp_path / "good.json")
        doc = json.loads((tmp_path / "good.json").read_text())
        doc["options"] = {"m": 1}
        (tmp_path / "tight.json").write_text(json.dumps(doc))
        code, out, err = run(["synth", "--batch", str(tmp_path)], capsys)
        assert code == 2
        assert "batch: 2 problems, worst exit code 2" in out
        assert (tmp_path / "good.report.json").exists()
        assert not (tmp_path / "tight.report.json").exists()
        assert "at least m=2" in err

    def test_reports_are_not_reprocessed(self, tmp_path, capsys):
        save_problem(demo_problem(), tmp_path / "solo.json")
        code, out, _ = run(["synth", "--batch", str(tmp_path)], capsys)
        assert code == 0
        code, out, _ = run(["synth", "--batch", str(tmp_path)], capsys)
        assert code == 0
        assert "batch: 1 problems" in out

    def test_empty_directory_is_exit_1(self, tmp_path, capsys):
        code, _, err = run(["synth", "--batch", str(tmp_path)], capsys)
        assert code == 1
        assert "no problem documents" in err

    def test_batch_and_positional_conflict(self, tmp_path, capsys):
        code, _, err = run(["synth", "x.json", "--batch", str(tmp_path)], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--y1=1,x", "argument --y1: expects comma-separated numbers, got '1,x'"),
            ("--p-matrix", "argument --p-matrix: {p}: invalid JSON at line 1: "),
        ],
        ids=["csv", "p-matrix"],
    )
    def test_bad_flag_refuses_the_whole_batch_once(self, tmp_path, capsys, flag, message):
        batch = tmp_path / "batch"
        batch.mkdir()
        for name in ("one.json", "two.json"):
            save_problem(demo_problem(), batch / name)
        p_path = tmp_path / "p_bad.json"
        p_path.write_text("[[1, 0], [0,")
        argv = [flag, str(p_path)] if flag == "--p-matrix" else [flag]
        code, out, err = run(["synth", "--batch", str(batch), *argv], capsys)
        assert code == 1
        assert out == ""
        assert err.count(message.format(p=p_path)) == 1
        assert "one.json" not in err and "two.json" not in err
        assert sorted(path.name for path in batch.iterdir()) == ["one.json", "two.json"]

    def test_p_matrix_is_read_once_per_batch_run(self, tmp_path, capsys, monkeypatch):
        reads = []

        def counting(path):
            reads.append(path)
            return load_mixing_matrix(path)

        monkeypatch.setattr(cli, "load_mixing_matrix", counting)
        # A parser built with the counting reader; the cached one is restored.
        monkeypatch.setattr(
            cli, "_build_parser", functools.cache(cli._build_parser.__wrapped__)
        )
        for name in ("one.json", "two.json"):
            save_problem(demo_problem(), tmp_path / name)
        p_path = tmp_path / "p_mix.txt"  # not *.json: the batch would read it
        p_path.write_text(json.dumps(np.diag([1.0, -1.0, 1.0, -1.0]).tolist()))
        code, out, _ = run(
            ["synth", "--batch", str(tmp_path), "--p-matrix", str(p_path)], capsys
        )
        assert code == 0
        assert "batch: 2 problems, worst exit code 0" in out
        assert reads == [str(p_path)]

    def test_batch_and_output_conflict(self, tmp_path, capsys):
        # A batch writes one report beside each problem, so a single -o
        # path has no meaning: refused before any synthesis.
        save_problem(demo_problem(), tmp_path / "solo.json")
        out_path = tmp_path / "out.report.json"
        code, out, err = run(
            ["synth", "--batch", str(tmp_path), "-o", str(out_path)], capsys
        )
        assert code == 1
        assert "--output" in err and "--batch" in err
        assert out == ""
        assert not out_path.exists()
        assert not (tmp_path / "solo.report.json").exists()


class TestVerify:
    def test_clean_report_passes(self, demo_paths, capsys):
        problem, report = demo_paths
        assert run(["synth", str(problem)], capsys)[0] == 0
        code, out, _ = run(["verify", str(problem), str(report)], capsys)
        assert code == 0
        assert "verdict: PASS" in out

    def test_corrupted_report_fails_with_named_check(self, demo_paths, capsys):
        problem, report = demo_paths
        run(["synth", str(problem)], capsys)
        doc = json.loads(report.read_text())
        doc["sigma"][0][0] = 0.5
        report.write_text(json.dumps(doc))
        code, out, _ = run(["verify", str(problem), str(report)], capsys)
        assert code == 3
        assert "verdict: FAIL" in out
        assert "drift_residual" in out

    def test_simulate_flag_adds_moment_check(self, demo_paths, capsys):
        problem, report = demo_paths
        run(["synth", str(problem)], capsys)
        code, out, _ = run(
            ["verify", str(problem), str(report), "--simulate", "0.5", "1e-3"],
            capsys,
        )
        assert code == 0
        assert "moment_residual" in out
        assert "verdict: PASS" in out

    def test_sim_tol_sets_the_moment_tolerance(self, demo_paths, capsys):
        problem, report = demo_paths
        run(["synth", str(problem)], capsys)
        argv = ["verify", str(problem), str(report), "--simulate", "0.5", "1e-3"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "tol 1e-06" in out
        code, out, _ = run([*argv, "--sim-tol", "0"], capsys)
        assert code == 3
        assert "moment_residual" in out and "tol 0" in out

    def test_report_without_a_moment_tolerance_prints_sim_tol(self, capsys):
        di = demo_problem().interaction
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
        report = dataclasses.replace(
            check_equivalence(di, fr), moment_residual=1e-7
        )
        cli._print_report(report)
        out = capsys.readouterr().out
        assert "  moment_residual           1.000e-07  tol 1e-06  ok\n" in out
        assert out.endswith("verdict: PASS\n")

    def test_sim_tol_without_simulate_is_exit_1(self, tmp_path, capsys):
        # No trajectories are compared, so --sim-tol would be ignored:
        # refused before either document is read (neither exists).
        missing = str(tmp_path / "missing.json")
        code, out, err = run(["verify", missing, missing, "--sim-tol", "1e-30"], capsys)
        assert code == 1
        assert "--sim-tol" in err and "--simulate" in err
        assert out == ""

    def test_dimension_mismatch_is_exit_1(self, demo_paths, tmp_path, capsys):
        problem, report = demo_paths
        run(["synth", str(problem)], capsys)
        doc = json.loads(problem.read_text())
        doc["n_a"] = 3
        doc["r_bar_a"] = np.zeros((6, 6)).tolist()
        doc["c_bar_a"] = (np.sqrt(80.0) * np.eye(6)).tolist()
        doc["d_bar_a"] = np.eye(6).tolist()
        doc["r_ab"] = np.zeros((6, 6)).tolist()
        bigger = tmp_path / "bigger.json"
        bigger.write_text(json.dumps(doc))
        code, _, err = run(["verify", str(bigger), str(report)], capsys)
        assert code == 1
        assert "realization couples 2 + 3 modes, problem has 3 + 3" in err

    def test_bad_tolerances_are_exit_1(self, demo_paths, capsys):
        problem, report = demo_paths
        run(["synth", str(problem)], capsys)
        for flags in (["--tol", "-1"], ["--sim-tol=-1e-6"], ["--sim-tol", "nan"]):
            code, out, err = run(["verify", str(problem), str(report), *flags], capsys)
            assert code == 1, flags
            assert flags[0].split("=")[0] in err
            assert "verdict" not in out

    def test_mismatched_documents_fail(self, demo_paths, tmp_path, capsys):
        problem, report = demo_paths
        run(["synth", str(problem)], capsys)
        other = tmp_path / "other.json"
        doc = json.loads(problem.read_text())
        doc["r_ab"][0][0] = 40.0
        other.write_text(json.dumps(doc))
        code, out, _ = run(["verify", str(other), str(report)], capsys)
        assert code == 3
        assert "verdict: FAIL" in out


def plain_trajectory(problem, t_final):
    """The trajectory `hamlink simulate PROBLEM --dt 1e-3` integrates."""
    di = load_problem(problem).interaction
    return simulate_moments(direct_dynamics(di), t_final, 1e-3)


def summary_line(traj):
    """simulate's summary line before any stationary note."""
    return (
        f"simulated to t={traj.times[-1]:g} in {len(traj.times) - 1} steps; "
        f"final max |mean| {np.max(np.abs(traj.means[-1])):.6g}, final cov "
        f"trace {np.trace(traj.covariances[-1]):.6g}"
    )


class TestSimulate:
    def test_plain_run_prints_summary(self, demo_paths, capsys):
        problem, _ = demo_paths
        code, out, _ = run(
            ["simulate", str(problem), "--t-final", "0.2", "--dt", "1e-3"],
            capsys,
        )
        assert code == 0
        assert "200 steps" in out
        assert "cov trace" in out

    def test_summary_says_where_the_run_became_stationary(
        self, nine_mode_problem, capsys
    ):
        code, out, _ = run(
            ["simulate", str(nine_mode_problem), "--t-final", "2", "--dt", "1e-3"],
            capsys,
        )
        traj = plain_trajectory(nine_mode_problem, 2.0)
        k = traj.stationary_from
        assert code == 0
        assert k is not None
        assert out == (
            f"{summary_line(traj)}, stationary from t={traj.times[k]:g} (step {k})\n"
        )

    @pytest.mark.parametrize("which", ["nine_mode", "demo"])
    def test_summary_is_unchanged_when_no_stationary_sample_is_found(
        self, nine_mode_problem, demo_paths, capsys, which
    ):
        # 50 split steps end before the first stationarity check; the demo
        # takes the packed fill, which never reports one.
        problem, t_final = (
            (nine_mode_problem, 0.05) if which == "nine_mode" else (demo_paths[0], 2.0)
        )
        code, out, _ = run(
            ["simulate", str(problem), "--t-final", repr(t_final), "--dt", "1e-3"],
            capsys,
        )
        traj = plain_trajectory(problem, t_final)
        assert code == 0
        assert traj.stationary_from is None
        assert out == f"{summary_line(traj)}\n"

    def test_trajectory_output(self, demo_paths, tmp_path, capsys):
        problem, _ = demo_paths
        traj = tmp_path / "traj.json"
        code, _, _ = run(
            [
                "simulate", str(problem), "--t-final", "0.1", "--dt", "0.05",
                "--output", str(traj),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(traj.read_text())
        assert doc["format"] == "hamlink-trajectory"
        assert len(doc["times"]) == 3
        assert len(doc["means"]) == 3
        assert len(doc["covariances"][0]) == 10

    @pytest.mark.parametrize("t_final", ["1e12", "1e18"])
    def test_oversized_grid_is_exit_1(self, demo_paths, capsys, t_final):
        # 1e15 and 1e21 steps: refused before anything is allocated
        problem, _ = demo_paths
        code, out, err = run(
            ["simulate", str(problem), "--t-final", t_final, "--dt", "1e-3"],
            capsys,
        )
        assert code == 1
        assert "t_final / dt" in err
        assert out == ""

    def test_horizon_shorter_than_half_a_step_is_exit_1(self, demo_paths, capsys):
        # t_final / dt rounds to 0 steps: refused rather than run one step
        # past the horizon
        problem, _ = demo_paths
        code, out, err = run(
            ["simulate", str(problem), "--t-final", "1e-9", "--dt", "1"], capsys
        )
        assert code == 1
        assert "t_final / dt" in err
        assert out == ""

    def test_oversized_grid_in_verify_is_exit_1(self, demo_paths, capsys):
        problem, report = demo_paths
        run(["synth", str(problem)], capsys)
        code, _, err = run(
            ["verify", str(problem), str(report), "--simulate", "1e18", "1e-3"],
            capsys,
        )
        assert code == 1
        assert "t_final / dt" in err

    def test_sim_tol_without_realization_is_exit_1(self, tmp_path, capsys):
        # simulate compares no trajectories (verify --simulate does), so it
        # takes neither flag: refused before the problem is read (it does
        # not exist).
        missing = str(tmp_path / "missing.json")
        for flags in (["--realization", missing], ["--sim-tol", "1e-30"]):
            code, out, err = run(
                ["simulate", missing, "--t-final", "0.01", *flags], capsys
            )
            assert code == 1, flags
            assert "unrecognized arguments" in err and flags[0] in err
            assert out == ""

    def test_comparison_failure_is_exit_3(self, demo_paths, capsys):
        problem, report = demo_paths
        run(["synth", str(problem)], capsys)
        doc = json.loads(report.read_text())
        doc["c_a"][0][0] += 0.05
        report.write_text(json.dumps(doc))
        code, out, _ = run(
            ["verify", str(problem), str(report), "--simulate", "0.5", "1e-3"],
            capsys,
        )
        assert code == 3
        moment_line = next(
            line for line in out.splitlines() if "moment_residual" in line
        )
        assert moment_line.endswith("tol 1e-06  FAIL")


class TestTopLevel:
    def test_no_arguments_prints_help(self, capsys):
        code, out, _ = run([], capsys)
        assert code == 1
        assert "usage" in out.lower()

    def test_help_is_exit_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["synth", "--help"])
        assert info.value.code == 0
        assert "--batch" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, absent",
        [("simulate", ["--realization", "--sim-tol"]), ("example", ["--tol"])],
    )
    def test_help_lists_no_comparison_or_tolerance_flag(self, capsys, command, absent):
        # verify --simulate is the one trajectory comparison; example checks
        # the demo at the default tolerance.
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert [flag for flag in absent if flag in out] == []

    def test_every_flag_in_the_readme_cli_reference_is_accepted(self):
        text = README.read_text()
        section = text.split("\n## CLI reference\n", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
        parser = cli._build_parser()
        accepted = set(parser._option_string_actions)
        for action in parser._actions:
            for subparser in (getattr(action, "choices", None) or {}).values():
                accepted |= set(subparser._option_string_actions)
        assert "--sim-tol" in documented
        assert sorted(documented - accepted) == []

    @pytest.mark.parametrize(
        "argv",
        [
            "synth --tol=-1",
            "synth --tol=nan",
            "synth --tol=inf",
            "synth --rank-tol=2",
            "synth --rank-tol=nan",
            "synth --m=-1",
            "synth --m=2.5",
            "synth --y1=1,x",
            "synth --ga2=1,,2",
            pytest.param(f"synth --m={'9' * 400}", id="synth --m=<400 nines>"),
            "verify --sim-tol=-1",
            *(
                f"verify --simulate {pair}"
                for bad in ("0", "-1", "nan", "inf")
                for pair in (f"{bad} 1e-3", f"1 {bad}")
            ),
            "simulate --t-final 0",
            "simulate --dt -1",
        ],
    )
    def test_bad_flag_is_refused_before_any_document_is_read(self, tmp_path, capsys, argv):
        # The problem (and report) paths do not exist: a flag checked only
        # after loading would report the missing file instead.
        command, *flags = argv.split()
        missing = str(tmp_path / "missing.json")
        documents = [missing, missing] if command == "verify" else [missing]
        code, out, err = run([command, *documents, *flags], capsys)
        assert code == 1
        assert flags[0].split("=")[0] in err
        assert "cannot read" not in err
        assert out == ""

    def test_version_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "hamlink", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "0.1.0" in result.stdout

    def test_cli_module_runs_as_a_script(self, tmp_path):
        def run_module(*argv):
            return subprocess.run(
                [sys.executable, "-m", "hamlink.cli", *argv],
                capture_output=True, text=True,
            )

        result = run_module("--version")
        assert (result.returncode, result.stdout) == (0, "hamlink 0.1.0\n")
        out_path = tmp_path / "demo.json"
        result = run_module("example", "-o", str(out_path))
        assert result.returncode == 0
        assert load_problem(out_path).interaction.r_ab.shape == (4, 6)


class TestOneParserPerProcess:
    # The parser is built once and reused; every call must still see a fresh
    # namespace and dispatch through the module's current cmd_* binding.
    def test_usage_error_then_valid_command(self, demo_paths, capsys):
        problem, report = demo_paths
        code, _, err = run(["synth", str(problem), "--y2", "-1,-1"], capsys)
        assert code == 1
        assert "expected one argument" in err
        code, out, _ = run(["synth", str(problem)], capsys)
        assert code == 0
        assert report.exists()
        assert "verdict: PASS" in out

    def test_version_twice(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(["--version"])
            assert info.value.code == 0
            assert capsys.readouterr().out.strip() == "hamlink 0.1.0"

    def test_patched_command_is_the_one_called(self, demo_paths, capsys, monkeypatch):
        problem, report = demo_paths
        assert run(["synth", str(problem)], capsys)[0] == 0
        calls = []

        def wrapped(args):
            calls.append(args.command)
            return original(args)

        original = cli.cmd_verify
        monkeypatch.setattr(cli, "cmd_verify", wrapped)
        code, out, _ = run(["verify", str(problem), str(report)], capsys)
        assert (code, calls) == (0, ["verify"])
        assert "verdict: PASS" in out
