"""Document serialization: round-trips, determinism, diagnostics."""

import json
import re

import numpy as np
import pytest

from conftest import LONG, random_symmetric, random_symplectic, with_long_integer
from hamlink import (
    Problem,
    SynthOptions,
    ValidationError,
    check_equivalence,
    demo_problem,
    direct_dynamics,
    load_problem,
    load_report,
    problem_to_json,
    report_to_json,
    save_problem,
    save_report,
    simulate_moments,
    synthesize,
)
from hamlink.cli import main
from hamlink.files import load_mixing_matrix, make_provenance, save_trajectory
from hamlink.lqss import DirectInteraction, LqssParams
from hamlink.verify import MomentTrajectory


def awkward_problem():
    # values with no short decimal representation
    rng = np.random.default_rng(401)
    r_a = random_symmetric(rng, 4) / 3.0
    r_b = random_symmetric(rng, 2) * 0.1
    sys_a = LqssParams(
        n=2, r=r_a, c=np.pi * np.ones((2, 4)), d=random_symplectic(rng, 1)
    )
    sys_b = LqssParams(
        n=1, r=r_b, c=np.zeros((0, 2)), d=np.zeros((0, 0))
    )
    r_ab = rng.normal(size=(4, 2)) * 1e-7
    di = DirectInteraction(sys_a=sys_a, sys_b=sys_b, r_ab=r_ab)
    options = SynthOptions(
        m=1, y1=(0.1, ), y2=(1 / 3, ), ga1=(-2.0, ), ga2=(1e-17 + 1.0, ),
        rank_tol=1e-9,
    )
    return Problem(interaction=di, options=options)


class TestProblemRoundTrip:
    def test_demo_round_trips_bit_identically(self, tmp_path):
        problem = demo_problem()
        path = tmp_path / "demo.json"
        save_problem(problem, path)
        loaded = load_problem(path)
        di, li = problem.interaction, loaded.interaction
        assert np.array_equal(di.r_ab, li.r_ab)
        assert np.array_equal(di.sys_a.r, li.sys_a.r)
        assert np.array_equal(di.sys_a.c, li.sys_a.c)
        assert np.array_equal(di.sys_b.d, li.sys_b.d)
        assert loaded.options.m is None
        assert loaded.options.y1 is None

    def test_awkward_values_round_trip(self, tmp_path):
        problem = awkward_problem()
        path = tmp_path / "p.json"
        save_problem(problem, path)
        loaded = load_problem(path)
        assert np.array_equal(problem.interaction.sys_a.r, loaded.interaction.sys_a.r)
        assert np.array_equal(problem.interaction.r_ab, loaded.interaction.r_ab)
        assert loaded.options.y2 == (1 / 3,)
        assert loaded.options.ga2 == (1e-17 + 1.0,)
        assert loaded.options.rank_tol == 1e-9

    def test_empty_externals_round_trip(self, tmp_path):
        problem = awkward_problem()
        path = tmp_path / "p.json"
        save_problem(problem, path)
        loaded = load_problem(path)
        assert loaded.interaction.sys_b.c.shape == (0, 2)
        assert loaded.interaction.sys_b.d.shape == (0, 0)

    def test_serialization_is_deterministic(self):
        problem = demo_problem()
        assert problem_to_json(problem) == problem_to_json(problem)

    def test_double_save_identical_bytes(self, tmp_path):
        problem = awkward_problem()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_problem(problem, p1)
        save_problem(problem, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_written_document_is_valid_json(self, tmp_path):
        path = tmp_path / "demo.json"
        save_problem(demo_problem(), path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "hamlink-problem"
        assert doc["n_a"] == 2
        assert len(doc["r_ab"]) == 4


class TestReportRoundTrip:
    def make_report(self, tmp_path):
        problem = demo_problem()
        problem_path = tmp_path / "demo.json"
        save_problem(problem, problem_path)
        di = problem.interaction
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
        report = check_equivalence(di, fr)
        provenance = make_provenance(problem_path, problem.options)
        return fr, report, provenance

    def test_matrices_round_trip_bit_identically(self, tmp_path):
        fr, report, provenance = self.make_report(tmp_path)
        path = tmp_path / "demo.report.json"
        save_report(fr, report, provenance, path)
        doc = load_report(path)
        for field in ("c_a", "c_b", "x", "sigma", "r_a", "r_b"):
            assert np.array_equal(
                getattr(fr, field), getattr(doc.realization, field)
            ), field
        assert doc.realization.m == fr.m
        assert doc.verification["passed"] is True
        assert doc.provenance["tool"] == "hamlink"
        assert "input_sha256" in doc.provenance

    def test_negative_zeros_survive_rewrite(self, tmp_path):
        # x = -J y negates the zeros of y, so x carries entries equal to -0.0
        problem = demo_problem()
        problem_path = tmp_path / "demo.json"
        save_problem(problem, problem_path)
        di = problem.interaction
        options = SynthOptions(y1=(0.7, 1.6), y2=(1.3, 0.9))
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options=options)
        assert np.any((fr.x == 0.0) & np.signbit(fr.x))
        report = check_equivalence(di, fr)
        first = tmp_path / "first.report.json"
        save_report(fr, report, make_provenance(problem_path, options), first)
        doc = load_report(first)
        for field in ("c_a", "c_b", "x", "sigma", "r_a", "r_b"):
            ours = getattr(fr, field)
            back = getattr(doc.realization, field)
            assert np.array_equal(ours, back), field
            assert np.array_equal(np.signbit(ours), np.signbit(back)), field
        second = tmp_path / "second.report.json"
        save_report(doc.realization, report, doc.provenance, second)
        assert second.read_bytes() == first.read_bytes()

    def test_fixed_provenance_is_deterministic(self, tmp_path):
        fr, report, _ = self.make_report(tmp_path)
        fixed = {"tool": "hamlink", "version": "0.0.0"}
        assert report_to_json(fr, report, fixed) == report_to_json(fr, report, fixed)

    def test_report_rejects_non_finite(self, tmp_path):
        fr, report, provenance = self.make_report(tmp_path)
        import dataclasses

        broken = dataclasses.replace(report, drift_residual=float("nan"))
        with pytest.raises(ValidationError, match="non-finite"):
            report_to_json(fr, broken, provenance)


# A problem document as the 17-significant-digit writer of format_version 1
# printed it: integers written like 4, negative zeros as -0.0, one row per line.
SEVENTEEN_DIGIT_PROBLEM = """{
  "format": "hamlink-problem",
  "format_version": 1,
  "n_a": 1,
  "n_b": 1,
  "r_bar_a": [
    [4, 0.33333333333333331],
    [0.33333333333333331, -0.0]
  ],
  "r_bar_b": [
    [1, 0],
    [0, 2.5]
  ],
  "r_ab": [
    [0.69999999999999996, -0.0],
    [3, 0.66666666666666663]
  ],
  "c_bar_a": [
    [0.10000000000000001, -0.0],
    [2, 1.0000000000000002]
  ],
  "d_bar_a": [
    [1, 0],
    [0, 1]
  ],
  "c_bar_b": [],
  "d_bar_b": [],
  "options": {
    "m": null,
    "y1": [0.69999999999999996],
    "y2": [-0.0],
    "ga1": null,
    "ga2": null,
    "p": null,
    "rank_tol": 1.0000000000000001e-09
  }
}
"""


def assert_bit_identical(ours, back):
    assert np.array_equal(ours, back)
    assert np.array_equal(np.signbit(ours), np.signbit(back))


class TestSeventeenDigitDocuments:
    def load(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(SEVENTEEN_DIGIT_PROBLEM)
        return load_problem(path)

    def test_loads_to_the_same_arrays(self, tmp_path):
        problem = self.load(tmp_path)
        di = problem.interaction
        assert_bit_identical(di.sys_a.r, np.array([[4.0, 1 / 3], [1 / 3, -0.0]]))
        assert_bit_identical(di.sys_b.r, np.array([[1.0, 0.0], [0.0, 2.5]]))
        assert_bit_identical(di.r_ab, np.array([[0.7, -0.0], [3.0, 2 / 3]]))
        assert_bit_identical(
            di.sys_a.c, np.array([[0.1, -0.0], [2.0, 1.0 + 2.0**-52]])
        )
        assert_bit_identical(di.sys_a.d, np.eye(2))
        assert di.sys_b.c.shape == (0, 2)
        assert di.sys_b.d.shape == (0, 0)
        options = problem.options
        assert options.y1 == (0.7,)
        assert options.y2 == (-0.0,) and np.signbit(options.y2[0])
        assert options.rank_tol == 1e-9

    def test_rewritten_document_reloads_bit_identically(self, tmp_path):
        old = self.load(tmp_path)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_problem(old, first)
        new = load_problem(first)
        for side in ("sys_a", "sys_b"):
            for field in ("r", "c", "d"):
                assert_bit_identical(
                    getattr(getattr(old.interaction, side), field),
                    getattr(getattr(new.interaction, side), field),
                )
        assert_bit_identical(old.interaction.r_ab, new.interaction.r_ab)
        assert np.signbit(new.options.y2[0])
        save_problem(new, second)
        assert second.read_bytes() == first.read_bytes()
        assert first.read_text() != SEVENTEEN_DIGIT_PROBLEM
        assert "0.7," in first.read_text() and "-0.0" in first.read_text()


class TestTrajectoryDocument:
    def test_strided_views_write_the_same_bytes_as_copies(self, tmp_path):
        # simulate_moments returns covariances as a strided view of the
        # stored augmented moment matrices
        dyn = direct_dynamics(demo_problem().interaction)
        mean0 = np.linspace(-1.0, 1.0, dyn.dim)
        traj = simulate_moments(dyn, t_final=0.05, dt=1e-3, mean0=mean0)
        assert not traj.covariances.flags.c_contiguous
        copies = MomentTrajectory(
            times=traj.times.copy(),
            means=np.ascontiguousarray(traj.means),
            covariances=np.ascontiguousarray(traj.covariances),
        )
        save_trajectory(traj, tmp_path / "view.json")
        save_trajectory(copies, tmp_path / "copy.json")
        assert (tmp_path / "view.json").read_bytes() == (
            tmp_path / "copy.json"
        ).read_bytes()


class TestNonFiniteWrites:
    MESSAGE = "documents cannot contain non-finite numbers"

    def test_save_problem_refuses_nan(self, tmp_path):
        problem = Problem(
            interaction=demo_problem().interaction,
            options=SynthOptions(y1=(float("nan"), 1.0)),
        )
        with pytest.raises(ValidationError, match=self.MESSAGE):
            save_problem(problem, tmp_path / "p.json")

    def test_save_trajectory_refuses_nan(self, tmp_path):
        traj = MomentTrajectory(
            times=np.array([0.0, 0.1]),
            means=np.array([[0.0, 0.0], [float("nan"), 0.0]]),
            covariances=np.zeros((2, 2, 2)),
        )
        with pytest.raises(ValidationError, match=self.MESSAGE):
            save_trajectory(traj, tmp_path / "t.json")


class TestLoaderDiagnostics:
    def write(self, tmp_path, mutate):
        doc = json.loads(problem_to_json(demo_problem()))
        mutate(doc)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        return path

    def test_missing_field_is_named(self, tmp_path):
        path = self.write(tmp_path, lambda d: d.pop("r_ab"))
        with pytest.raises(ValidationError, match="missing field 'r_ab'"):
            load_problem(path)

    def test_ragged_row_is_located(self, tmp_path):
        def chop(d):
            d["r_bar_a"][1] = d["r_bar_a"][1][:3]

        path = self.write(tmp_path, chop)
        with pytest.raises(ValidationError, match="row 1 has 3 entries"):
            load_problem(path)

    def test_non_number_entry_is_located(self, tmp_path):
        for entry in ("zero", "1.5", True, None, [1.0], {}):
            def poison(d):
                d["r_ab"][0][1] = entry

            path = self.write(tmp_path, poison)
            with pytest.raises(ValidationError, match=r"'r_ab' entry \(0, 1\) is not"):
                load_problem(path)

    def test_non_number_option_entry_is_located(self, tmp_path):
        for entry in ("1.5", True, None):
            path = self.write(tmp_path, lambda d: d["options"].update(y1=[1.0, entry]))
            with pytest.raises(ValidationError, match="'y1' entry 1 is not a number"):
                load_problem(path)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("x", "'y1' entry 1 is not a number"),
            (10**400, "'y1' has an integer too large for a float"),
        ],
        ids=["not_a_number", "too_large"],
    )
    def test_bad_option_entry_names_the_file_once(self, tmp_path, entry, message):
        doc = json.loads(problem_to_json(demo_problem()))
        doc["options"]["y1"] = [1.0, entry]
        path = tmp_path / "bad_y1.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {message}$"):
            load_problem(path)

    @pytest.mark.parametrize(
        "message,mutate",
        [
            (
                "'r_ab' has an integer too large",
                lambda d: d["r_ab"][1].__setitem__(2, 10**400),
            ),
            (
                "'y1' has an integer too large",
                lambda d: d["options"].update(y1=[1.0, -(10**400)]),
            ),
            (
                r"p\.json: rank_tol is too large for a float$",
                lambda d: d["options"].update(rank_tol=10**400),
            ),
        ],
        ids=["r_ab", "y1", "rank_tol"],
    )
    def test_integer_too_large_for_a_float_is_named(self, tmp_path, message, mutate):
        path = self.write(tmp_path, mutate)
        with pytest.raises(ValidationError, match=message):
            load_problem(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(n_a=LONG),
            lambda d: d["options"].update(m=LONG),
            lambda d: d["r_ab"][0].__setitem__(0, LONG),
        ],
        ids=["n_a", "m", "r_ab"],
    )
    def test_integer_past_the_digit_limit_is_refused(self, tmp_path, mutate):
        # json cannot turn more than 4300 digits into an int; the refusal
        # names the file instead of escaping as a plain ValueError.
        path = self.write(tmp_path, mutate)
        path.write_text(with_long_integer(path.read_text()))
        with pytest.raises(ValidationError, match=r"p\.json: an integer has too many digits"):
            load_problem(path)

    def test_wrong_column_count(self, tmp_path):
        def shrink(d):
            d["r_ab"] = [row[:4] for row in d["r_ab"]]

        path = self.write(tmp_path, shrink)
        with pytest.raises(
            ValidationError, match=r"p\.json: r_ab must be 4 x 6, got \(4, 4\)"
        ):
            load_problem(path)

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (
                lambda d: d.update(c_bar_b=[row[:-1] for row in d["c_bar_b"]]),
                r"p\.json: system b: c must have even dimensions .* \(6, 5\)",
            ),
            (
                lambda d: d.update(c_bar_b=[row[:-2] for row in d["c_bar_b"]]),
                r"p\.json: system b: c must have 6 columns, got 4",
            ),
            (
                lambda d: d.update(d_bar_a=np.eye(2).tolist()),
                r"p\.json: system a: d must be 4 x 4, got \(2, 2\)",
            ),
            (
                lambda d: d.update(r_ab=[row[:-1] for row in d["r_ab"]]),
                r"p\.json: r_ab must have even dimensions .* \(4, 5\)",
            ),
        ],
        ids=["c_bar_b-short", "c_bar_b-pair-short", "d_bar_a-size", "r_ab-short"],
    )
    def test_problem_shape_refusal_names_file_and_field(self, tmp_path, mutate, message):
        # The loader reads rows; the containers refuse the shapes, and the
        # loader adds the file and the system to their message.
        path = self.write(tmp_path, mutate)
        with pytest.raises(ValidationError, match=message):
            load_problem(path)

    @pytest.mark.parametrize("m", [-1, 2.5, True, "2"])
    def test_bad_option_channel_count_names_file_and_field(self, tmp_path, m):
        path = self.write(tmp_path, lambda d: d["options"].update(m=m))
        with pytest.raises(
            ValidationError, match=r"p\.json: m must be a nonnegative integer"
        ):
            load_problem(path)

    @pytest.mark.parametrize(
        "n_a, message",
        [
            (0, r"p\.json: 'n_a' must be positive"),
            (-1, r"p\.json: n_a must be a nonnegative integer, got -1"),
            (2.0, r"p\.json: n_a must be a nonnegative integer, got 2\.0"),
            (True, r"p\.json: n_a must be a nonnegative integer, got True"),
            (10**400, r"p\.json: n_a must be a nonnegative integer up to 2\*\*62$"),
        ],
        ids=["zero", "negative", "float", "bool", "past-any-array"],
    )
    def test_bad_mode_count_names_file_and_field(self, tmp_path, n_a, message):
        path = self.write(tmp_path, lambda d: d.update(n_a=n_a))
        with pytest.raises(ValidationError, match=message):
            load_problem(path)

    def test_wrong_format_marker(self, tmp_path):
        path = self.write(tmp_path, lambda d: d.update(format="something"))
        with pytest.raises(ValidationError, match="format"):
            load_problem(path)

    def test_wrong_format_version(self, tmp_path):
        path = self.write(tmp_path, lambda d: d.update(format_version=99))
        with pytest.raises(ValidationError, match="format_version"):
            load_problem(path)

    def test_nan_literal_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"format": "hamlink-problem", "x": NaN}')
        with pytest.raises(ValidationError, match="NaN"):
            load_problem(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"format": "hamlink-problem",\n  "oops"\n}')
        with pytest.raises(ValidationError, match=r"invalid JSON at line \d"):
            load_problem(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValidationError, match="top-level"):
            load_problem(path)

    def test_semantic_errors_name_the_file(self, tmp_path):
        def skew(d):
            d["r_bar_a"][0][1] = 99.0

        path = self.write(tmp_path, skew)
        with pytest.raises(ValidationError) as info:
            load_problem(path)
        assert "symmetric" in str(info.value)
        assert path.name in str(info.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_problem(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "kind, mutate, tail",
        [
            (
                "problem",
                lambda d: d.update(format_version=99),
                "format_version is 99, expected 1",
            ),
            ("problem", lambda d: d.pop("r_ab"), "missing field 'r_ab'"),
            (
                "problem",
                lambda d: d["r_ab"][0].__setitem__(1, "zero"),
                "'r_ab' entry (0, 1) is not a number",
            ),
            (
                "problem",
                lambda d: d["r_bar_a"].__setitem__(1, d["r_bar_a"][1][:3]),
                "'r_bar_a' row 1 has 3 entries, expected 4",
            ),
            (
                "problem",
                lambda d: d.update(r_ab=[row[:4] for row in d["r_ab"]]),
                "r_ab must be 4 x 6, got (4, 4)",
            ),
            (
                "problem",
                lambda d: d["options"].update(m=-1),
                "m must be a nonnegative integer, got -1",
            ),
            (
                "problem",
                lambda d: d["options"].update(y1=[1.0, "x"]),
                "'y1' entry 1 is not a number",
            ),
            (
                "problem",
                lambda d: d.update(d_bar_a=np.eye(2).tolist()),
                "system a: d must be 4 x 4, got (2, 2)",
            ),
            ("problem", lambda d: d.update(n_a=0), "'n_a' must be positive"),
            (
                "problem",
                lambda d: d.update(options=[]),
                "field 'options' must be an object",
            ),
            (
                "report",
                lambda d: d["x"].pop(),
                "x must have even dimensions (pairs of quadratures), got shape (3, 4)",
            ),
            (
                "report",
                lambda d: d.update(provenance=[]),
                "field 'provenance' must be an object",
            ),
            (
                "p-matrix",
                lambda d: d[1].__setitem__(1, "x"),
                "'p' entry (1, 1) is not a number",
            ),
            ("p-matrix", lambda d: d.__setitem__(3, None), "'p' row 3 is not a list"),
        ],
        ids=[
            "header", "missing-field", "non-number", "ragged-row", "container",
            "option", "option-vector", "system-a", "mode-count", "options-type",
            "report-container", "report-field", "p-entry", "p-row",
        ],
    )
    def test_every_refusal_names_the_file_once_at_the_start(
        self, tmp_path, kind, mutate, tail
    ):
        # Whole messages: the loader adds the path once, the helpers never.
        if kind == "problem":
            load, doc = load_problem, json.loads(problem_to_json(demo_problem()))
        elif kind == "report":
            fr, report, _ = TestReportRoundTrip().make_report(tmp_path)
            load, doc = load_report, json.loads(report_to_json(fr, report, {}))
        else:
            load, doc = load_mixing_matrix, np.eye(4).tolist()
        mutate(doc)
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            load(path)
        assert str(info.value) == f"{path}: {tail}"

    def test_report_loader_checks_shapes(self, tmp_path):
        problem = demo_problem()
        problem_path = tmp_path / "demo.json"
        save_problem(problem, problem_path)
        di = problem.interaction
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
        report = check_equivalence(di, fr)
        path = tmp_path / "r.json"
        save_report(fr, report, {"tool": "hamlink"}, path)
        doc = json.loads(path.read_text())
        doc["x"] = doc["x"][:2]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_report(path)

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (
                lambda d: d["c_a"].extend(d["c_a"][:2]),
                "c_a must have 4 rows, got 6",
            ),
            (
                lambda d: d.update(r_a=[row[:-2] for row in d["r_a"]]),
                r"r\.json: r_a must be 4 x 4, got \(4, 2\)",
            ),
            (
                lambda d: d["c_b"].extend(d["c_b"][:2]),
                "c_b must have 4 rows, got 6",
            ),
            (
                lambda d: d.update(r_b=[row[:-2] for row in d["r_b"]]),
                r"r\.json: r_b must be 6 x 6, got \(6, 4\)",
            ),
            (lambda d: d["x"].pop(), r"x must have even dimensions .* \(3, 4\)"),
            (
                lambda d: d["sigma"].extend(d["sigma"][:2]),
                r"x and sigma must be 4 x 4, got \(4, 4\) and \(6, 4\)",
            ),
        ],
        ids=[
            "c_a-extra-rows", "r_a-short", "c_b-extra-rows", "r_b-short",
            "x-missing-row", "sigma-extra-rows",
        ],
    )
    def test_tampered_report_shape_is_refused(self, tmp_path, capsys, mutate, message):
        problem_path = tmp_path / "demo.json"
        save_problem(demo_problem(), problem_path)
        path = tmp_path / "r.json"
        assert main(["synth", str(problem_path), "--output", str(path)]) == 0
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=message):
            load_report(path)
        capsys.readouterr()
        assert main(["verify", str(problem_path), str(path)]) == 1
        assert re.search(message, capsys.readouterr().err)

    def test_report_with_no_channels_refuses_a_loop_matrix(self, tmp_path):
        fr, report, _ = TestReportRoundTrip().make_report(tmp_path)
        path = tmp_path / "r.json"
        save_report(fr, report, {"tool": "hamlink"}, path)
        doc = json.loads(path.read_text())
        doc.update(m=0, c_a=[], c_b=[])
        path.write_text(json.dumps(doc))
        with pytest.raises(
            ValidationError, match=r"r\.json: x and sigma must be 0 x 0, got \(4, 4\)"
        ):
            load_report(path)

    @pytest.mark.parametrize(
        "m, message",
        [
            (-1, r"r\.json: m must be a nonnegative integer, got -1"),
            (10**400, r"r\.json: m must be a nonnegative integer up to 2\*\*62$"),
            (LONG, r"r\.json: an integer has too many digits to read$"),
        ],
        ids=["negative", "past-any-array", "past-the-digit-limit"],
    )
    def test_report_channel_count_with_empty_matrices(self, tmp_path, m, message):
        # Empty matrices take their width from c_a's rows, not from m, so a
        # bad m reaches the container instead of sizing an array.
        fr, report, _ = TestReportRoundTrip().make_report(tmp_path)
        path = tmp_path / "r.json"
        save_report(fr, report, {"tool": "hamlink"}, path)
        doc = json.loads(path.read_text())
        doc.update(m=m, c_a=[], c_b=[], x=[], sigma=[])
        path.write_text(with_long_integer(json.dumps(doc)))
        with pytest.raises(ValidationError, match=message):
            load_report(path)
