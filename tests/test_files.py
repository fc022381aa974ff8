"""Document serialization: round-trips, determinism, diagnostics."""

import json

import numpy as np
import pytest

from conftest import random_symmetric, random_symplectic
from hamlink import (
    Problem,
    SynthOptions,
    ValidationError,
    check_equivalence,
    demo_problem,
    load_problem,
    load_report,
    problem_to_json,
    report_to_json,
    save_problem,
    save_report,
    synthesize,
)
from hamlink.files import make_provenance
from hamlink.lqss import DirectInteraction, LqssParams


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
        # non-unit loop diagonals give sigma entries equal to -0.0
        problem = demo_problem()
        problem_path = tmp_path / "demo.json"
        save_problem(problem, problem_path)
        di = problem.interaction
        options = SynthOptions(y1=(0.7, 1.6), y2=(1.3, 0.9))
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options=options)
        assert np.any((fr.sigma == 0.0) & np.signbit(fr.sigma))
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
        def poison(d):
            d["r_ab"][0][1] = "zero"

        path = self.write(tmp_path, poison)
        with pytest.raises(ValidationError, match=r"entry \(0, 1\)"):
            load_problem(path)

    def test_wrong_column_count(self, tmp_path):
        def shrink(d):
            d["r_ab"] = [row[:4] for row in d["r_ab"]]

        path = self.write(tmp_path, shrink)
        with pytest.raises(ValidationError, match="has 4 columns, expected 6"):
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
