"""Problem and report documents.

Every document kind is JSON written by one json.dumps call: fixed key
order, two-space layout, floats in Python's shortest round-trip form, so
writing is deterministic (byte-identical for equal inputs) and reading
recovers every matrix bit-identically, negative zeros included.  Problem
documents carry no timestamps; report documents carry provenance (tool
version, input digest, timestamp, effective parameters).
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ValidationError
from .lqss import DirectInteraction, LqssParams
from .symcore import RANK_TOL, check_count
from .synth import FeedbackRealization, SynthOptions
from .verify import EquivalenceReport, MomentTrajectory

__all__ = [
    "Problem",
    "ReportDoc",
    "load_problem",
    "save_problem",
    "problem_to_json",
    "load_report",
    "save_report",
    "report_to_json",
]

PROBLEM_FORMAT = "hamlink-problem"
REPORT_FORMAT = "hamlink-report"
TRAJECTORY_FORMAT = "hamlink-trajectory"
FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class Problem:
    """A direct interaction plus synthesis parameters."""

    interaction: DirectInteraction
    options: SynthOptions


@dataclass(frozen=True, eq=False)
class ReportDoc:
    """A parsed report: the realization plus raw verification/provenance."""

    realization: FeedbackRealization
    verification: dict
    provenance: dict


def _dumps(doc: dict) -> str:
    """The one writer of every document: json's two-space layout."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError("documents cannot contain non-finite numbers") from exc
    except TypeError as exc:
        raise ValidationError(f"cannot serialize document: {exc}") from exc


def _reject_constant(name: str):
    raise ValidationError(f"documents cannot contain {name}")


def _load_json(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except ValidationError:  # a NaN or Infinity literal, already named
        raise
    except ValueError:  # an integer past Python's limit on digits
        raise ValidationError(f"{path}: an integer has too many digits to read") from None


@contextmanager
def _naming(path: Path):
    """Prefix the document's path to a refusal raised inside the block."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _get(doc: dict, key: str):
    if key not in doc:
        raise ValidationError(f"missing field '{key}'")
    return doc[key]


_NUMBER_TYPES = {int, float}


def _check_numbers(entries: list, key: str, row: int | None = None) -> None:
    """Refuse any entry json did not read as a number: true, null, "1.5", ..."""
    # The set test scans the row in C; the loop runs only to name the entry.
    if _NUMBER_TYPES.issuperset(map(type, entries)):
        return
    j = next(j for j, entry in enumerate(entries) if type(entry) not in _NUMBER_TYPES)
    at = j if row is None else (row, j)
    raise ValidationError(f"'{key}' entry {at} is not a number")


def _floats(value, key: str) -> np.ndarray:
    try:
        return np.array(value, dtype=float)
    except OverflowError:
        raise ValidationError(f"'{key}' has an integer too large for a float") from None


def _as_matrix(value, key: str, cols: int = 0) -> np.ndarray:
    """A list of equal rows of numbers; an empty list has `cols` columns."""
    if not isinstance(value, list):
        raise ValidationError(f"field '{key}' must be a list of rows")
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ValidationError(f"'{key}' row {i} is not a list")
        if len(row) != len(value[0]):
            raise ValidationError(
                f"'{key}' row {i} has {len(row)} entries, expected {len(value[0])}"
            )
        _check_numbers(row, key, i)
    width = len(value[0]) if value else cols
    return _floats(value, key).reshape(len(value), width)


def _as_vector(value, key: str) -> tuple[float, ...] | None:
    if value is None:
        return None
    if not isinstance(value, list):
        raise ValidationError(f"field '{key}' must be a list or null")
    _check_numbers(value, key)
    return tuple(_floats(value, key).tolist())


def _check_header(doc, expected: str) -> None:
    if not isinstance(doc, dict):
        raise ValidationError("top-level value must be an object")
    fmt = doc.get("format")
    if fmt != expected:
        raise ValidationError(f"format is {fmt!r}, expected {expected!r}")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(f"format_version is {version!r}, expected {FORMAT_VERSION}")


def _plain(values) -> list | None:
    """An option vector or matrix as nested Python floats, or None."""
    return None if values is None else np.asarray(values, dtype=float).tolist()


def _options_to_dict(options: SynthOptions) -> dict:
    return {
        "m": None if options.m is None else int(options.m),
        "y1": _plain(options.y1),
        "y2": _plain(options.y2),
        "ga1": _plain(options.ga1),
        "ga2": _plain(options.ga2),
        "p": _plain(options.p),
        "rank_tol": float(options.rank_tol),
    }


def _options_from_dict(doc: dict) -> SynthOptions:
    p_raw = doc.get("p")
    p = None if p_raw is None else _as_matrix(p_raw, "p")
    vectors = {k: _as_vector(doc.get(k), k) for k in ("y1", "y2", "ga1", "ga2")}
    return SynthOptions(
        m=doc.get("m"), p=p, rank_tol=doc.get("rank_tol", RANK_TOL), **vectors
    )


def problem_to_dict(problem: Problem) -> dict:
    di = problem.interaction
    return {
        "format": PROBLEM_FORMAT,
        "format_version": FORMAT_VERSION,
        "n_a": di.sys_a.n,
        "n_b": di.sys_b.n,
        "r_bar_a": di.sys_a.r.tolist(),
        "r_bar_b": di.sys_b.r.tolist(),
        "r_ab": di.r_ab.tolist(),
        "c_bar_a": di.sys_a.c.tolist(),
        "d_bar_a": di.sys_a.d.tolist(),
        "c_bar_b": di.sys_b.c.tolist(),
        "d_bar_b": di.sys_b.d.tolist(),
        "options": _options_to_dict(problem.options),
    }


def problem_to_json(problem: Problem) -> str:
    return _dumps(problem_to_dict(problem))


def save_problem(problem: Problem, path) -> None:
    Path(path).write_text(problem_to_json(problem))


def _system_from_doc(doc: dict, side: str) -> LqssParams:
    n_key, r_key, c_key, d_key = (
        f"{key}_{side}" for key in ("n", "r_bar", "c_bar", "d_bar")
    )
    n = _get(doc, n_key)
    if check_count(n, n_key) == 0:
        raise ValidationError(f"'{n_key}' must be positive")
    r = _as_matrix(_get(doc, r_key), r_key)
    c = _as_matrix(_get(doc, c_key), c_key, cols=2 * n)
    d = _as_matrix(_get(doc, d_key), d_key, cols=c.shape[0])
    try:
        return LqssParams(n=n, r=r, c=c, d=d)
    except ValidationError as exc:
        raise ValidationError(f"system {side}: {exc}") from exc


def load_problem(path) -> Problem:
    """Read and validate a problem document."""
    path = Path(path)
    doc = _load_json(path)
    with _naming(path):
        _check_header(doc, PROBLEM_FORMAT)
        sys_a = _system_from_doc(doc, "a")
        sys_b = _system_from_doc(doc, "b")
        r_ab = _as_matrix(_get(doc, "r_ab"), "r_ab")
        options_doc = doc.get("options", {})
        if not isinstance(options_doc, dict):
            raise ValidationError("field 'options' must be an object")
        options = _options_from_dict(options_doc)
        interaction = DirectInteraction(sys_a=sys_a, sys_b=sys_b, r_ab=r_ab)
    return Problem(interaction=interaction, options=options)


def file_digest(path) -> str:
    """Hex sha256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _verification_to_dict(report: EquivalenceReport) -> dict:
    doc = {
        "tol": report.tol,
        "drift_residual": report.drift_residual,
        "skew_drift_residual": report.skew_drift_residual,
        "noise_residual": report.noise_residual,
        "coupling_residual": report.coupling_residual,
        "sigma_unit_margin": report.sigma_unit_margin
        if np.isfinite(report.sigma_unit_margin)
        else None,
        "flags": dict(report.flags),
        "passed": report.passed,
        "failing": report.failing(),
    }
    if report.moment_residual is not None:
        doc["moment_residual"] = report.moment_residual
        doc["moment_tol"] = report.moment_tol
    return doc


def report_to_dict(
    realization: FeedbackRealization,
    report: EquivalenceReport,
    provenance: dict,
) -> dict:
    return {
        "format": REPORT_FORMAT,
        "format_version": FORMAT_VERSION,
        "m": int(realization.m),
        "c_a": realization.c_a.tolist(),
        "c_b": realization.c_b.tolist(),
        "x": realization.x.tolist(),
        "sigma": realization.sigma.tolist(),
        "r_a": realization.r_a.tolist(),
        "r_b": realization.r_b.tolist(),
        "verification": _verification_to_dict(report),
        "provenance": provenance,
    }


def report_to_json(
    realization: FeedbackRealization,
    report: EquivalenceReport,
    provenance: dict,
) -> str:
    return _dumps(report_to_dict(realization, report, provenance))


def make_provenance(input_path, options: SynthOptions) -> dict:
    """Provenance block for a report: tool, input digest, effective options."""
    return {
        "tool": "hamlink",
        "version": __version__,
        "input": str(input_path),
        "input_sha256": file_digest(input_path),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "options": _options_to_dict(options),
    }


def save_report(
    realization: FeedbackRealization,
    report: EquivalenceReport,
    provenance: dict,
    path,
) -> None:
    Path(path).write_text(report_to_json(realization, report, provenance))


def save_trajectory(traj: MomentTrajectory, path) -> None:
    """Write a simulated trajectory as a hamlink-trajectory document."""
    doc = {
        "format": TRAJECTORY_FORMAT,
        "format_version": FORMAT_VERSION,
        "times": traj.times.tolist(),
        "means": traj.means.tolist(),
        "covariances": traj.covariances.tolist(),
    }
    Path(path).write_text(_dumps(doc))


def load_mixing_matrix(path) -> np.ndarray:
    """Read a mixing-matrix file: one JSON list of rows, as for the p option."""
    path = Path(path)
    doc = _load_json(path)
    with _naming(path):
        return _as_matrix(doc, "p")


def load_report(path) -> ReportDoc:
    """Read a report document; matrices are restored bit-identically."""
    path = Path(path)
    doc = _load_json(path)
    with _naming(path):
        _check_header(doc, REPORT_FORMAT)
        m = _get(doc, "m")
        # An empty matrix, written as [], loses its column count: r_a, r_b and
        # c_a's rows restore it, and FeedbackRealization checks every shape.
        r_a = _as_matrix(_get(doc, "r_a"), "r_a")
        r_b = _as_matrix(_get(doc, "r_b"), "r_b")
        c_a = _as_matrix(_get(doc, "c_a"), "c_a", cols=r_a.shape[1])
        c_b = _as_matrix(_get(doc, "c_b"), "c_b", cols=r_b.shape[1])
        x = _as_matrix(_get(doc, "x"), "x", cols=c_a.shape[0])
        sigma = _as_matrix(_get(doc, "sigma"), "sigma", cols=c_a.shape[0])
        verification = doc.get("verification", {})
        provenance = doc.get("provenance", {})
        if not isinstance(verification, dict):
            raise ValidationError("field 'verification' must be an object")
        if not isinstance(provenance, dict):
            raise ValidationError("field 'provenance' must be an object")
        realization = FeedbackRealization(
            m=m, c_a=c_a, c_b=c_b, x=x, sigma=sigma, r_a=r_a, r_b=r_b
        )
    return ReportDoc(
        realization=realization, verification=verification, provenance=provenance
    )
