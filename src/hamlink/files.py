"""Problem and report documents.

Both document kinds are JSON with a fixed key order and floats printed at
17 significant digits, so writing is deterministic (byte-identical for
equal inputs) and reading recovers every matrix bit-identically.  Problem
documents carry no timestamps; report documents carry provenance (tool
version, input digest, timestamp, effective parameters).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ValidationError
from .lqss import DirectInteraction, LqssParams
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
    "load_mixing_matrix",
    "save_trajectory",
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


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    value = float(x)
    if not np.isfinite(value):
        raise ValidationError("documents cannot contain non-finite numbers")
    if value == 0.0 and np.signbit(value):
        # "-0" would read back as the integer 0 and lose the sign.
        return "-0.0"
    return format(value, ".17g")


def _emit(obj, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f'{pad}  "{key}": ')
            _emit(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        if all(isinstance(v, (bool, int, float, np.integer, np.floating)) for v in items):
            out.append("[" + ", ".join(_fmt_number(v) for v in items) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(items):
            out.append(pad + "  ")
            _emit(value, out, indent + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, float, np.integer, np.floating)):
        out.append(_fmt_number(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise ValidationError(f"cannot serialize value of type {type(obj).__name__}")


def _dumps(doc: dict) -> str:
    out: list[str] = []
    _emit(doc, out, 0)
    out.append("\n")
    return "".join(out)


def _matrix_rows(mat: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(mat, dtype=float)]


def _reject_constant(name: str):
    raise ValidationError(f"documents cannot contain {name}")


def _load_json(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return doc


def _get(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValidationError(f"{where}: missing field '{key}'")
    return doc[key]


def _as_int(doc: dict, key: str, where: str) -> int:
    value = _get(doc, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}: field '{key}' must be an integer")
    return value


def _as_matrix(value, key: str, where: str, cols: int | None = None) -> np.ndarray:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: field '{key}' must be a list of rows")
    if not value:
        return np.zeros((0, cols if cols is not None else 0))
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ValidationError(f"{where}: '{key}' row {i} is not a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(
                f"{where}: '{key}' row {i} has {len(row)} entries, "
                f"expected {width}"
            )
        numbers = []
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise ValidationError(
                    f"{where}: '{key}' entry ({i}, {j}) is not a number"
                )
            numbers.append(float(entry))
        rows.append(numbers)
    if cols is not None and width != cols:
        raise ValidationError(
            f"{where}: '{key}' has {width} columns, expected {cols}"
        )
    return np.array(rows)


def _as_vector(value, key: str, where: str) -> tuple[float, ...] | None:
    if value is None:
        return None
    if not isinstance(value, list):
        raise ValidationError(f"{where}: field '{key}' must be a list or null")
    out = []
    for i, entry in enumerate(value):
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ValidationError(f"{where}: '{key}' entry {i} is not a number")
        out.append(float(entry))
    return tuple(out)


def _check_header(doc, path: Path, expected: str) -> None:
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top-level value must be an object")
    fmt = doc.get("format")
    if fmt != expected:
        raise ValidationError(
            f"{path}: format is {fmt!r}, expected {expected!r}"
        )
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"{path}: format_version is {version!r}, expected {FORMAT_VERSION}"
        )


def _options_to_dict(options: SynthOptions) -> dict:
    return {
        "m": options.m,
        "y1": None if options.y1 is None else list(options.y1),
        "y2": None if options.y2 is None else list(options.y2),
        "ga1": None if options.ga1 is None else list(options.ga1),
        "ga2": None if options.ga2 is None else list(options.ga2),
        "p": None if options.p is None else _matrix_rows(options.p),
        "rank_tol": options.rank_tol,
    }


def _options_from_dict(doc: dict, where: str) -> SynthOptions:
    m = doc.get("m")
    if m is not None and (isinstance(m, bool) or not isinstance(m, int)):
        raise ValidationError(f"{where}: field 'm' must be an integer or null")
    p_raw = doc.get("p")
    p = None if p_raw is None else _as_matrix(p_raw, "p", where)
    rank_tol = doc.get("rank_tol", 1e-10)
    if isinstance(rank_tol, bool) or not isinstance(rank_tol, (int, float)):
        raise ValidationError(f"{where}: field 'rank_tol' must be a number")
    try:
        return SynthOptions(
            m=m,
            y1=_as_vector(doc.get("y1"), "y1", where),
            y2=_as_vector(doc.get("y2"), "y2", where),
            ga1=_as_vector(doc.get("ga1"), "ga1", where),
            ga2=_as_vector(doc.get("ga2"), "ga2", where),
            p=p,
            rank_tol=float(rank_tol),
        )
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def problem_to_dict(problem: Problem) -> dict:
    di = problem.interaction
    return {
        "format": PROBLEM_FORMAT,
        "format_version": FORMAT_VERSION,
        "n_a": di.sys_a.n,
        "n_b": di.sys_b.n,
        "r_bar_a": _matrix_rows(di.sys_a.r),
        "r_bar_b": _matrix_rows(di.sys_b.r),
        "r_ab": _matrix_rows(di.r_ab),
        "c_bar_a": _matrix_rows(di.sys_a.c),
        "d_bar_a": _matrix_rows(di.sys_a.d),
        "c_bar_b": _matrix_rows(di.sys_b.c),
        "d_bar_b": _matrix_rows(di.sys_b.d),
        "options": _options_to_dict(problem.options),
    }


def problem_to_json(problem: Problem) -> str:
    return _dumps(problem_to_dict(problem))


def save_problem(problem: Problem, path) -> None:
    Path(path).write_text(problem_to_json(problem))


def _system_from_doc(
    doc: dict, where: str, n_key: str, r_key: str, c_key: str, d_key: str
) -> LqssParams:
    n = _as_int(doc, n_key, where)
    if n <= 0:
        raise ValidationError(f"{where}: '{n_key}' must be positive")
    r = _as_matrix(_get(doc, r_key, where), r_key, where, cols=2 * n)
    c = _as_matrix(_get(doc, c_key, where), c_key, where, cols=2 * n)
    d_cols = c.shape[0] if c.shape[0] else None
    d = _as_matrix(_get(doc, d_key, where), d_key, where, cols=d_cols)
    if d.size == 0:
        d = np.zeros((0, 0))
    try:
        return LqssParams(n=n, r=r, c=c, d=d)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def load_problem(path) -> Problem:
    """Read and validate a problem document."""
    path = Path(path)
    doc = _load_json(path)
    _check_header(doc, path, PROBLEM_FORMAT)
    where = str(path)
    sys_a = _system_from_doc(doc, where, "n_a", "r_bar_a", "c_bar_a", "d_bar_a")
    sys_b = _system_from_doc(doc, where, "n_b", "r_bar_b", "c_bar_b", "d_bar_b")
    r_ab = _as_matrix(
        _get(doc, "r_ab", where), "r_ab", where, cols=2 * sys_b.n
    )
    options_doc = doc.get("options", {})
    if not isinstance(options_doc, dict):
        raise ValidationError(f"{where}: field 'options' must be an object")
    options = _options_from_dict(options_doc, where)
    try:
        interaction = DirectInteraction(sys_a=sys_a, sys_b=sys_b, r_ab=r_ab)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
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
        "m": realization.m,
        "c_a": _matrix_rows(realization.c_a),
        "c_b": _matrix_rows(realization.c_b),
        "x": _matrix_rows(realization.x),
        "sigma": _matrix_rows(realization.sigma),
        "r_a": _matrix_rows(realization.r_a),
        "r_b": _matrix_rows(realization.r_b),
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
        "times": [float(t) for t in traj.times],
        "means": _matrix_rows(traj.means),
        "covariances": [_matrix_rows(cov) for cov in traj.covariances],
    }
    Path(path).write_text(_dumps(doc))


def load_mixing_matrix(path) -> np.ndarray:
    """Read a mixing-matrix file: one JSON list of rows, as for the p option."""
    path = Path(path)
    return _as_matrix(_load_json(path), "p", str(path))


def load_report(path) -> ReportDoc:
    """Read a report document; matrices are restored bit-identically."""
    path = Path(path)
    doc = _load_json(path)
    _check_header(doc, path, REPORT_FORMAT)
    where = str(path)
    m = _as_int(doc, "m", where)
    if m < 0:
        raise ValidationError(f"{where}: 'm' must be nonnegative")
    width = 2 * m
    c_a = _as_matrix(_get(doc, "c_a", where), "c_a", where)
    c_b = _as_matrix(_get(doc, "c_b", where), "c_b", where)
    x = _as_matrix(_get(doc, "x", where), "x", where, cols=width or None)
    sigma = _as_matrix(_get(doc, "sigma", where), "sigma", where, cols=width or None)
    if width == 0:
        x = np.zeros((0, 0))
        sigma = np.zeros((0, 0))
    # An empty coupling serializes as [] and loses its column count; the
    # square Hamiltonian matrix restores it.
    r_a = _as_matrix(
        _get(doc, "r_a", where), "r_a", where,
        cols=c_a.shape[1] if c_a.shape[0] else None,
    )
    r_b = _as_matrix(
        _get(doc, "r_b", where), "r_b", where,
        cols=c_b.shape[1] if c_b.shape[0] else None,
    )
    if c_a.shape[0] == 0:
        c_a = np.zeros((0, r_a.shape[1]))
    if c_b.shape[0] == 0:
        c_b = np.zeros((0, r_b.shape[1]))
    verification = doc.get("verification", {})
    provenance = doc.get("provenance", {})
    if not isinstance(verification, dict):
        raise ValidationError(f"{where}: field 'verification' must be an object")
    if not isinstance(provenance, dict):
        raise ValidationError(f"{where}: field 'provenance' must be an object")
    try:
        realization = FeedbackRealization(
            m=m, c_a=c_a, c_b=c_b, x=x, sigma=sigma, r_a=r_a, r_b=r_b
        )
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    return ReportDoc(
        realization=realization, verification=verification, provenance=provenance
    )
