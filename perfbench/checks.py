"""Checks of the workloads' outputs, computed apart from hamlink.

Documents are parsed with the standard json module and every property is
recomputed here with numpy and scipy: the coupling identity, J-skewness of
x, symplecticity of sigma, the closed-loop drift obtained by a generic
elimination of the field loop, the channel count, and the exact moments of
the direct dynamics.  Each function returns a list of failure messages,
empty when the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import block_diag, expm, solve, solve_continuous_lyapunov, svdvals

TOL = 1e-8
SKEW_TOL = 1e-9
SYM_TOL = 1e-10


def jform(k: int) -> np.ndarray:
    """Skew form [[0, I], [-I, 0]] on k quadrature pairs."""
    return np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(k))


def sharp(c: np.ndarray, j_rows: np.ndarray, j_cols: np.ndarray) -> np.ndarray:
    """J-adjoint of c, where j_rows and j_cols are the forms on its spaces."""
    return j_cols.T @ c.T @ j_rows


def _scaled(diff: np.ndarray, ref: np.ndarray) -> float:
    if diff.size == 0:
        return 0.0
    return float(np.max(np.abs(diff))) / max(1.0, float(np.max(np.abs(ref))) if ref.size else 0.0)


def _matrix(rows, cols: int) -> np.ndarray:
    arr = np.array(rows, dtype=float)
    return arr.reshape(0, cols) if arr.size == 0 else arr


def parse_problem(text: str) -> dict:
    """Problem matrices from a problem document."""
    doc = json.loads(text)
    n_a, n_b = doc["n_a"], doc["n_b"]
    return {
        "n_a": n_a,
        "n_b": n_b,
        "r_bar_a": _matrix(doc["r_bar_a"], 2 * n_a),
        "r_bar_b": _matrix(doc["r_bar_b"], 2 * n_b),
        "r_ab": _matrix(doc["r_ab"], 2 * n_b),
        "c_bar_a": _matrix(doc["c_bar_a"], 2 * n_a),
        "c_bar_b": _matrix(doc["c_bar_b"], 2 * n_b),
        "d_bar_a": _matrix(doc["d_bar_a"], len(doc["c_bar_a"])),
        "d_bar_b": _matrix(doc["d_bar_b"], len(doc["c_bar_b"])),
    }


def parse_report(text: str, n_a: int, n_b: int) -> dict:
    """Realization matrices and verification block from a report document."""
    doc = json.loads(text)
    width = 2 * doc["m"]
    return {
        "m": doc["m"],
        "c_a": _matrix(doc["c_a"], 2 * n_a),
        "c_b": _matrix(doc["c_b"], 2 * n_b),
        "x": _matrix(doc["x"], width),
        "sigma": _matrix(doc["sigma"], width),
        "r_a": _matrix(doc["r_a"], 2 * n_a),
        "r_b": _matrix(doc["r_b"], 2 * n_b),
        "verification": doc["verification"],
    }


def problem_from_interaction(di) -> dict:
    """Problem matrices from an in-memory DirectInteraction."""
    return {
        "n_a": di.sys_a.n,
        "n_b": di.sys_b.n,
        "r_bar_a": di.sys_a.r,
        "r_bar_b": di.sys_b.r,
        "r_ab": di.r_ab,
        "c_bar_a": di.sys_a.c,
        "c_bar_b": di.sys_b.c,
        "d_bar_a": di.sys_a.d,
        "d_bar_b": di.sys_b.d,
    }


def realization_dict(fr) -> dict:
    """Realization matrices from an in-memory FeedbackRealization."""
    return {name: getattr(fr, name) for name in ("m", "c_a", "c_b", "x", "sigma", "r_a", "r_b")}


def direct_drift_and_noise(p: dict) -> tuple[np.ndarray, np.ndarray]:
    """Drift J H - (1/2) C# C of the directly coupled pair and its noise map."""
    j_state = block_diag(jform(p["n_a"]), jform(p["n_b"]))
    j_ports = block_diag(jform(len(p["c_bar_a"]) // 2), jform(len(p["c_bar_b"]) // 2))
    h = np.block([[p["r_bar_a"], p["r_ab"]], [p["r_ab"].T, p["r_bar_b"]]])
    c = block_diag(p["c_bar_a"], p["c_bar_b"])
    d = block_diag(p["d_bar_a"], p["d_bar_b"])
    c_sharp = sharp(c, j_ports, j_state)
    return j_state @ h - 0.5 * c_sharp @ c, -c_sharp @ d


def loop_eliminated_drift(p: dict, fr: dict) -> np.ndarray:
    """Closed-loop drift by eliminating the loop fields of the open network.

    Each system sees its external ports and a 2m-channel loop port with unit
    gain.  The loop input of A is the loop output of B, and the loop input of
    B is sigma applied to the loop output of A.  With open-loop state space
    (a0, b0, c0, I) and interconnection w = phi y, the loop fields are
    w = (I - phi)^-1 phi c0 x (Gough, Gohm and Yanagisawa, PRA 78, 062104).
    """
    n_a, n_b, width = p["n_a"], p["n_b"], 2 * fr["m"]
    j_a, j_b, j_m = jform(n_a), jform(n_b), jform(fr["m"])
    drifts = []
    for n, j, r, c_bar, c in (
        (n_a, j_a, fr["r_a"], p["c_bar_a"], fr["c_a"]),
        (n_b, j_b, fr["r_b"], p["c_bar_b"], fr["c_b"]),
    ):
        j_ext = jform(len(c_bar) // 2)
        drifts.append(j @ r - 0.5 * sharp(c_bar, j_ext, j) @ c_bar - 0.5 * sharp(c, j_m, j) @ c)
    a0 = block_diag(*drifts)
    b0 = -block_diag(sharp(fr["c_a"], j_m, j_a), sharp(fr["c_b"], j_m, j_b))
    c0 = block_diag(fr["c_a"], fr["c_b"])
    if width == 0:
        return a0
    zero, eye = np.zeros((width, width)), np.eye(width)
    phi = np.block([[zero, eye], [fr["sigma"], zero]])
    return a0 + b0 @ solve(np.eye(2 * width) - phi, phi @ c0)


def numerical_rank(r_ab: np.ndarray, rank_tol: float) -> int:
    if r_ab.size == 0:
        return 0
    s = svdvals(r_ab)
    return int(np.count_nonzero(s > rank_tol * s[0])) if s[0] > 0 else 0


def check_realization(
    p: dict, fr: dict, requested_m: int | None, rank_tol: float, tol: float = TOL
) -> list[str]:
    """Properties every passing realization must satisfy."""
    errors = []
    width = 2 * fr["m"]
    j_a, j_b, j_m = jform(p["n_a"]), jform(p["n_b"]), jform(fr["m"])
    eye = np.eye(width)
    x, sigma = fr["x"], fr["sigma"]

    rhs = 0.5 * j_a @ sharp(fr["c_a"], j_m, j_a) @ (x + eye) @ fr["c_b"]
    res = _scaled(p["r_ab"] - rhs, p["r_ab"])
    if res > tol:
        errors.append(f"coupling identity residual {res:.3e} > {tol:g}")
    if width:
        skew = float(np.max(np.abs(x + sharp(x, j_m, j_m))))
        if skew > SKEW_TOL * max(1.0, float(np.max(np.abs(x)))):
            errors.append(f"x is not J-skew (defect {skew:.3e})")
        symp = float(np.max(np.abs(sigma @ j_m @ sigma.T - j_m)))
        if symp > SKEW_TOL * max(1.0, float(np.max(np.abs(sigma)))) ** 2:
            errors.append(f"sigma is not symplectic (defect {symp:.3e})")
    for name in ("r_a", "r_b"):
        r = fr[name]
        if r.size and np.max(np.abs(r - r.T)) > SYM_TOL * max(1.0, float(np.max(np.abs(r)))):
            errors.append(f"{name} is not symmetric")

    direct, _ = direct_drift_and_noise(p)
    drift = _scaled(loop_eliminated_drift(p, fr) - direct, direct)
    if drift > tol:
        errors.append(f"loop-eliminated drift differs from the direct drift by {drift:.3e}")

    want = requested_m
    if want is None:
        want = math.ceil(numerical_rank(p["r_ab"], rank_tol) / 2)
    if fr["m"] != want:
        errors.append(f"m = {fr['m']}, expected {want}")
    return errors


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def exact_moments(p: dict):
    """Exact covariance of the direct dynamics from vacuum, as a function of t.

    P(t) = e^{At} (P0 - P_inf) e^{A't} + P_inf with A P_inf + P_inf A' + Q = 0,
    Q = (1/2) B B'.  The mean stays at its zero start.  Also returns A, used
    for the RK4 error prediction.
    """
    a, b = direct_drift_and_noise(p)
    q = 0.5 * b @ b.T
    p_inf = solve_continuous_lyapunov(a, -q)
    e0 = 0.5 * np.eye(a.shape[0]) - p_inf

    def at(t: float) -> tuple[np.ndarray, np.ndarray]:
        f = expm(a * t)
        e = f @ e0 @ f.T
        return e + p_inf, e

    return a, at


def check_trajectory(p: dict, samples: dict, moments=None) -> list[str]:
    """Compare sampled RK4 moments against the exact moments.

    samples holds dt, the step indices k and the mean and covariance rows at
    those steps.  For a linear system the global RK4 error at t = k dt is,
    to leading order, (t dt^4 / 120) L^5 E(t), with L(P) = A P + P A' and
    E(t) the exact deviation from the steady state.  The allowed error at
    each sample is twice that plus a rounding floor.
    """
    a, at = moments if moments is not None else exact_moments(p)
    dt = samples["dt"]
    errors = []
    for k, mean, cov in zip(samples["steps"], samples["means"], samples["covs"]):
        t = k * dt
        exact, dev = at(t)
        l5 = dev
        for _ in range(5):
            l5 = a @ l5 + l5 @ a.T
        floor = 1e-12 * max(1.0, float(np.max(np.abs(exact))))
        allowed = 2.0 * t * dt**4 / 120.0 * float(np.max(np.abs(l5))) + floor
        err_cov = float(np.max(np.abs(cov - exact)))
        err_mean = float(np.max(np.abs(mean))) if mean.size else 0.0
        if err_cov > allowed or err_mean > floor:
            errors.append(
                f"step {k}: covariance error {err_cov:.3e}, mean error "
                f"{err_mean:.3e}, allowed {allowed:.3e}"
            )
    return errors
