"""Equivalence checks and moment simulation.

The verifier takes a direct interaction and a candidate feedback
realization and measures, without trusting either, how far apart the two
descriptions are: drift mismatch under loop elimination, drift mismatch
under the solve-free J-skew assembly, noise-block mismatch, the coupling
factorization residual, and structural flags on the realization matrices.
A second, dynamic layer integrates first and second moments of both
realizations and reports their worst-case deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError
from .lqss import (
    DirectInteraction,
    LinearDynamics,
    closed_loop_drift,
    direct_dynamics,
    external_io,
    skew_closed_loop_drift,
)
from .symcore import (
    COV_SYM_TOL,
    LOOP_TOL,
    RESIDUAL_TOL,
    SYM_FLAG_TOL,
    as_even_matrix,
    as_square_matrix,
    check_sharp_skew,
    check_symmetric,
    check_symplectic,
    max_abs,
    scale,
)
from .synth import FeedbackRealization, coupling_relation_residual

__all__ = [
    "EquivalenceReport",
    "check_equivalence",
    "closed_loop_dynamics",
    "MomentTrajectory",
    "simulate_moments",
    "compare_moment_trajectories",
]

# Rows of two trajectories compared at once, so the difference temporaries
# stay a fixed size whatever the step count.
_COMPARE_BLOCK_ROWS = 256
# Integration steps between finiteness checks: a diverging run stops within
# this many steps of its first overflow instead of at the end of its grid.
_DIVERGENCE_CHECK_STEPS = 64
# Largest state dimension stepped by the packed Kronecker matrix; larger ones
# take the split step.  The packed matrix has about dim**4 / 4 entries, while
# the split step costs four numpy calls of fixed overhead plus about 6 dim**3
# multiply-adds.  Measured per step with the stacked powers below, split /
# packed in microseconds (2-CPU Xeon, numpy 2.4.6, OpenBLAS at one thread,
# 2000 steps, best of 9 in each of three to five runs): dim 10 6.2-8.9 /
# 1.6-2.5, dim 14 7.8-13.3 / 5.0-6.1, dim 16 8.0-13.7 / 6.1-9.1, dim 18
# 8.7-14.8 / 8.1-13.0, dim 20 9.7-15.7 / 15.5-21.2, dim 34 28-32 / 201-216.
# Dimension 18 is too close to call and the packed cost grows fastest, so
# the cutoff is 16.
_KRON_STEP_MAX_DIM = 16
# Most rows of the stacked step-matrix powers that one np.dot of the packed
# step multiplies (see _step_powers).  Measured on the same host, median
# milliseconds of a 2000-step simulate_moments at dim 10 / 14 / 16 (21
# runs): one step per product 7.1 / 13.7 / 17.7; 512 rows 5.2 / 12.0 /
# 16.5; 1024 rows 4.7 / 12.1 / 17.0; 1536 rows 4.8 / 12.0 / 20.3; 2048 rows
# 4.7 / 18.0 / 20.8.  Past 1024 rows the stack of dim 14 or 16 grows to
# 1.5 MB or more and a product slows more than the calls it saves.
_POWER_STACK_ROWS = 1024
# Largest trajectory simulate_moments stores, in floats: (n_steps + 1)
# samples of a time, an augmented moment matrix and a copied mean,
# 1 + (dim + 1)**2 + dim floats each.  2**27 floats are 1 GiB, and a
# trajectory comparison holds two.
_MAX_TRAJECTORY_FLOATS = 2**27


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the static equivalence checks.

    Residuals are max-abs values scaled by max(1, max-abs of the reference
    quantity).  flags carry named structural verdicts on the realization.
    moment_residual is filled only when a trajectory comparison was run.
    """

    drift_residual: float
    skew_drift_residual: float
    noise_residual: float
    coupling_residual: float
    sigma_unit_margin: float
    flags: dict[str, bool]
    tol: float
    moment_residual: float | None = None
    moment_tol: float | None = None

    @property
    def checks(self) -> dict[str, bool]:
        """Every named check with its verdict."""
        out = {
            "drift_residual": self.drift_residual <= self.tol,
            "skew_drift_residual": self.skew_drift_residual <= self.tol,
            "noise_residual": self.noise_residual <= self.tol,
            "coupling_residual": self.coupling_residual <= self.tol,
        }
        out.update(self.flags)
        if self.moment_residual is not None:
            tol = self.moment_tol if self.moment_tol is not None else self.tol
            out["moment_residual"] = self.moment_residual <= tol
        return out

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failing(self) -> list[str]:
        """Names of the checks that did not pass."""
        return [name for name, ok in self.checks.items() if not ok]


def check_equivalence(
    interaction: DirectInteraction,
    realization: FeedbackRealization,
    tol: float = RESIDUAL_TOL,
) -> EquivalenceReport:
    """Compare a direct interaction against a feedback realization.

    The direct drift is assembled from the composite Hamiltonian; the
    feedback drift is assembled twice, once by eliminating the loop through
    sigma (closed_loop_dynamics) and once from the J-skew loop matrix
    without any solve.  Both are compared against the direct drift.
    Structural flags are evaluated with fixed thresholds regardless of tol,
    so a corrupted realization is reported rather than rejected.  Raises ValidationError on dimension
    mismatch or a tol that is not a finite non-negative number, and
    AlgebraicLoopError when sigma has an eigenvalue so close to one that
    loop elimination is ill-conditioned.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tol must be a finite non-negative number, got {tol!r}")
    di = interaction
    fr = realization
    closed = closed_loop_dynamics(di, fr)

    if fr.sigma.shape[0]:
        eigs = np.linalg.eigvals(fr.sigma)
        margin = float(np.min(np.abs(eigs - 1.0)))
    else:
        margin = float("inf")

    flags = {
        "x_sharp_skew": _accepts(check_sharp_skew, fr.x, LOOP_TOL),
        "sigma_symplectic": _accepts(check_symplectic, fr.sigma, LOOP_TOL),
        "sigma_no_unit_eigenvalue": margin > LOOP_TOL,
        "r_a_symmetric": _accepts(check_symmetric, fr.r_a, SYM_FLAG_TOL),
        "r_b_symmetric": _accepts(check_symmetric, fr.r_b, SYM_FLAG_TOL),
    }

    direct = direct_dynamics(di)
    skew_a = skew_closed_loop_drift(
        fr.r_a, di.sys_a.c, fr.c_a, fr.r_b, di.sys_b.c, fr.c_b, fr.x
    )
    a_scale = scale(direct.a)
    return EquivalenceReport(
        drift_residual=max_abs(direct.a - closed.a) / a_scale,
        skew_drift_residual=max_abs(direct.a - skew_a) / a_scale,
        noise_residual=max_abs(direct.b_ext - closed.b_ext) / scale(direct.b_ext),
        coupling_residual=coupling_relation_residual(di.r_ab, fr.c_a, fr.c_b, fr.x),
        sigma_unit_margin=margin,
        flags=flags,
        tol=tol,
    )


def _accepts(check, matrix: np.ndarray, tol: float) -> bool:
    """True when the refusal `check` accepts matrix at tol."""
    try:
        check(matrix, "flagged matrix", tol)
    except ValidationError:
        return False
    return True


def closed_loop_dynamics(
    interaction: DirectInteraction,
    realization: FeedbackRealization,
) -> LinearDynamics:
    """Full state-space form of the realization's closed loop.

    Uses the problem's external couplings and gains (the realization leaves
    them untouched) and the realization's corrected Hamiltonian matrices and
    loop couplings.  Unlike the container-based assembly, this accepts a
    realization whose matrices violate semantic invariants, so trajectories
    of corrupted realizations can still be compared.
    """
    di = interaction
    fr = realization
    if fr.c_a.shape[1] != 2 * di.sys_a.n or fr.c_b.shape[1] != 2 * di.sys_b.n:
        raise ValidationError(
            f"realization couples {fr.c_a.shape[1] // 2} + "
            f"{fr.c_b.shape[1] // 2} modes, problem has "
            f"{di.sys_a.n} + {di.sys_b.n}"
        )
    a = closed_loop_drift(
        fr.r_a, di.sys_a.c, fr.c_a, fr.r_b, di.sys_b.c, fr.c_b, fr.sigma
    )
    b_ext, c_ext, d_ext = external_io(
        di.sys_a.c, di.sys_a.d, di.sys_b.c, di.sys_b.d
    )
    return LinearDynamics(a=a, b_ext=b_ext, c_ext=c_ext, d_ext=d_ext)


@dataclass(frozen=True)
class MomentTrajectory:
    """Mean and covariance samples on a uniform time grid.

    A plain record of the arrays simulate_moments fills: times (n,), means
    (n, dim) and covariances (n, dim, dim), the last a strided view of the
    augmented moment matrices the integrator stores.
    """

    times: np.ndarray
    means: np.ndarray
    covariances: np.ndarray


def simulate_moments(
    dynamics: LinearDynamics,
    t_final: float,
    dt: float,
    mean0=None,
    cov0=None,
) -> MomentTrajectory:
    """Integrate first and second moments under vacuum inputs.

    The mean obeys d mu/dt = a mu and the symmetrized covariance obeys
    d P/dt = a P + P a.T + (1/2) b b.T, where the constant term is the
    vacuum quadrature noise intensity.  Integration is classic fourth-order
    Runge-Kutta with a fixed step.  Defaults: zero mean, vacuum covariance
    (1/2) I.

    For a linear ODE one RK4 step applies the degree-4 Taylor polynomial of
    the step times the generator, so the step is precomputed once as an
    affine map.  With A_i = (dt a)^i / i! and T_j = A_0 + ... + A_j, the
    mean advances by mu <- T_4 mu and the covariance by
    P <- sum_{i+j<=4} A_i P A_j.T + c, where c is one stage-form RK4 step
    from P = 0.  This is the stage form's polynomial in dt (a P + P a.T),
    regrouped.  For symmetric P the sum splits as V + V.T with
    V = A_0 P R_0.T + A_1 P R_1.T + A_2 P R_2.T, where
    R_0 = A_0/2 + A_1 + A_2 + A_3 + A_4, R_1 = A_1/2 + A_2 + A_3 and
    R_2 = A_2/2.

    Each sample is stored as the augmented moment matrix
    z = [[P, mu], [mu.T, 1]].  Bordering A_0 and R_0 with a corner 1 and
    1/2 (and A_1, A_2, R_1, R_2 and c with 0) makes the same split advance
    the mean too: z <- V + V.T with V = sum_i A_i z R_i.T + c/2, whose mean
    column is R_0 mu + mu/2 = T_4 mu and whose corner stays exactly 1.

    The form of a step depends only on the state dimension.  Up to
    _KRON_STEP_MAX_DIM (16), where numpy's per-call overhead outweighs the
    arithmetic, the whole affine step is one s x s matrix K on the packed
    upper triangle of z, s = (dim + 1)(dim + 2)/2, built once from the split
    factors (see _packed_step_matrix).  Its powers K, ..., K^B are stacked
    once per call, so one matrix-vector product of the first n s rows
    advances the packed state n <= B steps, written into a buffer that
    holds one block of divergence-check steps; one np.take per block
    expands the packed rows into the stored z.  B is the largest power of
    two up to that block whose stack has at most _POWER_STACK_ROWS (1024)
    rows and no more rows than the run has steps, cut before the first
    power with a non-finite entry (see _step_powers); B = 1 is one product
    per step.
    Larger states take the split step itself: two matrix products, an
    addition and a transposed addition, each written into a preallocated
    buffer.  Either way every sample is exactly symmetric by construction.
    covariances is a view of the stored matrices; means is copied out of
    their last column once, after the loop.

    The grid has round(t_final / dt) steps of exactly dt, so the last sample
    sits at that multiple of dt rather than exactly at t_final when the two
    disagree.  A grid whose trajectory would exceed 2**27 floats (1 GiB) is
    refused with ValidationError before anything is allocated.  Raises
    DivergenceError with the time of the first non-finite sample when the
    state leaves floating-point range.
    """
    if not (np.isfinite(t_final) and t_final > 0):
        raise ValidationError(f"t_final must be positive, got {t_final}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValidationError(f"dt must be positive, got {dt}")
    a = as_square_matrix(dynamics.a, "a")
    b_ext = as_even_matrix(dynamics.b_ext, "b_ext")
    dim = a.shape[0]
    if b_ext.shape[0] != dim:
        raise ValidationError(f"b_ext must have {dim} rows, got {b_ext.shape[0]}")
    # Rounded as a float first: t_final / dt can overflow to infinity.
    steps = max(1.0, float(np.rint(t_final / dt)))
    sample_floats = 1 + (dim + 1) ** 2 + dim  # time, z and the mean copy
    if (steps + 1) * sample_floats > _MAX_TRAJECTORY_FLOATS:
        raise ValidationError(
            f"t_final / dt = {t_final:g} / {dt:g} gives {steps:.3g} steps; a "
            f"trajectory at state dimension {dim} holds at most "
            f"{_MAX_TRAJECTORY_FLOATS // sample_floats - 1} steps"
        )
    n_steps = int(steps)
    q = 0.5 * b_ext @ b_ext.T

    if mean0 is None:
        mu = np.zeros(dim)
    else:
        mu = np.asarray(mean0, dtype=float).reshape(-1)
        if mu.shape[0] != dim:
            raise ValidationError(
                f"mean0 must have length {dim}, got {mu.shape[0]}"
            )
    if cov0 is None:
        p = 0.5 * np.eye(dim)
    else:
        p = np.asarray(cov0, dtype=float)
        if p.shape != (dim, dim):
            raise ValidationError(
                f"cov0 must be {dim} x {dim}, got {p.shape}"
            )
    if (mu.size and not np.all(np.isfinite(mu))) or (
        p.size and not np.all(np.isfinite(p))
    ):
        raise ValidationError("initial moments contain non-finite entries")
    if cov0 is not None:
        check_symmetric(p, "cov0", COV_SYM_TOL)
        p = 0.5 * (p + p.T)

    # A_0..A_4; the bordered split factors, stacked as left = [A_0 A_1 A_2]
    # and rhat = [R_0.T, R_1.T, R_2.T]; and half the bordered offset c.
    terms = [np.eye(dim)]
    for i in range(1, 5):
        terms.append(terms[-1] @ (dt * a) / i)
    aug = dim + 1
    left = np.zeros((aug, 3 * aug))
    rhat = np.zeros((3, aug, aug))
    for i in range(3):
        left[:dim, i * aug : i * aug + dim] = terms[i]
        rhat[i, :dim, :dim] = (0.5 * terms[i] + sum(terms[i + 1 : 5 - i])).T
    left[dim, dim] = 1.0
    rhat[0, dim, dim] = 0.5

    def dcov(pm: np.ndarray) -> np.ndarray:
        return a @ pm + pm @ a.T + q

    k2 = dcov(0.5 * dt * q)
    k3 = dcov(0.5 * dt * k2)
    k4 = dcov(dt * k3)
    half_c = np.zeros((aug, aug))
    half_c[:dim, :dim] = (dt / 12.0) * (q + 2.0 * k2 + 2.0 * k3 + k4)

    # Every sample is the augmented moment matrix z = [[P, mu], [mu.T, 1]].
    z = np.empty((n_steps + 1, aug, aug))
    z[0, :dim, :dim] = p
    z[0, :dim, dim] = mu
    z[0, dim, :dim] = mu
    z[0, dim, dim] = 1.0
    packed = dim <= _KRON_STEP_MAX_DIM
    if packed:
        k_p, expand = _packed_step_matrix(left, rhat, half_c)
        powers = _step_powers(k_p, n_steps)
        zp = np.empty((_DIVERGENCE_CHECK_STEPS + 1, k_p.shape[0]))
        zp[0] = z[0][np.triu_indices(aug)]
        chunks = _chunk_views(powers, zp, _DIVERGENCE_CHECK_STEPS)
    else:
        stack = np.empty((3, aug, aug))
        stack2d = stack.reshape(3 * aug, aug)
        v = np.empty((aug, aug))

    # Divergence is detected by a finiteness check after each block of
    # steps, so the overflow that precedes it is expected and not worth a
    # warning.  The first non-finite sample of the block gives the time.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, _DIVERGENCE_CHECK_STEPS):
            count = min(_DIVERGENCE_CHECK_STEPS, n_steps - start)
            block = z[start + 1 : start + 1 + count].reshape(count, -1)
            if packed:
                if count < _DIVERGENCE_CHECK_STEPS:
                    chunks = _chunk_views(powers, zp, count)
                for rows, zk, znext in chunks:
                    np.dot(rows, zk, out=znext)
                # The indices are in range by construction; "clip" lets
                # take write straight into the block instead of a copy.
                np.take(zp[1 : count + 1], expand, axis=1, out=block, mode="clip")
                zp[0] = zp[count]
            else:
                for zk, znext in zip(z[start : start + count], z[start + 1 :]):
                    np.matmul(zk, rhat, out=stack)
                    np.matmul(left, stack2d, out=v)
                    v += half_c
                    np.add(v, v.T, out=znext)
            finite = np.isfinite(block).all(axis=1)
            if not finite.all():
                raise DivergenceError((start + 1 + int(np.argmin(finite))) * dt)

    # The mean gets its own array rather than a strided view of z.  Freed
    # with z, it leaves each trajectory's heap space large enough for the
    # next trajectory of the same size plus the caller's small allocations,
    # so repeated comparisons reuse the space instead of growing the heap.
    times = np.arange(n_steps + 1) * dt
    return MomentTrajectory(
        times=times, means=z[:, :dim, dim].copy(), covariances=z[:, :dim, :dim]
    )


def _packed_step_matrix(
    left: np.ndarray, rhat: np.ndarray, half_c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The split step z <- V + V.T, V = sum_i L_i z rhat_i + c/2, as one
    matrix on the packed upper triangle of z.

    With row-major vec, vec(L z rhat) = kron(L, rhat.T) vec(z) (Van Loan, The
    ubiquitous Kronecker product, J. Comput. Appl. Math. 123, 2000).  Adding
    the transposed rows gives V + V.T; keeping the rows of the upper
    triangle and adding each (i, j) column to its (j, i) column gives the
    map on the packed triangle, and the constant c enters through the
    column of the corner entry, which is always 1 and packed last.  Returns
    that matrix and the packed index of every entry of z, so that
    z.ravel() = zp[expand].
    """
    aug = half_c.shape[0]
    rows, cols = np.triu_indices(aug)
    index = np.empty((aug, aug), dtype=np.intp)
    index[rows, cols] = np.arange(rows.size)
    index[cols, rows] = index[rows, cols]
    expand = index.ravel()
    kron = np.einsum("aic,idb->abcd", left.reshape(aug, 3, aug), rhat)
    upper = (kron + kron.transpose(1, 0, 2, 3))[rows, cols].reshape(rows.size, -1)
    k_p = np.zeros((rows.size, rows.size))
    np.add.at(k_p.T, expand, upper.T)
    k_p[:, -1] += (half_c + half_c.T)[rows, cols]
    return k_p, expand


def _step_powers(k_p: np.ndarray, n_steps: int) -> np.ndarray:
    """The stacked powers [K, K^2, ..., K^b] of the packed step matrix K.

    For K of shape s x s, b is the largest power of two that is at most
    _DIVERGENCE_CHECK_STEPS and keeps the stack's b * s rows within both
    _POWER_STACK_ROWS and n_steps.  The second bound keeps the doubling
    cheaper than the run: its b - 1 products of s**3 multiply-adds cost no
    more than the n_steps matrix-vector products of s**2 that it batches.
    K^(h+1), ..., K^(2h) are one batched product of K, ..., K^h with K^h.
    The stack ends before its first power with a non-finite entry: such a
    power times a zero entry of the state gives NaN where stepping one at a
    time stays finite.  K itself is always kept, so b = 1 is the plain step.
    """
    s = k_p.shape[0]
    b = 1
    while 2 * b <= _DIVERGENCE_CHECK_STEPS and 2 * b * s <= min(
        _POWER_STACK_ROWS, n_steps
    ):
        b *= 2
    powers = np.empty((b, s, s))
    powers[0] = k_p
    h = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while h < b:
            np.matmul(powers[:h], powers[h - 1], out=powers[h : 2 * h])
            finite = np.isfinite(powers[h : 2 * h]).all(axis=(1, 2))
            if not finite.all():
                return powers[: h + int(np.argmin(finite))]
            h *= 2
    return powers


def _chunk_views(
    powers: np.ndarray, zp: np.ndarray, count: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The np.dot operands that advance zp[0] by count steps, at most
    len(powers) per product: for a chunk of n steps that starts at row j,
    the first n * s rows of the stacked powers, zp[j], and rows j + 1 to
    j + n of zp as one flat output."""
    b, s, _ = powers.shape
    flat = powers.reshape(b * s, s)
    views = []
    for j in range(0, count, b):
        n = min(b, count - j)
        views.append((flat[: n * s], zp[j], zp[j + 1 : j + 1 + n].reshape(-1)))
    return views


def compare_moment_trajectories(
    dyn_a: LinearDynamics,
    dyn_b: LinearDynamics,
    t_final: float,
    dt: float,
    mean0=None,
    cov0=None,
) -> float:
    """Worst-case moment deviation between two realizations.

    Integrates both from the same initial moments on the same grid and
    returns the largest entrywise deviation in mean or covariance over the
    whole trajectory (absolute, not scaled).  The deviation is taken over
    fixed blocks of rows, so no difference array of trajectory size is
    built.
    """
    if dyn_a.dim != dyn_b.dim:
        raise ValidationError(
            f"state dimensions differ: {dyn_a.dim} versus {dyn_b.dim}"
        )
    traj_a = simulate_moments(dyn_a, t_final, dt, mean0=mean0, cov0=cov0)
    traj_b = simulate_moments(dyn_b, t_final, dt, mean0=mean0, cov0=cov0)
    worst = 0.0
    for start in range(0, len(traj_a.times), _COMPARE_BLOCK_ROWS):
        rows = slice(start, start + _COMPARE_BLOCK_ROWS)
        d_mean = max_abs(traj_a.means[rows] - traj_b.means[rows])
        d_cov = max_abs(traj_a.covariances[rows] - traj_b.covariances[rows])
        worst = max(worst, d_mean, d_cov)
    return worst
