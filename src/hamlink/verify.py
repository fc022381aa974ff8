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
    direct_dynamics,
    loop_solve_dynamics,
    skew_closed_loop_drift,
)
from .symcore import (
    COV_SYM_TOL,
    LOOP_TOL,
    RESIDUAL_TOL,
    SIM_TOL,
    SYM_FLAG_TOL,
    as_even_matrix,
    as_square_matrix,
    check_positive,
    check_sharp_skew,
    check_symmetric,
    check_symplectic,
    check_tolerance,
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

# Bytes of one block of side b's covariance upper triangles compared at once,
# so the gathered rows and their differences stay a fixed size whatever the
# step count and dimension: 55 rows at dimension 34, 595 at dimension 10.
# A budget in bytes, not rows, keeps small dimensions' blocks long enough
# that numpy's per-call overhead stays small.  Rows past both sides'
# stationary samples are not compared at all (compare_moment_trajectories).
_COMPARE_BLOCK_BYTES = 2**18
# Most integration steps between finiteness checks, and so the largest
# stride of the packed fill: a diverging run stops within this many steps of
# its first overflow instead of at the end of its grid.  It is also the
# interval of the stationarity test: a run whose state has become a fixed
# point of the float step is copied from there on instead of stepped.
_DIVERGENCE_CHECK_STEPS = 64
# Largest state dimension stepped by the packed Kronecker matrix; larger ones
# take the split step.  The packed matrix has about dim**4 / 4 entries, while
# the split step costs four numpy calls of fixed overhead plus about 6 dim**3
# multiply-adds.  Measured with the packed fill below, split / packed
# milliseconds of one simulate_moments (2-CPU Xeon, numpy 2.4.6, OpenBLAS at
# one thread, medians of 15 runs in shuffled order).  2000 steps: dim 10
# 21.2 / 2.7, 14 24.0 / 5.2, 16 26.1 / 8.5, 18 30.9 / 12.1, 20 28.5 / 13.4.
# 500 steps: dim 10 5.5 / 1.3, 14 6.9 / 3.9, 16 7.6 / 5.8, 18 8.7 / 7.0,
# 20 7.9 / 7.7.  64 steps: dim 10 0.97 / 0.86, 14 1.07 / 1.45, 16 1.16 /
# 2.0, 18 1.26 / 3.4, 20 1.16 / 4.4.  Long runs at 18 and 20 are faster
# packed, but short ones lose more there than at 16 (the step matrix and
# its squarings are paid on every call), so the cutoff stays 16.
_KRON_STEP_MAX_DIM = 16
# Largest trajectory simulate_moments stores, in floats: (n_steps + 1)
# samples of a time, an augmented moment matrix and a copied mean,
# 1 + (dim + 1)**2 + dim floats each.  2**27 floats are 1 GiB.  A
# trajectory comparison holds one whole trajectory plus the first side's
# means and covariance upper triangles up to where it became stationary, or
# over the whole grid when it never did: about 1.5 trajectories at most.
_MAX_TRAJECTORY_FLOATS = 2**27


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the static equivalence checks.

    Residuals are max-abs values scaled by max(1, max-abs of the reference
    quantity).  flags carry named structural verdicts on the realization.
    moment_residual is filled only when a trajectory comparison was run, and
    is judged against moment_tol, an absolute tolerance; None stands for
    its default, SIM_TOL.
    """

    drift_residual: float
    skew_drift_residual: float
    noise_residual: float
    coupling_residual: float
    sigma_unit_margin: float
    flags: dict[str, bool]
    tol: float
    moment_residual: float | None = None
    moment_tol: float = SIM_TOL

    def __post_init__(self):
        if self.moment_tol is None:
            object.__setattr__(self, "moment_tol", SIM_TOL)

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
            out["moment_residual"] = self.moment_residual <= self.moment_tol
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
    The direct drift is built first; each closed-loop drift is then
    assembled, compared in place and dropped before the next, so at most
    the direct drift and one closed-loop drift are held at a time.
    Structural flags are evaluated with fixed thresholds regardless of tol,
    so a corrupted realization is reported rather than rejected.  Raises
    ValidationError on dimension mismatch or a tol that is not a finite
    non-negative real number, and AlgebraicLoopError when sigma has an
    eigenvalue so close to one that loop elimination is ill-conditioned.
    """
    tol = check_tolerance(tol, "tol")
    di = interaction
    fr = realization
    direct = direct_dynamics(di)
    a_scale = scale(direct.a)

    # |a - b| = |b - a|, so each difference is taken in place in the
    # closed-loop drift.
    closed = closed_loop_dynamics(di, fr)
    noise_residual = max_abs(direct.b_ext - closed.b_ext) / scale(direct.b_ext)
    drift = closed.a
    del closed
    drift -= direct.a
    drift_residual = max_abs(drift) / a_scale
    del drift
    drift = skew_closed_loop_drift(
        fr.r_a, di.sys_a.c, fr.c_a, fr.r_b, di.sys_b.c, fr.c_b, fr.x
    )
    drift -= direct.a
    skew_drift_residual = max_abs(drift) / a_scale

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
    return EquivalenceReport(
        drift_residual=drift_residual,
        skew_drift_residual=skew_drift_residual,
        noise_residual=noise_residual,
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
    return loop_solve_dynamics(
        fr.r_a, di.sys_a.c, di.sys_a.d, fr.c_a,
        fr.r_b, di.sys_b.c, di.sys_b.d, fr.c_b,
        fr.sigma,
    )


@dataclass(frozen=True)
class MomentTrajectory:
    """Mean and covariance samples on a uniform time grid.

    A plain record of the arrays simulate_moments fills: times (n,), means
    (n, dim) and covariances (n, dim, dim), the last a strided view of the
    augmented moment matrices the integrator stores.  stationary_from is
    the sample from which the run repeats one state bit for bit, so that
    every later mean and covariance equals that sample's; it is None when
    no such sample was found (the run stepped to its end, or took the packed
    fill).  It is not part of the trajectory document.
    """

    times: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    stationary_from: int | None = None


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
    arithmetic, the whole affine step is one s x s matrix M on the packed
    upper triangle of z, s = (dim + 1)(dim + 2)/2, built once from the split
    factors (see _packed_step_matrix), and the trajectory is filled by
    doubling: once states 0 .. h - 1 are known, one matrix-matrix product
    of their packed rows with M^h gives states h .. 2h - 1, and squaring
    M^h right after that product gives the next power, so the fill holds
    one power at a time.  Once h reaches the stride B, each product
    advances the last B states by B steps with M^B, alternating between the
    halves of a 2B-row packed buffer; each product's rows are checked for
    finiteness and expanded into the stored z with one np.take.  B is fixed
    before the fill as the largest power of two up to
    _DIVERGENCE_CHECK_STEPS (64) and n_steps whose log2(B) squarings cost
    at most 2**16 multiply-adds per step of the run; the doubling stops
    early, and B with it, at the last power before one with a non-finite
    entry.  B = 1 is one matrix-vector product per step.
    Larger states take the split step itself: two matrix products, an
    addition and a transposed addition, each written into a preallocated
    buffer.  Either way every sample is exactly symmetric by construction.
    covariances is a view of the stored matrices; means is copied out of
    their last column once, after the loop.

    A damped run soon reaches a float state that the step reproduces.  The
    split step tests this at each finiteness check: once a block's last
    state equals its predecessor bit for bit, it is a fixed point of the
    step, and the rest of the trajectory is copies of it.  The packed fill
    tests each full stride product: once one reproduces its source block bit
    for bit, so would every later full product, and their rows are copied
    from it; a last, shorter product still runs, since it need not round
    like a full one.  The copies are exactly what stepping would store, not
    values within a tolerance.  The split step's exit sets stationary_from
    to the fixed point's first sample.  The packed fill never sets it: its
    copied rows repeat a whole stride block, not one state, and its last
    product is stepped afresh.

    The grid has round(t_final / dt) steps of exactly dt, so the last sample
    sits at that multiple of dt rather than exactly at t_final when the two
    disagree.  A t_final or dt that is not a finite positive real number, a
    grid of no steps, or one whose trajectory would exceed 2**27 floats
    (1 GiB), is refused with ValidationError before anything is allocated.
    Raises DivergenceError with the time of the first non-finite sample
    when the state leaves floating-point range.
    """
    t_final = check_positive(t_final, "t_final")
    dt = check_positive(dt, "dt")
    a = as_square_matrix(dynamics.a, "a")
    b_ext = as_even_matrix(dynamics.b_ext, "b_ext")
    dim = a.shape[0]
    if b_ext.shape[0] != dim:
        raise ValidationError(f"b_ext must have {dim} rows, got {b_ext.shape[0]}")
    # Rounded as a float first: t_final / dt can overflow to infinity.
    steps = float(np.rint(t_final / dt))
    if steps < 1:
        raise ValidationError(
            f"t_final / dt = {t_final:g} / {dt:g} rounds to 0 steps"
        )
    sample_floats = 1 + (dim + 1) ** 2 + dim  # time, z and the mean copy
    if (steps + 1) * sample_floats > _MAX_TRAJECTORY_FLOATS:
        raise ValidationError(
            f"t_final / dt = {t_final:g} / {dt:g} gives {steps:.3g} steps; a "
            f"trajectory at state dimension {dim} holds at most "
            f"{_MAX_TRAJECTORY_FLOATS // sample_floats - 1} steps"
        )
    n_steps = int(steps)
    q = 0.5 * b_ext @ b_ext.T

    mu = np.zeros(dim) if mean0 is None else np.asarray(mean0, float).reshape(-1)
    if mu.shape != (dim,) or not np.isfinite(mu).all():
        raise ValidationError(f"mean0 must have {dim} finite entries, got {mu.shape}")
    if cov0 is None:
        p = 0.5 * np.eye(dim)
    else:
        p = as_square_matrix(cov0, "cov0")
        if p.shape[0] != dim:
            raise ValidationError(f"cov0 must be {dim} x {dim}, got {p.shape}")
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
        power, expand = _packed_step_matrix(left, rhat, half_c)
        s = power.shape[0]
        # The stride b is the largest power of two up to
        # _DIVERGENCE_CHECK_STEPS and n_steps (a longer stride is never used)
        # whose log2(b) squarings, s**3 multiply-adds each, come to at most
        # 2**16 multiply-adds per step of the run, about what a step saves by
        # being a row of a matrix-matrix product rather than a call of its
        # own.  Measured (same host as _KRON_STEP_MAX_DIM, medians of 9 runs
        # in shuffled order, dims 2 to 20, 16 to 2000 steps): this b took at
        # most 18% longer than the fastest of b = 1, 4, 16 and 64, and mostly
        # as long within noise.
        cap = min(_DIVERGENCE_CHECK_STEPS, n_steps)
        b = 2 ** min(cap.bit_length() - 1, 2**16 * n_steps // s**3)
        zp = np.empty((2 * b, s))
        zp[0] = z[0][np.triu_indices(aug)]
        flat = z.reshape(n_steps + 1, -1)
    else:
        stack = np.empty((3, aug, aug))
        stack2d = stack.reshape(3 * aug, aug)
        v = np.empty((aug, aug))

    stationary_from = None
    # Divergence is detected by a finiteness check after each product or
    # block of steps, so the overflow that precedes it is expected and not
    # worth a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if packed:
            # States 0 .. done - 1 are known, state i in row i mod len(zp).
            # One product of the last h of them with power = M^h writes the
            # next h: h doubles, and power is squared, until h reaches the
            # stride b.
            done = 1
            while done <= n_steps:
                h = min(done, b)
                n = min(h, n_steps + 1 - done)
                src, dst = (done - h) % len(zp), done % len(zp)
                block = zp[dst : dst + n]
                np.dot(zp[src : src + n], power, out=block)
                _check_finite(block, done, dt)
                # The indices are in range by construction; "clip" lets
                # take write straight into z instead of a copy.
                np.take(block, expand, axis=1, out=flat[done : done + n], mode="clip")
                if h == done and 2 * h <= b:
                    square = power @ power
                    if np.isfinite(square).all():
                        power = square
                    else:
                        # M^2h times a zero entry of the state would give
                        # NaN where stepping one at a time stays finite, so
                        # the stride stops at h; zp keeps its rows.
                        b = h
                done += n
                if n == b and _same_bits(block, zp[src : src + n]):
                    # The product reproduced its source: every later full
                    # product would too, so their rows are copies.  A last,
                    # shorter product still runs, as it need not round like
                    # a full one.
                    copies = (n_steps + 1 - done) // b
                    tail = flat[done : done + copies * b]
                    tail.reshape(copies, b, flat.shape[1])[:] = flat[done - b : done]
                    done += copies * b
        else:
            for start in range(0, n_steps, _DIVERGENCE_CHECK_STEPS):
                count = min(_DIVERGENCE_CHECK_STEPS, n_steps - start)
                for zk, znext in zip(z[start : start + count], z[start + 1 :]):
                    np.matmul(zk, rhat, out=stack)
                    np.matmul(left, stack2d, out=v)
                    v += half_c
                    np.add(v, v.T, out=znext)
                block = z[start + 1 : start + 1 + count].reshape(count, -1)
                _check_finite(block, start + 1, dt)
                end = start + count
                if _same_bits(z[end], z[end - 1]):
                    # A fixed point of the step: the rest is copies of it.
                    z[end + 1 :] = z[end]
                    stationary_from = end - 1
                    break

    # The mean gets its own array rather than a strided view of z.  Freed
    # with z, it leaves each trajectory's heap space large enough for the
    # next trajectory of the same size plus the caller's small allocations,
    # so repeated comparisons reuse the space instead of growing the heap.
    times = np.arange(n_steps + 1) * dt
    return MomentTrajectory(
        times=times,
        means=z[:, :dim, dim].copy(),
        covariances=z[:, :dim, :dim],
        stationary_from=stationary_from,
    )


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """True when x and y hold the same floats bit for bit, so that a zero
    and a negative zero differ."""
    return np.array_equal(x.view(np.int64), y.view(np.int64))


def _check_finite(block: np.ndarray, first: int, dt: float) -> None:
    """Raise DivergenceError at the time of the first row of block, sample
    first onward, with a non-finite entry."""
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise DivergenceError((first + int(np.argmin(finite))) * dt)


def _packed_step_matrix(
    left: np.ndarray, rhat: np.ndarray, half_c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The split step z <- V + V.T, V = sum_i L_i z rhat_i + c/2, as one
    matrix M on the packed upper triangle of z, acting on packed rows:
    zp <- zp @ M.

    Row k of M is the packed step of the k-th basis matrix of symmetric z,
    e_i e_j.T + e_j e_i.T for the k-th entry (i, j) of the upper triangle.
    With a_i = [L_0[:, i], L_1[:, i], L_2[:, i]] and b_j the rows j of the
    rhat_i stacked, its V is a_i b_j + a_j b_i (half that when i = j), so
    two batched matrix products give every basis matrix's V at once.  The
    constant c enters through the row of the corner entry, which is always
    1 and packed last.  Returns M and the packed index of every entry of z,
    so that z.ravel() = zp[expand].
    """
    aug = half_c.shape[0]
    rows, cols = np.triu_indices(aug)
    index = np.empty((aug, aug), dtype=np.intp)
    index[rows, cols] = np.arange(rows.size)
    index[cols, rows] = index[rows, cols]
    expand = index.ravel()
    a = left.reshape(aug, 3, aug).transpose(2, 0, 1)
    b = rhat.transpose(1, 0, 2)
    v = a[rows] @ b[cols] + a[cols] @ b[rows]
    v[rows == cols] *= 0.5
    step = v[:, rows, cols] + v[:, cols, rows]
    step[-1] += (half_c + half_c.T)[rows, cols]
    return step, expand


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
    whole trajectory (absolute, not scaled).

    Side a is simulated first, so its divergence is the one raised when
    both diverge.  Only one whole trajectory is held at a time: once side a
    returns, its means and the upper triangles of its covariances are
    copied up to stationary_from (over the whole grid when that is None),
    and the trajectory is dropped before side b is simulated.  Side b is
    then compared on the same entries, in blocks of _COMPARE_BLOCK_BYTES,
    so no difference array of trajectory size is built.  Rows are compared
    up to the later of the two stationary samples; side b's rows past side
    a's are compared with side a's last kept sample.  Every stored
    covariance is exactly symmetric, and every row left out repeats a
    compared row on both sides, so the result is the same float as a
    comparison of the two whole trajectories.
    """
    if dyn_a.dim != dyn_b.dim:
        raise ValidationError(
            f"state dimensions differ: {dyn_a.dim} versus {dyn_b.dim}"
        )
    iu, ju = np.triu_indices(dyn_a.dim)
    traj_a = simulate_moments(dyn_a, t_final, dt, mean0=mean0, cov0=cov0)
    last = len(traj_a.times) - 1
    stop_a = last if traj_a.stationary_from is None else traj_a.stationary_from
    # Copies, since a view would keep the whole trajectory alive.
    means_a = traj_a.means[: stop_a + 1].copy()
    upper_a = traj_a.covariances[: stop_a + 1][:, iu, ju]
    del traj_a
    traj_b = simulate_moments(dyn_b, t_final, dt, mean0=mean0, cov0=cov0)
    stop_b = traj_b.stationary_from
    end = max(stop_a, last if stop_b is None else stop_b) + 1
    block = max(1, _COMPARE_BLOCK_BYTES // upper_a[0].nbytes)
    worst = 0.0
    # Rows both sides hold, then side b's rows against side a's last one.
    for lo, hi in ((0, stop_a + 1), (stop_a + 1, end)):
        for start in range(lo, hi, block):
            rows = slice(start, min(start + block, hi))
            mine = rows if start <= stop_a else stop_a
            d_mean = max_abs(means_a[mine] - traj_b.means[rows])
            upper_b = traj_b.covariances[rows][:, iu, ju]
            upper_b -= upper_a[mine]
            worst = max(worst, d_mean, max_abs(upper_b))
            # Freed before the next block is gathered, not after.
            del upper_b
    return worst
