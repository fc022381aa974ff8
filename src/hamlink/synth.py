"""Constructive synthesis of a feedback realization of a bilinear coupling.

Given the interaction matrix r_ab of a direct bilinear Hamiltonian between
two systems, this module produces interconnection couplings c_a and c_b, a
J-skew loop matrix x with its symplectic Cayley image sigma, and corrected
local Hamiltonian matrices r_a and r_b, such that closing the field loop
through sigma reproduces the direct interaction's dynamics exactly.

The construction factors r_ab through the block-diagonal SVD variant, picks
the channel count m between ceil(rank/2) and min(n_a, n_b), and solves one
scalar equation per channel for the second system's coupling gains.  The
free parameters (per-channel loop diagonals y1, y2, first-system gains ga1,
ga2, and an orthogonal symplectic mixing matrix p) default to ones and the
identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    HamlinkError,
    InfeasibleChannelCountError,
    SingularParameterError,
    ValidationError,
)
from .symcore import (
    GAIN_TOL,
    PARAM_TINY,
    RANK_TOL,
    RESIDUAL_TOL,
    as_even_matrix,
    as_square_matrix,
    check_symmetric,
    check_symplectic,
    j_times,
    max_abs,
    refuse_ill_conditioned,
    scale,
    sharp,
    special_svd,
)

__all__ = [
    "SynthOptions",
    "FeedbackRealization",
    "min_channels",
    "coupling_relation_residual",
    "hamiltonian_corrections",
    "synthesize",
]

@dataclass(frozen=True, eq=False)
class SynthOptions:
    """Free parameters of the synthesis.

    m: channel count, a nonnegative integer, or None for the minimum
        feasible count.
    y1, y2: per-channel diagonals of the loop matrix factor, default ones.
    ga1, ga2: per-channel coupling gains of the first system, default ones.
    p: orthogonal symplectic 2m x 2m mixing matrix, default identity.
    rank_tol: relative threshold deciding the numerical rank of r_ab, in
        [0, 1); anything else is refused on construction.
    """

    m: int | None = None
    y1: tuple[float, ...] | None = None
    y2: tuple[float, ...] | None = None
    ga1: tuple[float, ...] | None = None
    ga2: tuple[float, ...] | None = None
    p: np.ndarray | None = None
    rank_tol: float = RANK_TOL

    def __post_init__(self):
        m = self.m
        if m is not None and (
            isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0
        ):
            raise ValidationError(
                f"m must be a nonnegative integer, got {m!r}"
            )
        if not 0.0 <= self.rank_tol < 1.0:
            raise ValidationError(
                f"rank_tol must be in [0, 1), got {self.rank_tol!r}"
            )


@dataclass(frozen=True, eq=False)
class FeedbackRealization:
    """Result of the synthesis: loop couplings, loop matrix, corrections.

    Only structural properties (shapes, finiteness) are enforced here.
    Semantic invariants like symmetry of r_a, J-skewness of x, or
    symplecticity of sigma are the verifier's concern, so that reports on
    perturbed or corrupted realizations can still be produced.
    """

    m: int
    c_a: np.ndarray
    c_b: np.ndarray
    x: np.ndarray
    sigma: np.ndarray
    r_a: np.ndarray
    r_b: np.ndarray

    def __post_init__(self):
        if self.m < 0:
            raise ValidationError(f"channel count must be nonnegative, got {self.m}")
        width = 2 * self.m
        c_a = as_even_matrix(self.c_a, "c_a")
        c_b = as_even_matrix(self.c_b, "c_b")
        x = as_even_matrix(self.x, "x")
        sigma = as_even_matrix(self.sigma, "sigma")
        r_a = as_even_matrix(self.r_a, "r_a")
        r_b = as_even_matrix(self.r_b, "r_b")
        for name, c in (("c_a", c_a), ("c_b", c_b)):
            if c.shape[0] != width:
                raise ValidationError(
                    f"{name} must have {width} rows, got {c.shape[0]}"
                )
        if x.shape != (width, width) or sigma.shape != (width, width):
            raise ValidationError(
                f"x and sigma must be {width} x {width}, got "
                f"{x.shape} and {sigma.shape}"
            )
        if r_a.shape != (c_a.shape[1], c_a.shape[1]):
            raise ValidationError(
                f"r_a must be {c_a.shape[1]} x {c_a.shape[1]}, got {r_a.shape}"
            )
        if r_b.shape != (c_b.shape[1], c_b.shape[1]):
            raise ValidationError(
                f"r_b must be {c_b.shape[1]} x {c_b.shape[1]}, got {r_b.shape}"
            )
        for name, mat in (
            ("c_a", c_a), ("c_b", c_b), ("x", x),
            ("sigma", sigma), ("r_a", r_a), ("r_b", r_b),
        ):
            object.__setattr__(self, name, mat)

    @property
    def n_a(self) -> int:
        return self.c_a.shape[1] // 2

    @property
    def n_b(self) -> int:
        return self.c_b.shape[1] // 2


def min_channels(r_ab, rank_tol: float = RANK_TOL) -> int:
    """Minimum feasible interconnection channel count for a coupling.

    Equals ceil(rank/2): each channel carries a quadrature pair, so it can
    absorb up to two singular values of r_ab, one on each block diagonal.
    The rank is the one special_svd decides.
    """
    return (special_svd(r_ab, rank_tol).rank + 1) // 2


def coupling_relation_residual(r_ab, c_a, c_b, x) -> float:
    """Scaled residual of the coupling factorization identity.

    Measures how far r_ab is from (1/2) J c_a# (x + I) c_b, as a max-abs
    residual divided by max(1, max-abs of r_ab).  A valid realization drives
    this to floating-point level.  Array-level: the arguments are float
    arrays of consistent shapes, as synthesize and the report loader build
    them, and are not checked again.
    """
    rhs = 0.5 * j_times(sharp(c_a) @ (x + np.eye(x.shape[0])) @ c_b)
    return max_abs(r_ab - rhs) / scale(r_ab)


def hamiltonian_corrections(r_bar, c, x) -> np.ndarray:
    """Corrected Hamiltonian matrix r_bar - (1/2) J (c# x c).

    The correction cancels the Hamiltonian contribution that the loop field
    adds to the local dynamics.  c# x c is J-skew whenever x is, so the
    correction is symmetric; the result is explicitly symmetrized to remove
    rounding noise.  Array-level: the arguments are float arrays of
    consistent shapes and x is J-skew, as synthesize builds it from a
    symmetric matrix; nothing is checked again.
    """
    out = r_bar - 0.5 * j_times(sharp(c) @ x @ c)
    return 0.5 * (out + out.T)


def _resolve_diag(values, name: str, m: int) -> np.ndarray:
    if values is None:
        return np.ones(m)
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.shape[0] != m:
        raise ValidationError(
            f"{name} must have one entry per channel ({m}), got {arr.shape[0]}"
        )
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def synthesize(
    r_bar_a,
    r_bar_b,
    r_ab,
    options: SynthOptions | None = None,
) -> FeedbackRealization:
    """Build a feedback realization of a direct bilinear interaction.

    r_bar_a and r_bar_b are the systems' own Hamiltonian matrices, r_ab the
    2n_a x 2n_b interaction matrix.  Raises
    InfeasibleChannelCountError when the requested channel count is below
    ceil(rank/2), ValidationError when it exceeds min(n_a, n_b), any
    parameter is malformed or a channel's y1*y2 overflows,
    SingularParameterError when a per-channel
    gain equation has a vanishing denominator, and AlgebraicLoopError when
    the loop matrix X + I is singular or its condition number exceeds COND_CAP.

    The returned realization satisfies the coupling factorization identity
    to rounding level; a failed internal self-check raises rather than
    returning a bad realization.
    """
    opts = options if options is not None else SynthOptions()
    r_bar_a = as_square_matrix(r_bar_a, "r_bar_a")
    r_bar_b = as_square_matrix(r_bar_b, "r_bar_b")
    r_ab = as_even_matrix(r_ab, "r_ab")
    check_symmetric(r_bar_a, "r_bar_a")
    check_symmetric(r_bar_b, "r_bar_b")
    n_a = r_bar_a.shape[0] // 2
    n_b = r_bar_b.shape[0] // 2
    if r_ab.shape != (2 * n_a, 2 * n_b):
        raise ValidationError(
            f"r_ab must be {2 * n_a} x {2 * n_b}, got {r_ab.shape}"
        )

    svd = special_svd(r_ab, rank_tol=opts.rank_tol)
    m_min = (svd.rank + 1) // 2
    m_cap = min(n_a, n_b)
    m = m_min if opts.m is None else opts.m
    if m > m_cap:
        raise ValidationError(
            f"channel count m={m} exceeds min(n_a, n_b) = {m_cap}; "
            f"each channel consumes one quadrature pair on both sides"
        )
    if m < m_min:
        raise InfeasibleChannelCountError(m, m_min)

    y1 = _resolve_diag(opts.y1, "y1", m)
    y2 = _resolve_diag(opts.y2, "y2", m)
    ga1 = _resolve_diag(opts.ga1, "ga1", m)
    ga2 = _resolve_diag(opts.ga2, "ga2", m)
    if opts.p is None:
        p = np.eye(2 * m)
    else:
        p = as_even_matrix(opts.p, "p")
        if p.shape != (2 * m, 2 * m):
            raise ValidationError(
                f"p must be {2 * m} x {2 * m}, got {p.shape}"
            )
        ortho = max_abs(p.T @ p - np.eye(2 * m))
        if ortho > GAIN_TOL:
            raise ValidationError(f"p must be orthogonal (defect {ortho:.3e})")
        check_symplectic(p, "p", GAIN_TOL)

    # Channel values off the two block diagonals; all above-threshold values
    # sit in the first m slots of each block because m >= ceil(rank/2).
    t1 = svd.block1_diag()[:m]
    t2 = svd.block2_diag()[:m]

    # 1 + y1*y2 is every channel's determinant; a product past the float
    # range is refused by name before any arithmetic builds on it.
    with np.errstate(over="ignore"):
        den = y1 * y2 + 1.0
    overflow = np.flatnonzero(~np.isfinite(den))
    if overflow.size:
        i = overflow[0]
        raise ValidationError(
            f"channel {i + 1}: y1*y2 overflows (y1 = {y1[i]:g}, y2 = {y2[i]:g})"
        )

    # One scalar gain equation per channel; the first refused channel is
    # named, whichever of its conditions fails.
    zero_gain = (np.abs(ga1) <= PARAM_TINY) | (np.abs(ga2) <= PARAM_TINY)
    idle = np.abs(den) <= PARAM_TINY
    refused = np.flatnonzero(zero_gain | (idle & ((t1 != 0.0) | (t2 != 0.0))))
    if refused.size:
        i = refused[0]
        if zero_gain[i]:
            raise SingularParameterError(
                f"channel {i + 1}: gains ga1, ga2 must be nonzero"
            )
        raise SingularParameterError(
            f"channel {i + 1}: y1*y2 = -1 makes the gain equation "
            f"unsolvable for a nonzero coupling value"
        )
    # p is orthogonal symplectic, so x = p.T x0 p, where x0 carries the
    # block [[0, -y2], [y1, 0]] on each channel's quadrature pair.  A block
    # of x0 + I has the singular values (hypot(2, y1 + y2) +- |y1 - y2|)/2:
    # their product is |den| and their squares sum to 2 + y1^2 + y2^2.  The
    # smaller is taken as |den| over the larger, which cannot cancel.  An
    # extreme but finite diagonal can overflow s_max or cond, which then
    # reads inf and is refused here, before any gain is built from it.
    with np.errstate(over="ignore"):
        s_max = 0.5 * (np.abs(y1 - y2) + np.hypot(2.0, y1 + y2))
        s_min = np.min(np.abs(den) / s_max, initial=np.inf)
        cond = np.max(s_max, initial=1.0) / s_min if s_min else np.inf
    refuse_ill_conditioned(cond, "X + I")

    # Idle channel (y1*y2 = -1, zero coupling values): any gain works; zero
    # keeps it decoupled.  The loop matrix itself is still singular at the
    # Cayley step.
    gain_den = np.where(idle, np.inf, den)
    gb4 = 2.0 * t1 / (ga1 * gain_den)
    gb3 = -2.0 * t2 / (ga2 * gain_den)
    gb1 = y2 * gb4
    gb2 = -y1 * gb3

    # Before the mixing p, rows i and m + i of c_a are ga1[i] and ga2[i] times
    # columns i and n_a + i of u, and those of c_b mix columns i and n_b + i
    # of v: channel i carries one quadrature pair of each side.
    u1, u2 = svd.u[:, :m], svd.u[:, n_a:n_a + m]
    v1, v2 = svd.v[:, :m], svd.v[:, n_b:n_b + m]
    c_a = p.T @ np.concatenate((u1 * ga1, u2 * ga2), axis=1).T
    c_b = p.T @ np.concatenate((v1 * gb1 + v2 * gb3, v1 * gb4 + v2 * gb2), axis=1).T

    y = (p.T * np.concatenate((y1, y2))) @ p
    y = 0.5 * (y + y.T)
    x = -j_times(y)

    # Cayley step per channel: sigma = (x - I)(x + I)^-1 = p.T sigma0 p.
    # Each block of sigma0 solves (X0 + I)^T S = (X0 - I)^T for S = sigma0^T
    # by Gaussian elimination with partial pivoting.  The rows of the
    # augmented system are (1, y1 | -1, y1) and (-y2, 1 | -y2, -1), and the
    # second is the pivot when |y2| > 1.  Near 1 + y1*y2 = 0, I - sigma is
    # nearly singular, and the entrywise closed form (y1*y2 - 1)/den, 2y/den
    # rounds into a sigma that no nearby x maps to; the elimination's
    # rounding does not.  s0 and s1 are the rows of S, so the columns of
    # the block, each with its q entry first.
    one = np.ones(m)
    rows = np.array([[one, y1, -one, y1], [-y2, one, -y2, -one]])
    piv, oth = np.where(np.abs(y2) > 1.0, rows[::-1], rows)
    mult = oth[0] / piv[0]
    s1 = (oth[2:] - mult * piv[2:]) / (oth[1] - mult * piv[1])
    s0 = (piv[2:] - piv[1] * s1) / piv[0]
    # sigma0 p as two scaled row blocks of p: the q rows, then the p rows.
    sigma0_p = (s0[:, :, None] * p[:m] + s1[:, :, None] * p[m:]).reshape(2 * m, 2 * m)
    sigma = p.T @ sigma0_p

    r_a = hamiltonian_corrections(r_bar_a, c_a, x)
    r_b = hamiltonian_corrections(r_bar_b, c_b, x)

    realization = FeedbackRealization(
        m=m, c_a=c_a, c_b=c_b, x=x, sigma=sigma, r_a=r_a, r_b=r_b
    )
    residual = coupling_relation_residual(r_ab, c_a, c_b, x)
    if residual > RESIDUAL_TOL:
        raise HamlinkError(
            f"synthesis self-check failed: coupling residual {residual:.3e}"
        )
    return realization
