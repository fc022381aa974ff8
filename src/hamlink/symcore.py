"""Structured linear algebra over quadrature space.

A system of k canonical mode or field pairs is described in the real basis
(q_1..q_k, p_1..p_k), where the commutation structure is carried by the
skew form J = [[0, I], [-I, 0]].  This module implements the calculus built
on that form: the J-adjoint that plays the role of the conjugate transpose,
symplectic and J-skew predicates, the Cayley map between J-skew matrices
and symplectic gains, the quadrature embedding of a complex scattering
matrix, the permutation that regroups stacked quadratures into port groups,
and a block-diagonal variant of the SVD used by channel synthesis.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import AlgebraicLoopError, ValidationError

__all__ = [
    "jmat",
    "sharp_adjoint",
    "symplectic_defect",
    "is_symplectic",
    "sharp_skew_defect",
    "is_sharp_skew",
    "cayley_sigma_from_x",
    "cayley_x_from_sigma",
    "build_partition_permutation",
    "unitary_to_quadrature",
    "SpecialSvd",
    "special_svd",
]

# Thresholds and defaults, each defined once; public so that the other
# modules can import them, and left out of __all__.  A defect is a max-abs
# residual, compared with tol * scale(m) for the matrix m under test
# ("scaled"), or tol * scale(m)**2 for the quadratic T J T.T - J ("scaled^2").
SYM_TOL = 1e-12  # symmetric r, r_bar_a and r_bar_b (scaled)
COV_SYM_TOL = 1e-9  # symmetric cov0 (scaled)
GAIN_TOL = 1e-10  # symplectic d, d_bar, p (scaled^2); orthogonal p; is_* defaults
LOOP_TOL = 1e-9  # J-skew x (scaled), symplectic sigma (scaled^2), unit margin
SYM_FLAG_TOL = 1e-10  # flagged symmetry of the corrected r_a and r_b (scaled)
PARAM_TINY = 1e-12  # smallest |ga1|, |ga2| and |1 + y1*y2| synthesize accepts
COND_CAP = 1e12  # largest condition number of guarded_solve's w and of X + I
RESIDUAL_TOL = 1e-8  # default tol of the scaled residuals; synthesis self-check
RANK_TOL = 1e-10  # default relative rank threshold of r_ab
SIM_TOL = 1e-6  # default absolute tolerance of moment trajectory comparisons


def jmat(k: int) -> np.ndarray:
    """Return the canonical skew form J of size 2k x 2k.

    J = [[0, I_k], [-I_k, 0]].  J is orthogonal, skew-symmetric, and
    J @ J = -I.
    """
    k = check_count(k, "mode count")
    j = np.zeros((2 * k, 2 * k))
    j[:k, k:] = np.eye(k)
    j[k:, :k] = -np.eye(k)
    return j


def check_real(value, name: str) -> float:
    """A scalar parameter as a float, refused unless a float can hold it.

    A bool, a string, None or an integer past the float range raises
    ValidationError naming the parameter, rather than TypeError or
    OverflowError from a later comparison, or True taken as 1.  The range
    of the value is checked by the rules below, one per kind of parameter.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # not printed: it can have any number of digits
        raise ValidationError(f"{name} is too large for a float") from None


def check_tolerance(value, name: str) -> float:
    """check_real, also refusing a value that is negative or not finite."""
    value = check_real(value, name)
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{name} must be finite and non-negative, got {value!r}")
    return value


def check_positive(value, name: str) -> float:
    """check_real, also refusing a step or horizon not finite and positive."""
    value = check_real(value, name)
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be positive, got {value}")
    return value


def check_rank_tol(value, name: str) -> float:
    """check_real, also refusing a relative rank threshold outside [0, 1)."""
    value = check_real(value, name)
    if not 0.0 <= value < 1.0:
        raise ValidationError(f"{name} must be in [0, 1), got {value!r}")
    return value


def check_count(value, name: str) -> int:
    """A count as an int, refused unless an integer in [0, 2**62], not a bool:
    twice a count must fit an array size, and a larger one is not printed."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integer and not -(2**62) <= value <= 2**62:
        raise ValidationError(f"{name} must be a nonnegative integer up to 2**62")
    if not integer or value < 0:
        raise ValidationError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def as_even_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce x to a real 2-d float array with even dimensions.

    Raises ValidationError on wrong rank, odd dimensions, or non-finite
    entries.  Zero-sized dimensions are allowed; they describe systems with
    no ports.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-d, got shape {arr.shape}")
    if arr.shape[0] % 2 or arr.shape[1] % 2:
        raise ValidationError(
            f"{name} must have even dimensions (pairs of quadratures), "
            f"got shape {arr.shape}"
        )
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def as_square_matrix(x, name: str = "matrix") -> np.ndarray:
    """as_even_matrix, also refusing a matrix that is not square."""
    arr = as_even_matrix(x, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    return arr


def sharp_adjoint(x) -> np.ndarray:
    """J-adjoint of a real matrix between quadrature spaces.

    For a 2r x 2s matrix X the adjoint is -J_2s @ X.T @ J_2r, a 2s x 2r
    matrix.  It is the analogue of the conjugate transpose for the bilinear
    form carried by J: applying it twice is the identity, and it reverses
    products.
    """
    return sharp(as_even_matrix(x, "sharp_adjoint input"))


def sharp(x: np.ndarray) -> np.ndarray:
    """sharp_adjoint without input validation, for arrays already checked.

    With X = [[A, B], [C, D]] in r x s blocks the adjoint is exactly
    [[D.T, -B.T], [-C.T, A.T]]; it equals the dense product in value, though
    the sign of a zero entry can differ.
    """
    r = x.shape[0] // 2
    s = x.shape[1] // 2
    out = np.empty((2 * s, 2 * r))
    out[:s, :r] = x[r:, s:].T
    out[:s, r:] = -x[:r, s:].T
    out[s:, :r] = -x[r:, :s].T
    out[s:, r:] = x[:r, :s].T
    return out


def j_times(x: np.ndarray) -> np.ndarray:
    """J @ x for an array with an even row count, without forming J.

    J swaps the two row halves and negates the new lower half.
    """
    k = x.shape[0] // 2
    return np.concatenate((x[k:], -x[:k]))


def max_abs(x: np.ndarray) -> float:
    """Largest entry magnitude of an array; 0.0 when it is empty.

    x is real; NaN propagates and the result is never -0.0.  The two
    reductions need no |x| temporary.
    """
    return abs(float(max(x.max(), -x.min()))) if x.size else 0.0


def scale(x: np.ndarray) -> float:
    """max(1, max_abs(x)): every scaled residual and threshold divides or
    multiplies by it, so tolerances mean the same at any problem size."""
    return max(1.0, max_abs(x))


def check_symmetric(x: np.ndarray, name: str, tol: float = SYM_TOL) -> None:
    """ValidationError naming the square array x unless its symmetry defect,
    max_abs(x - x.T), is within tol * scale(x)."""
    defect = max_abs(x - x.T)
    if not defect <= tol * scale(x):
        raise ValidationError(f"{name} must be symmetric (defect {defect:.3e})")


def _symplectic_residual(arr: np.ndarray) -> float:
    res = arr @ j_times(arr.T)
    half = arr.shape[0] // 2
    k = np.arange(half)
    res[k, k + half] -= 1.0  # minus J, one identity block at a time
    res[k + half, k] += 1.0
    return max_abs(res)


def symplectic_defect(t) -> float:
    """Max-abs residual of T @ J @ T.T - J for a square even matrix."""
    return _symplectic_residual(as_square_matrix(t, "symplectic_defect input"))


def check_symplectic(t: np.ndarray, name: str, tol: float) -> None:
    """ValidationError naming the square even float array t unless its
    symplectic defect <= tol * scale(t)**2."""
    defect = _symplectic_residual(t)
    if not defect <= tol * scale(t) ** 2:
        raise ValidationError(f"{name} must be symplectic (defect {defect:.3e})")


def is_symplectic(t, tol: float = GAIN_TOL) -> bool:
    """True when T @ J @ T.T equals J within tol (max-abs)."""
    return symplectic_defect(t) <= tol


def sharp_skew_defect(x) -> float:
    """Max-abs residual of X + sharp_adjoint(X) for a square even matrix."""
    arr = as_square_matrix(x, "sharp_skew_defect input")
    return max_abs(arr + sharp(arr))


def check_sharp_skew(x: np.ndarray, name: str, tol: float) -> None:
    """ValidationError naming the square even float array x unless its J-skew
    defect <= tol * scale(x)."""
    defect = max_abs(x + sharp(x))
    if not defect <= tol * scale(x):
        raise ValidationError(f"{name} must be J-skew (defect {defect:.3e})")


def is_sharp_skew(x, tol: float = GAIN_TOL) -> bool:
    """True when sharp_adjoint(X) == -X within tol (max-abs).

    Equivalent to J @ X being symmetric, which is exactly the condition for
    X to generate a Hamiltonian contribution of the form (1/2) z.T (J X) z.
    """
    return sharp_skew_defect(x) <= tol


def refuse_ill_conditioned(cond: float, what: str) -> None:
    """Raise AlgebraicLoopError naming `what` when the condition number cond
    is not finite or exceeds the cap."""
    if not np.isfinite(cond) or cond > COND_CAP:
        raise AlgebraicLoopError(
            f"{what} is singular or near-singular (condition number "
            f"{cond:.3e} exceeds {COND_CAP:.0e})"
        )


def guarded_solve(w: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve w @ out = rhs, refusing a singular or ill-conditioned w.

    One inverse of w gives both the solution w^-1 @ rhs and the 1-norm
    condition number ||w||_1 ||w^-1||_1.  Raises AlgebraicLoopError naming
    `what` when w is exactly singular or that condition number is not
    finite or exceeds the cap.
    """
    if w.shape[0] == 0:
        return np.zeros((0, rhs.shape[1]))
    try:
        w_inv = np.linalg.inv(w)
    except np.linalg.LinAlgError:  # exactly singular
        cond = np.inf
    else:
        # Python floats: an overflowing product is inf, without a warning.
        cond = float(np.linalg.norm(w, 1)) * float(np.linalg.norm(w_inv, 1))
    refuse_ill_conditioned(cond, what)
    return w_inv @ rhs


def cayley_sigma_from_x(x) -> np.ndarray:
    """Map a J-skew matrix X to the symplectic gain (X - I)(X + I)^-1.

    The input must be J-skew to a scaled defect of LOOP_TOL; the output is
    then real symplectic and has no eigenvalue at one.  Raises
    AlgebraicLoopError when X + I is singular or nearly so, which happens
    exactly when X has an eigenvalue at minus one.
    """
    arr = as_square_matrix(x, "cayley input")
    check_sharp_skew(arr, "cayley input", LOOP_TOL)
    eye = np.eye(arr.shape[0])
    # (X - I)(X + I)^-1 computed as a transposed solve to avoid an explicit
    # inverse; (X - I) and (X + I)^-1 commute, so the order is immaterial.
    return guarded_solve((arr + eye).T, (arr - eye).T, "X + I").T


def cayley_x_from_sigma(sigma) -> np.ndarray:
    """Invert the Cayley map: X = (I + S)(I - S)^-1 for symplectic S.

    The input must be symplectic to a scaled^2 defect of LOOP_TOL.  Raises
    AlgebraicLoopError when S has an eigenvalue at one, in which case no
    finite J-skew preimage exists.
    """
    arr = as_square_matrix(sigma, "cayley inverse input")
    check_symplectic(arr, "cayley inverse input", LOOP_TOL)
    eye = np.eye(arr.shape[0])
    return guarded_solve((eye - arr).T, (eye + arr).T, "I - sigma").T


def build_partition_permutation(m_a: int, m_b: int) -> np.ndarray:
    """Permutation regrouping stacked quadratures into two port groups.

    With m = m_a + m_b channels ordered (q_1..q_m, p_1..p_m), the returned
    2m x 2m permutation P satisfies: P applied to the stacked vector yields
    (q_1..q_ma, p_1..p_ma, q_{ma+1}..q_m, p_{ma+1}..p_m), i.e. the first
    group's quadrature pairs followed by the second group's.  P conjugates
    the skew form into a direct sum: P J_2m P.T = diag(J_2ma, J_2mb)
    exactly.
    """
    m_a = check_count(m_a, "m_a")
    m_b = check_count(m_b, "m_b")
    m = m_a + m_b
    p = np.zeros((2 * m, 2 * m))
    for i in range(m_a):
        p[i, i] = 1.0
        p[m_a + i, m + i] = 1.0
    for i in range(m_b):
        p[2 * m_a + i, m_a + i] = 1.0
        p[2 * m_a + m_b + i, m + m_a + i] = 1.0
    return p


def unitary_to_quadrature(s, tol: float = GAIN_TOL) -> np.ndarray:
    """Embed a complex unitary scattering matrix into quadrature form.

    For unitary S of size m x m the result is the 2m x 2m real matrix
    [[Re S, -Im S], [Im S, Re S]], which is orthogonal and symplectic.
    """
    arr = np.asarray(s, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(
            f"scattering matrix must be square, got shape {arr.shape}"
        )
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError("scattering matrix contains non-finite entries")
    m = arr.shape[0]
    defect = max_abs(np.abs(arr.conj().T @ arr - np.eye(m)))
    if defect > tol:
        raise ValidationError(
            f"scattering matrix is not unitary (defect {defect:.3e})"
        )
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m] = arr.real
    out[:m, m:] = -arr.imag
    out[m:, :m] = arr.imag
    out[m:, m:] = arr.real
    return out


@dataclass(frozen=True)
class SpecialSvd:
    """Orthogonal factorization A = u @ t @ v.T with block-diagonal t.

    For A of size 2r x 2s, u (2r x 2r) and v (2s x 2s) are orthogonal and t
    is zero except on the main diagonals of its four r x s sub-blocks, with
    the off-diagonal sub-blocks identically zero.  The singular values of A
    above the rank threshold appear on the two block diagonals: the first
    ceil(rank/2) on block one, the remainder on block two, each padded with
    zeros.  Entries below the threshold are flushed to exact zeros, so
    u @ t @ v.T reproduces A only up to the discarded part.

    Attributes:
        u, t, v: the factors.
        rank: number of singular values above the relative threshold.
    """

    u: np.ndarray
    t: np.ndarray
    v: np.ndarray
    rank: int

    def block1_diag(self) -> np.ndarray:
        """Diagonal of the upper-left sub-block of t."""
        r, s = self.t.shape[0] // 2, self.t.shape[1] // 2
        return np.diagonal(self.t[:r, :s])

    def block2_diag(self) -> np.ndarray:
        """Diagonal of the lower-right sub-block of t."""
        r, s = self.t.shape[0] // 2, self.t.shape[1] // 2
        return np.diagonal(self.t[r:, s:])


def special_svd(a, rank_tol: float = RANK_TOL) -> SpecialSvd:
    """SVD variant placing singular values on two sub-block diagonals.

    Computes an ordinary SVD, decides the numerical rank k by the relative
    threshold rank_tol (a singular value counts as nonzero when it exceeds
    rank_tol times the largest), flushes the rest to zero, and permutes the
    factors so the surviving values fill the diagonal of the upper-left
    sub-block first (ceil(k/2) of them) and the diagonal of the lower-right
    sub-block with the remainder.  Leftover diagonal slots stay zero, split
    as evenly as possible with the extra zero on block two.

    The returned factors satisfy u @ t @ v.T == a up to the flushed part,
    with u and v orthogonal.  A rank_tol that is not a real number, or one
    outside [0, 1), NaN included, raises ValidationError.
    """
    rank_tol = check_rank_tol(rank_tol, "rank_tol")
    arr = as_even_matrix(a, "special_svd input")
    two_r, two_s = arr.shape
    r, s = two_r // 2, two_s // 2
    q = min(r, s)

    if q == 0:
        return SpecialSvd(
            u=np.eye(two_r), t=np.zeros((two_r, two_s)), v=np.eye(two_s), rank=0
        )

    u_plain, sing, vt_plain = np.linalg.svd(arr)
    rank = int(np.count_nonzero(sing > rank_tol * sing[0])) if sing[0] > 0.0 else 0
    head = (rank + 1) // 2
    tail = rank - head

    def targets(k: int) -> np.ndarray:
        # Position on a side of size 2k for each ordinary-SVD index: the
        # nonzero values fill block one then block two, the leftover zero
        # slots follow in the same block order, and the null directions
        # beyond the 2q paired slots take the remaining positions.
        return np.array([
            *range(head), *range(k, k + tail), *range(head, q),
            *range(k + tail, k + q), *range(q, k), *range(k + q, 2 * k),
        ])

    rows, cols = targets(r), targets(s)
    t = np.zeros((two_r, two_s))
    t[rows[:rank], cols[:rank]] = sing[:rank]
    u = np.empty((two_r, two_r))
    u[:, rows] = u_plain
    v = np.empty((two_s, two_s))
    v[:, cols] = vt_plain.T
    return SpecialSvd(u=u, t=t, v=v, rank=rank)
