"""Model containers and interconnection assembly.

An open linear quantum stochastic system with n modes and m field channels
is parameterized in quadrature form by a symmetric Hamiltonian matrix r
(2n x 2n), a coupling matrix c (2m x 2n), and a symplectic port gain d
(2m x 2m).  Its drift is J r - (1/2) c# c and its noise input matrix is
-c# d, where # is the J-adjoint.  This module holds those containers plus
the two ways of wiring a pair of systems together: a direct bilinear
Hamiltonian interaction, and a field-mediated feedback loop through a
static symplectic gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .symcore import (
    GAIN_TOL,
    as_even_matrix,
    check_count,
    check_symmetric,
    check_symplectic,
    guarded_solve,
    j_times,
    max_abs,
    sharp,
)

__all__ = [
    "LqssParams",
    "TwoPortLqss",
    "DirectInteraction",
    "LinearDynamics",
    "system_dynamics",
    "direct_dynamics",
    "feedback_closed_loop",
    "realizability_defect",
]

def _checked_system(n: int, r, c, d, c_name: str, d_name: str):
    """Validate one system's (r, c, d) and return them as float arrays.

    r must be 2n x 2n and symmetric, c must have 2n columns, and d must be
    a symplectic gain on c's ports.
    """
    check_count(n, "mode count")
    r = as_even_matrix(r, "r")
    c = as_even_matrix(c, c_name)
    d = as_even_matrix(d, d_name)
    if r.shape != (2 * n, 2 * n):
        raise ValidationError(f"r must be {2 * n} x {2 * n}, got {r.shape}")
    check_symmetric(r, "r")
    if c.shape[1] != 2 * n:
        raise ValidationError(
            f"{c_name} must have {2 * n} columns, got {c.shape[1]}"
        )
    if d.shape != (c.shape[0], c.shape[0]):
        raise ValidationError(
            f"{d_name} must be {c.shape[0]} x {c.shape[0]}, got {d.shape}"
        )
    check_symplectic(d, d_name, GAIN_TOL)
    return r, c, d


@dataclass(frozen=True)
class LqssParams:
    """One open system: Hamiltonian matrix, coupling, and port gain.

    n is the mode count; r is 2n x 2n symmetric, c is 2m x 2n for m field
    channels (m may be zero), d is 2m x 2m symplectic.
    """

    n: int
    r: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        r, c, d = _checked_system(self.n, self.r, self.c, self.d, "c", "d")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def n_ports(self) -> int:
        return self.c.shape[0] // 2


@dataclass(frozen=True)
class TwoPortLqss:
    """A system with an external port group and an interconnection group.

    The external group keeps its gain d_bar; the interconnection group has
    identity gain by construction, so it carries no gain field.  A general
    gain on the interconnection ports is not representable here and must be
    absorbed into the loop gain before building this container.
    """

    n: int
    r: np.ndarray
    c_bar: np.ndarray
    d_bar: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        r, c_bar, d_bar = _checked_system(
            self.n, self.r, self.c_bar, self.d_bar, "c_bar", "d_bar"
        )
        c = as_even_matrix(self.c, "c")
        if c.shape[1] != 2 * self.n:
            raise ValidationError(
                f"c must have {2 * self.n} columns, got {c.shape[1]}"
            )
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c_bar", c_bar)
        object.__setattr__(self, "d_bar", d_bar)
        object.__setattr__(self, "c", c)

    @property
    def n_external(self) -> int:
        return self.c_bar.shape[0] // 2

    @property
    def n_loop(self) -> int:
        return self.c.shape[0] // 2


@dataclass(frozen=True)
class DirectInteraction:
    """Two systems joined by a bilinear interaction Hamiltonian.

    r_ab is the 2n_a x 2n_b interaction matrix; the composite Hamiltonian
    matrix is [[r_a, r_ab], [r_ab.T, r_b]].
    """

    sys_a: LqssParams
    sys_b: LqssParams
    r_ab: np.ndarray

    def __post_init__(self):
        r_ab = as_even_matrix(self.r_ab, "r_ab")
        want = (2 * self.sys_a.n, 2 * self.sys_b.n)
        if r_ab.shape != want:
            raise ValidationError(
                f"r_ab must be {want[0]} x {want[1]}, got {r_ab.shape}"
            )
        object.__setattr__(self, "r_ab", r_ab)

    def composite_hamiltonian(self) -> np.ndarray:
        """Symmetric Hamiltonian matrix of the joined system."""
        return np.block(
            [[self.sys_a.r, self.r_ab], [self.r_ab.T, self.sys_b.r]]
        )


@dataclass(frozen=True)
class LinearDynamics:
    """State-space realization dx = a x dt + b_ext dU, dY = c_ext x dt + d_ext dU.

    A plain record: the package builds it from validated systems, and
    simulate_moments checks the a and b_ext it integrates.
    """

    a: np.ndarray
    b_ext: np.ndarray
    c_ext: np.ndarray
    d_ext: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.a)


def _drift(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    return j_times(r) - 0.5 * sharp(c) @ c


def _block_diag(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    out = np.zeros((upper.shape[0] + lower.shape[0], upper.shape[1] + lower.shape[1]))
    out[: upper.shape[0], : upper.shape[1]] = upper
    out[upper.shape[0] :, upper.shape[1] :] = lower
    return out


def system_dynamics(params: LqssParams) -> LinearDynamics:
    """State-space form of one isolated open system."""
    return LinearDynamics(
        a=_drift(params.r, params.c),
        b_ext=-sharp(params.c) @ params.d,
        c_ext=params.c,
        d_ext=params.d,
    )


def external_io(
    c_a: np.ndarray, d_a: np.ndarray, c_b: np.ndarray, d_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(b_ext, c_ext, d_ext) of two systems whose external ports stay apart.

    Takes each system's external coupling and gain, already validated.
    """
    b_ext = _block_diag(-sharp(c_a) @ d_a, -sharp(c_b) @ d_b)
    return b_ext, _block_diag(c_a, c_b), _block_diag(d_a, d_b)


def direct_dynamics(interaction: DirectInteraction) -> LinearDynamics:
    """State-space form of two systems under a direct bilinear Hamiltonian.

    The off-diagonal drift blocks are J_a r_ab and J_b r_ab.T; the noise
    enters each subsystem through its own ports only.
    """
    sa, sb = interaction.sys_a, interaction.sys_b
    k = sa.r.shape[0]
    a = np.empty((k + sb.r.shape[0],) * 2)
    a[:k, :k] = _drift(sa.r, sa.c)
    a[:k, k:] = j_times(interaction.r_ab)
    a[k:, :k] = j_times(interaction.r_ab.T)
    a[k:, k:] = _drift(sb.r, sb.c)
    b_ext, c_ext, d_ext = external_io(sa.c, sa.d, sb.c, sb.d)
    return LinearDynamics(a=a, b_ext=b_ext, c_ext=c_ext, d_ext=d_ext)


def loop_solve_dynamics(
    r_a: np.ndarray,
    c_bar_a: np.ndarray,
    d_bar_a: np.ndarray,
    c_a: np.ndarray,
    r_b: np.ndarray,
    c_bar_b: np.ndarray,
    d_bar_b: np.ndarray,
    c_b: np.ndarray,
    sigma: np.ndarray,
) -> LinearDynamics:
    """State-space form of the loop-eliminated interconnection.

    The arrays must already have consistent shapes; semantic properties
    (symmetry of r, symplecticity of sigma) are deliberately not enforced,
    so that reports on corrupted data can still be produced.  One guarded
    solve gives u = (I - sigma)^-1 [c_a, c_b]; the loop terms
    (I - sigma)^-1 sigma c = u - c follow from the identity
    (I - sigma)^-1 sigma = (I - sigma)^-1 - I.  Each row block of the drift
    is then one product: -c_a# [u_a - c_a/2, u_b] for system A and
    -c_b# [u_a - c_a, u_b - c_b/2] for system B, plus the local drifts on
    the diagonal.  The external ports (c_bar, d_bar) pass straight through.
    Raises AlgebraicLoopError when I - sigma is singular or ill-conditioned.
    """
    u = guarded_solve(
        np.eye(sigma.shape[0]) - sigma,
        np.hstack((c_a, c_b)),
        "I - sigma (loop gain with an eigenvalue at or near one)",
    )
    k = c_a.shape[1]
    a = np.empty((u.shape[1], u.shape[1]))
    rows_a = u.copy()
    rows_a[:, :k] -= 0.5 * c_a
    np.matmul(-sharp(c_a), rows_a, out=a[:k])
    u[:, :k] -= c_a
    u[:, k:] -= 0.5 * c_b
    np.matmul(-sharp(c_b), u, out=a[k:])
    a[:k, :k] += _drift(r_a, c_bar_a)
    a[k:, k:] += _drift(r_b, c_bar_b)
    b_ext, c_ext, d_ext = external_io(c_bar_a, d_bar_a, c_bar_b, d_bar_b)
    return LinearDynamics(a=a, b_ext=b_ext, c_ext=c_ext, d_ext=d_ext)


def skew_closed_loop_drift(
    r_a: np.ndarray,
    c_bar_a: np.ndarray,
    c_a: np.ndarray,
    r_b: np.ndarray,
    c_bar_b: np.ndarray,
    c_b: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Drift of the interconnection written against the J-skew loop matrix.

    Algebraically equal to the loop-eliminated drift with
    sigma = (x - I)(x + I)^-1, but assembled without any solve, through the
    identities (I - sigma)^-1 sigma = (x - I)/2 and (I - sigma)^-1 = (x + I)/2.
    With xc = x [c_a, c_b], the row block of system A is
    -c_a# (xc + [0, c_b]) / 2 and that of system B is -c_b# (xc - [c_a, 0]) / 2,
    plus the local drifts on the diagonal.  The arrays must already have
    consistent shapes.
    """
    k = c_a.shape[1]
    xc = x @ np.hstack((c_a, c_b))
    out = np.empty((xc.shape[1], xc.shape[1]))
    rows_a = xc.copy()
    rows_a[:, k:] += c_b
    np.matmul(-0.5 * sharp(c_a), rows_a, out=out[:k])
    xc[:, :k] -= c_a
    np.matmul(-0.5 * sharp(c_b), xc, out=out[k:])
    out[:k, :k] += _drift(r_a, c_bar_a)
    out[k:, k:] += _drift(r_b, c_bar_b)
    return out


def feedback_closed_loop(
    sys_a: TwoPortLqss,
    sys_b: TwoPortLqss,
    sigma,
) -> LinearDynamics:
    """Eliminate the field loop between two systems through a static gain.

    The output of each system's interconnection ports is fed through sigma
    into the other's interconnection inputs.  sigma is normally symplectic;
    only invertibility of I - sigma is required to eliminate the loop, and
    an AlgebraicLoopError is raised when that solve is ill-conditioned.
    External ports pass straight through, so the noise and output maps
    involve only the external couplings and gains.
    """
    sigma = as_even_matrix(sigma, "sigma")
    width = sys_a.c.shape[0]
    if sys_b.c.shape[0] != width:
        raise ValidationError(
            f"interconnection port counts differ: "
            f"{sys_a.n_loop} versus {sys_b.n_loop}"
        )
    if sigma.shape != (width, width):
        raise ValidationError(
            f"sigma must be {width} x {width}, got {sigma.shape}"
        )
    return loop_solve_dynamics(
        sys_a.r, sys_a.c_bar, sys_a.d_bar, sys_a.c,
        sys_b.r, sys_b.c_bar, sys_b.d_bar, sys_b.c,
        sigma,
    )


def realizability_defect(params: LqssParams) -> float:
    """Max-abs residual of the physical-realizability identity.

    For a = J r - (1/2) c# c and b = -c# d the identity
    a J + J a.T + b J_ports b.T = 0 holds exactly in exact arithmetic for
    any symmetric r, any c, and symplectic d.  The returned defect measures
    floating-point deviation, and blows up when the parameterization is
    corrupted.
    """
    dyn = system_dynamics(params)
    s = j_times(dyn.a.T)  # s = J a.T, so -s.T = a J
    return max_abs(s - s.T + dyn.b_ext @ j_times(dyn.b_ext.T))
