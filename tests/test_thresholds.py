"""Every refusal threshold and structural flag sits where the README says.

Each case builds an input whose defect is a chosen multiple of its
threshold: at 0.5x the input is accepted (or the flag passes), at 2x it is
refused (or the flag fails).  Inputs have entries far above one, so a
threshold that is scaled by max(1, max-abs) is told apart from an absolute
one.
"""

import warnings

import numpy as np
import pytest

from hamlink import (
    AlgebraicLoopError,
    FeedbackRealization,
    LinearDynamics,
    SynthOptions,
    ValidationError,
    cayley_sigma_from_x,
    cayley_x_from_sigma,
    check_equivalence,
    demo_problem,
    simulate_moments,
    synthesize,
)
from hamlink.lqss import DirectInteraction, LqssParams

BIG = 1e3  # max-abs of the matrices under test; the scale of a scaled threshold
HALF_AND_DOUBLE = [(0.5, True), (2.0, False)]


def symmetric_with_defect(defect: float) -> np.ndarray:
    """diag(BIG, 1) with defect added above the diagonal only: its symmetry
    defect is exactly `defect` and its max-abs BIG."""
    r = np.diag([BIG, 1.0])
    r[0, 1] = defect
    return r


def squeeze_with_defect(s: float, eta: float) -> np.ndarray:
    """diag(s (1 + eta), 1/s): T J T.T - J = eta J, so its symplectic
    defect is eta (to rounding) and its max-abs s (1 + eta)."""
    return np.diag([s * (1.0 + eta), 1.0 / s])


def accepted(call) -> bool:
    try:
        call()
    except ValidationError:
        return False
    return True


# ---- refusals ---------------------------------------------------------------


@pytest.mark.parametrize("factor, ok", HALF_AND_DOUBLE)
def test_lqss_r_symmetry_is_scaled_1e_12(factor, ok):
    r = symmetric_with_defect(factor * 1e-12 * BIG)
    assert accepted(lambda: LqssParams(n=1, r=r, c=np.eye(2), d=np.eye(2))) is ok


@pytest.mark.parametrize("factor, ok", HALF_AND_DOUBLE)
def test_lqss_d_symplecticity_is_scaled_squared_1e_10(factor, ok):
    s = 100.0
    d = squeeze_with_defect(s, factor * 1e-10 * s**2)
    assert accepted(lambda: LqssParams(n=1, r=np.eye(2), c=np.eye(2), d=d)) is ok


@pytest.mark.parametrize("factor, ok", HALF_AND_DOUBLE)
def test_synthesize_r_bar_a_symmetry_is_scaled_1e_12(factor, ok):
    r_bar_a = symmetric_with_defect(factor * 1e-12 * BIG)
    r_ab = np.array([[1.0, 0.5], [0.25, 2.0]])
    assert accepted(lambda: synthesize(r_bar_a, np.eye(2), r_ab)) is ok


def demo_with_mixing(p: np.ndarray):
    di = demo_problem().interaction
    return lambda: synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(p=p))


@pytest.mark.parametrize("factor, ok", HALF_AND_DOUBLE)
def test_synthesize_p_orthogonality_is_1e_10(factor, ok):
    # (1 + e) I has orthogonality and symplectic defects 2e + e^2.
    p = (1.0 + 0.5 * factor * 1e-10) * np.eye(4)
    if ok:
        assert accepted(demo_with_mixing(p))
    else:
        with pytest.raises(ValidationError, match="orthogonal"):
            demo_with_mixing(p)()


@pytest.mark.parametrize("factor, ok", HALF_AND_DOUBLE)
def test_synthesize_p_symplecticity_is_1e_10(factor, ok):
    # A rotation of q1 into q2 that leaves p1 and p2 alone is orthogonal but
    # not symplectic: its symplectic defect is max(sin t, 1 - cos t) = sin t.
    theta = factor * 1e-10
    p = np.eye(4)
    p[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    if ok:
        assert accepted(demo_with_mixing(p))
    else:
        with pytest.raises(ValidationError, match="symplectic"):
            demo_with_mixing(p)()


@pytest.mark.parametrize("factor, ok", HALF_AND_DOUBLE)
def test_simulate_moments_cov0_symmetry_is_scaled_1e_9(factor, ok):
    dyn = LinearDynamics(
        a=-np.eye(2), b_ext=np.eye(2), c_ext=np.eye(2), d_ext=np.eye(2)
    )
    cov0 = symmetric_with_defect(factor * 1e-9 * BIG)
    assert accepted(lambda: simulate_moments(dyn, 0.01, 0.01, cov0=cov0)) is ok


@pytest.mark.parametrize("factor, ok", HALF_AND_DOUBLE)
def test_cayley_sigma_from_x_skewness_is_scaled_1e_9(factor, ok):
    # [[e, -BIG], [BIG, 0]] has J-skew defect e (its trace, on the diagonal).
    x = np.array([[factor * 1e-9 * BIG, -BIG], [BIG, 0.0]])
    assert accepted(lambda: cayley_sigma_from_x(x)) is ok


@pytest.mark.parametrize("factor, ok", HALF_AND_DOUBLE)
def test_cayley_x_from_sigma_symplecticity_is_scaled_squared_1e_9(factor, ok):
    s = 100.0
    sigma = squeeze_with_defect(s, factor * 1e-9 * s**2)
    assert accepted(lambda: cayley_x_from_sigma(sigma)) is ok


# ---- check_equivalence flags --------------------------------------------------


def flags_with(**tampered) -> dict[str, bool]:
    """Flags of a one-mode, one-channel realization whose matrices are all
    structurally exact except the ones given."""
    sys_ = LqssParams(n=1, r=np.eye(2), c=np.eye(2), d=np.eye(2))
    di = DirectInteraction(sys_a=sys_, sys_b=sys_, r_ab=np.eye(2))
    mats = dict(
        c_a=np.eye(2),
        c_b=np.eye(2),
        x=np.array([[0.0, -BIG], [BIG, 0.0]]),
        sigma=-np.eye(2),
        r_a=np.diag([BIG, 1.0]),
        r_b=np.diag([BIG, 1.0]),
    )
    mats.update(tampered)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_equivalence(di, FeedbackRealization(m=1, **mats))
    return report.flags


def test_untampered_realization_passes_every_flag():
    assert all(flags_with().values())


@pytest.mark.parametrize("factor, ok", HALF_AND_DOUBLE)
def test_x_sharp_skew_flag_is_scaled_1e_9(factor, ok):
    x = np.array([[factor * 1e-9 * BIG, -BIG], [BIG, 0.0]])
    assert flags_with(x=x)["x_sharp_skew"] is ok


@pytest.mark.parametrize("factor, ok", HALF_AND_DOUBLE)
def test_sigma_symplectic_flag_is_scaled_squared_1e_9(factor, ok):
    s = 100.0
    sigma = squeeze_with_defect(s, factor * 1e-9 * s**2)
    assert flags_with(sigma=sigma)["sigma_symplectic"] is ok


@pytest.mark.parametrize("factor, ok", [(0.5, False), (2.0, True)])
def test_sigma_unit_eigenvalue_flag_is_absolute_1e_9(factor, ok):
    # The flag holds when sigma's eigenvalues stay more than 1e-9 from one.
    mu = factor * 1e-9
    sigma = np.diag([1.0 + mu, 1.0 / (1.0 + mu)])
    assert flags_with(sigma=sigma)["sigma_no_unit_eigenvalue"] is ok


@pytest.mark.parametrize("side", ["r_a", "r_b"])
@pytest.mark.parametrize("factor, ok", HALF_AND_DOUBLE)
def test_r_symmetric_flags_are_scaled_1e_10(side, factor, ok):
    r = symmetric_with_defect(factor * 1e-10 * BIG)
    assert flags_with(**{side: r})[f"{side}_symmetric"] is ok


# ---- overflow -----------------------------------------------------------------


@pytest.mark.parametrize(
    "options",
    [
        dict(ga1=(1e160, 1e160), ga2=(1e160, 1e160)),
        dict(ga1=(1e200, 1.0)),
        dict(ga2=(1e300, 1.0)),
        dict(y1=(1e160, 1e160), y2=(1e160, 1e160)),
    ],
)
def test_overflowing_parameters_are_refused(options):
    # On the demo the corrections overflow, and the finiteness check on the
    # realization's matrices refuses them; an overflowing y1*y2 is refused
    # by name before that.
    di = demo_problem().interaction
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(ValidationError):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(**options))


@pytest.mark.parametrize("y", [(1e160, 1.0), (1e160, 1e160)])
def test_overflowing_loop_diagonals_are_refused_by_name_without_a_warning(y):
    di = demo_problem().interaction
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"channel 1: y1\*y2 overflows"):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(y1=y, y2=y))


@pytest.mark.parametrize("big", [1e200, 1e308])
def test_extreme_finite_loop_diagonals_are_refused_without_a_warning(big):
    # y1*y2 = 1 passes the overflow refusal, but the singular values of
    # X + I span more than the float range: cond(X + I) reads inf and is
    # refused before any gain or coupling is built from it.
    di = demo_problem().interaction
    options = SynthOptions(y1=(big, 1.0), y2=(1.0 / big, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlgebraicLoopError, match="condition number inf"):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)
