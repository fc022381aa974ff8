"""The canonical couplings as analytic oracles.

One damped mode per side (c = sqrt(kappa) I, d = I, no base Hamiltonian),
joined by the beam splitter, two-mode squeezing or QND coupling.  Each
realization is checked against closed forms that neither drift path
computes: the direct drift, the beam splitter's mean trajectory, and the
two-mode squeezed stationary covariance below threshold.
"""

import numpy as np
import pytest
import scipy.linalg

from hamlink import (
    LqssParams,
    check_equivalence,
    closed_loop_dynamics,
    compare_moment_trajectories,
    direct_dynamics,
    simulate_moments,
    synthesize,
)
from hamlink.lqss import DirectInteraction
from hamlink.symcore import SIM_TOL

KAPPA = 2.0
G = 0.7
COUPLINGS = {
    "beam_splitter": G * np.eye(2),
    "two_mode_squeezing": G * np.diag([1.0, -1.0]),
    "qnd": G * np.diag([1.0, 0.0]),
}


def damped_mode() -> LqssParams:
    return LqssParams(
        n=1, r=np.zeros((2, 2)), c=np.sqrt(KAPPA) * np.eye(2), d=np.eye(2)
    )


def realized(kind):
    di = DirectInteraction(damped_mode(), damped_mode(), COUPLINGS[kind])
    return di, synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)


@pytest.mark.parametrize("kind", sorted(COUPLINGS))
def test_one_channel_realizes_the_coupling_exactly(kind):
    di, fr = realized(kind)
    assert fr.m == 1
    report = check_equivalence(di, fr)
    assert report.passed, report.failing()
    assert report.drift_residual == 0.0
    assert report.skew_drift_residual == 0.0
    residual = compare_moment_trajectories(
        direct_dynamics(di), closed_loop_dynamics(di, fr), 5.0, 1e-3
    )
    assert residual <= SIM_TOL


@pytest.mark.parametrize("kind", sorted(COUPLINGS))
def test_direct_drift_is_damping_plus_the_coupling_blocks(kind):
    # With x = (q_a, p_a, q_b, p_b) and J = [[0, 1], [-1, 0]] on each mode,
    # r_ab = [[u, 0], [0, v]] moves q_a at rate v p_b and p_a at -u q_b.
    di, _ = realized(kind)
    (u, _), (_, v) = COUPLINGS[kind]
    h = -KAPPA / 2
    expected = np.array(
        [
            [h, 0.0, 0.0, v],
            [0.0, h, -u, 0.0],
            [0.0, v, h, 0.0],
            [-u, 0.0, 0.0, h],
        ]
    )
    # -kappa/2 is rounded once, in sqrt(kappa)**2 / 2.
    assert np.max(np.abs(direct_dynamics(di).a - expected)) <= 1e-15


def test_beam_splitter_mean_is_a_damped_exchange():
    # The drift is -kappa/2 I + g K with K^2 = -I, so the mean is
    # exp(-kappa t / 2) (cos(g t) I + sin(g t) K) mu0: the excitation swaps
    # between the modes at rate g while it decays.
    di, fr = realized("beam_splitter")
    k = np.array(
        [
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
        ]
    )
    mu0 = np.array([1.0, -0.5, 0.25, 2.0])
    traj = simulate_moments(closed_loop_dynamics(di, fr), 3.0, 1e-3, mean0=mu0)
    t = traj.times[:, None]
    expected = np.exp(-KAPPA * t / 2) * (
        np.cos(G * t) * mu0 + np.sin(G * t) * (k @ mu0)
    )
    assert np.max(np.abs(traj.means - expected)) <= 1e-12


def test_two_mode_squeezing_stationary_covariance():
    # Below threshold (g < kappa/2) the loop settles in a two-mode squeezed
    # thermal state.  The pairs (q_a, p_b) and (p_a, q_b) each obey
    # d/dt = -kappa/2 I - g [[0, 1], [1, 0]], with rates kappa/2 + g and
    # kappa/2 - g along (1, 1) and (1, -1), so each quadrature has variance
    # kappa^2 / (kappa^2 - 4 g^2) / 2 and each pair correlates at
    # -2 g kappa / (kappa^2 - 4 g^2) / 2.  Vacuum variance is 1/2.
    assert G < KAPPA / 2
    di, fr = realized("two_mode_squeezing")
    variance = KAPPA**2 / (KAPPA**2 - 4 * G**2)
    correlation = -2 * G * KAPPA / (KAPPA**2 - 4 * G**2)
    expected = 0.5 * np.array(
        [
            [variance, 0.0, 0.0, correlation],
            [0.0, variance, correlation, 0.0],
            [0.0, correlation, variance, 0.0],
            [correlation, 0.0, 0.0, variance],
        ]
    )
    for dyn in (direct_dynamics(di), closed_loop_dynamics(di, fr)):
        noise = 0.5 * dyn.b_ext @ dyn.b_ext.T
        lyapunov = scipy.linalg.solve_continuous_lyapunov(dyn.a, -noise)
        assert np.max(np.abs(lyapunov - expected)) <= 1e-12
    # The slowest rate is kappa/2 - g = 0.3: by t = 120 the transient is
    # below 1e-15.
    traj = simulate_moments(closed_loop_dynamics(di, fr), 120.0, 1e-2)
    assert np.max(np.abs(traj.covariances[-1] - expected)) <= 1e-9
