"""Equivalence reports, moment integration, trajectory comparison."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

from conftest import random_coupling_of_rank, random_symmetric, random_symplectic
from hamlink import (
    DAMPING_RATE,
    AlgebraicLoopError,
    DivergenceError,
    FeedbackRealization,
    LinearDynamics,
    LqssParams,
    SynthOptions,
    TwoPortLqss,
    ValidationError,
    check_equivalence,
    closed_loop_dynamics,
    compare_moment_trajectories,
    demo_problem,
    direct_dynamics,
    feedback_closed_loop,
    jmat,
    simulate_moments,
    synthesize,
    system_dynamics,
)
from hamlink import verify
from hamlink.lqss import DirectInteraction
from hamlink.symcore import SIM_TOL
from hamlink.verify import MomentTrajectory


# State dimensions on each side of the cutoff between the packed Kronecker
# step and the split step.
PACKED_DIM = 16
SPLIT_DIM = 18


def golden_pair():
    di = demo_problem().interaction
    fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
    return di, fr


def perturbed(fr, field, rng, rel=1e-3):
    mat = getattr(fr, field)
    noise = rng.normal(size=mat.shape)
    bumped = mat + rel * max(1.0, np.max(np.abs(mat))) * noise
    return dataclasses.replace(fr, **{field: bumped})


class TestCheckEquivalence:
    def test_clean_realization_passes(self):
        di, fr = golden_pair()
        report = check_equivalence(di, fr)
        assert report.passed
        assert report.drift_residual <= 1e-12
        assert report.skew_drift_residual <= 1e-12
        assert report.noise_residual == 0.0
        assert report.coupling_residual <= 1e-12
        assert all(report.flags.values())
        assert report.sigma_unit_margin == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert report.moment_residual is None

    def test_every_matrix_perturbation_is_detected(self):
        di, fr = golden_pair()
        rng = np.random.default_rng(301)
        for field in ("c_a", "c_b", "x", "sigma", "r_a", "r_b"):
            report = check_equivalence(di, perturbed(fr, field, rng))
            assert not report.passed, field
            worst = max(
                report.drift_residual,
                report.skew_drift_residual,
                report.coupling_residual,
            )
            assert worst > 1e-5, (field, worst)

    def test_perturbation_trips_matching_flags(self):
        di, fr = golden_pair()
        rng = np.random.default_rng(302)
        rep_x = check_equivalence(di, perturbed(fr, "x", rng))
        assert not rep_x.flags["x_sharp_skew"]
        rep_ra = check_equivalence(di, perturbed(fr, "r_a", rng))
        assert not rep_ra.flags["r_a_symmetric"]
        bad_sigma = dataclasses.replace(fr, sigma=1.001 * fr.sigma)
        rep_s = check_equivalence(di, bad_sigma)
        assert not rep_s.flags["sigma_symplectic"]

    def test_drift_residual_ignores_sign_convention(self):
        # flipping the sign of both loop couplings leaves everything invariant
        di, fr = golden_pair()
        flipped = dataclasses.replace(fr, c_a=-fr.c_a, c_b=-fr.c_b)
        report = check_equivalence(di, flipped)
        assert report.passed

    def test_dimension_mismatch_rejected(self):
        di, fr = golden_pair()
        small = demo_problem().interaction
        wrong = dataclasses.replace(
            fr,
            c_a=fr.c_b.copy(),
            r_a=np.zeros((6, 6)),
        )
        with pytest.raises(ValidationError, match="modes"):
            check_equivalence(small, wrong)

    def test_near_unit_loop_gain_passes_both_drift_paths(self):
        # y1*y2 = -1.001 puts sigma's eigenvalues near one; eliminating the
        # loop with one solve keeps the drift residual within tolerance
        di = demo_problem().interaction
        options = SynthOptions(y1=(1.0, 1.0), y2=(-1.001, -1.001))
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)
        report = check_equivalence(di, fr)
        assert report.drift_residual <= report.tol
        assert report.skew_drift_residual <= report.tol
        assert report.passed, report.failing()

    def test_unit_eigenvalue_sigma_is_algebraic_loop(self):
        di, fr = golden_pair()
        stuck = dataclasses.replace(fr, sigma=np.eye(4))
        with pytest.raises(AlgebraicLoopError):
            check_equivalence(di, stuck)
        with pytest.raises(AlgebraicLoopError):
            closed_loop_dynamics(di, stuck)

    @pytest.mark.parametrize(
        "tol",
        [-1e-8, float("nan"), float("inf"), None, "1e-8", True,
         pytest.param(10**400, id="int-past-float")],
    )
    def test_bad_tolerance_rejected(self, tol):
        di, fr = golden_pair()
        with pytest.raises(ValidationError, match="tol"):
            check_equivalence(di, fr, tol=tol)

    def test_only_the_solve_free_path_reads_x(self):
        # x stays J-skew and sigma is left alone: the loop-solve drift,
        # which reads sigma, still matches, and the solve-free one does not
        di, fr = golden_pair()
        rng = np.random.default_rng(304)
        bump = -jmat(fr.m) @ random_symmetric(rng, 2 * fr.m, 1e-3)
        report = check_equivalence(di, dataclasses.replace(fr, x=fr.x + bump))
        assert report.flags["x_sharp_skew"]
        assert report.skew_drift_residual > report.tol
        assert report.drift_residual <= report.tol

    def test_only_the_loop_solve_path_reads_sigma(self):
        # sigma times a symplectic shear stays symplectic and x is left
        # alone: the mirror of the test above
        di, fr = golden_pair()
        rng = np.random.default_rng(305)
        shear = np.eye(2 * fr.m)
        shear[: fr.m, fr.m :] = random_symmetric(rng, fr.m, 1e-3)
        report = check_equivalence(di, dataclasses.replace(fr, sigma=fr.sigma @ shear))
        assert report.flags["sigma_symplectic"]
        assert report.drift_residual > report.tol
        assert report.skew_drift_residual <= report.tol

    def test_traced_peak_in_drift_matrices(self):
        # At n_a = n_b = 64, in units of one 4n x 4n drift matrix: holding
        # both closed-loop drifts and their differences peaked at 5.02
        n = 64
        di, fr = seeded_pair(306, n, n, 2 * n, 4)
        check_equivalence(di, fr)
        tracemalloc.start()
        try:
            check_equivalence(di, fr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.2 * (4 * n) ** 2 * 8, peak / ((4 * n) ** 2 * 8)

    def test_failing_names_are_check_keys(self):
        di, fr = golden_pair()
        rng = np.random.default_rng(303)
        report = check_equivalence(di, perturbed(fr, "sigma", rng))
        assert "drift_residual" in report.failing()
        assert set(report.failing()) <= set(report.checks)


class TestHandSolvableSingleMode:
    # one mode each side, coupling alpha*I: small enough to check by hand
    def test_identity_coupling_drift_blocks(self):
        alpha = 0.7
        zero = np.zeros((2, 2))
        closed_system = LqssParams(
            n=1, r=zero, c=np.zeros((0, 2)), d=np.zeros((0, 0))
        )
        di = DirectInteraction(
            sys_a=closed_system, sys_b=closed_system, r_ab=alpha * np.eye(2)
        )
        fr = synthesize(zero, zero, di.r_ab)
        assert fr.m == 1
        dyn = direct_dynamics(di)
        j = jmat(1)
        assert np.allclose(dyn.a[:2, 2:], alpha * j, atol=1e-14)
        assert np.allclose(dyn.a[2:, :2], alpha * j, atol=1e-14)
        assert np.allclose(dyn.a[:2, :2], 0.0)
        closed = closed_loop_dynamics(di, fr)
        assert np.allclose(closed.a, dyn.a, atol=1e-12)
        # default gains put the rotation entirely in the second coupling
        assert np.allclose(fr.c_a, np.eye(2), atol=1e-12)
        assert np.allclose(
            fr.c_b, alpha * np.array([[1.0, -1.0], [1.0, 1.0]]), atol=1e-12
        )
        assert np.allclose(fr.x, -jmat(1), atol=1e-12)
        assert check_equivalence(di, fr).passed


def seeded_pair(seed, n_a, n_b, rank, ports):
    """A seeded random problem and its default realization.  Each system
    has `ports` external channels with a random symplectic gain."""
    rng = np.random.default_rng(seed)

    def system(n):
        return LqssParams(
            n=n,
            r=random_symmetric(rng, 2 * n),
            c=rng.normal(size=(2 * ports, 2 * n)),
            d=random_symplectic(rng, ports),
        )

    di = DirectInteraction(
        sys_a=system(n_a),
        sys_b=system(n_b),
        r_ab=random_coupling_of_rank(rng, n_a, n_b, rank),
    )
    return di, synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)


def assert_entry_points_agree(di, fr):
    """closed_loop_dynamics and feedback_closed_loop give the same arrays."""
    loose = closed_loop_dynamics(di, fr)
    sys_a = TwoPortLqss(
        n=di.sys_a.n, r=fr.r_a, c_bar=di.sys_a.c, d_bar=di.sys_a.d, c=fr.c_a
    )
    sys_b = TwoPortLqss(
        n=di.sys_b.n, r=fr.r_b, c_bar=di.sys_b.c, d_bar=di.sys_b.d, c=fr.c_b
    )
    strict = feedback_closed_loop(sys_a, sys_b, fr.sigma)
    for field in ("a", "b_ext", "c_ext", "d_ext"):
        assert np.array_equal(getattr(loose, field), getattr(strict, field)), field


class TestClosedLoopDynamics:
    def test_matches_container_assembly(self):
        assert_entry_points_agree(*golden_pair())

    @pytest.mark.parametrize(
        "seed, n_a, n_b, rank, ports",
        [(41, 2, 3, 2, 1), (42, 3, 3, 3, 2), (43, 2, 2, 0, 1), (44, 2, 3, 2, 0)],
        ids=["rank2", "rank3-two-ports", "m0", "no-ports"],
    )
    def test_matches_container_assembly_on_seeded_problems(
        self, seed, n_a, n_b, rank, ports
    ):
        assert_entry_points_agree(*seeded_pair(seed, n_a, n_b, rank, ports))

    def test_accepts_corrupted_matrices(self):
        di, fr = golden_pair()
        rng = np.random.default_rng(311)
        dyn = closed_loop_dynamics(di, perturbed(fr, "r_a", rng))
        assert np.all(np.isfinite(dyn.a))


def damped_mode(kappa, n=1):
    params = LqssParams(
        n=n,
        r=np.zeros((2 * n, 2 * n)),
        c=np.sqrt(kappa) * np.eye(2 * n),
        d=np.eye(2 * n),
    )
    return system_dynamics(params)


def damped_pair(rng, n_a, n_b):
    """A problem damped like the demo, every mode through its own channel at
    DAMPING_RATE, with r_ab of spectral norm 20, and its realization."""

    def system(n):
        return LqssParams(
            n=n,
            r=random_symmetric(rng, 2 * n, 0.5),
            c=np.sqrt(DAMPING_RATE) * np.eye(2 * n),
            d=np.eye(2 * n),
        )

    r_ab = rng.normal(size=(2 * n_a, 2 * n_b))
    r_ab *= 20.0 / np.linalg.norm(r_ab, 2)
    di = DirectInteraction(sys_a=system(n_a), sys_b=system(n_b), r_ab=r_ab)
    return di, synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)


def rotating_mode(omega):
    params = LqssParams(
        n=1,
        r=omega * np.eye(2),
        c=np.zeros((0, 2)),
        d=np.zeros((0, 0)),
    )
    return system_dynamics(params)


class TestSimulateMoments:
    def test_mean_matches_matrix_exponential(self):
        dyn = rotating_mode(1.3)
        mean0 = np.array([1.0, -0.5])
        traj = simulate_moments(dyn, t_final=2.0, dt=1e-3, mean0=mean0)
        for idx in (500, 1000, 2000):
            t = traj.times[idx]
            exact = expm(dyn.a * t) @ mean0
            assert np.max(np.abs(traj.means[idx] - exact)) <= 1e-10

    def test_undamped_mean_rotates(self):
        # drift of a lone oscillator with unit energy matrix is exactly J,
        # so the mean traces the hand closed form (cos t, sin t) rotation
        params = LqssParams(
            n=1, r=np.eye(2), c=np.zeros((0, 2)), d=np.zeros((0, 0))
        )
        dyn = system_dynamics(params)
        assert np.array_equal(dyn.a, jmat(1))
        mean0 = np.array([1.0, 0.0])
        traj = simulate_moments(dyn, t_final=2.0, dt=1e-3, mean0=mean0)
        for idx in (700, 2000):
            t = traj.times[idx]
            exact = np.array([np.cos(t), -np.sin(t)])
            assert np.max(np.abs(traj.means[idx] - exact)) <= 1e-10

    def test_covariance_reaches_lyapunov_steady_state(self):
        kappa = 4.0
        dyn = damped_mode(kappa)
        q = 0.5 * dyn.b_ext @ dyn.b_ext.T
        steady = solve_continuous_lyapunov(dyn.a, -q)
        cov0 = 5.0 * np.eye(2)
        traj = simulate_moments(dyn, t_final=20.0 / kappa, dt=1e-3, cov0=cov0)
        assert np.max(np.abs(traj.covariances[-1] - steady)) <= 1e-6
        assert np.max(np.abs(steady - 0.5 * np.eye(2))) <= 1e-12

    # The demo's dimension 10 takes the packed fill, whose last sample is
    # read; a problem at dimension 34, damped like the demo, takes the split
    # step, whose stationary sample is read.
    @pytest.mark.parametrize("dim", [10, 34])
    @pytest.mark.parametrize("dt", [1e-3, 5e-3])
    @pytest.mark.parametrize("side", ["direct", "closed_loop"])
    def test_stationary_sample_solves_the_lyapunov_equation(self, dim, dt, side):
        # The RK4 step's fixed point solves a P + P a.T + q = 0 exactly, so a
        # run that has settled holds the Lyapunov solution up to rounding.
        if dim == 10:
            di, fr = golden_pair()
        else:
            di, fr = damped_pair(np.random.default_rng(323), 8, 9)
        dyn = direct_dynamics(di) if side == "direct" else closed_loop_dynamics(di, fr)
        assert dyn.dim == dim
        steady = solve_continuous_lyapunov(dyn.a, -0.5 * dyn.b_ext @ dyn.b_ext.T)
        traj = simulate_moments(dyn, t_final=2.0, dt=dt)
        if dim <= verify._KRON_STEP_MAX_DIM:
            settled = -1
        else:
            settled = traj.stationary_from
            assert settled is not None
        error = np.max(np.abs(traj.covariances[settled] - steady))
        assert error <= 1e-13 * max(1.0, np.max(np.abs(steady))), error

    def test_fourth_order_convergence(self):
        dyn = rotating_mode(2.0)
        mean0 = np.array([1.0, 0.0])
        exact = expm(dyn.a * 1.0) @ mean0

        def error(dt):
            traj = simulate_moments(dyn, t_final=1.0, dt=dt, mean0=mean0)
            return np.max(np.abs(traj.means[-1] - exact))

        ratio = error(0.05) / error(0.025)
        assert 12.0 < ratio < 20.0

    def test_covariance_stays_symmetric(self):
        rng = np.random.default_rng(321)
        di, fr = golden_pair()
        dyn = direct_dynamics(di)
        cov0 = 0.5 * np.eye(dyn.dim) + 0.1 * random_symmetric(rng, dyn.dim)
        traj = simulate_moments(dyn, t_final=0.5, dt=1e-3, cov0=cov0)
        # bitwise, on every sample
        covs = traj.covariances
        assert np.array_equal(covs, covs.transpose(0, 2, 1))

    def test_covariance_stays_symmetric_in_the_split_step(self):
        # the demo's dimension 10 takes the packed Kronecker step, SPLIT_DIM
        # the split step
        rng = np.random.default_rng(322)
        dyn, mean0, cov0 = random_moments_case(rng, SPLIT_DIM)
        traj = simulate_moments(dyn, t_final=0.5, dt=1e-3, mean0=mean0, cov0=cov0)
        covs = traj.covariances
        assert np.array_equal(covs, covs.transpose(0, 2, 1))

    @pytest.mark.parametrize("modes", [0, 1, 2, 5])
    def test_trajectory_shapes(self, modes):
        traj = simulate_moments(damped_mode(1.0, n=modes), t_final=0.3, dt=0.1)
        dim = 2 * modes
        assert traj.times.shape == (4,)
        assert traj.means.shape == (4, dim)
        assert traj.covariances.shape == (4, dim, dim)

    def test_default_initial_conditions(self):
        dyn = damped_mode(1.0)
        traj = simulate_moments(dyn, t_final=0.1, dt=0.01)
        assert np.array_equal(traj.means[0], np.zeros(2))
        assert np.array_equal(traj.covariances[0], 0.5 * np.eye(2))

    def test_grid_rounds_step_count(self):
        dyn = damped_mode(1.0)
        traj = simulate_moments(dyn, t_final=1.0, dt=0.3)
        assert len(traj.times) == 4
        assert traj.times[-1] == pytest.approx(0.9)

    def test_divergence_raises_with_time(self):
        unstable = LinearDynamics(
            a=5.0 * np.eye(2),
            b_ext=np.zeros((2, 0)),
            c_ext=np.zeros((0, 2)),
            d_ext=np.zeros((0, 0)),
        )
        with pytest.raises(DivergenceError) as info:
            simulate_moments(
                unstable, t_final=400.0, dt=0.5, mean0=np.array([1.0, 1.0])
            )
        assert 0.0 < info.value.time <= 400.0
        assert "diverged" in str(info.value)

    # the packed fill, and the split step with the cutoff moved below dim 2
    @pytest.mark.parametrize("cutoff", [verify._KRON_STEP_MAX_DIM, -1])
    def test_divergence_stops_early(self, monkeypatch, cutoff):
        # the covariance overflows at t = 85, sample 170 of 40000; the run
        # must stop within one check block of there rather than step the
        # rest of its grid.  The stepped samples are counted, not timed.
        monkeypatch.setattr(verify, "_KRON_STEP_MAX_DIM", cutoff)
        checks = record_checks(monkeypatch)
        dyn = free_dynamics(5.0 * np.eye(2), np.zeros((2, 0)))
        with pytest.raises(DivergenceError) as info:
            simulate_moments(dyn, t_final=20000.0, dt=0.5, mean0=np.ones(2))
        assert info.value.time == 85.0
        stepped = stepped_samples(checks)
        assert stepped == list(range(1, len(stepped) + 1))
        assert 170 <= len(stepped) < 170 + FULL_STRIDE

    def test_rejects_bad_steps(self):
        dyn = damped_mode(1.0)
        with pytest.raises(ValidationError):
            simulate_moments(dyn, t_final=-1.0, dt=0.1)
        with pytest.raises(ValidationError):
            simulate_moments(dyn, t_final=1.0, dt=0.0)

    @pytest.mark.parametrize("bad", [None, "0.1", True])
    @pytest.mark.parametrize("name", ["t_final", "dt"])
    def test_rejects_a_horizon_that_is_not_a_number(self, name, bad):
        grid = {"t_final": 1.0, "dt": 0.1, name: bad}
        with pytest.raises(ValidationError, match=name):
            simulate_moments(damped_mode(1.0), **grid)

    @pytest.mark.parametrize("t_final, dt", [(1e12, 1e-3), (1e300, 1e-300)])
    def test_rejects_oversized_grid(self, t_final, dt):
        # 1e15 steps, and a step count that overflows to infinity: refused
        # before any trajectory is allocated
        with pytest.raises(ValidationError, match="t_final / dt"):
            simulate_moments(damped_mode(1.0), t_final=t_final, dt=dt)

    @pytest.mark.parametrize("t_final, dt", [(1e-9, 1.0), (0.5, 1.0)])
    def test_rejects_a_grid_of_no_steps(self, monkeypatch, t_final, dt):
        # t_final / dt rounds to 0: refused before anything is allocated,
        # not integrated one step past the horizon
        def no_allocation(*args, **kwargs):
            raise AssertionError("trajectory allocated before the grid check")

        dyn = damped_mode(1.0)
        monkeypatch.setattr(np, "empty", no_allocation)
        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(ValidationError, match="t_final / dt .* 0 steps"):
            simulate_moments(dyn, t_final=t_final, dt=dt)

    def test_grid_cap_counts_the_stored_floats(self, monkeypatch):
        # At state dimension 4 a sample stores a time, a 5 x 5 augmented
        # moment matrix and a copied mean: 30 floats.  4.6e6 samples of the
        # 21 floats of a time, a mean and a covariance would fit under
        # 2**27; the 30 stored do not, and nothing may be allocated first.
        def no_allocation(*args, **kwargs):
            raise AssertionError("trajectory allocated before the grid check")

        dyn = damped_mode(1.0, n=2)
        monkeypatch.setattr(np, "empty", no_allocation)
        monkeypatch.setattr(np, "zeros", no_allocation)
        steps = 4_600_000 - 1
        assert (steps + 1) * 21 <= 2**27 < (steps + 1) * 30
        with pytest.raises(ValidationError, match="t_final / dt"):
            simulate_moments(dyn, t_final=float(steps), dt=1.0)

    def test_rejects_bad_initial_moments(self):
        dyn = damped_mode(1.0)
        with pytest.raises(ValidationError, match="mean0"):
            simulate_moments(dyn, 1.0, 0.1, mean0=np.ones(3))
        with pytest.raises(ValidationError, match="cov0"):
            simulate_moments(dyn, 1.0, 0.1, cov0=np.ones((3, 3)))
        skewed = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            simulate_moments(dyn, 1.0, 0.1, cov0=skewed)


def stage_form_moments(dyn, t_final, dt, mean0, cov0):
    """Classic RK4 in stage form, one step at a time: the reference that the
    precomputed step map in simulate_moments must reproduce."""
    n_steps = max(1, int(round(t_final / dt)))
    a = dyn.a
    q = 0.5 * dyn.b_ext @ dyn.b_ext.T
    mu = np.asarray(mean0, dtype=float)
    p = np.asarray(cov0, dtype=float)
    means = [mu]
    covs = [p]

    def dcov(pm):
        return a @ pm + pm @ a.T + q

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            k1m = a @ mu
            k1p = dcov(p)
            k2m = a @ (mu + 0.5 * dt * k1m)
            k2p = dcov(p + 0.5 * dt * k1p)
            k3m = a @ (mu + 0.5 * dt * k2m)
            k3p = dcov(p + 0.5 * dt * k2p)
            k4m = a @ (mu + dt * k3m)
            k4p = dcov(p + dt * k3p)
            mu = mu + (dt / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
            p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            p = 0.5 * (p + p.T)
            if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(p))):
                raise DivergenceError((k + 1) * dt)
            means.append(mu)
            covs.append(p)
    return np.array(means), np.array(covs)


def random_moments_case(rng, dim):
    """Non-normal stable-ish drift, noise, non-zero mean, non-vacuum cov."""
    a = rng.normal(size=(dim, dim)) - 2.0 * np.sqrt(dim) * np.eye(dim)
    b = rng.normal(size=(dim, dim))
    dyn = LinearDynamics(
        a=a, b_ext=b, c_ext=np.zeros((0, dim)), d_ext=np.zeros((0, dim))
    )
    mean0 = rng.normal(size=dim)
    half = rng.normal(size=(dim, dim))
    cov0 = 0.5 * np.eye(dim) + half @ half.T
    return dyn, mean0, cov0


def assert_matches_stage_form(dyn, t_final, dt, mean0, cov0):
    traj = simulate_moments(dyn, t_final, dt, mean0=mean0, cov0=cov0)
    ref_means, ref_covs = stage_form_moments(dyn, t_final, dt, mean0, cov0)
    assert traj.means.shape == ref_means.shape
    assert traj.covariances.shape == ref_covs.shape
    mean_scale = max(1.0, float(np.max(np.abs(ref_means))))
    cov_scale = max(1.0, float(np.max(np.abs(ref_covs))))
    assert np.max(np.abs(traj.means - ref_means)) <= 1e-12 * mean_scale
    assert np.max(np.abs(traj.covariances - ref_covs)) <= 1e-12 * cov_scale
    return traj


def assert_diverges_like_stage_form(dim):
    unstable = LinearDynamics(
        a=5.0 * np.eye(dim),
        b_ext=np.zeros((dim, 0)),
        c_ext=np.zeros((0, dim)),
        d_ext=np.zeros((0, 0)),
    )
    mean0 = np.ones(dim)
    with pytest.raises(DivergenceError) as ref:
        stage_form_moments(unstable, 400.0, 0.5, mean0, 0.5 * np.eye(dim))
    with pytest.raises(DivergenceError) as info:
        simulate_moments(unstable, t_final=400.0, dt=0.5, mean0=mean0)
    assert info.value.time == ref.value.time


class TestStepMapAgainstStageForm:
    # State dimensions are even (quadrature pairs): one mode, two modes,
    # the demo's size, each side of the step-form cutoff and the larger
    # benchmark size.
    @pytest.mark.parametrize("dim", [2, 4, 10, PACKED_DIM, SPLIT_DIM, 34])
    def test_random_drift_and_initial_moments(self, dim):
        rng = np.random.default_rng(340 + dim)
        dyn, mean0, cov0 = random_moments_case(rng, dim)
        assert_matches_stage_form(dyn, 0.4, 1e-3, mean0, cov0)

    def test_cutoff_lies_between_the_tested_dimensions(self):
        assert PACKED_DIM <= verify._KRON_STEP_MAX_DIM < SPLIT_DIM

    def test_split_step_at_the_demo_dimension(self, monkeypatch):
        # both step forms at one dimension, each against the stage form
        monkeypatch.setattr(verify, "_KRON_STEP_MAX_DIM", -1)
        rng = np.random.default_rng(350)
        dyn, mean0, cov0 = random_moments_case(rng, 10)
        assert_matches_stage_form(dyn, 0.4, 1e-3, mean0, cov0)

    def test_non_normal_drift(self):
        # a stable drift with a large nilpotent part: transient growth of
        # several orders before the decay sets in
        dim = 6
        a = -np.eye(dim) + 40.0 * np.triu(np.ones((dim, dim)), k=1)
        assert np.linalg.norm(a @ a.T - a.T @ a) > 1.0
        dyn = LinearDynamics(
            a=a, b_ext=np.eye(dim), c_ext=np.zeros((0, dim)),
            d_ext=np.zeros((0, dim)),
        )
        rng = np.random.default_rng(351)
        mean0 = rng.normal(size=dim)
        cov0 = 0.5 * np.eye(dim) + 0.1 * random_symmetric(rng, dim)
        assert_matches_stage_form(dyn, 2.0, 2e-3, mean0, cov0)

    def test_single_step(self):
        rng = np.random.default_rng(352)
        dyn, mean0, cov0 = random_moments_case(rng, 10)
        traj = assert_matches_stage_form(dyn, 0.01, 0.01, mean0, cov0)
        assert len(traj.times) == 2

    @pytest.mark.parametrize("t_final,dt,steps", [(1.0, 0.3, 3), (0.1234, 0.01, 12)])
    def test_step_that_does_not_divide_horizon(self, t_final, dt, steps):
        rng = np.random.default_rng(353)
        dyn, mean0, cov0 = random_moments_case(rng, 4)
        traj = assert_matches_stage_form(dyn, t_final, dt, mean0, cov0)
        assert len(traj.times) == steps + 1
        assert traj.times[-1] == steps * dt

    def test_golden_closed_loop(self):
        di, fr = golden_pair()
        dyn = closed_loop_dynamics(di, fr)
        mean0 = np.linspace(-1.0, 1.0, dyn.dim)
        assert_matches_stage_form(dyn, 0.5, 1e-3, mean0, 0.5 * np.eye(dyn.dim))

    def test_divergence_time_matches_stage_form(self):
        assert_diverges_like_stage_form(2)

    def test_divergence_time_matches_stage_form_in_the_split_step(self):
        assert_diverges_like_stage_form(SPLIT_DIM)


def packed_size(dim):
    """Rows of the packed step matrix: the upper triangle of z."""
    return (dim + 1) * (dim + 2) // 2


def kronecker_step_matrix(left, rhat, half_c):
    """The packed step matrix K, acting on packed columns (zp <- K zp), built
    from the Kronecker form vec(L z R) = kron(L, R.T) vec(z): the reference
    for the basis-matrix construction in simulate_moments."""
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


def record_strides(monkeypatch):
    """Largest product of the packed fill of every run that follows, in call
    order, read from the row counts of its finiteness checks; each run's
    first check starts at sample 1.  This is the run's stride b once its
    grid holds 2b - 1 steps or more, and at most b below that."""
    strides = []
    original = verify._check_finite

    def recording(block, first, dt):
        if first == 1:
            strides.append(0)
        strides[-1] = max(strides[-1], len(block))
        original(block, first, dt)

    monkeypatch.setattr(verify, "_check_finite", recording)
    return strides


# The largest stride, one divergence-check block.
FULL_STRIDE = verify._DIVERGENCE_CHECK_STEPS


def long_run_steps(tail):
    """Steps of a run at the full stride whose doubling ends exactly, at
    state 2 * FULL_STRIDE - 1, and whose stride products then hold tail
    states."""
    return 2 * FULL_STRIDE - 1 + tail


class TestStackedStep:
    # The packed fill doubles the known states with the squarings M, M^2,
    # M^4, ... of its step matrix until it reaches the stride b, then
    # advances b states per product; every product size and boundary must
    # reproduce the stage form.
    @pytest.mark.parametrize("dim", [2, 10])
    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 130])
    def test_short_runs(self, monkeypatch, dim, steps):
        strides = record_strides(monkeypatch)
        rng = np.random.default_rng(360 + dim)
        dyn, mean0, cov0 = random_moments_case(rng, dim)
        traj = assert_matches_stage_form(dyn, steps * 1e-3, 1e-3, mean0, cov0)
        assert len(traj.times) == steps + 1
        # the squarings cost at most 2**16 multiply-adds per step of the run,
        # and none builds a power longer than the run
        assert np.log2(strides[0]) * packed_size(dim) ** 3 <= 2**16 * steps
        assert strides[0] <= steps

    @pytest.mark.parametrize("dim", [2, 10])
    # After the doubling, the stride products fill the two halves of the
    # 2b-row buffer in turn and hold chunks whole buffers plus extra states:
    # the last product holds 1, b - 1 (63) or b (64) states in the first
    # half (chunks 0), b - 1 or b in the second (chunks 1, extra -1 or 0),
    # and 1 after wrapping back to the first (chunks 1, extra 1).
    @pytest.mark.parametrize(
        "chunks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (0, 63), (0, 64)]
    )
    def test_last_block_ends_on_every_chunk_boundary(
        self, monkeypatch, dim, chunks, extra
    ):
        steps = long_run_steps(chunks * 2 * FULL_STRIDE + extra)
        strides = record_strides(monkeypatch)
        rng = np.random.default_rng(370 + dim)
        dyn, mean0, cov0 = random_moments_case(rng, dim)
        traj = assert_matches_stage_form(dyn, steps * 1e-3, 1e-3, mean0, cov0)
        assert len(traj.times) == steps + 1
        assert strides == [FULL_STRIDE]

    def test_samples_are_symmetric_with_a_unit_corner(self, monkeypatch):
        dim = 10
        steps = long_run_steps(5)
        strides = record_strides(monkeypatch)
        rng = np.random.default_rng(380)
        dyn, mean0, cov0 = random_moments_case(rng, dim)
        traj = simulate_moments(dyn, steps * 1e-3, 1e-3, mean0=mean0, cov0=cov0)
        z = traj.covariances.base
        assert strides == [FULL_STRIDE]
        assert z.shape == (steps + 1, dim + 1, dim + 1)
        assert np.array_equal(z, z.transpose(0, 2, 1))
        assert np.all(z[:, dim, dim] == 1.0)

    # 20 steps end inside the doubling; 980 run on the stride.
    @pytest.mark.parametrize("steps", [20, 980])
    def test_stack_ends_before_its_first_overflowing_power(self, monkeypatch, steps):
        # Two modes have a covariance step of about 6.7e19 but hold no
        # moments, and noise drives only the stable modes: the run stays
        # finite.  M^8 is finite and M^16 overflows; an overflowed power
        # times the zero moments would give NaN, a false divergence at the
        # sixteenth step, so the stride stays at 8.
        a = np.diag([1e5, 1e5, -0.1, -0.1])
        b_ext = np.zeros((4, 2))
        b_ext[2, 0] = b_ext[3, 1] = 1.0
        dyn = LinearDynamics(
            a=a, b_ext=b_ext, c_ext=np.zeros((0, 4)), d_ext=np.zeros((0, 2))
        )
        cov0 = np.diag([0.0, 0.0, 0.5, 0.5])
        strides = record_strides(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = assert_matches_stage_form(dyn, float(steps), 1.0, np.zeros(4), cov0)
        assert strides == [8]
        assert np.all(traj.covariances[:, :2, :] == 0.0)

    @pytest.mark.parametrize(
        "dim", [verify._KRON_STEP_MAX_DIM - 2, verify._KRON_STEP_MAX_DIM]
    )
    def test_top_dimensions_take_single_steps_when_the_budget_says_so(
        self, monkeypatch, dim
    ):
        # The first squaring costs s**3 multiply-adds: a run of fewer than
        # s**3 / 2**16 steps does not repay it and takes one product per
        # step, and one step more takes the first squaring only.  A run of
        # 2000 steps, the benchmark's grid, takes the full stride.
        short = packed_size(dim) ** 3 // 2**16
        strides = record_strides(monkeypatch)
        rng = np.random.default_rng(390 + dim)
        dyn, mean0, cov0 = random_moments_case(rng, dim)
        assert_matches_stage_form(dyn, short * 1e-3, 1e-3, mean0, cov0)
        simulate_moments(dyn, (short + 1) * 1e-3, 1e-3)
        simulate_moments(dyn, 2.0, 1e-3)
        assert strides == [1, 2, FULL_STRIDE]

    # Even state dimensions from 2 to two past the cutoff, so the sweep also
    # crosses into the split step, with random drift, noise and moments; the
    # step counts end inside the doubling, on and off a stride boundary, and
    # after several stride products.
    @pytest.mark.parametrize(
        "dim", range(2, verify._KRON_STEP_MAX_DIM + 3, 2)
    )
    @pytest.mark.parametrize("steps", [1, 2, 5, 37, 64, 100, 193, 300])
    def test_any_run_matches_stage_form(self, dim, steps):
        rng = np.random.default_rng([400, dim, steps])
        dyn, mean0, cov0 = random_moments_case(rng, dim)
        traj = assert_matches_stage_form(dyn, steps * 1e-3, 1e-3, mean0, cov0)
        z = traj.covariances.base
        assert np.array_equal(z, z.transpose(0, 2, 1))
        assert np.all(z[:, dim, dim] == 1.0)

    def test_traced_peak_holds_one_power(self):
        # The demo over 2000 steps: dimension 10, s = 66, stride 64.  Above
        # the returned arrays, keeping every squaring up to M^64 for the
        # whole fill peaked at 9.5 step matrices, and holding one power at
        # 3.5, of which the 2b-row buffer is 1.9.  The bound is four step
        # matrices plus that buffer.
        dyn = direct_dynamics(demo_problem().interaction)
        s = packed_size(dyn.dim)
        simulate_moments(dyn, 2.0, 1e-3)
        tracemalloc.start()
        try:
            traj = simulate_moments(dyn, 2.0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = traj.times.nbytes + traj.means.nbytes + traj.covariances.base.nbytes
        bound = (4 * s + 2 * FULL_STRIDE) * s * 8
        assert peak - stored <= bound, (peak - stored) / (s * s * 8)

    @pytest.mark.parametrize("dim", [1, 2, 10, verify._KRON_STEP_MAX_DIM])
    def test_step_matrix_matches_the_kronecker_form(self, dim):
        aug = dim + 1
        rng = np.random.default_rng(395 + dim)
        left = rng.normal(size=(aug, 3 * aug))
        rhat = rng.normal(size=(3, aug, aug))
        half_c = rng.normal(size=(aug, aug))
        step, expand = verify._packed_step_matrix(left, rhat, half_c)
        k_p, ref_expand = kronecker_step_matrix(left, rhat, half_c)
        assert np.array_equal(expand, ref_expand)
        assert np.max(np.abs(step - k_p.T)) <= 1e-15 * np.max(np.abs(k_p))


def record_checks(monkeypatch):
    """(first sample, row count) of every finiteness check of the runs that
    follow, in call order: the samples the run stepped rather than copied."""
    checks = []
    original = verify._check_finite

    def recording(block, first, dt):
        checks.append((first, len(block)))
        original(block, first, dt)

    monkeypatch.setattr(verify, "_check_finite", recording)
    return checks


def stepped_samples(checks):
    return [i for first, rows in checks for i in range(first, first + rows)]


def bits(x):
    """The floats of x as integers, so that equality is bit for bit."""
    return x.view(np.int64)


# Damped runs at this step settle on a stationary float state within about
# 400 steps (packed) or 200 steps (split).
SETTLE_DT = 1e-2


def settling_case(rng, dim, rate=40.0):
    """Modes with a random Hamiltonian, each damped at `rate` through its
    own vacuum channel, from zero mean and a random covariance."""
    params = LqssParams(
        n=dim // 2,
        r=random_symmetric(rng, dim),
        c=np.sqrt(rate) * np.eye(dim),
        d=np.eye(dim),
    )
    half = rng.normal(size=(dim, dim))
    return system_dynamics(params), np.zeros(dim), 0.5 * np.eye(dim) + half @ half.T


def free_dynamics(a, b_ext):
    """Dynamics with no output ports."""
    dim = a.shape[0]
    return LinearDynamics(
        a=a, b_ext=b_ext, c_ext=np.zeros((0, dim)), d_ext=np.zeros((0, dim))
    )


def assert_exact_samples(traj):
    """Every stored augmented matrix is exactly symmetric with corner 1."""
    z = traj.covariances.base
    dim = traj.means.shape[1]
    assert np.array_equal(bits(z), bits(z.transpose(0, 2, 1)))
    assert np.all(z[:, dim, dim] == 1.0)
    return z


class TestStationaryTail:
    # Once a run's float state repeats (a split step that reproduces its
    # state, a packed stride product that reproduces its source block), the
    # rest of its grid is copied.  The copies must be the stage form's
    # trajectory, the exit must be taken, and a run that never settles must
    # step its whole grid.  Grids end on and off a check or stride boundary.
    @pytest.mark.parametrize("dim", [2, 10, PACKED_DIM])
    @pytest.mark.parametrize("tail", [13 * FULL_STRIDE, 13 * FULL_STRIDE + 37])
    def test_packed_run_copies_its_repeating_block(self, monkeypatch, dim, tail):
        steps = long_run_steps(tail)
        strides = record_strides(monkeypatch)
        checks = record_checks(monkeypatch)
        dyn, mean0, cov0 = settling_case(np.random.default_rng([410, dim]), dim)
        traj = assert_matches_stage_form(dyn, steps * SETTLE_DT, SETTLE_DT, mean0, cov0)
        z = assert_exact_samples(traj)
        assert strides == [FULL_STRIDE]
        stepped = stepped_samples(checks)
        copied = sorted(set(range(1, steps + 1)) - set(stepped))
        lo, hi = copied[0], copied[-1] + 1
        assert stepped == list(range(1, lo)) + list(range(hi, steps + 1))
        # each copied sample repeats the one a stride before it
        assert np.array_equal(
            bits(z[lo:hi]), bits(z[lo - FULL_STRIDE : hi - FULL_STRIDE])
        )
        # a shorter last product still runs when the grid ends off a stride
        ends_on_stride = (steps + 1) % FULL_STRIDE == 0
        assert (hi == steps + 1) == ends_on_stride

    # Dimensions past the cutoff, and the demo's with the cutoff moved below
    # it so that it takes the split step too.
    @pytest.mark.parametrize(
        "dim, cutoff",
        [
            (SPLIT_DIM, verify._KRON_STEP_MAX_DIM),
            (34, verify._KRON_STEP_MAX_DIM),
            (10, -1),
        ],
    )
    @pytest.mark.parametrize("steps", [15 * FULL_STRIDE, 15 * FULL_STRIDE + 37])
    def test_split_run_copies_its_fixed_point(self, monkeypatch, dim, cutoff, steps):
        monkeypatch.setattr(verify, "_KRON_STEP_MAX_DIM", cutoff)
        checks = record_checks(monkeypatch)
        dyn, mean0, cov0 = settling_case(np.random.default_rng([420, dim]), dim)
        traj = assert_matches_stage_form(dyn, steps * SETTLE_DT, SETTLE_DT, mean0, cov0)
        z = assert_exact_samples(traj)
        stepped = stepped_samples(checks)
        end = stepped[-1]
        assert stepped == list(range(1, end + 1))
        assert end < steps and end % FULL_STRIDE == 0
        assert np.all(bits(z[end:]) == bits(z[end]))
        # the copied state is a true fixed point: one step from it gives it back
        again = simulate_moments(
            dyn, SETTLE_DT, SETTLE_DT,
            mean0=traj.means[end], cov0=traj.covariances[end],
        )
        assert np.array_equal(bits(again.covariances.base[1]), bits(z[end]))

    @pytest.mark.parametrize("dim", [2, PACKED_DIM, SPLIT_DIM])
    def test_a_run_that_never_settles_steps_its_whole_grid(self, monkeypatch, dim):
        # zero drift with noise: the mean stays put and P grows linearly
        steps = long_run_steps(13 * FULL_STRIDE + 37)
        checks = record_checks(monkeypatch)
        rng = np.random.default_rng([430, dim])
        dyn = LinearDynamics(
            a=np.zeros((dim, dim)), b_ext=rng.normal(size=(dim, dim)),
            c_ext=np.zeros((0, dim)), d_ext=np.zeros((0, dim)),
        )
        _, mean0, cov0 = random_moments_case(rng, dim)
        traj = assert_matches_stage_form(dyn, steps * SETTLE_DT, SETTLE_DT, mean0, cov0)
        assert_exact_samples(traj)
        assert stepped_samples(checks) == list(range(1, steps + 1))

    @pytest.mark.parametrize(
        "dim, cutoff",
        [
            (SPLIT_DIM, verify._KRON_STEP_MAX_DIM),
            (34, verify._KRON_STEP_MAX_DIM),
            (10, -1),
        ],
    )
    @pytest.mark.parametrize("steps", [15 * FULL_STRIDE, 15 * FULL_STRIDE + 37])
    def test_split_exit_reports_where_the_state_repeats(
        self, monkeypatch, dim, cutoff, steps
    ):
        monkeypatch.setattr(verify, "_KRON_STEP_MAX_DIM", cutoff)
        checks = record_checks(monkeypatch)
        dyn, mean0, cov0 = settling_case(np.random.default_rng([420, dim]), dim)
        traj = simulate_moments(dyn, steps * SETTLE_DT, SETTLE_DT, mean0=mean0, cov0=cov0)
        k = traj.stationary_from
        assert k == stepped_samples(checks)[-1] - 1
        assert np.all(bits(traj.covariances.base[k:]) == bits(traj.covariances.base[k]))
        assert np.all(bits(traj.means[k:]) == bits(traj.means[k]))

    @pytest.mark.parametrize("dim", [2, 10, PACKED_DIM])
    def test_packed_runs_report_no_stationary_sample(self, monkeypatch, dim):
        # the case of test_packed_run_copies_its_repeating_block, whose
        # packed exit copies stride blocks rather than one state
        steps = long_run_steps(13 * FULL_STRIDE)
        checks = record_checks(monkeypatch)
        dyn, mean0, cov0 = settling_case(np.random.default_rng([410, dim]), dim)
        traj = simulate_moments(dyn, steps * SETTLE_DT, SETTLE_DT, mean0=mean0, cov0=cov0)
        assert len(stepped_samples(checks)) < steps
        assert traj.stationary_from is None

    @pytest.mark.parametrize("dim", [2, PACKED_DIM, SPLIT_DIM])
    def test_a_run_that_never_settles_reports_no_stationary_sample(
        self, monkeypatch, dim
    ):
        # the case of test_a_run_that_never_settles_steps_its_whole_grid
        steps = long_run_steps(13 * FULL_STRIDE + 37)
        checks = record_checks(monkeypatch)
        rng = np.random.default_rng([430, dim])
        dyn = free_dynamics(np.zeros((dim, dim)), rng.normal(size=(dim, dim)))
        _, mean0, cov0 = random_moments_case(rng, dim)
        traj = simulate_moments(dyn, steps * SETTLE_DT, SETTLE_DT, mean0=mean0, cov0=cov0)
        assert stepped_samples(checks) == list(range(1, steps + 1))
        assert traj.stationary_from is None


def comparison_cases():
    """Pairs of dynamics, named by which of them settle on a stationary float
    state within the grid: (dyn_a, dyn_b, t_final, dt, mean0, cov0,
    [a settles, b settles]).  The split-step pairs cover each combination;
    the packed pairs never report a stationary sample."""
    dim = SPLIT_DIM
    rng = np.random.default_rng(450)
    fast, _, cov0 = settling_case(rng, dim)
    slow, _, _ = settling_case(rng, dim, rate=20.0)
    # zero drift with noise: P grows linearly
    growing = free_dynamics(np.zeros((dim, dim)), rng.normal(size=(dim, dim)))
    # undamped rotations without noise
    rotating = [
        free_dynamics(m - m.T, np.zeros((dim, 0)))
        for m in (rng.normal(size=(dim, dim)) for _ in range(2))
    ]
    mean0 = rng.normal(size=dim)
    packed = PACKED_DIM
    packed_fast, _, packed_cov0 = settling_case(rng, packed)
    packed_slow, _, _ = settling_case(rng, packed, rate=20.0)
    packed_growing = free_dynamics(
        np.zeros((packed, packed)), rng.normal(size=(packed, packed))
    )
    packed_mean0 = rng.normal(size=packed)
    return {
        "both_settle": (fast, slow, 10.0, 1e-2, None, None, [True, True]),
        "only_a_settles": (fast, growing, 10.0, 1e-2, None, None, [True, False]),
        "only_b_settles": (rotating[0], slow, 10.0, 1e-2, None, cov0, [False, True]),
        "neither_settles": (*rotating, 10.0, 1e-2, mean0, cov0, [False, False]),
        "given_moments": (fast, slow, 60.0, 3e-2, mean0, cov0, [True, False]),
        "packed_damped": (
            packed_fast, packed_slow, 10.0, 1e-2, None, packed_cov0, [False, False]
        ),
        "packed_given_moments": (
            packed_fast, packed_growing, 10.0, 1e-2, packed_mean0, packed_cov0,
            [False, False],
        ),
    }


def compare_block_rows(dim):
    """Rows of side b compared at once: the byte budget over one row of a
    covariance's upper triangle."""
    return verify._COMPARE_BLOCK_BYTES // (8 * dim * (dim + 1) // 2)


def comparison_peak(dim, rng):
    """Traced peak of one 2000-step comparison of two settling_case
    dynamics at `dim`, one trajectory's stored bytes, and side a's
    stationary sample."""
    dyn_a, mean0, cov0 = settling_case(rng, dim)
    dyn_b, _, _ = settling_case(rng, dim)
    t_final = 2000 * SETTLE_DT
    one = simulate_moments(dyn_a, t_final, SETTLE_DT, mean0=mean0, cov0=cov0)
    stored = one.times.nbytes + one.means.nbytes + one.covariances.base.nbytes
    stationary = one.stationary_from
    del one
    tracemalloc.start()
    try:
        compare_moment_trajectories(
            dyn_a, dyn_b, t_final, SETTLE_DT, mean0=mean0, cov0=cov0
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, stored, stationary


class TestCompareTrajectories:
    def test_identical_dynamics_agree_exactly(self):
        dyn = damped_mode(2.0)
        assert compare_moment_trajectories(dyn, dyn, 1.0, 0.01) == 0.0

    def test_direct_versus_closed_loop(self):
        di, fr = golden_pair()
        residual = compare_moment_trajectories(
            direct_dynamics(di),
            closed_loop_dynamics(di, fr),
            t_final=1.0,
            dt=1e-3,
        )
        assert residual <= 1e-10

    def test_detects_perturbed_realization(self):
        di, fr = golden_pair()
        rng = np.random.default_rng(331)
        residual = compare_moment_trajectories(
            direct_dynamics(di),
            closed_loop_dynamics(di, perturbed(fr, "sigma", rng)),
            t_final=1.0,
            dt=1e-3,
        )
        assert residual > 1e-6

    @pytest.mark.parametrize("field", ["means", "covariances"])
    def test_deviation_in_last_partial_block(self, monkeypatch, field):
        dim = 2
        rows = 2 * compare_block_rows(dim) + 5
        times = np.arange(rows) * 0.01
        base = MomentTrajectory(
            times=times,
            means=np.ones((rows, dim)),
            covariances=np.broadcast_to(0.5 * np.eye(dim), (rows, dim, dim)),
        )
        moved = getattr(base, field).copy()
        moved[-1, ..., 1] += 3e-4
        other = dataclasses.replace(base, **{field: moved})
        results = iter([base, other])
        calls = []

        def fake(dyn, t_final, dt, mean0=None, cov0=None):
            calls.append(dyn)
            return next(results)

        monkeypatch.setattr(verify, "simulate_moments", fake)
        dyn = damped_mode(1.0)
        residual = compare_moment_trajectories(dyn, dyn, times[-1], 0.01)
        assert residual == pytest.approx(3e-4, rel=1e-9)
        assert len(calls) == 2

    @pytest.mark.parametrize("field", ["means", "covariances"])
    @pytest.mark.parametrize("row", ["next", "last"])
    def test_deviation_after_side_a_became_stationary(self, monkeypatch, field, row):
        # side a keeps its samples only up to its stationary one; side b's
        # later rows must still be compared, with that sample
        dim = 2
        rows = 2 * compare_block_rows(dim) + 5
        k = compare_block_rows(dim) - 1
        times = np.arange(rows) * 0.01
        base = MomentTrajectory(
            times=times,
            means=np.ones((rows, dim)),
            covariances=np.broadcast_to(0.5 * np.eye(dim), (rows, dim, dim)),
        )
        settled = dataclasses.replace(base, stationary_from=k)
        moved = getattr(base, field).copy()
        moved[k + 1 if row == "next" else -1, ..., 1] += 3e-4
        other = dataclasses.replace(base, **{field: moved})
        results = iter([settled, other])

        def fake(dyn, t_final, dt, mean0=None, cov0=None):
            return next(results)

        monkeypatch.setattr(verify, "simulate_moments", fake)
        dyn = damped_mode(1.0)
        residual = compare_moment_trajectories(dyn, dyn, times[-1], 0.01)
        assert residual == pytest.approx(3e-4, rel=1e-9)

    @pytest.mark.parametrize("case", list(comparison_cases()))
    def test_same_float_as_comparing_whole_trajectories(self, case):
        dyn_a, dyn_b, t_final, dt, mean0, cov0, settles = comparison_cases()[case]
        whole = [
            simulate_moments(dyn, t_final, dt, mean0=mean0, cov0=cov0)
            for dyn in (dyn_a, dyn_b)
        ]
        stationary = [traj.stationary_from for traj in whole]
        assert [k is not None for k in stationary] == settles
        if all(settles):
            assert stationary[0] != stationary[1]
        reference = max(
            np.max(np.abs(whole[0].means - whole[1].means)),
            np.max(np.abs(whole[0].covariances - whole[1].covariances)),
        )
        assert reference > 0
        for first, second in ((dyn_a, dyn_b), (dyn_b, dyn_a)):
            residual = compare_moment_trajectories(
                first, second, t_final, dt, mean0=mean0, cov0=cov0
            )
            assert bits(np.float64(residual)) == bits(reference)

    def test_holds_one_whole_trajectory_at_a_time(self):
        # side a settles early, so only its first samples are kept while
        # side b is simulated; two whole trajectories would be over twice
        # one trajectory's bytes
        peak, stored, stationary = comparison_peak(34, np.random.default_rng(460))
        assert stationary is not None
        assert peak <= 1.3 * stored

    def test_holds_side_a_as_upper_triangles_when_it_never_settles(self):
        # the packed fill reports no stationary sample, so side a is kept
        # over the whole grid, but only as means and covariance upper
        # triangles: a little over half a trajectory
        peak, stored, stationary = comparison_peak(10, np.random.default_rng(470))
        assert stationary is None
        assert peak <= 1.8 * stored

    def test_accepts_dynamics_given_as_lists(self):
        # LinearDynamics stores what it is given; the integrator converts it
        listed = LinearDynamics(
            a=[[-1.0, 0.5], [-0.5, -1.0]], b_ext=[[1.0, 0.0], [0.0, 1.0]],
            c_ext=[[1.0, 0.0], [0.0, 1.0]], d_ext=[[1.0, 0.0], [0.0, 1.0]],
        )
        arrays = LinearDynamics(*(np.array(f) for f in dataclasses.astuple(listed)))
        assert compare_moment_trajectories(listed, arrays, 1.0, 0.1) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dimensions"):
            compare_moment_trajectories(
                damped_mode(1.0), direct_dynamics(demo_problem().interaction), 1.0, 0.1
            )


class TestReportWithMoments:
    def test_moment_residual_enters_verdict(self):
        di, fr = golden_pair()
        report = check_equivalence(di, fr)
        annotated = dataclasses.replace(
            report, moment_residual=1e-3, moment_tol=1e-6
        )
        assert not annotated.passed
        assert annotated.failing() == ["moment_residual"]
        good = dataclasses.replace(
            report, moment_residual=1e-9, moment_tol=1e-6
        )
        assert good.passed

    def test_moment_tolerance_defaults_to_sim_tol(self):
        # A residual between tol (1e-8) and SIM_TOL (1e-6) passes when no
        # moment_tol is given, whether it is left out or passed as None.
        di, fr = golden_pair()
        report = check_equivalence(di, fr)
        for annotated in (
            dataclasses.replace(report, moment_residual=1e-7),
            dataclasses.replace(report, moment_residual=1e-7, moment_tol=None),
        ):
            assert annotated.moment_tol == SIM_TOL
            assert annotated.checks["moment_residual"]
            assert annotated.passed
        assert not dataclasses.replace(report, moment_residual=2e-6).passed
