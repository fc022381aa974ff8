"""Equivalence reports, moment integration, trajectory comparison."""

import dataclasses
import time
import warnings

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

from conftest import random_symmetric
from hamlink import (
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

    @pytest.mark.parametrize("tol", [-1e-8, float("nan"), float("inf")])
    def test_bad_tolerance_rejected(self, tol):
        di, fr = golden_pair()
        with pytest.raises(ValidationError, match="tol"):
            check_equivalence(di, fr, tol=tol)

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


class TestClosedLoopDynamics:
    def test_matches_container_assembly(self):
        di, fr = golden_pair()
        loose = closed_loop_dynamics(di, fr)
        sys_a = TwoPortLqss(
            n=di.sys_a.n, r=fr.r_a, c_bar=di.sys_a.c, d_bar=di.sys_a.d, c=fr.c_a
        )
        sys_b = TwoPortLqss(
            n=di.sys_b.n, r=fr.r_b, c_bar=di.sys_b.c, d_bar=di.sys_b.d, c=fr.c_b
        )
        strict = feedback_closed_loop(sys_a, sys_b, fr.sigma)
        assert np.array_equal(loose.a, strict.a)
        assert np.array_equal(loose.b_ext, strict.b_ext)

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

    def test_divergence_stops_early(self):
        # the covariance overflows at t = 85 of 20000; the run must stop
        # near there rather than integrate the rest of its 40000 steps
        def timed_run(a, mean0):
            dyn = LinearDynamics(
                a=a, b_ext=np.zeros((2, 0)), c_ext=np.zeros((0, 2)),
                d_ext=np.zeros((0, 0)),
            )
            start = time.perf_counter()
            try:
                simulate_moments(dyn, t_final=20000.0, dt=0.5, mean0=mean0)
            except DivergenceError as exc:
                return time.perf_counter() - start, exc.time
            return time.perf_counter() - start, None

        full, diverged = timed_run(-2.0 * np.eye(2), None)
        assert diverged is None
        early, diverged = timed_run(5.0 * np.eye(2), np.array([1.0, 1.0]))
        assert diverged == 85.0
        assert early < 0.1 * full

    def test_rejects_bad_steps(self):
        dyn = damped_mode(1.0)
        with pytest.raises(ValidationError):
            simulate_moments(dyn, t_final=-1.0, dt=0.1)
        with pytest.raises(ValidationError):
            simulate_moments(dyn, t_final=1.0, dt=0.0)

    @pytest.mark.parametrize("t_final, dt", [(1e12, 1e-3), (1e300, 1e-300)])
    def test_rejects_oversized_grid(self, t_final, dt):
        # 1e15 steps, and a step count that overflows to infinity: refused
        # before any trajectory is allocated
        with pytest.raises(ValidationError, match="t_final / dt"):
            simulate_moments(damped_mode(1.0), t_final=t_final, dt=dt)

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


def full_stack(dim):
    """Steps per product of a run long enough for the whole stack: the
    largest power of two up to one divergence-check block whose rows fit
    the row budget."""
    b = 1
    while (
        2 * b <= verify._DIVERGENCE_CHECK_STEPS
        and 2 * b * packed_size(dim) <= verify._POWER_STACK_ROWS
    ):
        b *= 2
    return b


def record_stack_sizes(monkeypatch):
    """Steps per product of every packed run that follows, in call order."""
    sizes = []
    original = verify._step_powers

    def recording(k_p, n_steps):
        powers = original(k_p, n_steps)
        sizes.append(len(powers))
        return powers

    monkeypatch.setattr(verify, "_step_powers", recording)
    return sizes


def long_run_steps(dim, tail):
    """A whole number of divergence-check blocks long enough for the full
    stack, plus tail steps: the last block ends tail steps in, on or around
    a chunk boundary."""
    blocks = -(-full_stack(dim) * packed_size(dim) // verify._DIVERGENCE_CHECK_STEPS)
    return blocks * verify._DIVERGENCE_CHECK_STEPS + tail


class TestStackedStep:
    # The packed step advances up to b steps per product with the stacked
    # powers K, ..., K^b of its step matrix; every chunk size and block
    # boundary must reproduce the stage form.
    @pytest.mark.parametrize("dim", [2, 10])
    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 130])
    def test_short_runs(self, monkeypatch, dim, steps):
        sizes = record_stack_sizes(monkeypatch)
        rng = np.random.default_rng(360 + dim)
        dyn, mean0, cov0 = random_moments_case(rng, dim)
        traj = assert_matches_stage_form(dyn, steps * 1e-3, 1e-3, mean0, cov0)
        assert len(traj.times) == steps + 1
        # building the stack costs no more than the steps it batches
        assert sizes[0] == 1 or sizes[0] * packed_size(dim) <= steps

    @pytest.mark.parametrize("dim", [2, 10])
    # the last block holds 1, b - 1, b, b + 1, 63 or 64 steps
    @pytest.mark.parametrize(
        "chunks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (0, 63), (0, 64)]
    )
    def test_last_block_ends_on_every_chunk_boundary(
        self, monkeypatch, dim, chunks, extra
    ):
        b = full_stack(dim)
        assert b > 1
        steps = long_run_steps(dim, chunks * b + extra)
        sizes = record_stack_sizes(monkeypatch)
        rng = np.random.default_rng(370 + dim)
        dyn, mean0, cov0 = random_moments_case(rng, dim)
        traj = assert_matches_stage_form(dyn, steps * 1e-3, 1e-3, mean0, cov0)
        assert len(traj.times) == steps + 1
        assert sizes == [b]

    def test_samples_are_symmetric_with_a_unit_corner(self, monkeypatch):
        dim = 10
        steps = long_run_steps(dim, 5)
        sizes = record_stack_sizes(monkeypatch)
        rng = np.random.default_rng(380)
        dyn, mean0, cov0 = random_moments_case(rng, dim)
        traj = simulate_moments(dyn, steps * 1e-3, 1e-3, mean0=mean0, cov0=cov0)
        z = traj.covariances.base
        assert sizes == [full_stack(dim)]
        assert z.shape == (steps + 1, dim + 1, dim + 1)
        assert np.array_equal(z, z.transpose(0, 2, 1))
        assert np.all(z[:, dim, dim] == 1.0)

    # 20 steps take single steps; the longer run would stack 64 powers.
    @pytest.mark.parametrize("steps, stack", [(20, 1), (long_run_steps(4, 20), 15)])
    def test_stack_ends_before_its_first_overflowing_power(
        self, monkeypatch, steps, stack
    ):
        # Two modes have a covariance step of about 6.7e19 but hold no
        # moments, and noise drives only the stable modes: the run stays
        # finite.  K^15 is finite and K^16 overflows; an overflowed power
        # times the zero moments would give NaN, a false divergence at the
        # sixteenth step.
        a = np.diag([1e5, 1e5, -0.1, -0.1])
        b_ext = np.zeros((4, 2))
        b_ext[2, 0] = b_ext[3, 1] = 1.0
        dyn = LinearDynamics(
            a=a, b_ext=b_ext, c_ext=np.zeros((0, 4)), d_ext=np.zeros((0, 2))
        )
        cov0 = np.diag([0.0, 0.0, 0.5, 0.5])
        sizes = record_stack_sizes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = assert_matches_stage_form(dyn, float(steps), 1.0, np.zeros(4), cov0)
        assert sizes == [stack]
        assert np.all(traj.covariances[:, :2, :] == 0.0)

    @pytest.mark.parametrize(
        "dim", [verify._KRON_STEP_MAX_DIM - 2, verify._KRON_STEP_MAX_DIM]
    )
    def test_top_dimensions_take_single_steps_when_the_budget_says_so(
        self, monkeypatch, dim
    ):
        s = packed_size(dim)
        full = full_stack(dim)
        sizes = record_stack_sizes(monkeypatch)
        rng = np.random.default_rng(390 + dim)
        dyn, mean0, cov0 = random_moments_case(rng, dim)
        simulate_moments(dyn, long_run_steps(dim, 0) * 1e-3, 1e-3)
        # the largest budget that leaves no room for a second power
        monkeypatch.setattr(verify, "_POWER_STACK_ROWS", 2 * s - 1)
        assert_matches_stage_form(dyn, 0.4, 1e-3, mean0, cov0)
        assert sizes == [full, 1]


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
        rows = 2 * verify._COMPARE_BLOCK_ROWS + 5
        dim = 2
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
