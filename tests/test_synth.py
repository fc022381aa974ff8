"""Synthesis of feedback realizations: construction, parameters, failure modes."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    random_coupling_of_rank,
    random_symmetric,
    random_unitary,
)
from hamlink import (
    AlgebraicLoopError,
    HamlinkError,
    InfeasibleChannelCountError,
    SingularParameterError,
    SynthOptions,
    ValidationError,
    cayley_sigma_from_x,
    check_equivalence,
    coupling_relation_residual,
    demo_problem,
    hamiltonian_corrections,
    is_sharp_skew,
    jmat,
    min_channels,
    sharp_adjoint,
    special_svd,
    synthesize,
    unitary_to_quadrature,
)
from hamlink import synth
from hamlink.lqss import DirectInteraction, LqssParams


def make_interaction(rng, n_a, n_b, rank, scale=1.0, ext=True):
    r_ab = random_coupling_of_rank(rng, n_a, n_b, rank, scale)
    if ext:
        sys_a = LqssParams(
            n=n_a,
            r=random_symmetric(rng, 2 * n_a),
            c=rng.normal(size=(2, 2 * n_a)),
            d=np.eye(2),
        )
        sys_b = LqssParams(
            n=n_b,
            r=random_symmetric(rng, 2 * n_b),
            c=rng.normal(size=(2, 2 * n_b)),
            d=np.eye(2),
        )
    else:
        sys_a = LqssParams(
            n=n_a, r=random_symmetric(rng, 2 * n_a),
            c=np.zeros((0, 2 * n_a)), d=np.zeros((0, 0)),
        )
        sys_b = LqssParams(
            n=n_b, r=random_symmetric(rng, 2 * n_b),
            c=np.zeros((0, 2 * n_b)), d=np.zeros((0, 0)),
        )
    return DirectInteraction(sys_a=sys_a, sys_b=sys_b, r_ab=r_ab)


class TestGoldenProblem:
    def test_default_synthesis(self):
        di = demo_problem().interaction
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
        assert fr.m == 2
        assert np.max(np.abs(fr.x - (-jmat(2)))) <= 1e-12
        assert np.max(np.abs(fr.sigma - (-jmat(2)))) <= 1e-12
        assert coupling_relation_residual(di.r_ab, fr.c_a, fr.c_b, fr.x) <= 1e-12

    def test_corrections_cancel_zero_base(self):
        # base Hamiltonians vanish, so the corrections are exactly the
        # loop-induced terms and must be symmetric
        di = demo_problem().interaction
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
        assert np.array_equal(fr.r_a, fr.r_a.T)
        assert np.array_equal(fr.r_b, fr.r_b.T)
        inline = -0.5 * jmat(2) @ (sharp_adjoint(fr.c_a) @ fr.x @ fr.c_a)
        assert np.allclose(fr.r_a, 0.5 * (inline + inline.T), atol=1e-12)

    def test_equivalence_report_passes(self):
        di = demo_problem().interaction
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
        report = check_equivalence(di, fr)
        assert report.passed
        assert report.failing() == []
        assert report.drift_residual <= 1e-12
        assert report.skew_drift_residual <= 1e-12


class TestMinChannels:
    def test_golden_value(self):
        assert min_channels(demo_problem().interaction.r_ab) == 2

    def test_matches_rank_formula(self):
        rng = np.random.default_rng(201)
        for n_a, n_b in [(1, 1), (2, 3), (4, 2)]:
            for rank in range(0, 2 * min(n_a, n_b) + 1):
                r_ab = random_coupling_of_rank(rng, n_a, n_b, rank)
                assert min_channels(r_ab) == (rank + 1) // 2

    def test_zero_coupling(self):
        assert min_channels(np.zeros((4, 6))) == 0


class TestChannelCountBounds:
    def test_below_minimum_is_infeasible(self):
        di = demo_problem().interaction
        with pytest.raises(InfeasibleChannelCountError) as info:
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(m=1))
        assert info.value.requested == 1
        assert info.value.minimum == 2
        assert "at least m=2" in str(info.value)

    def test_minimum_succeeds(self):
        di = demo_problem().interaction
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(m=2))
        assert check_equivalence(di, fr).passed

    def test_above_mode_cap_rejected(self):
        di = demo_problem().interaction
        with pytest.raises(ValidationError, match="exceeds min"):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(m=3))

    def test_extra_idle_channels_still_equivalent(self):
        rng = np.random.default_rng(202)
        di = make_interaction(rng, 3, 3, rank=2)
        assert min_channels(di.r_ab) == 1
        for m in (1, 2, 3):
            fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(m=m))
            assert fr.m == m
            report = check_equivalence(di, fr)
            assert report.passed, report.failing()

    def test_zero_rank_gives_empty_loop(self):
        rng = np.random.default_rng(203)
        di = make_interaction(rng, 2, 2, rank=0)
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
        assert fr.m == 0
        assert fr.c_a.shape == (0, 4)
        assert fr.sigma.shape == (0, 0)
        report = check_equivalence(di, fr)
        assert report.passed
        assert report.sigma_unit_margin == np.inf

    def test_negative_m_rejected(self):
        di = demo_problem().interaction
        with pytest.raises(ValidationError, match="nonnegative integer"):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(m=-1))

    @pytest.mark.parametrize("m", [-1, 1.5, 2.0, "2", True])
    def test_options_refuse_bad_m(self, m):
        # refused on construction, so a zero coupling (bound m=0) cannot
        # turn m=-1 into an infeasible-count error
        with pytest.raises(ValidationError, match="m must be"):
            SynthOptions(m=m)

    def test_options_accept_numpy_integer_m(self):
        di = demo_problem().interaction
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(m=np.int64(2)))
        assert fr.m == 2


class TestFreeParameters:
    def random_mixing(self, rng, m):
        return unitary_to_quadrature(random_unitary(rng, m))

    def test_nondefault_parameters_still_realize(self):
        rng = np.random.default_rng(211)
        for _ in range(15):
            n_a = int(rng.integers(1, 4))
            n_b = int(rng.integers(1, 4))
            rank = int(rng.integers(0, 2 * min(n_a, n_b) + 1))
            di = make_interaction(rng, n_a, n_b, rank, scale=1.5)
            m = min_channels(di.r_ab)
            options = SynthOptions(
                m=m,
                y1=tuple(rng.uniform(0.3, 2.0, size=m)),
                y2=tuple(rng.uniform(0.3, 2.0, size=m)),
                ga1=tuple(rng.uniform(0.5, 2.0, size=m) * rng.choice([-1, 1], m)),
                ga2=tuple(rng.uniform(0.5, 2.0, size=m) * rng.choice([-1, 1], m)),
                p=self.random_mixing(rng, m),
            )
            fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)
            report = check_equivalence(di, fr)
            assert report.passed, report.failing()

    def test_negative_loop_diagonals(self):
        di = demo_problem().interaction
        options = SynthOptions(y1=(-0.5, 2.0), y2=(1.5, -0.25))
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)
        assert check_equivalence(di, fr).passed
        assert is_sharp_skew(fr.x, tol=1e-12)

    def test_zero_loop_diagonals_leave_the_hamiltonians_uncorrected(self):
        # y1 = y2 = 0: x = 0, sigma = -I, and every correction -c^T y c / 2
        # vanishes, so r_a and r_b are the base matrices bit for bit.  Not
        # the default: the golden problem pins x = sigma = -J.
        rng = np.random.default_rng(213)
        for di in (demo_problem().interaction, make_interaction(rng, 2, 3, rank=3)):
            m = min_channels(di.r_ab)
            options = SynthOptions(m=m, y1=(0.0,) * m, y2=(0.0,) * m)
            fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)
            assert np.array_equal(fr.x, np.zeros((2 * m, 2 * m)))
            assert np.array_equal(fr.sigma, -np.eye(2 * m))
            assert fr.r_a.tobytes() == di.sys_a.r.tobytes()
            assert fr.r_b.tobytes() == di.sys_b.r.tobytes()
            report = check_equivalence(di, fr)
            assert report.passed, report.failing()
            assert report.drift_residual <= 1e-14

    def test_wrong_length_rejected(self):
        di = demo_problem().interaction
        with pytest.raises(ValidationError, match="y1"):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(y1=(1.0,)))

    def test_non_orthogonal_mixing_rejected(self):
        di = demo_problem().interaction
        bad = np.eye(4)
        bad[0, 0] = 2.0
        with pytest.raises(ValidationError, match="orthogonal"):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(p=bad))

    def test_symplectic_but_not_orthogonal_mixing_rejected(self):
        di = demo_problem().interaction
        squeeze = np.diag([2.0, 2.0, 0.5, 0.5])
        with pytest.raises(ValidationError, match="orthogonal"):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(p=squeeze))

    def test_orthogonal_but_not_symplectic_mixing_rejected(self):
        di = demo_problem().interaction
        swap = np.eye(4)[[0, 2, 1, 3]]
        assert np.array_equal(swap @ swap.T, np.eye(4))
        with pytest.raises(ValidationError, match="symplectic"):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(p=swap))


class TestSingularParameters:
    def test_active_channel_y_product_minus_one(self):
        di = demo_problem().interaction
        options = SynthOptions(y1=(1.0, 1.0), y2=(-1.0, 1.0))
        with pytest.raises(SingularParameterError, match="channel 1"):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)

    def test_zero_gain(self):
        di = demo_problem().interaction
        options = SynthOptions(ga1=(0.0, 1.0))
        with pytest.raises(SingularParameterError, match="nonzero"):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)

    @pytest.mark.parametrize(
        "options,message",
        [
            (SynthOptions(ga2=(1.0, 0.0)), "channel 2: gains ga1, ga2 must be nonzero"),
            (SynthOptions(y1=(1.0, 1.0), y2=(1.0, -1.0)), "channel 2: y1\\*y2 = -1"),
            # Channel 1 is refused for its loop diagonals before channel 2's
            # zero gain is looked at.
            (
                SynthOptions(y1=(1.0, 1.0), y2=(-1.0, 1.0), ga1=(1.0, 0.0)),
                "channel 1: y1\\*y2 = -1",
            ),
        ],
        ids=["zero-gain", "y-product", "first-channel-wins"],
    )
    def test_refusal_names_the_first_failing_channel(self, options, message):
        di = demo_problem().interaction
        with pytest.raises(SingularParameterError, match=message):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)

    def test_idle_channel_y_product_minus_one_hits_cayley(self):
        rng = np.random.default_rng(221)
        di = make_interaction(rng, 2, 2, rank=1)
        assert min_channels(di.r_ab) == 1
        options = SynthOptions(m=2, y1=(1.0, 1.0), y2=(1.0, -1.0))
        with pytest.raises(AlgebraicLoopError):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)


def random_loop_problems(seed, count):
    """(interaction, options) pairs with random loop diagonals, gains and
    channel counts up to 8; every other one has a mixing p.  |1 + y1*y2| is
    kept at least 0.1, so the loop matrix is well conditioned."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m = int(rng.integers(1, 9))
        rank = int(rng.integers(0, 2 * m + 1))
        di = make_interaction(rng, m + int(rng.integers(0, 2)), m + int(rng.integers(0, 2)), rank)
        y1 = rng.normal(scale=2.0, size=m)
        y2 = rng.normal(scale=2.0, size=m)
        near = np.abs(1.0 + y1 * y2) < 0.1
        y2[near] = -y2[near]
        ga1, ga2 = (rng.uniform(0.5, 2.0, size=(2, m)) * rng.choice([-1.0, 1.0], size=(2, m)))
        p = unitary_to_quadrature(random_unitary(rng, m)) if i % 2 else None
        yield di, SynthOptions(m=m, y1=tuple(y1), y2=tuple(y2), ga1=tuple(ga1), ga2=tuple(ga2), p=p)


class TestClosedFormCayley:
    def test_sigma_matches_the_solved_cayley_map(self):
        for di, options in random_loop_problems(251, 200):
            fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)
            oracle = cayley_sigma_from_x(fr.x)
            err = np.max(np.abs(fr.sigma - oracle))
            assert err <= 1e-12 * max(1.0, np.max(np.abs(oracle))), (fr.m, err)

    def test_condition_number_matches_the_dense_svd(self, monkeypatch):
        seen = []
        original = synth.refuse_ill_conditioned

        def recording(cond, what):
            seen.append(cond)
            original(cond, what)

        monkeypatch.setattr(synth, "refuse_ill_conditioned", recording)
        for di, options in random_loop_problems(252, 200):
            seen.clear()
            fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)
            oracle = np.linalg.cond(fr.x + np.eye(2 * fr.m))
            assert len(seen) == 1
            assert abs(seen[0] - oracle) <= 1e-10 * oracle, (fr.m, seen[0], oracle)

    def test_zero_determinant_is_refused_without_a_warning(self):
        rng = np.random.default_rng(253)
        di = make_interaction(rng, 2, 2, rank=1)
        options = SynthOptions(m=2, y1=(1.0, 1.0), y2=(1.0, -1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                AlgebraicLoopError,
                match=r"X \+ I is singular or near-singular "
                r"\(condition number inf exceeds 1e\+12\)",
            ):
                synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)

    def test_near_idle_channel_names_its_condition_number(self):
        # |1 + y1*y2| = 5e-13 is below the idle threshold, and X + I has
        # condition number about 8e12: the conditioning check refuses the
        # channel, as it refuses every idle one, before any gain is built.
        rng = np.random.default_rng(254)
        di = make_interaction(rng, 2, 2, rank=1)
        y1, y2 = (1.0, 1.0), (1.0, -1.0 + 5e-13)
        with pytest.raises(AlgebraicLoopError, match="X \\+ I") as exc_info:
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(m=2, y1=y1, y2=y2))
        x = -jmat(2) @ np.diag(y1 + y2)
        oracle = np.linalg.cond(x + np.eye(4))
        assert oracle > 1e12
        named = re.search(r"condition number (\S+) exceeds", str(exc_info.value)).group(1)
        assert float(named) == pytest.approx(oracle, rel=1e-2)

    def test_tiny_determinant_with_a_coupling_fails_the_self_check(self):
        # 1 + y1*y2 = 1e-11 passes the Cayley step (condition number about
        # 4e11) and the gain equation, whose huge gains fail the self-check.
        di = demo_problem().interaction
        options = SynthOptions(y1=(1.0, 1.0), y2=(-1.0 + 1e-11, 1.0))
        with pytest.raises(HamlinkError, match="synthesis self-check failed"):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)

    @pytest.mark.parametrize("v", [-1.00001, -1.000001])
    def test_near_idle_channels_keep_the_loop_elimination_exact(self, v):
        # 1 + y1*y2 = 1e-5 and 1e-6 on both demo channels, with gains that
        # balance c_a against c_b.  I - sigma then has condition number about
        # 4/|1 + y1*y2|, which amplifies any rounding of sigma that no
        # nearby x explains; the entrywise closed form read 1.3e-6 and 3.2e-4.
        di = demo_problem().interaction
        svd = special_svd(di.r_ab)
        t = np.maximum(svd.block1_diag()[:2], svd.block2_diag()[:2])
        y1, y2 = np.ones(2), np.full(2, v)
        ga = tuple(np.sqrt(2.0 * t / np.abs(1.0 + y1 * y2)))
        options = SynthOptions(y1=tuple(y1), y2=tuple(y2), ga1=ga, ga2=ga)
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)
        assert check_equivalence(di, fr).drift_residual <= 2e-10


class TestHamiltonianCorrections:
    def test_matches_inline_formula(self):
        rng = np.random.default_rng(231)
        from conftest import random_sharp_skew

        r_bar = random_symmetric(rng, 6)
        c = rng.normal(size=(4, 6))
        x = random_sharp_skew(rng, 2)
        out = hamiltonian_corrections(r_bar, c, x)
        inline = r_bar - 0.5 * jmat(3) @ (sharp_adjoint(c) @ x @ c)
        assert np.max(np.abs(out - inline)) <= 1e-10 * max(1.0, np.max(np.abs(inline)))
        assert np.array_equal(out, out.T)

    def test_empty_loop_leaves_base_unchanged(self):
        rng = np.random.default_rng(232)
        r_bar = random_symmetric(rng, 4)
        out = hamiltonian_corrections(r_bar, np.zeros((0, 4)), np.zeros((0, 0)))
        assert np.array_equal(out, r_bar)


class TestChannelForm:
    # synthesize builds c, x and sigma per channel and mixes them only when p
    # is given; it forms each correction as r_bar - (1/2) c.T (y c)
    def test_corrections_match_the_public_formula(self):
        for di, options in random_loop_problems(261, 60):
            fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)
            for r_bar, c, r in ((di.sys_a.r, fr.c_a, fr.r_a), (di.sys_b.r, fr.c_b, fr.r_b)):
                expected = hamiltonian_corrections(r_bar, c, fr.x)
                err = np.max(np.abs(r - expected))
                assert err <= 1e-13 * max(1.0, np.max(np.abs(expected))), (options.p is None, err)

    def test_identity_mixing_changes_nothing(self):
        for di, options in random_loop_problems(262, 40):
            if options.p is not None:
                continue
            plain = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)
            mixed = synthesize(
                di.sys_a.r, di.sys_b.r, di.r_ab,
                dataclasses.replace(options, p=np.eye(2 * options.m)),
            )
            for field in ("c_a", "c_b", "x", "sigma"):
                assert np.array_equal(getattr(plain, field), getattr(mixed, field)), field

    def test_traced_peak_in_drift_matrices(self):
        # At n_a = n_b = 64, in units of one 4n x 4n drift matrix: the
        # dense mixing and correction products peaked at 3.80
        n = 64
        di = make_interaction(np.random.default_rng(263), n, n, 2 * n)
        synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
        tracemalloc.start()
        try:
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * (4 * n) ** 2 * 8, peak / ((4 * n) ** 2 * 8)


class TestCouplingIdentities:
    def test_residual_scales_relative(self):
        di = demo_problem().interaction
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
        # scaling the whole problem leaves the scaled residual near rounding
        big = 1e6 * di.r_ab
        fr_big = synthesize(di.sys_a.r, di.sys_b.r, big)
        assert coupling_relation_residual(big, fr_big.c_a, fr_big.c_b, fr_big.x) <= 1e-12
        assert coupling_relation_residual(di.r_ab, fr.c_a, fr.c_b, fr.x) <= 1e-12


class TestInputValidation:
    @pytest.mark.parametrize(
        "rank_tol", [float("nan"), -1e-3, 1.0, 2.0, None, "1e-10", True, False]
    )
    def test_bad_rank_tol_rejected(self, rank_tol):
        with pytest.raises(ValidationError, match="rank_tol"):
            SynthOptions(rank_tol=rank_tol)

    @pytest.mark.parametrize("rank_tol", [float("nan"), -1.0, 1.0, 5.0])
    @pytest.mark.parametrize("decide", [special_svd, min_channels])
    def test_rank_decision_refuses_bad_rank_tol(self, decide, rank_tol):
        di = demo_problem().interaction
        with pytest.raises(ValidationError, match=r"rank_tol must be in \[0, 1\)"):
            decide(di.r_ab, rank_tol)

    def test_zero_rank_tol_accepted(self):
        di = demo_problem().interaction
        fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, SynthOptions(rank_tol=0.0))
        assert check_equivalence(di, fr).passed

    def test_asymmetric_base_hamiltonian(self):
        di = demo_problem().interaction
        bad = di.sys_a.r.copy()
        bad[0, 1] = 5.0
        with pytest.raises(ValidationError, match="symmetric"):
            synthesize(bad, di.sys_b.r, di.r_ab)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="r_ab"):
            synthesize(np.zeros((4, 4)), np.zeros((6, 6)), np.zeros((4, 4)))

    def test_non_finite_coupling(self):
        r_ab = np.zeros((4, 6))
        r_ab[0, 0] = np.inf
        with pytest.raises(ValidationError):
            synthesize(np.zeros((4, 4)), np.zeros((6, 6)), r_ab)

    @pytest.mark.parametrize("field", ["y1", "y2", "ga1", "ga2"])
    @pytest.mark.parametrize(
        "values",
        [
            (1.0,),
            (1.0, 1.0, 1.0),
            (float("nan"), 1.0),
            (1.0, float("inf")),
            (True, 1.0),
            [[1.0], [1.0]],
            ("a", 1.0),
        ],
    )
    def test_per_channel_vector_of_wrong_length_or_not_finite(self, field, values):
        # The demo needs m = 2: one finite entry per channel.  A bool is not
        # taken as 1, a nested list is not flattened, and a string entry is
        # refused by name rather than by numpy.
        di = demo_problem().interaction
        options = SynthOptions(**{field: values})
        with pytest.raises(ValidationError, match=f"{field} must have 2 finite entries"):
            synthesize(di.sys_a.r, di.sys_b.r, di.r_ab, options)
