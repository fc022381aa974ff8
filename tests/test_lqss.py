"""Model containers, interconnection assembly, realizability."""

import numpy as np
import pytest

from conftest import random_sharp_skew, random_symmetric, random_symplectic
from hamlink import (
    AlgebraicLoopError,
    DirectInteraction,
    LinearDynamics,
    LqssParams,
    TwoPortLqss,
    ValidationError,
    cayley_sigma_from_x,
    direct_dynamics,
    feedback_closed_loop,
    jmat,
    realizability_defect,
    sharp_adjoint,
    simulate_moments,
    system_dynamics,
)
from hamlink.lqss import skew_closed_loop_drift


def make_params(rng, n, m, scale=1.0):
    return LqssParams(
        n=n,
        r=random_symmetric(rng, 2 * n, scale),
        c=rng.normal(size=(2 * m, 2 * n)),
        d=random_symplectic(rng, m),
    )


class TestLqssParams:
    def test_valid_construction(self):
        rng = np.random.default_rng(101)
        params = make_params(rng, 2, 1)
        assert params.n_ports == 1
        assert params.r.shape == (4, 4)

    def test_rejects_asymmetric_hamiltonian(self):
        rng = np.random.default_rng(102)
        r = rng.normal(size=(4, 4))
        with pytest.raises(ValidationError, match="symmetric"):
            LqssParams(n=2, r=r, c=np.zeros((2, 4)), d=np.eye(2))

    def test_rejects_non_symplectic_gain(self):
        with pytest.raises(ValidationError, match="symplectic"):
            LqssParams(n=1, r=np.zeros((2, 2)), c=np.eye(2), d=2.0 * np.eye(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            LqssParams(n=1, r=np.zeros((4, 4)), c=np.eye(2), d=np.eye(2))
        with pytest.raises(ValidationError):
            LqssParams(n=1, r=np.zeros((2, 2)), c=np.ones((2, 4)), d=np.eye(2))
        with pytest.raises(ValidationError):
            LqssParams(n=1, r=np.zeros((2, 2)), c=np.eye(2), d=np.eye(4))

    def test_zero_port_system(self):
        params = LqssParams(
            n=1, r=np.eye(2), c=np.zeros((0, 2)), d=np.zeros((0, 0))
        )
        assert params.n_ports == 0
        dyn = system_dynamics(params)
        assert dyn.a.shape == (2, 2)
        assert dyn.b_ext.shape == (2, 0)


class TestTwoPortLqss:
    def test_valid_construction(self):
        rng = np.random.default_rng(111)
        sys_a = TwoPortLqss(
            n=2,
            r=random_symmetric(rng, 4),
            c_bar=rng.normal(size=(2, 4)),
            d_bar=random_symplectic(rng, 1),
            c=rng.normal(size=(4, 4)),
        )
        assert sys_a.n_external == 1
        assert sys_a.n_loop == 2

    def test_rejects_bad_external_gain(self):
        with pytest.raises(ValidationError, match="symplectic"):
            TwoPortLqss(
                n=1,
                r=np.zeros((2, 2)),
                c_bar=np.eye(2),
                d_bar=3.0 * np.eye(2),
                c=np.zeros((2, 2)),
            )


class TestDirectDynamics:
    def test_matches_inline_assembly(self):
        rng = np.random.default_rng(121)
        sys_a = make_params(rng, 2, 1)
        sys_b = make_params(rng, 1, 2)
        r_ab = rng.normal(size=(4, 2))
        dyn = direct_dynamics(DirectInteraction(sys_a=sys_a, sys_b=sys_b, r_ab=r_ab))

        j_a, j_b = jmat(2), jmat(1)
        a_aa = j_a @ sys_a.r - 0.5 * sharp_adjoint(sys_a.c) @ sys_a.c
        a_bb = j_b @ sys_b.r - 0.5 * sharp_adjoint(sys_b.c) @ sys_b.c
        expected = np.block(
            [[a_aa, j_a @ r_ab], [j_b @ r_ab.T, a_bb]]
        )
        assert np.array_equal(dyn.a, expected)
        assert dyn.b_ext.shape == (6, 6)
        assert np.array_equal(dyn.b_ext[:4, :2], -sharp_adjoint(sys_a.c) @ sys_a.d)
        assert np.max(np.abs(dyn.b_ext[:4, 2:])) == 0.0
        assert np.array_equal(dyn.d_ext[2:, 2:], sys_b.d)

    def test_interaction_shape_checked(self):
        rng = np.random.default_rng(122)
        with pytest.raises(ValidationError, match="r_ab"):
            DirectInteraction(
                sys_a=make_params(rng, 2, 1),
                sys_b=make_params(rng, 1, 1),
                r_ab=np.zeros((4, 4)),
            )

    def test_composite_hamiltonian_is_symmetric(self):
        rng = np.random.default_rng(123)
        di = DirectInteraction(
            sys_a=make_params(rng, 2, 1),
            sys_b=make_params(rng, 2, 1),
            r_ab=rng.normal(size=(4, 4)),
        )
        h = di.composite_hamiltonian()
        assert np.array_equal(h, h.T)
        assert np.array_equal(h[:4, 4:], di.r_ab)


class TestRealizability:
    def test_defect_vanishes_for_valid_systems(self):
        rng = np.random.default_rng(131)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(0, 3))
            params = make_params(rng, n, m, scale=2.0)
            assert realizability_defect(params) <= 1e-10

    def test_defect_detects_corruption(self):
        rng = np.random.default_rng(132)
        params = make_params(rng, 2, 2)
        broken = LinearDynamics(
            a=system_dynamics(params).a + 0.01,
            b_ext=system_dynamics(params).b_ext,
            c_ext=params.c,
            d_ext=params.d,
        )
        j = jmat(2)
        res = broken.a @ j + j @ broken.a.T + broken.b_ext @ jmat(2) @ broken.b_ext.T
        assert np.max(np.abs(res)) > 1e-3


class TestClosedLoop:
    def make_pair(self, rng, m=2):
        sys_a = TwoPortLqss(
            n=2,
            r=random_symmetric(rng, 4),
            c_bar=rng.normal(size=(2, 4)),
            d_bar=random_symplectic(rng, 1),
            c=rng.normal(size=(2 * m, 4)),
        )
        sys_b = TwoPortLqss(
            n=3,
            r=random_symmetric(rng, 6),
            c_bar=rng.normal(size=(4, 6)),
            d_bar=random_symplectic(rng, 2),
            c=rng.normal(size=(2 * m, 6)),
        )
        return sys_a, sys_b

    def test_two_assemblies_agree(self):
        rng = np.random.default_rng(141)
        for _ in range(20):
            sys_a, sys_b = self.make_pair(rng)
            x = random_sharp_skew(rng, 2)
            sigma = cayley_sigma_from_x(x)
            via_sigma = feedback_closed_loop(sys_a, sys_b, sigma).a
            via_x = skew_closed_loop_drift(
                sys_a.r, sys_a.c_bar, sys_a.c, sys_b.r, sys_b.c_bar, sys_b.c, x
            )
            scale = max(1.0, np.max(np.abs(via_sigma)))
            assert np.max(np.abs(via_sigma - via_x)) <= 1e-10 * scale

    def test_row_blocks_match_the_four_block_formulas(self):
        # Oracle: each drift as four separately formed blocks, with dense J
        # and an explicit inverse, as np.block assembles them.
        rng = np.random.default_rng(146)
        for _ in range(10):
            sys_a, sys_b = self.make_pair(rng)
            x = random_sharp_skew(rng, 2)
            sigma = cayley_sigma_from_x(x)
            eye = np.eye(4)
            g = np.linalg.inv(eye - sigma)
            sa, sb = sharp_adjoint(sys_a.c), sharp_adjoint(sys_b.c)
            local_a = jmat(2) @ sys_a.r - 0.5 * sharp_adjoint(sys_a.c_bar) @ sys_a.c_bar
            local_b = jmat(3) @ sys_b.r - 0.5 * sharp_adjoint(sys_b.c_bar) @ sys_b.c_bar
            loop = np.block([
                [local_a - sa @ (g - 0.5 * eye) @ sys_a.c, -sa @ g @ sys_b.c],
                [-sb @ (g - eye) @ sys_a.c, local_b - sb @ (g - 0.5 * eye) @ sys_b.c],
            ])
            skew = np.block([
                [local_a - 0.5 * sa @ x @ sys_a.c, -0.5 * sa @ (x + eye) @ sys_b.c],
                [-0.5 * sb @ (x - eye) @ sys_a.c, local_b - 0.5 * sb @ x @ sys_b.c],
            ])
            via_sigma = feedback_closed_loop(sys_a, sys_b, sigma).a
            via_x = skew_closed_loop_drift(
                sys_a.r, sys_a.c_bar, sys_a.c, sys_b.r, sys_b.c_bar, sys_b.c, x
            )
            for got, oracle in ((via_sigma, loop), (via_x, skew)):
                scale = max(1.0, np.max(np.abs(oracle)))
                assert np.max(np.abs(got - oracle)) <= 1e-12 * scale

    def test_external_maps_ignore_loop_ports(self):
        rng = np.random.default_rng(142)
        sys_a, sys_b = self.make_pair(rng)
        dyn = feedback_closed_loop(sys_a, sys_b, cayley_sigma_from_x(random_sharp_skew(rng, 2)))
        assert dyn.b_ext.shape == (10, 6)
        assert np.array_equal(dyn.c_ext[:2, :4], sys_a.c_bar)
        assert np.max(np.abs(dyn.c_ext[:2, 4:])) == 0.0
        assert np.array_equal(dyn.d_ext[2:, 2:], sys_b.d_bar)

    def test_unit_eigenvalue_gain_rejected(self):
        rng = np.random.default_rng(143)
        sys_a, sys_b = self.make_pair(rng)
        with pytest.raises(AlgebraicLoopError):
            feedback_closed_loop(sys_a, sys_b, np.eye(4))

    def test_port_count_mismatch(self):
        rng = np.random.default_rng(144)
        sys_a, _ = self.make_pair(rng, m=2)
        _, sys_b = self.make_pair(rng, m=1)
        with pytest.raises(ValidationError, match="port counts"):
            feedback_closed_loop(sys_a, sys_b, np.zeros((4, 4)))

    def test_gain_shape_mismatch(self):
        rng = np.random.default_rng(145)
        sys_a, sys_b = self.make_pair(rng)
        with pytest.raises(ValidationError):
            feedback_closed_loop(sys_a, sys_b, np.zeros((2, 2)))

    def test_empty_loop_decouples(self):
        rng = np.random.default_rng(147)
        params_a = make_params(rng, 2, 1)
        params_b = make_params(rng, 1, 1)
        sys_a = TwoPortLqss(
            n=2, r=params_a.r, c_bar=params_a.c, d_bar=params_a.d,
            c=np.zeros((0, 4)),
        )
        sys_b = TwoPortLqss(
            n=1, r=params_b.r, c_bar=params_b.c, d_bar=params_b.d,
            c=np.zeros((0, 2)),
        )
        dyn = feedback_closed_loop(sys_a, sys_b, np.zeros((0, 0)))
        expected = np.zeros((6, 6))
        expected[:4, :4] = system_dynamics(params_a).a
        expected[4:, 4:] = system_dynamics(params_b).a
        assert np.allclose(dyn.a, expected, atol=1e-14)


class TestLinearDynamics:
    def test_shape_validation(self):
        # LinearDynamics is a plain record; simulate_moments checks the a
        # and b_ext it integrates
        def dynamics(a, b_ext):
            return LinearDynamics(
                a=a, b_ext=b_ext, c_ext=np.zeros((0, 4)), d_ext=np.zeros((0, 2))
            )

        with pytest.raises(ValidationError, match="a must be square"):
            simulate_moments(dynamics(np.zeros((4, 2)), np.zeros((4, 2))), 1.0, 0.1)
        with pytest.raises(ValidationError, match="b_ext must have 4 rows"):
            simulate_moments(dynamics(np.zeros((4, 4)), np.zeros((2, 2))), 1.0, 0.1)
        a = np.zeros((4, 4))
        a[1, 2] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            simulate_moments(dynamics(a, np.zeros((4, 2))), 1.0, 0.1)
