"""Structured linear algebra: adjoint calculus, Cayley map, block SVD."""

import numpy as np
import pytest

from conftest import (
    random_coupling_of_rank,
    random_sharp_skew,
    random_symmetric,
    random_symplectic,
    random_unitary,
)
from hamlink import (
    AlgebraicLoopError,
    ValidationError,
    build_partition_permutation,
    cayley_sigma_from_x,
    cayley_x_from_sigma,
    is_sharp_skew,
    is_symplectic,
    jmat,
    sharp_adjoint,
    sharp_skew_defect,
    special_svd,
    symplectic_defect,
    unitary_to_quadrature,
)
from hamlink.symcore import guarded_solve, j_times, max_abs, sharp

GOLDEN_COUPLING = np.array(
    [
        [4.0, -7.0, 7.0, 0.0, 2.0, 0.0],
        [1.0, -5.0, 5.0, -4.0, 1.0, 5.0],
        [9.0, -6.0, 0.0, 0.0, 2.0, 9.0],
        [12.0, -8.0, 2.0, 4.0, 3.0, 4.0],
    ]
)


def skew_form(k: int) -> np.ndarray:
    # independent construction, not jmat
    eye = np.eye(k)
    zero = np.zeros((k, k))
    return np.block([[zero, eye], [-eye, zero]])


class TestJmat:
    def test_explicit_two_mode_form(self):
        expected = np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [-1.0, 0.0, 0.0, 0.0],
                [0.0, -1.0, 0.0, 0.0],
            ]
        )
        assert np.array_equal(jmat(2), expected)

    def test_square_is_minus_identity(self):
        for k in range(5):
            j = jmat(k)
            assert np.array_equal(j @ j, -np.eye(2 * k))
            assert np.array_equal(j.T, -j)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            jmat(-1)

    @pytest.mark.parametrize("k", [True, 1.0, "1"])
    def test_rejects_a_count_that_is_not_an_integer(self, k):
        with pytest.raises(ValidationError, match="mode count must be a nonnegative integer"):
            jmat(k)

    def test_accepts_a_numpy_integer(self):
        assert np.array_equal(jmat(np.int64(2)), jmat(2))

    @pytest.mark.parametrize(
        "k", [2**62 + 1, 10**400, -(10**400)], ids=["2**62+1", "1e400", "-1e400"]
    )
    def test_rejects_a_count_past_any_array_without_printing_it(self, k):
        with pytest.raises(
            ValidationError, match=r"^mode count must be a nonnegative integer up to 2\*\*62$"
        ):
            jmat(k)


class TestSharpAdjoint:
    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        shapes = [(1, 1), (2, 3), (3, 1), (4, 4), (0, 2), (2, 0), (0, 0)]
        cases = [rng.normal(size=(2 * r, 2 * s)) for r, s in shapes]
        cases.append(np.array([[-0.0, 1.0, 0.0, -2.0], [0.0, -0.0, -0.0, 3.0]]))
        for x in cases:
            r, s = x.shape[0] // 2, x.shape[1] // 2
            oracle = -skew_form(s) @ x.T @ skew_form(r)
            assert np.allclose(sharp_adjoint(x), oracle, atol=1e-14)
            # the block kernels are exact: equal in value, zero signs aside
            assert np.array_equal(sharp_adjoint(x), oracle)
            assert np.array_equal(sharp(x), oracle)
            assert np.array_equal(j_times(x), skew_form(r) @ x)

    def test_involution(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.normal(size=(4, 6))
            assert np.allclose(sharp_adjoint(sharp_adjoint(x)), x, atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(4, 2))
        lhs = sharp_adjoint(2.5 * x - 0.7 * y)
        rhs = 2.5 * sharp_adjoint(x) - 0.7 * sharp_adjoint(y)
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_product_reversal(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 2))
        lhs = sharp_adjoint(a @ b)
        rhs = sharp_adjoint(b) @ sharp_adjoint(a)
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_rejects_odd_dimensions(self):
        with pytest.raises(ValidationError):
            sharp_adjoint(np.ones((3, 4)))

    def test_rejects_non_finite(self):
        x = np.ones((2, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValidationError):
            sharp_adjoint(x)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValidationError):
            sharp_adjoint(np.ones(4))


class TestSymplectic:
    def test_identity_and_squeeze(self):
        assert is_symplectic(np.eye(4))
        squeeze = np.diag([2.0, 0.5])
        assert is_symplectic(squeeze)
        assert not np.allclose(squeeze @ squeeze.T, np.eye(2))

    def test_random_flows_are_symplectic(self):
        rng = np.random.default_rng(21)
        for k in (1, 2, 3):
            t = random_symplectic(rng, k)
            assert symplectic_defect(t) <= 1e-12

    def test_scaled_identity_is_not(self):
        assert not is_symplectic(2.0 * np.eye(4))
        assert symplectic_defect(2.0 * np.eye(4)) == pytest.approx(3.0)

    def test_group_product_and_sharp_inverse(self):
        rng = np.random.default_rng(22)
        t1 = random_symplectic(rng, 2)
        t2 = random_symplectic(rng, 2)
        assert is_symplectic(t1 @ t2, tol=1e-11)
        # the J-adjoint of a symplectic matrix is its inverse
        assert np.allclose(t1 @ sharp_adjoint(t1), np.eye(4), atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            is_symplectic(np.ones((2, 4)))

    def test_empty_is_symplectic(self):
        assert is_symplectic(np.zeros((0, 0)))


class TestSharpSkew:
    def test_j_times_symmetric_characterization(self):
        rng = np.random.default_rng(31)
        for k in (1, 2, 3):
            x = random_sharp_skew(rng, k)
            assert is_sharp_skew(x, tol=1e-12)
            assert np.allclose(jmat(k) @ x, (jmat(k) @ x).T, atol=1e-12)

    def test_generic_matrix_is_not(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(4, 4))
        assert sharp_skew_defect(x) > 0.1

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            is_sharp_skew(np.ones((2, 4)))


class TestCayley:
    def test_golden_loop_matrix_maps_to_itself(self):
        # x = [[0, -I], [I, 0]] has square -I, so (x - I)(x + I)^-1 = x
        x = -jmat(2)
        sigma = cayley_sigma_from_x(x)
        assert np.allclose(sigma, x, atol=1e-12)

    def test_matches_inverse_based_oracle(self):
        rng = np.random.default_rng(41)
        for k in (1, 2, 3):
            x = random_sharp_skew(rng, k)
            eye = np.eye(2 * k)
            oracle = (x - eye) @ np.linalg.inv(x + eye)
            assert np.allclose(cayley_sigma_from_x(x), oracle, atol=1e-11)

    def test_output_is_symplectic_without_unit_eigenvalue(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            x = random_sharp_skew(rng, 2)
            sigma = cayley_sigma_from_x(x)
            assert symplectic_defect(sigma) <= 1e-10
            assert np.min(np.abs(np.linalg.eigvals(sigma) - 1.0)) > 1e-6

    def test_round_trip(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            x = random_sharp_skew(rng, 3)
            back = cayley_x_from_sigma(cayley_sigma_from_x(x))
            assert np.max(np.abs(back - x)) <= 1e-9 * max(1.0, np.max(np.abs(x)))

    def test_reverse_round_trip(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            sigma = cayley_sigma_from_x(random_sharp_skew(rng, 2))
            x = cayley_x_from_sigma(sigma)
            assert is_sharp_skew(x, tol=1e-9 * max(1.0, np.max(np.abs(x))))
            assert np.allclose(cayley_sigma_from_x(x), sigma, atol=1e-9)

    def test_loop_elimination_identities(self):
        # the identities connecting the two closed-loop assemblies
        rng = np.random.default_rng(45)
        x = random_sharp_skew(rng, 2)
        sigma = cayley_sigma_from_x(x)
        eye = np.eye(4)
        w_inv = np.linalg.inv(eye - sigma)
        assert np.allclose(w_inv @ sigma, 0.5 * (x - eye), atol=1e-11)
        assert np.allclose(w_inv, 0.5 * (x + eye), atol=1e-11)

    def test_rejects_non_skew(self):
        with pytest.raises(ValidationError):
            cayley_sigma_from_x(np.eye(4))

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValidationError):
            cayley_x_from_sigma(2.0 * np.eye(4))

    @pytest.mark.parametrize(
        "value, message",
        [
            (np.zeros((2, 4)), r"must be square, got shape \(2, 4\)"),
            (np.zeros((3, 3)), r"must have even dimensions .*, got shape \(3, 3\)"),
            (np.full((2, 2), np.nan), "contains non-finite entries"),
        ],
        ids=["non-square", "odd", "nan"],
    )
    @pytest.mark.parametrize(
        "cayley, name",
        [
            (cayley_sigma_from_x, "cayley input"),
            (cayley_x_from_sigma, "cayley inverse input"),
        ],
        ids=["forward", "inverse"],
    )
    def test_rejects_malformed_input(self, cayley, name, value, message):
        with pytest.raises(ValidationError, match=f"^{name} {message}"):
            cayley(value)

    def test_eigenvalue_at_minus_one_is_algebraic_loop(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])  # J-skew with eigenvalues +-1
        assert is_sharp_skew(x)
        with pytest.raises(AlgebraicLoopError):
            cayley_sigma_from_x(x)

    def test_unit_eigenvalue_is_algebraic_loop(self):
        with pytest.raises(AlgebraicLoopError):
            cayley_x_from_sigma(np.eye(4))

    def test_empty_matrices(self):
        assert cayley_sigma_from_x(np.zeros((0, 0))).shape == (0, 0)
        assert cayley_x_from_sigma(np.zeros((0, 0))).shape == (0, 0)


class TestGuardedSolve:
    def test_condition_cap(self):
        rhs = np.ones((2, 3))
        out = guarded_solve(np.diag([1.0, 2e-12]), rhs, "w")
        assert np.array_equal(out, np.diag([1.0, 5e11]) @ rhs)
        with pytest.raises(AlgebraicLoopError, match=r"w is singular .*2\.000e\+12 exceeds 1e\+12"):
            guarded_solve(np.diag([1.0, 5e-13]), rhs, "w")

    @pytest.mark.parametrize(
        "w",
        [np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]]), np.diag([1.0, 0.0, 3.0])],
        ids=["zero", "rank-one", "zero-pivot"],
    )
    def test_singular_matrix_is_algebraic_loop(self, w):
        with pytest.raises(AlgebraicLoopError, match="condition number inf"):
            guarded_solve(w, np.ones((len(w), 2)), "w")

    def test_non_finite_inverse_is_refused(self):
        with pytest.raises(AlgebraicLoopError):
            guarded_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones((2, 1)), "w")

    def test_matches_lapack_solve(self):
        rng = np.random.default_rng(47)
        for n in (1, 2, 5, 16, 40):
            w = rng.normal(size=(n, n)) + n * np.eye(n)
            rhs = rng.normal(size=(n, 7))
            oracle = np.linalg.solve(w, rhs)
            err = np.max(np.abs(guarded_solve(w, rhs, "w") - oracle))
            assert err <= 1e-12 * max(1.0, np.max(np.abs(oracle)))

    def test_empty_system(self):
        out = guarded_solve(np.zeros((0, 0)), np.zeros((0, 3)), "w")
        assert out.shape == (0, 3)


class TestMaxAbs:
    @pytest.mark.parametrize(
        "values, expected",
        [
            ([[-3.0, 2.0], [1.0, 0.5]], 3.0),
            ([2.0, -1.0], 2.0),
            ([np.inf, 1.0], np.inf),
            ([-np.inf, 1.0], np.inf),
            ([-np.inf, np.inf], np.inf),
            ([1.0, np.nan, -2.0], np.nan),
            ([np.nan, np.inf], np.nan),
        ],
    )
    def test_values(self, values, expected):
        out = max_abs(np.array(values))
        assert type(out) is float
        assert out == expected or (np.isnan(expected) and np.isnan(out))

    @pytest.mark.parametrize("values", [[-0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
    def test_zero_is_never_negative(self, values):
        out = max_abs(np.array(values))
        assert out == 0.0 and not np.signbit(out)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0)])
    def test_empty(self, shape):
        assert max_abs(np.zeros(shape)) == 0.0


class TestPartitionPermutation:
    def test_single_pair_pattern(self):
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        assert np.array_equal(build_partition_permutation(1, 1), expected)

    def test_regroups_stacked_quadratures(self):
        q = ["q1", "q2", "q3"]
        p = ["p1", "p2", "p3"]
        perm = build_partition_permutation(2, 1)
        labels = np.array(q + p, dtype=object)
        out = [labels[np.argmax(row)] for row in perm]
        assert out == ["q1", "q2", "p1", "p2", "q3", "p3"]

    def test_is_permutation(self):
        for m_a, m_b in [(0, 0), (0, 3), (2, 0), (1, 2), (3, 3)]:
            perm = build_partition_permutation(m_a, m_b)
            m = m_a + m_b
            assert perm.shape == (2 * m, 2 * m)
            assert np.array_equal(perm.sum(axis=0), np.ones(2 * m))
            assert np.array_equal(perm.sum(axis=1), np.ones(2 * m))
            assert np.array_equal(perm @ perm.T, np.eye(2 * m))

    def test_conjugates_skew_form_exactly(self):
        for m_a, m_b in [(0, 2), (1, 1), (2, 1), (3, 2)]:
            perm = build_partition_permutation(m_a, m_b)
            target = np.zeros((2 * (m_a + m_b),) * 2)
            target[: 2 * m_a, : 2 * m_a] = jmat(m_a)
            target[2 * m_a :, 2 * m_a :] = jmat(m_b)
            assert np.array_equal(perm @ jmat(m_a + m_b) @ perm.T, target)

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValidationError):
            build_partition_permutation(-1, 2)

    def test_rejects_a_size_that_is_not_an_integer(self):
        with pytest.raises(ValidationError, match="m_b must be a nonnegative integer"):
            build_partition_permutation(1, 1.5)


class TestQuadratureEmbeddings:
    def test_identity_scattering(self):
        assert np.array_equal(unitary_to_quadrature(np.eye(2)), np.eye(4))

    def test_phase_rotation(self):
        out = unitary_to_quadrature(np.array([[1j]]))
        assert np.array_equal(out, np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_action_matches_complex_arithmetic(self):
        rng = np.random.default_rng(51)
        s = random_unitary(rng, 3)
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        quad = unitary_to_quadrature(s)
        mapped = quad @ np.concatenate([u.real, u.imag])
        expected = np.concatenate([(s @ u).real, (s @ u).imag])
        assert np.allclose(mapped, expected, atol=1e-13)

    def test_result_is_orthogonal_symplectic(self):
        rng = np.random.default_rng(52)
        quad = unitary_to_quadrature(random_unitary(rng, 4))
        assert np.allclose(quad.T @ quad, np.eye(8), atol=1e-12)
        assert symplectic_defect(quad) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            unitary_to_quadrature(np.array([[1.0, 1.0], [0.0, 1.0]]))


def slot_list_special_svd(a: np.ndarray, rank_tol: float = 1e-10):
    """Reference special SVD: the slot-list construction, as (u, t, v, rank).

    Each ordinary-SVD index gets a (block, slot) target; the null directions
    beyond the 2q paired slots take the remaining positions in ascending
    order.
    """
    two_r, two_s = a.shape
    r, s = two_r // 2, two_s // 2
    q = min(r, s)
    d = min(two_r, two_s)
    if d == 0:
        return np.eye(two_r), np.zeros((two_r, two_s)), np.eye(two_s), 0
    u_plain, sing, vt_plain = np.linalg.svd(a)
    smax = float(sing[0])
    rank = int(np.count_nonzero(sing > rank_tol * smax)) if smax > 0.0 else 0
    head = (rank + 1) // 2
    tail = rank - head
    slots = [(0, j) for j in range(head)]
    slots += [(1, j) for j in range(tail)]
    slots += [(0, head + j) for j in range(q - head)]
    slots += [(1, tail + j) for j in range(q - tail)]
    t = np.zeros((two_r, two_s))
    row_order = np.full(two_r, -1, dtype=int)
    col_order = np.full(two_s, -1, dtype=int)
    for i, (blk, j) in enumerate(slots):
        tr = j if blk == 0 else r + j
        tc = j if blk == 0 else s + j
        row_order[i] = tr
        col_order[i] = tc
        if i < rank:
            t[tr, tc] = sing[i]
    if two_r > d:
        row_order[d:] = sorted(set(range(two_r)) - set(row_order[:d]))
    if two_s > d:
        col_order[d:] = sorted(set(range(two_s)) - set(col_order[:d]))
    u = np.empty((two_r, two_r))
    u[:, row_order] = u_plain
    v = np.empty((two_s, two_s))
    v[:, col_order] = vt_plain.T
    return u, t, v, rank


class TestSpecialSvd:
    def test_golden_block_diagonals(self):
        svd = special_svd(GOLDEN_COUPLING)
        assert svd.rank == 3
        assert np.allclose(
            svd.block1_diag(), [22.90899381, 9.25704701], atol=1e-6
        )
        assert np.allclose(svd.block2_diag(), [7.44883099, 0.0], atol=1e-6)

    def test_golden_reconstruction(self):
        svd = special_svd(GOLDEN_COUPLING)
        assert np.allclose(
            svd.u @ svd.t @ svd.v.T, GOLDEN_COUPLING, atol=1e-12
        )

    def test_factors_are_orthogonal(self):
        rng = np.random.default_rng(61)
        for r, s in [(1, 1), (2, 3), (3, 2), (4, 4)]:
            svd = special_svd(rng.normal(size=(2 * r, 2 * s)))
            assert np.allclose(svd.u.T @ svd.u, np.eye(2 * r), atol=1e-12)
            assert np.allclose(svd.v.T @ svd.v, np.eye(2 * s), atol=1e-12)

    def test_off_block_entries_are_zero(self):
        rng = np.random.default_rng(62)
        for r, s in [(2, 3), (3, 2)]:
            svd = special_svd(rng.normal(size=(2 * r, 2 * s)))
            t = svd.t.copy()
            t[:r, :s][np.diag_indices(min(r, s))] = 0.0
            t[r:, s:][np.diag_indices(min(r, s))] = 0.0
            assert np.max(np.abs(t)) == 0.0

    def test_rank_split_rule(self):
        rng = np.random.default_rng(63)
        for n_a, n_b in [(2, 3), (3, 2), (2, 2), (1, 4)]:
            q = min(n_a, n_b)
            for rank in range(0, 2 * q + 1):
                mat = random_coupling_of_rank(rng, n_a, n_b, rank)
                svd = special_svd(mat)
                assert svd.rank == rank
                head = (rank + 1) // 2
                b1 = svd.block1_diag()
                b2 = svd.block2_diag()
                assert np.count_nonzero(b1) == head
                assert np.count_nonzero(b2) == rank - head
                # nonzeros lead, zeros trail, values descending
                assert np.all(b1[:head] > 0) and np.all(b1[head:] == 0)
                assert np.all(np.diff(b1[:head]) <= 1e-12)
                assert len(b1) == len(b2) == q

    def test_reconstruction_after_flush(self):
        rng = np.random.default_rng(64)
        for _ in range(10):
            mat = random_coupling_of_rank(rng, 3, 2, 3)
            svd = special_svd(mat)
            scale = np.max(np.abs(mat))
            assert np.max(np.abs(svd.u @ svd.t @ svd.v.T - mat)) <= 1e-10 * scale

    def test_tiny_values_are_flushed(self):
        base = np.diag([5.0, 1e-14, 0.0, 0.0])
        svd = special_svd(base)
        assert svd.rank == 1
        assert np.count_nonzero(svd.t) == 1
        # flushed part bounds the reconstruction error
        assert np.max(np.abs(svd.u @ svd.t @ svd.v.T - base)) <= 2e-14

    def test_rank_tol_is_relative(self):
        base = np.diag([5.0, 1e-6, 1e-14, 0.0])
        assert special_svd(base).rank == 2
        assert special_svd(base, rank_tol=1e-3).rank == 1

    def test_zero_matrix(self):
        svd = special_svd(np.zeros((4, 6)))
        assert svd.rank == 0
        assert np.array_equal(svd.block1_diag(), np.zeros(2))
        assert np.array_equal(svd.block2_diag(), np.zeros(2))
        assert np.max(np.abs(svd.t)) == 0.0

    def test_rejects_odd_shapes(self):
        with pytest.raises(ValidationError):
            special_svd(np.ones((3, 4)))

    def test_matches_slot_list_oracle_bit_for_bit(self):
        rng = np.random.default_rng(65)
        shapes = [(0, 0), (0, 3), (2, 0), (1, 1), (1, 4), (4, 1), (2, 3),
                  (3, 2), (3, 3), (2, 5), (5, 3)]
        for n_a, n_b in shapes:
            for rank in range(2 * min(n_a, n_b) + 1):
                mat = random_coupling_of_rank(rng, n_a, n_b, rank)
                for rank_tol in (1e-10, 0.0, 0.3):
                    svd = special_svd(mat, rank_tol)
                    u, t, v, ref_rank = slot_list_special_svd(mat, rank_tol)
                    assert svd.rank == ref_rank, (n_a, n_b, rank, rank_tol)
                    for ours, ref in ((svd.u, u), (svd.t, t), (svd.v, v)):
                        assert ours.shape == ref.shape
                        assert ours.tobytes() == ref.tobytes(), (n_a, n_b, rank)
