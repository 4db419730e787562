import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lifelong_mc.linalg import (
    IndexSet,
    RankDeficientError,
    extend_basis,
    incoherence,
    numerical_rank,
    orthonormalize,
    principal_angle,
    project_residual,
    sample_indices,
    subsampled_complete,
)


def rng_matrix(seed, m, n):
    return np.random.default_rng(seed).standard_normal((m, n))


class TestOrthonormalize:
    def test_two_vectors_frozen(self):
        # [(1,1),(1,0)] orthonormalizes to [(1,1)/sqrt2, (1,-1)/sqrt2] up to sign
        A = np.array([[1.0, 1.0], [1.0, 0.0]])
        Q = orthonormalize(A)
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        for j in range(2):
            assert min(
                np.linalg.norm(Q[:, j] - expected[:, j]),
                np.linalg.norm(Q[:, j] + expected[:, j]),
            ) < 1e-12

    def test_empty_and_zero(self):
        assert orthonormalize(np.zeros((4, 0))).shape == (4, 0)
        assert orthonormalize(np.zeros((4, 3))).shape == (4, 0)

    def test_dependent_column_dropped(self):
        A = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        Q = orthonormalize(A)
        assert Q.shape == (3, 1)

    def test_matches_reference(self):
        for seed in range(20):
            A = rng_matrix(seed, 12, 5)
            Q = orthonormalize(A)
            R = oracles.gram_schmidt(A)
            assert Q.shape == R.shape
            # same span: projections onto each other are identities
            assert np.linalg.norm(Q - R @ (R.T @ Q)) < 1e-9
            assert np.linalg.norm(R - Q @ (Q.T @ R)) < 1e-9

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_gram_identity(self, seed, m, n):
        Q = orthonormalize(rng_matrix(seed, m, n))
        k = Q.shape[1]
        assert k <= min(m, n)
        assert np.allclose(Q.T @ Q, np.eye(k), atol=1e-10)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_span_preserved(self, seed, m):
        A = rng_matrix(seed, m, max(1, m - 1))
        Q = orthonormalize(A)
        # every original column lies in the span of Q
        resid = A - Q @ (Q.T @ A)
        assert np.linalg.norm(resid) < 1e-8 * max(np.linalg.norm(A), 1.0)


class TestExtendBasis:
    def test_appends_unit_residual_direction(self):
        basis = np.array([[1.0], [0.0], [0.0]])
        new = extend_basis(basis, np.array([1.0, 1.0, 0.0]))
        assert new.shape == (3, 2)
        assert np.allclose(new.T @ new, np.eye(2), atol=1e-12)
        assert abs(abs(new[1, 1]) - 1.0) < 1e-12

    def test_existing_columns_untouched(self):
        basis = orthonormalize(rng_matrix(3, 8, 3))
        new = extend_basis(basis, rng_matrix(4, 8, 1)[:, 0])
        assert np.array_equal(new[:, :3], basis)

    def test_in_span_vector_leaves_basis_alone(self):
        basis = orthonormalize(rng_matrix(5, 6, 2))
        v = basis @ np.array([2.0, -1.0])
        new = extend_basis(basis, v)
        assert new.shape == basis.shape

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10))
    @settings(max_examples=50, deadline=None)
    def test_stays_orthonormal(self, seed, m):
        rng = np.random.default_rng(seed)
        basis = np.zeros((m, 0))
        for _ in range(m + 2):
            basis = extend_basis(basis, rng.standard_normal(m))
            k = basis.shape[1]
            assert np.allclose(basis.T @ basis, np.eye(k), atol=1e-9)
        assert basis.shape[1] <= m


class TestProjectResidual:
    def test_matches_normal_equations(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            rows = rng.standard_normal((9, 4))
            v = rng.standard_normal(9)
            ours = project_residual(v, rows)
            ref = oracles.residual_normal_equations(rows, v)
            assert abs(ours - ref) < 1e-8

    def test_empty_basis_gives_norm(self):
        v = np.array([3.0, 4.0])
        assert project_residual(v, np.zeros((2, 0))) == pytest.approx(5.0)

    def test_in_span_is_zero(self):
        rows = rng_matrix(1, 7, 3)
        v = rows @ np.array([1.0, 2.0, 3.0])
        assert project_residual(v, rows) < 1e-10


class TestSubsampledComplete:
    def test_matches_dense_pinv(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            basis = orthonormalize(rng.standard_normal((15, 4)))
            rows = rng.choice(15, size=9, replace=False)
            coeffs = rng.standard_normal(4)
            v = basis @ coeffs
            ours = subsampled_complete(basis, basis[rows], v[rows])
            ref = oracles.complete_dense_pinv(basis, basis[rows], v[rows])
            assert np.linalg.norm(ours - ref) < 1e-9
            assert np.linalg.norm(ours - v) < 1e-9

    def test_rank_deficient_sample_raises(self):
        basis = np.zeros((6, 2))
        basis[0, 0] = 1.0
        basis[1, 1] = 1.0
        # sampled rows miss the second coordinate entirely
        rows = basis[[0, 2, 3]]
        with pytest.raises(RankDeficientError):
            subsampled_complete(basis, rows, np.zeros(3))

    def test_duplicate_rows_allowed(self):
        # with-replacement sampling repeats rows; the LS system keeps them
        basis = orthonormalize(rng_matrix(2, 10, 3))
        v = basis @ np.array([1.0, -2.0, 0.5])
        idx = np.array([0, 0, 3, 5, 7, 7])
        out = subsampled_complete(basis, basis[idx], v[idx])
        assert np.linalg.norm(out - v) < 1e-9


class TestSampleIndices:
    def test_without_replacement_distinct(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = sample_indices(20, 12, with_replacement=False, rng=rng)
            assert len(set(s.indices.tolist())) == 12
            assert s.indices.min() >= 0 and s.indices.max() < 20

    def test_with_replacement_can_repeat(self):
        rng = np.random.default_rng(1)
        seen_repeat = False
        for _ in range(200):
            s = sample_indices(10, 8, with_replacement=True, rng=rng)
            assert len(s.indices) == 8
            if len(set(s.indices.tolist())) < 8:
                seen_repeat = True
        assert seen_repeat

    def test_dedup_shrinks_to_distinct(self):
        rng = np.random.default_rng(2)
        s = sample_indices(5, 5, with_replacement=True, rng=rng, dedup=True)
        assert len(set(s.indices.tolist())) == len(s.indices)

    def test_bad_sizes_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            sample_indices(5, 6, with_replacement=False, rng=rng)
        with pytest.raises(ValueError):
            sample_indices(5, 0, with_replacement=True, rng=rng)

    def test_draws_are_the_generator_draws(self):
        # the index set wraps the raw draw unchanged, with no second pass
        s = sample_indices(20, 12, with_replacement=False, rng=np.random.default_rng(4))
        ref = np.random.default_rng(4).choice(20, size=12, replace=False)
        assert s.indices.dtype == np.intp and np.array_equal(s.indices, ref)
        s = sample_indices(10, 8, with_replacement=True, rng=np.random.default_rng(5))
        assert np.array_equal(s.indices, np.random.default_rng(5).integers(0, 10, size=8))
        assert s.with_replacement and s.m == 10

    def test_user_index_sets_are_still_checked(self):
        with pytest.raises(ValueError):
            IndexSet(np.array([0, 5]), 5)
        with pytest.raises(ValueError):
            IndexSet(np.array([1, 1]), 5)
        assert len(IndexSet(np.array([1, 1]), 5, with_replacement=True)) == 2


class TestPrincipalAngle:
    def test_identical_spans_zero(self):
        Q = orthonormalize(rng_matrix(0, 8, 3))
        assert principal_angle(Q, Q) < 1e-7

    def test_orthogonal_spans_right_angle(self):
        U = np.zeros((4, 1))
        U[0, 0] = 1.0
        V = np.zeros((4, 1))
        V[1, 0] = 1.0
        assert principal_angle(U, V) == pytest.approx(np.pi / 2)

    def test_known_plane_angle(self):
        # rotate e1 by 30 degrees inside the (e1,e2) plane
        theta = np.pi / 6
        U = np.array([[1.0], [0.0]])
        V = np.array([[np.cos(theta)], [np.sin(theta)]])
        assert principal_angle(U, V) == pytest.approx(theta, abs=1e-12)

    def test_wider_u_gives_right_angle(self):
        U = orthonormalize(rng_matrix(4, 6, 4))
        V = orthonormalize(rng_matrix(5, 6, 2))
        assert principal_angle(U, V) == pytest.approx(np.pi / 2)

    def test_subspace_containment_zero(self):
        V = orthonormalize(rng_matrix(6, 9, 4))
        U = V[:, :2]
        assert principal_angle(U, V) < 1e-7

    def test_matches_definition(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            U = orthonormalize(rng.standard_normal((10, 3)))
            V = orthonormalize(rng.standard_normal((10, 5)))
            assert principal_angle(U, V) == pytest.approx(
                oracles.principal_angle_definition(U, V), abs=1e-10
            )


class TestIncoherence:
    def test_standard_basis_is_maximal(self):
        U = np.eye(6)[:, :2]
        assert incoherence(U) == pytest.approx(3.0)  # m/r = 6/2

    def test_flat_vector_is_minimal(self):
        U = np.full((8, 1), 1 / np.sqrt(8))
        assert incoherence(U) == pytest.approx(1.0)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            incoherence(np.ones((4, 2)))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_range(self, seed, m, r):
        r = min(r, m)
        U = orthonormalize(rng_matrix(seed, m, r))
        if U.shape[1] != r:
            return
        mu = incoherence(U)
        assert 1.0 - 1e-9 <= mu <= m / r + 1e-9


class TestNumericalRank:
    def test_zero_and_empty(self):
        assert numerical_rank(np.zeros((4, 3))) == 0
        assert numerical_rank(np.zeros((4, 0))) == 0

    def test_known_rank(self):
        A = rng_matrix(0, 8, 3) @ rng_matrix(1, 3, 6)
        assert numerical_rank(A) == 3

    def test_near_dependence_counted_out(self):
        A = np.column_stack([np.ones(5), np.ones(5) * (1 + 1e-14)])
        assert numerical_rank(A) == 1
