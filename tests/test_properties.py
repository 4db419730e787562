"""Cross-module invariants checked with randomized inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_mc.datagen import NoiseSpec, apply_noise, gen_gaussian_lowrank
from lifelong_mc.exact import ExactConfig, run_exact
from lifelong_mc.linalg import numerical_rank, orthonormalize, project_residual
from lifelong_mc.report import frobenius_error
from lifelong_mc.tracker import TrackerConfig, run_stream


class TestFrobeniusError:
    def test_identical_is_zero(self):
        A = np.random.default_rng(0).standard_normal((5, 7))
        rel, ab = frobenius_error(A, A)
        assert rel == 0.0 and ab == 0.0

    def test_excluded_columns_ignored(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 7))
        B = A.copy()
        B[:, 3] += 100.0
        rel, ab = frobenius_error(B, A, exclude_cols=[3])
        assert ab == 0.0
        rel_all, _ = frobenius_error(B, A)
        assert rel_all > 1.0

    def test_zero_truth_conventions(self):
        Z = np.zeros((3, 2))
        assert frobenius_error(Z, Z) == (0.0, 0.0)
        rel, ab = frobenius_error(np.ones((3, 2)), Z)
        assert rel == float("inf") and ab > 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_error(np.zeros((2, 2)), np.zeros((2, 3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((4, 6))
        B = rng.standard_normal((4, 6))
        rel1, ab1 = frobenius_error(A, B)
        rel2, ab2 = frobenius_error(3 * A, 3 * B)
        assert rel2 == pytest.approx(rel1, rel=1e-12)
        assert ab2 == pytest.approx(3 * ab1, rel=1e-12)


class TestStreamInvariants:
    @given(
        st.integers(0, 2**31),
        st.integers(1, 4),
        st.sampled_from([0.3, 0.5, 0.8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_tracker_budget_and_basis(self, seed, r, frac):
        m, n = 24, 40
        d = max(r + 1, int(frac * m))
        inst = gen_gaussian_lowrank(m, n, r, seed=seed)
        res = run_stream(inst.M, TrackerConfig(d=d, seed=seed + 1), truth=inst.L)
        rep = res.report
        assert rep.entries_sampled == d * n + (m - d) * rep.columns_absorbed
        assert rep.basis_size <= r
        assert res.basis.shape == (m, rep.basis_size)
        k = rep.basis_size
        assert np.allclose(res.basis.T @ res.basis, np.eye(k), atol=1e-9)
        assert len(res.completions) == n

    @given(st.integers(0, 2**31), st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_exact_outliers_subset_of_absorbed(self, seed, s0):
        inst = gen_gaussian_lowrank(20, 50, 3, seed=seed)
        noisy = apply_noise(inst, NoiseSpec("sparse_columns", s0=s0), seed=seed + 1)
        result, rep = run_exact(
            noisy.M, ExactConfig(d=14, seed=seed + 2),
            truth=(noisy.L, noisy.noise_support),
        )
        assert set(result.outlier_indices) <= set(result.absorbed_indices)
        assert rep.entries_sampled == 14 * 50 + (20 - 14) * rep.columns_absorbed
        # retained basis spans the recovery of every represented column
        span = orthonormalize(result.dictionary.raw)
        for t in range(50):
            if result.decisions[t] == "represented":
                col = result.recovered[:, t]
                assert project_residual(col, span) < 1e-6 * max(
                    1.0, np.linalg.norm(col)
                )

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_recovered_rank_never_exceeds_dictionary(self, seed):
        inst = gen_gaussian_lowrank(18, 40, 2, seed=seed)
        noisy = apply_noise(inst, NoiseSpec("sparse_columns", s0=3), seed=seed + 5)
        result, rep = run_exact(noisy.M, ExactConfig(d=12, seed=seed + 6))
        assert rep.recovered_rank <= result.dictionary.size
        assert rep.recovered_rank <= numerical_rank(result.dictionary.raw)


class TestNonFiniteInput:
    @given(
        st.integers(0, 2**31),
        st.integers(0, 39),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.sampled_from(["tracker", "exact", "mixture"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_non_finite_column_always_raises(self, seed, t, bad, algorithm):
        inst = gen_gaussian_lowrank(20, 40, 2, seed=seed)
        M = inst.M.copy()
        M[:, t] = bad
        with pytest.raises(ValueError, match=rf"column {t}\b"):
            if algorithm == "tracker":
                run_stream(M, TrackerConfig(d=10, seed=seed + 1))
            else:
                sparsity = 2 if algorithm == "mixture" else None
                run_exact(M, ExactConfig(d=10, sparsity=sparsity, seed=seed + 1))


class TestNoiseInvariants:
    @given(st.integers(0, 2**31), st.sampled_from([1e-4, 1e-3, 1e-2, 0.1]))
    @settings(max_examples=30, deadline=None)
    def test_bounded_noise_never_exceeds_eps(self, seed, eps):
        inst = gen_gaussian_lowrank(15, 30, 2, seed=seed)
        noisy = apply_noise(inst, NoiseSpec("bounded", eps=eps), seed=seed + 1)
        moved = np.linalg.norm(noisy.M - noisy.L, axis=0)
        assert np.all(moved <= eps + 1e-12)

    @given(st.integers(0, 2**31), st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_sparse_support_size_and_bounds(self, seed, s0):
        inst = gen_gaussian_lowrank(15, 30, 2, seed=seed)
        noisy = apply_noise(inst, NoiseSpec("sparse_columns", s0=s0), seed=seed + 1)
        assert len(noisy.noise_support) == s0
        assert all(0 <= p < 30 for p in noisy.noise_support)
        untouched = sorted(set(range(30)) - set(noisy.noise_support))
        assert np.array_equal(noisy.M[:, untouched], noisy.L[:, untouched])
