import numpy as np
import pytest

import oracles
from lifelong_mc.datagen import NoiseSpec, apply_noise, gen_gaussian_lowrank, gen_mixture
from lifelong_mc.exact import (
    ABSORBED,
    REPRESENTED,
    BasisDictionary,
    CombinatorialBudgetError,
    ExactConfig,
    _SampledDictionary,
    exact_test,
    run_exact,
    sparse_represent,
    support_of,
)
from lifelong_mc.linalg import RankDeficientError, numerical_rank, orthonormalize, sample_indices


class TestExactTest:
    def test_zero_vector_always_fits(self):
        cfg = ExactConfig(d=4)
        assert exact_test(np.zeros((4, 0)), np.zeros(4), cfg)
        assert exact_test(np.random.default_rng(0).standard_normal((4, 2)), np.zeros(4), cfg)

    def test_empty_dictionary_fits_nothing_else(self):
        cfg = ExactConfig(d=4)
        assert not exact_test(np.zeros((4, 0)), np.ones(4), cfg)

    def test_in_span_accepted(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((8, 3))
        v = B @ np.array([1.0, -2.0, 0.5])
        assert exact_test(B, v, ExactConfig(d=8))

    def test_out_of_span_rejected(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((8, 3))
        v = rng.standard_normal(8)
        assert not exact_test(B, v, ExactConfig(d=8))

    def test_monte_carlo_separation(self):
        # in-span vectors always accepted, independent ones always rejected
        cfg = ExactConfig(d=12)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            B = rng.standard_normal((12, 5))
            v_in = B @ rng.standard_normal(5)
            v_out = rng.standard_normal(12)
            assert exact_test(B, v_in, cfg)
            assert not exact_test(B, v_out, cfg)


class TestBasisDictionary:
    def test_append_starts_counter_at_zero(self):
        d = BasisDictionary(5)
        d.append(np.arange(5.0))
        assert d.size == 1
        assert d.counters.tolist() == [0]

    def test_append_validates(self):
        d = BasisDictionary(5)
        with pytest.raises(ValueError):
            d.append(np.ones(4))
        with pytest.raises(ValueError):
            d.append(np.array([1.0, np.nan, 0, 0, 0]))

    def test_record_support_relative_threshold(self):
        d = BasisDictionary(3)
        for _ in range(3):
            d.append(np.random.default_rng(_).standard_normal(3))
        d.record_support(np.array([1.0, 1e-12, -0.5]), zero_tol=1e-8)
        assert d.counters.tolist() == [1, 0, 1]
        d.record_support(np.array([0.0, 2.0, 0.0]), zero_tol=1e-8)
        assert d.counters.tolist() == [1, 1, 1]

    def test_record_support_block_counts_each_column(self):
        rng = np.random.default_rng(5)
        block, single = BasisDictionary(4), BasisDictionary(4)
        for j in range(3):
            col = rng.standard_normal(4)
            block.append(col)
            single.append(col)
        C = np.array([[1.0, 0.0, 3.0, 0.0], [1e-12, 0.0, -2.0, 0.0], [0.5, 0.0, 0.0, 1.0]])
        block.record_support(C, zero_tol=1e-8)
        for j in range(C.shape[1]):
            single.record_support(C[:, j], zero_tol=1e-8)
        assert block.counters.tolist() == single.counters.tolist() == [2, 1, 2]
        with pytest.raises(ValueError):
            block.record_support(np.ones((2, 3)), zero_tol=1e-8)

    def test_orth_basis_tracks_span(self):
        d = BasisDictionary(6)
        rng = np.random.default_rng(4)
        cols = rng.standard_normal((6, 3))
        for j in range(3):
            d.append(cols[:, j])
        d.append(cols @ np.array([1.0, 1.0, 1.0]))  # dependent
        assert d.size == 4


class TestSampledDictionary:
    def test_factor_and_rank_match_the_primitives(self):
        # one SVD feeds both; the results must not move by a bit
        rng = np.random.default_rng(6)
        for B in (rng.standard_normal((9, 4)), np.zeros((9, 3)), np.zeros((9, 0)),
                  rng.standard_normal((9, 2)) @ rng.standard_normal((2, 5))):
            cache = _SampledDictionary(B)
            assert np.array_equal(cache.q, orthonormalize(B))
            assert cache.rank == numerical_rank(B)

    def test_block_residual_matches_columns(self):
        rng = np.random.default_rng(7)
        for k in (0, 3):
            cache = _SampledDictionary(rng.standard_normal((8, k)))
            V = rng.standard_normal((8, 5))
            V[:, 2] = 0.0
            per_column = [cache.residual(V[:, j]) for j in range(5)]
            assert isinstance(per_column[0], float)
            assert np.allclose(cache.residual(V), per_column, rtol=1e-13, atol=0.0)


class TestSupportOf:
    def test_hand_example(self):
        sup = support_of(np.array([0.0, 3.0, -1e-12, 0.2]), zero_tol=1e-8)
        assert sup.tolist() == [1, 3]

    def test_zero_vector(self):
        assert support_of(np.zeros(4), 1e-8).size == 0
        assert support_of(np.zeros(0), 1e-8).size == 0


class TestSparseRepresent:
    def test_singleton_match(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((10, 4))
        v = 2.5 * B[:, 2]
        sup, coeffs = sparse_represent(B, v, sparsity=1, zero_tol=1e-8)
        assert sup.tolist() == [2]
        assert coeffs[0] == pytest.approx(2.5)

    def test_needs_more_atoms_than_allowed(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((12, 6))
        v = B[:, 0] + B[:, 3] + B[:, 5]
        assert sparse_represent(B, v, sparsity=2, zero_tol=1e-8) is None
        sup, _ = sparse_represent(B, v, sparsity=3, zero_tol=1e-8)
        assert sup.tolist() == [0, 3, 5]

    def test_duplicate_atom_prefers_lexicographic_first(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((9, 5))
        B[:, 3] = B[:, 1]  # duplicate later
        v = 1.5 * B[:, 1]
        sup, _ = sparse_represent(B, v, sparsity=2, zero_tol=1e-8)
        assert sup.tolist() == [1]

    def test_zero_vector_empty_support(self):
        B = np.random.default_rng(8).standard_normal((6, 3))
        sup, coeffs = sparse_represent(B, np.zeros(6), sparsity=2, zero_tol=1e-8)
        assert sup.size == 0 and coeffs.size == 0

    def test_budget_exceeded_raises(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((10, 40))
        v = B[:, [0, 7, 15, 22, 31]] @ rng.standard_normal(5)
        with pytest.raises(CombinatorialBudgetError):
            sparse_represent(B, v, sparsity=5, zero_tol=1e-8, max_combinations=1000)

    def test_matches_bruteforce_oracle(self):
        # the production search uses screening and a unique-representation
        # shortcut; both must be invisible next to plain enumeration
        rng = np.random.default_rng(10)
        agree = 0
        for trial in range(250):
            d = int(rng.integers(4, 11))
            k = int(rng.integers(1, 9))
            sparsity = int(rng.integers(1, 4))
            B = rng.standard_normal((d, k))
            if k >= 3 and trial % 4 == 0:
                B[:, k - 1] = B[:, 0] * float(rng.uniform(0.5, 2.0))
            case = trial % 3
            if case == 0:
                size = int(rng.integers(1, min(sparsity, k) + 1))
                sup = np.sort(rng.choice(k, size=size, replace=False))
                coeffs = rng.uniform(0.5, 2.0, size=size) * rng.choice([-1.0, 1.0], size=size)
                v = B[:, sup] @ coeffs
            elif case == 1:
                v = rng.standard_normal(d)
            else:
                size = min(sparsity + 1, k)
                sup = np.sort(rng.choice(k, size=size, replace=False))
                v = B[:, sup] @ rng.uniform(0.5, 2.0, size=size)
            ours = sparse_represent(B, v, sparsity, zero_tol=1e-8)
            ref = oracles.first_sparse_support_bruteforce(B, v, sparsity, zero_tol=1e-8)
            if ours is None or ref is None:
                assert ours is None and ref is None
            else:
                assert ours[0].tolist() == ref[0].tolist()
                assert np.allclose(ours[1], ref[1], atol=1e-6)
                agree += 1
        assert agree > 50  # the sweep must actually exercise matches

    def test_validation(self):
        B = np.zeros((4, 2))
        with pytest.raises(ValueError):
            sparse_represent(B, np.zeros(4), sparsity=0, zero_tol=1e-8)
        with pytest.raises(ValueError):
            sparse_represent(np.zeros(4), np.zeros(4), sparsity=1, zero_tol=1e-8)


class TestRunExact:
    def test_noiseless_exact_recovery(self):
        inst = gen_gaussian_lowrank(40, 200, 5, seed=0)
        result, report = run_exact(inst.M, ExactConfig(d=20, seed=1), truth=(inst.L, []))
        assert report.frob_abs_error < 1e-9
        assert report.recovered_rank == 5
        assert result.outlier_indices == []
        assert report.support_exact is True

    def test_sparse_noise_outliers_identified(self):
        inst = gen_gaussian_lowrank(40, 200, 5, seed=2)
        noisy = apply_noise(inst, NoiseSpec("sparse_columns", s0=8), seed=3)
        result, report = run_exact(
            noisy.M, ExactConfig(d=25, seed=4), truth=(noisy.L, noisy.noise_support)
        )
        assert sorted(result.outlier_indices) == sorted(noisy.noise_support)
        assert report.support_exact is True
        assert report.frob_abs_error < 1e-9
        assert report.recovered_rank == 5

    def test_absorbed_partition_and_counters(self):
        inst = gen_gaussian_lowrank(30, 150, 4, seed=5)
        noisy = apply_noise(inst, NoiseSpec("sparse_columns", s0=6), seed=6)
        result, _ = run_exact(noisy.M, ExactConfig(d=20, seed=7))
        assert sorted(result.basis_indices + result.outlier_indices) == sorted(
            result.absorbed_indices
        )
        # counters are zero exactly on the outliers
        zero_at = [
            result.absorbed_indices[j]
            for j in np.flatnonzero(result.counters == 0)
        ]
        assert sorted(zero_at) == sorted(result.outlier_indices)

    def test_entry_budget_identity(self):
        inst = gen_gaussian_lowrank(30, 100, 4, seed=8)
        _, report = run_exact(inst.M, ExactConfig(d=15, seed=9))
        expected = 15 * 100 + (30 - 15) * report.columns_absorbed
        assert report.entries_sampled == expected

    def test_decisions_trace(self):
        inst = gen_gaussian_lowrank(20, 60, 3, seed=10)
        result, report = run_exact(inst.M, ExactConfig(d=10, seed=11))
        assert len(result.decisions) == 60
        assert set(result.decisions) <= {ABSORBED, REPRESENTED}
        assert result.decisions.count(ABSORBED) == report.columns_absorbed

    def test_undersampling_degrades_instead_of_crashing(self):
        # d below the true rank: the sampled dictionary saturates and the
        # completions go wrong, which the error report must show
        inst = gen_gaussian_lowrank(30, 100, 8, seed=12)
        _, report = run_exact(inst.M, ExactConfig(d=4, seed=13), truth=(inst.L, []))
        assert report.frob_abs_error > 1e-6

    def test_sparsity_run_recovers_mixture(self):
        mix = gen_mixture(40, per_subspace=50, n_subspaces=3, subspace_dim=2, seed=14)
        result, report = run_exact(
            mix.M, ExactConfig(d=12, sparsity=2, seed=15), truth=(mix.L, [])
        )
        assert report.frob_abs_error < 1e-9
        assert report.recovered_rank == 6
        assert result.outlier_indices == []

    def test_sparsity_at_dictionary_size_matches_plain_run(self):
        # with the budget at least as large as the dictionary ever gets, the
        # bounded test must reproduce the unbounded run decision for decision
        for seed in range(5):
            inst = gen_gaussian_lowrank(30, 120, 4, seed=seed)
            noisy = apply_noise(inst, NoiseSpec("sparse_columns", s0=5), seed=seed + 50)
            plain_res, plain_rep = run_exact(
                noisy.M, ExactConfig(d=20, seed=99), truth=(noisy.L, noisy.noise_support)
            )
            bounded_res, bounded_rep = run_exact(
                noisy.M,
                ExactConfig(d=20, sparsity=20, seed=99),
                truth=(noisy.L, noisy.noise_support),
            )
            assert plain_res.decisions == bounded_res.decisions
            assert plain_res.outlier_indices == bounded_res.outlier_indices
            assert np.allclose(plain_res.recovered, bounded_res.recovered, atol=1e-8)
            assert plain_rep.support_exact == bounded_rep.support_exact

    def test_counters_property_across_seeds(self):
        # every retained dictionary column earned support from at least one
        # represented column; every outlier earned none
        for seed in range(100):
            inst = gen_gaussian_lowrank(20, 80, 3, seed=seed)
            noisy = apply_noise(inst, NoiseSpec("sparse_columns", s0=4), seed=seed + 1)
            result, _ = run_exact(noisy.M, ExactConfig(d=12, seed=seed + 2))
            counters = result.counters
            for j, t in enumerate(result.absorbed_indices):
                if t in result.outlier_indices:
                    assert counters[j] == 0
                else:
                    assert counters[j] > 0

    def test_rank_deficient_sample_names_column_and_keeps_partial(self):
        # a sample set that misses rows 0 and 1 sees the two-column
        # dictionary as rank one, and the next in-span column must fail
        raised = None
        for seed in range(50):
            try:
                run_exact(_two_block_stream(seed), ExactConfig(d=4, seed=seed))
            except RankDeficientError as err:
                raised = err
                break
        assert raised is not None
        t = int(str(raised).split(":")[0].removeprefix("column "))
        result, report = raised.partial
        assert report.basis_size == 2
        assert len(result.decisions) == result.recovered.shape[1] == t
        assert report.entries_sampled == 4 * t + (10 - 4) * report.columns_absorbed

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExactConfig(d=0)
        with pytest.raises(ValueError):
            ExactConfig(d=5, sparsity=6)
        with pytest.raises(ValueError):
            ExactConfig(d=5, zero_tol=0.0)
        with pytest.raises(ValueError):
            run_exact(np.eye(4), ExactConfig(d=5))


def _two_block_stream(seed, m=10, n=40):
    """Unit columns mixing a direction on rows 0-1 with one on the other
    rows: a sample set that misses rows 0 and 1 sees a dictionary of two
    such columns as rank one. The first 12 columns lie on the second
    direction alone, so a failure comes after represented columns."""
    rng = np.random.default_rng(seed)
    U = np.zeros((m, 2))
    U[:2, 0] = rng.standard_normal(2)
    U[2:, 1] = rng.standard_normal(m - 2)
    W = rng.standard_normal((2, n))
    W[0, :12] = 0.0
    M = U @ W
    return M / np.linalg.norm(M, axis=0)


def _assert_matches_exact_reference(M, cfg):
    """run_exact against oracles.exact_reference: the same decisions,
    absorbed columns, counters, outliers and entries, recovered columns
    within 1e-12, and the same error at the same column. Returns the
    reference's (decisions, absorbed, error)."""
    decisions, absorbed, counters, entries, estimates, error = oracles.exact_reference(M, cfg)
    if error is None:
        result, report = run_exact(M, cfg)
    else:
        with pytest.raises(type(error)) as info:
            run_exact(M, cfg)
        assert type(info.value) is type(error)
        assert str(info.value) == str(error)
        if not isinstance(error, RankDeficientError):
            return decisions, absorbed, error
        result, report = info.value.partial
    assert result.decisions == decisions
    assert result.absorbed_indices == absorbed
    assert result.counters.tolist() == counters.tolist()
    assert result.outlier_indices == [absorbed[j] for j in np.flatnonzero(counters == 0)]
    assert report.entries_sampled == entries
    assert result.recovered.shape == estimates.shape
    assert np.max(np.abs(result.recovered - estimates), initial=0.0) <= 1e-12
    return decisions, absorbed, error


def _longest_epoch(absorbed, n):
    edges = [-1] + list(absorbed) + [n]
    return max(b - a - 1 for a, b in zip(edges, edges[1:]))


class TestExactReference:
    """The block-at-a-time pass of run_exact against the column-at-a-time
    reference loop it replaced."""

    @pytest.mark.parametrize("r", [3, 6])
    def test_sparse_noise_grid(self, r):
        # d below, at and above the rank, each with s0 at its limit d - r - 1
        longest = 0
        for d in (r - 2, r, r + 1, r + 6, 20):
            for seed in range(6):
                inst = gen_gaussian_lowrank(30, 150, r, seed=seed)
                s0 = max(0, d - r - 1)
                if s0:
                    inst = apply_noise(inst, NoiseSpec("sparse_columns", s0=s0), seed=seed + 40)
                _, absorbed, error = _assert_matches_exact_reference(
                    inst.M, ExactConfig(d=d, seed=seed + 80)
                )
                assert error is None
                longest = max(longest, _longest_epoch(absorbed, 150))
        assert longest > 16

    def test_zero_columns(self):
        for seed in range(10):
            inst = gen_gaussian_lowrank(20, 90, 3, seed=seed)
            inst = apply_noise(inst, NoiseSpec("sparse_columns", s0=4), seed=seed + 40)
            M = inst.M.copy()
            # the first column meets an empty dictionary
            M[:, [0, 1, 9, 10, 11, 40, 89]] = 0.0
            decisions, _, error = _assert_matches_exact_reference(M, ExactConfig(d=9, seed=seed))
            assert error is None
            assert decisions[0] == REPRESENTED

    def test_rank_deficient_runs(self):
        failures = 0
        for seed in range(30):
            _, _, error = _assert_matches_exact_reference(
                _two_block_stream(seed), ExactConfig(d=4, seed=seed)
            )
            failures += isinstance(error, RankDeficientError)
        assert 0 < failures < 30

    @pytest.mark.parametrize("sampled_again", [True, False])
    def test_nan_right_after_an_absorption(self, sampled_again):
        # the NaN sits on a row the epoch that ends at the absorption read,
        # in a column the clean stream represents; the next sample set does
        # or does not read that row again
        m, n, d = 30, 120, 12
        placed = 0
        for seed in range(20):
            inst = gen_gaussian_lowrank(m, n, 4, seed=seed)
            inst = apply_noise(inst, NoiseSpec("sparse_columns", s0=5), seed=seed + 40)
            cfg = ExactConfig(d=d, seed=seed + 7)
            decisions, absorbed = oracles.exact_reference(inst.M, cfg)[:2]
            rng = np.random.default_rng(cfg.seed)
            draws = [sample_indices(m, d, False, rng).indices for _ in range(len(absorbed) + 1)]
            for j, a in enumerate(absorbed):
                old, new = set(draws[j].tolist()), set(draws[j + 1].tolist())
                rows = sorted(old & new) if sampled_again else sorted(old - new)
                if a + 1 < n and decisions[a + 1] == REPRESENTED and rows:
                    break
            else:
                continue
            M = inst.M.copy()
            M[rows[0], a + 1] = np.nan
            _, _, error = _assert_matches_exact_reference(M, cfg)
            if sampled_again:
                assert str(error) == f"column {a + 1}: non-finite entry read"
            else:
                assert error is None
            placed += 1
        assert placed >= 10
