import numpy as np
import pytest

import oracles
from lifelong_mc.datagen import NoiseSpec, apply_noise, gen_cumulative, gen_gaussian_lowrank
from lifelong_mc.linalg import IndexSet, RankDeficientError, orthonormalize
from lifelong_mc.tracker import (
    ABSORBED,
    REPRESENTED,
    TrackerConfig,
    TrackerState,
    process_column,
    residual_threshold,
    run_stream,
)


class TestThreshold:
    def test_frozen_value(self):
        # d = m and one basis column: threshold is sqrt(noise_level)
        cfg = TrackerConfig(d=16, noise_level=0.25)
        assert residual_threshold(1, cfg, m=16) == pytest.approx(0.5)

    def test_zero_cases(self):
        cfg = TrackerConfig(d=8, noise_level=0.0)
        assert residual_threshold(3, cfg, m=20) == 0.0
        cfg = TrackerConfig(d=8, noise_level=0.1)
        assert residual_threshold(0, cfg, m=20) == 0.0

    def test_scale_is_linear(self):
        lo = TrackerConfig(d=10, noise_level=0.01, threshold_scale=1.0)
        hi = TrackerConfig(d=10, noise_level=0.01, threshold_scale=2.0)
        assert residual_threshold(4, hi, 40) == pytest.approx(
            2 * residual_threshold(4, lo, 40)
        )

    def test_growth_in_basis_size(self):
        cfg = TrackerConfig(d=10, noise_level=0.01)
        values = [residual_threshold(k, cfg, 40) for k in range(5)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestProcessColumn:
    def test_first_column_absorbed_and_fully_read(self):
        cfg = TrackerConfig(d=4, seed=0)
        state = TrackerState(10, cfg)
        col = np.random.default_rng(1).standard_normal(10)
        col /= np.linalg.norm(col)
        requested = []

        def oracle(ix):
            requested.append(np.array(ix))
            return col[ix]

        comp = process_column(state, oracle, cfg)
        assert comp.decision == ABSORBED
        assert state.basis_size == 1
        assert np.allclose(comp.estimate, col)
        # first call is the d samples, second the complement
        assert len(requested) == 2
        assert len(requested[0]) == 4
        assert sum(len(r) for r in requested) >= 10

    def test_non_finite_full_read_raises(self):
        # finite on the sample set, infinite elsewhere: caught on absorption
        cfg = TrackerConfig(d=4, seed=0)
        state = TrackerState(10, cfg)
        col = np.full(10, np.inf)
        col[state.omega.indices] = 0.5
        with pytest.raises(ValueError, match=r"column 0\b"):
            process_column(state, lambda ix: col[ix], cfg)

    def test_in_span_column_not_read_fully(self):
        cfg = TrackerConfig(d=6, seed=3)
        state = TrackerState(12, cfg)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(12)
        u /= np.linalg.norm(u)
        process_column(state, lambda ix: u[ix], cfg)
        calls = []

        def oracle(ix):
            calls.append(np.array(ix))
            return (-u)[ix]

        comp = process_column(state, oracle, cfg)
        assert comp.decision == REPRESENTED
        assert len(calls) == 1
        assert len(calls[0]) == 6
        assert np.allclose(comp.estimate, -u, atol=1e-9)

    def test_resample_only_after_absorb(self):
        cfg = TrackerConfig(d=5, seed=11)
        state = TrackerState(30, cfg)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(30)
        u /= np.linalg.norm(u)
        before = state.omega.indices.copy()
        process_column(state, lambda ix: u[ix], cfg)  # absorbed
        after_absorb = state.omega.indices.copy()
        assert not np.array_equal(before, after_absorb)
        assert state.resample_events == 1
        process_column(state, lambda ix: u[ix], cfg)  # represented
        assert np.array_equal(state.omega.indices, after_absorb)
        assert state.resample_events == 1

    def test_duplicate_samples_can_defeat_completion(self):
        # a doubled index makes the sampled basis rank-deficient while the
        # duplicated observation still looks in-span
        cfg = TrackerConfig(d=2, seed=0)
        state = TrackerState(6, cfg)
        state.basis = orthonormalize(np.random.default_rng(5).standard_normal((6, 2)))
        state.omega = IndexSet(np.array([3, 3]), m=6, with_replacement=True)
        col = state.basis @ np.array([1.0, 2.0])
        with pytest.raises(RankDeficientError):
            process_column(state, lambda ix: col[ix], cfg)

    def test_decision_matches_threshold_comparison(self):
        inst = gen_gaussian_lowrank(40, 120, 4, seed=2)
        noisy = apply_noise(inst, NoiseSpec("bounded", eps=1e-3), seed=3)
        cfg = TrackerConfig(d=25, noise_level=1e-3, seed=4)
        res = run_stream(noisy.M, cfg)
        for comp in res.completions:
            expected = ABSORBED if comp.residual > comp.threshold else REPRESENTED
            assert comp.decision == expected


class TestRunStream:
    def test_noiseless_exact_recovery(self):
        inst = gen_gaussian_lowrank(50, 300, 5, seed=0)
        cfg = TrackerConfig(d=25, seed=1)
        res = run_stream(inst.M, cfg, truth=inst.L)
        assert res.report.basis_size == 5
        assert res.report.frob_abs_error < 1e-9
        assert res.report.recovered_rank == 5

    def test_entry_budget_identity(self):
        inst = gen_gaussian_lowrank(30, 150, 4, seed=5)
        cfg = TrackerConfig(d=12, seed=6)
        res = run_stream(inst.M, cfg)
        expected = 12 * 150 + (30 - 12) * res.report.columns_absorbed
        assert res.report.entries_sampled == expected

    def test_basis_never_exceeds_rank_noiseless(self):
        for seed in range(8):
            inst = gen_gaussian_lowrank(24, 120, 3, seed=seed)
            cfg = TrackerConfig(d=12, seed=seed + 100)
            res = run_stream(inst.M, cfg)
            assert res.report.basis_size <= 3

    def test_bounded_noise_error_within_stated_envelope(self):
        # per-column error of represented columns stays under
        # 9 (m/d) sqrt(k * noise_level) with k the basis size at that time
        m, d, eps = 60, 40, 1e-3
        inst = gen_gaussian_lowrank(m, 200, 3, seed=9)
        noisy = apply_noise(inst, NoiseSpec("bounded", eps=eps), seed=10)
        cfg = TrackerConfig(d=d, noise_level=eps, seed=11)
        res = run_stream(noisy.M, cfg, truth=inst.L)
        errors = res.report.per_column_error
        for t, comp in enumerate(res.completions):
            if comp.decision != REPRESENTED or comp.basis_size == 0:
                continue
            bound = 9 * (m / d) * np.sqrt(comp.basis_size * eps)
            assert errors[t] <= bound

    def test_strict_mode_rejects_bad_norms(self):
        M = np.random.default_rng(0).standard_normal((10, 5))
        M /= np.linalg.norm(M, axis=0)
        M[:, 2] *= 3.0
        cfg = TrackerConfig(d=5)
        with pytest.raises(ValueError, match="column 2"):
            run_stream(M, cfg)

    @pytest.mark.parametrize("norm_mode", ["strict", "lenient"])
    @pytest.mark.filterwarnings("error")
    def test_infinite_column_rejected_as_non_finite(self, norm_mode):
        inst = gen_gaussian_lowrank(20, 30, 3, seed=1)
        M = inst.M.copy()
        M[:, 7] = np.inf
        cfg = TrackerConfig(d=10, norm_mode=norm_mode)
        with pytest.raises(ValueError, match=r"^column 7: non-finite entry read$"):
            run_stream(M, cfg)

    def test_lenient_mode_rescales(self):
        inst = gen_gaussian_lowrank(20, 60, 2, seed=3)
        M = inst.M * 2.5
        cfg = TrackerConfig(d=10, seed=4, norm_mode="lenient")
        res = run_stream(M, cfg, truth=inst.L)
        assert res.report.frob_abs_error < 1e-9

    def test_absorbed_columns_recovered_verbatim(self):
        inst = gen_gaussian_lowrank(25, 80, 4, seed=12)
        cfg = TrackerConfig(d=12, seed=13)
        res = run_stream(inst.M, cfg)
        for t, comp in enumerate(res.completions):
            if comp.decision == ABSORBED:
                assert np.array_equal(res.recovered[:, t], inst.M[:, t])

    def test_rank_deficient_sample_names_column_and_keeps_partial(self):
        # small m with replacement: eventually a duplicated pair of sample
        # indices meets a two-column basis and completion must fail loudly
        raised = None
        for seed in range(500):
            inst = gen_gaussian_lowrank(6, 40, 2, seed=seed)
            cfg = TrackerConfig(d=2, seed=seed)
            try:
                run_stream(inst.M, cfg)
            except RankDeficientError as err:
                raised = err
                break
        assert raised is not None
        assert "column" in str(raised)
        assert raised.partial.report.basis_size == 2

    def test_dedup_option_keeps_indices_distinct(self):
        cfg = TrackerConfig(d=6, seed=0, dedup_samples=True)
        state = TrackerState(8, cfg)
        for _ in range(20):
            state.resample(cfg)
            idx = state.omega.indices
            assert len(set(idx.tolist())) == len(idx)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(d=0)
        with pytest.raises(ValueError):
            TrackerConfig(d=5, noise_level=-0.1)
        with pytest.raises(ValueError):
            TrackerConfig(d=5, norm_mode="loose")
        cfg = TrackerConfig(d=50)
        with pytest.raises(ValueError):
            run_stream(np.eye(10), cfg)


def _assert_matches_reference(M, cfg):
    """run_stream against oracles.stream_reference: the same decisions,
    residuals, thresholds and estimates, bit for bit, and a rank-deficient
    completion at the same column. Returns that column or None."""
    decisions, residuals, thresholds, estimates, failed_at = oracles.stream_reference(M, cfg)
    if failed_at is None:
        res = run_stream(M, cfg)
    else:
        with pytest.raises(RankDeficientError, match=rf"^column {failed_at}:") as info:
            run_stream(M, cfg)
        res = info.value.partial
    assert [c.decision for c in res.completions] == decisions
    assert [c.residual for c in res.completions] == residuals
    assert [c.threshold for c in res.completions] == thresholds
    assert np.array_equal(res.recovered, estimates)
    return failed_at


class TestStreamReference:
    @pytest.mark.parametrize("noise_level", [0.0, 1e-3, 0.3])
    @pytest.mark.parametrize("generator", ["gaussian", "cumulative"])
    def test_matches_reference_loop(self, generator, noise_level):
        for seed in range(5):
            if generator == "gaussian":
                inst = gen_gaussian_lowrank(30, 150, 4, seed=seed)
            else:
                inst = gen_cumulative(30, seed, widths=(30, 30, 30, 60))
            if noise_level:
                inst = apply_noise(inst, NoiseSpec("bounded", eps=noise_level), seed=seed + 50)
            cfg = TrackerConfig(d=12, noise_level=noise_level, seed=seed + 100)
            assert _assert_matches_reference(inst.M, cfg) is None

    def test_rank_deficient_at_the_same_column(self):
        # d=2 with replacement over m=8 rows: a doubled index meets the
        # two-column basis on some of these seeds
        failures = 0
        for seed in range(12):
            inst = gen_gaussian_lowrank(8, 60, 2, seed=seed)
            cfg = TrackerConfig(d=2, seed=seed)
            failures += _assert_matches_reference(inst.M, cfg) is not None
        assert 0 < failures < 12
