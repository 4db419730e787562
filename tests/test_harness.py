import json

import numpy as np
import pytest

from lifelong_mc.datagen import NoiseSpec, apply_noise, load_matrix, save_matrix
from lifelong_mc.harness import (
    RunConfig,
    SweepGrid,
    cmd_compare_mixture,
    cmd_gen,
    cmd_run,
    cmd_sweep,
    make_instance,
    metric_success,
    mix_seed,
    run_single,
    thread_cap,
)
from lifelong_mc.report import RunReport


def read_csv(path):
    comments = {}
    rows = []
    header = None
    for line in open(path).read().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            comments[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return comments, header, rows


class TestSeedMixing:
    def test_frozen_values(self):
        # the scheme is part of the reproducibility contract; these values
        # must never change
        assert mix_seed(0) == 16294208416658607535
        assert mix_seed(0, 1) == 627405149472732430
        assert mix_seed(42, 3, 7) == 12335244430711630163
        assert mix_seed(2**63, 1, 2, 3) == 1648066886176156614

    def test_order_sensitivity(self):
        assert mix_seed(5, 1, 2) != mix_seed(5, 2, 1)
        assert mix_seed(5, 1) != mix_seed(6, 1)

    def test_spread(self):
        seen = {mix_seed(0, i) for i in range(1000)}
        assert len(seen) == 1000


class TestThreadCap:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("LIFELONG_MC_THREADS", raising=False)
        assert thread_cap() == 1
        assert thread_cap(8) == 1

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("LIFELONG_MC_THREADS", "4")
        assert thread_cap() == 4
        assert thread_cap(2) == 2
        assert thread_cap(16) == 4

    def test_bad_values(self, monkeypatch):
        monkeypatch.setenv("LIFELONG_MC_THREADS", "zero")
        with pytest.raises(ValueError):
            thread_cap()
        monkeypatch.setenv("LIFELONG_MC_THREADS", "0")
        with pytest.raises(ValueError):
            thread_cap()


class TestMetricSuccess:
    def base(self, **kw):
        values = dict(
            frob_abs_error=1e-9, recovered_rank=4, support_exact=True
        )
        values.update(kw)
        return RunReport(**values)

    def test_passes(self):
        assert metric_success(self.base(), 4)

    def test_error_too_large(self):
        assert not metric_success(self.base(frob_abs_error=1e-3), 4)

    def test_wrong_rank(self):
        assert not metric_success(self.base(recovered_rank=3), 4)

    def test_rank_skipped_when_unknown(self):
        assert metric_success(self.base(recovered_rank=3), 0)

    def test_support_mismatch(self):
        assert not metric_success(self.base(support_exact=False), 4)

    def test_support_unknown_is_vacuous(self):
        assert metric_success(self.base(support_exact=None), 4)

    def test_missing_error_fails(self):
        assert not metric_success(self.base(frob_abs_error=None), 4)


class TestRunConfig:
    def test_auto_s0(self):
        cfg = RunConfig(algorithm="exact", r=5, d=20, s0="auto")
        assert cfg.resolve_s0() == 14
        cfg = RunConfig(algorithm="mixture", sparsity=2, d=20, s0="auto")
        assert cfg.resolve_s0() == 17
        cfg = RunConfig(algorithm="exact", r=10, d=5, s0="auto")
        assert cfg.resolve_s0() == 0

    def test_rank_effective_for_mixture_generator(self):
        cfg = RunConfig(
            algorithm="mixture", generator="mixture", sparsity=2,
            n_subspaces=3, subspace_dim=2, per_subspace=10,
        )
        assert cfg.rank_effective == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(algorithm="banana")
        with pytest.raises(ValueError):
            RunConfig(noise="salt")
        with pytest.raises(ValueError):
            RunConfig(algorithm="mixture")  # needs sparsity
        with pytest.raises(ValueError):
            RunConfig(s0="some")
        with pytest.raises(ValueError):
            RunConfig(generator="file")  # needs matrix_path

    @pytest.mark.parametrize("generator", ["gaussian", "cumulative", "mixture", "lower_bound"])
    def test_d_above_m_rejected_up_front(self, generator):
        with pytest.raises(ValueError, match="need 1 <= d <= m"):
            RunConfig(algorithm="tracker", generator=generator, m=10, d=11)
        RunConfig(algorithm="tracker", generator=generator, m=10, d=10)

    def test_file_d_checked_when_read(self):
        # a file's row count is unknown until the trial loads it
        RunConfig(generator="file", matrix_path="m.txt", m=10, d=11)


class TestMakeInstance:
    def test_generator_dispatch(self):
        cfg = RunConfig(generator="gaussian", m=15, n=30, r=2, d=6)
        inst = make_instance(cfg, trial_seed=5)
        assert inst.shape == (15, 30) and inst.rank == 2

        cfg = RunConfig(
            generator="mixture", n_subspaces=2, subspace_dim=2, per_subspace=6,
            m=15, d=6, sparsity=2, algorithm="mixture",
        )
        inst = make_instance(cfg, trial_seed=5)
        assert inst.rank == 4

    def test_noise_attach(self):
        cfg = RunConfig(generator="gaussian", m=15, n=30, r=2, d=6, noise="sparse", s0=4)
        inst = make_instance(cfg, trial_seed=9)
        assert len(inst.noise_support) == 4
        cfg = RunConfig(
            generator="gaussian", m=15, n=30, r=2, d=6, noise="bounded",
            noise_level=0.01,
        )
        inst = make_instance(cfg, trial_seed=9)
        assert np.allclose(np.linalg.norm(inst.M - inst.L, axis=0), 0.01)

    def test_same_trial_seed_same_instance(self):
        cfg = RunConfig(generator="gaussian", m=10, n=20, r=2, d=6, noise="sparse", s0=2)
        a = make_instance(cfg, trial_seed=77)
        b = make_instance(cfg, trial_seed=77)
        assert np.array_equal(a.M, b.M)
        assert a.noise_support == b.noise_support

    def test_file_generator(self, tmp_path):
        inst0 = make_instance(RunConfig(generator="gaussian", m=8, n=12, r=2, d=6), 3)
        mp = tmp_path / "m.txt"
        save_matrix(mp, inst0.M)
        cfg = RunConfig(generator="file", matrix_path=str(mp), r=2, d=6)
        inst = make_instance(cfg, trial_seed=0)
        assert np.array_equal(inst.M, inst0.M)
        assert inst.rank == 2


class TestRunSingle:
    def test_exact_path(self):
        cfg = RunConfig(
            algorithm="exact", generator="gaussian", m=25, n=80, r=3,
            d=15, noise="sparse", s0="auto",
        )
        report, result, inst = run_single(cfg, trial_seed=4)
        assert metric_success(report, 3)
        assert sorted(result.outlier_indices) == sorted(inst.noise_support)

    def test_tracker_path(self):
        cfg = RunConfig(algorithm="tracker", generator="gaussian", m=25, n=80, r=3, d=12)
        report, result, inst = run_single(cfg, trial_seed=4)
        assert report.frob_abs_error < 1e-9
        assert report.basis_size == 3


class TestCmdRun:
    def test_rows_and_aggregate(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = RunConfig(
            algorithm="exact", generator="gaussian", m=20, n=60, r=3, d=12,
            noise="sparse", s0="auto", trials=4, seed=100, out=str(out),
        )
        path, fraction = cmd_run(cfg)
        comments, header, rows = read_csv(path)
        assert comments["schema_version"] == "1"
        assert comments["algorithm"] == "exact"
        assert len(rows) == 5  # 4 trials + aggregate
        assert [row["seed"] for row in rows[:4]] == ["100", "101", "102", "103"]
        assert rows[-1]["trial"] == "aggregate"
        assert float(rows[-1]["success"]) == fraction == 1.0

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = dict(
            algorithm="exact", generator="gaussian", m=18, n=50, r=2, d=10,
            noise="sparse", s0=3, trials=3, seed=7,
        )
        cmd_run(RunConfig(out=str(a), **base))
        cmd_run(RunConfig(out=str(b), **base))
        ta = a.read_text().replace(str(a), "OUT")
        tb = b.read_text().replace(str(b), "OUT")
        assert ta == tb

    def test_tracker_writes_column_log(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = RunConfig(
            algorithm="tracker", generator="gaussian", m=20, n=40, r=2, d=10,
            trials=2, seed=3, out=str(out),
        )
        cmd_run(cfg)
        side = tmp_path / "t_columns.csv"
        assert side.exists()
        _, header, rows = read_csv(side)
        assert len(rows) == 80  # 40 columns x 2 trials
        assert {"decision", "residual", "threshold", "error_scale"} <= set(header)
        decisions = {row["decision"] for row in rows}
        assert decisions <= {"absorbed", "represented"}

    def test_column_error_scale_uses_the_file_row_count(self, tmp_path):
        # a 30 x 60 file under the default m = 50: the envelope scale is
        # (m/d) sqrt(k eps) with the file's m
        inst = make_instance(RunConfig(generator="gaussian", m=30, n=60, r=2, d=20), 5)
        noisy = apply_noise(inst, NoiseSpec("bounded", eps=1e-3), seed=6)
        mp = tmp_path / "m.txt"
        save_matrix(mp, noisy.M)
        out = tmp_path / "f.csv"
        cfg = RunConfig(
            algorithm="tracker", generator="file", matrix_path=str(mp), r=2, d=20,
            noise_level=1e-3, seed=1, out=str(out),
        )
        assert cfg.m != 30
        cmd_run(cfg)
        _, _, rows = read_csv(tmp_path / "f_columns.csv")
        for row in rows:
            k = int(row["basis_size"])
            assert float(row["error_scale"]) == pytest.approx(30 / 20 * np.sqrt(k * 1e-3))
        assert any(int(row["basis_size"]) == 2 for row in rows)

    def test_config_errors_raise_without_csv(self, tmp_path):
        # rank larger than the stream width: a config error, not a result
        out = tmp_path / "e.csv"
        cfg = RunConfig(
            algorithm="exact", generator="gaussian", m=10, n=5, r=6, d=8,
            trials=2, seed=0, out=str(out),
        )
        with pytest.raises(ValueError):
            cmd_run(cfg)
        assert not out.exists()


class TestCmdSweep:
    def test_grid_rows(self, tmp_path):
        grid = SweepGrid(
            m=20, n=60, rank_ratios=[0.1, 0.2], sample_ratios=[0.4, 0.8],
            trials_per_cell=2,
        )
        path, rows = cmd_sweep(grid, seed=1, out=str(tmp_path / "s.csv"))
        assert len(rows) == 4
        for row in rows:
            assert row["d"] == int(np.floor(row["sample_ratio"] * 20))
            assert row["r"] == int(np.floor(row["rank_ratio"] * 20))
            assert row["s0"] == max(0, row["d"] - row["r"] - 1)
            assert 0.0 <= row["success_fraction"] <= 1.0

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        grid = SweepGrid(
            m=16, n=40, rank_ratios=[0.15], sample_ratios=[0.5, 0.75],
            trials_per_cell=2,
        )
        monkeypatch.delenv("LIFELONG_MC_THREADS", raising=False)
        pa = str(tmp_path / "serial.csv")
        cmd_sweep(grid, seed=5, out=pa)
        monkeypatch.setenv("LIFELONG_MC_THREADS", "2")
        pb = str(tmp_path / "par.csv")
        cmd_sweep(grid, seed=5, out=pb, workers=2)
        ta = open(pa).read().replace("serial", "OUT")
        tb = open(pb).read().replace("par", "OUT")
        assert ta == tb

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(m=20, rank_ratios=[], sample_ratios=[0.5])
        with pytest.raises(ValueError):
            SweepGrid(m=20, rank_ratios=[0.01], sample_ratios=[0.5])
        with pytest.raises(ValueError):
            SweepGrid(m=20, rank_ratios=[0.1], sample_ratios=[1.5])


class TestCmdCompareMixture:
    def test_rows_per_point_and_algorithm(self, tmp_path):
        path, rows = cmd_compare_mixture(
            m=20, per_subspace=10, n_subspaces=2, subspace_dim=2,
            d_values=[1, 8, 14], trials=2, seed=3,
            out=str(tmp_path / "c.csv"),
        )
        assert len(rows) == 6
        by_key = {(row["d"], row["algorithm"]): row for row in rows}
        # d=1 is below the sparsity bound: kept in the table with zero trials
        assert by_key[(1, "exact")]["trials"] == 0
        assert by_key[(8, "mixture")]["trials"] == 2
        for row in rows:
            assert row["algorithm"] in ("exact", "mixture")

    def test_deterministic(self, tmp_path):
        kw = dict(
            m=16, per_subspace=8, n_subspaces=2, subspace_dim=2,
            d_values=[10], trials=2, seed=4,
        )
        _, rows_a = cmd_compare_mixture(out=str(tmp_path / "a.csv"), **kw)
        _, rows_b = cmd_compare_mixture(out=str(tmp_path / "b.csv"), **kw)
        assert rows_a == rows_b

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        kw = dict(
            m=16, per_subspace=8, n_subspaces=2, subspace_dim=2,
            d_values=[1, 4, 10], trials=2, seed=4,
        )
        monkeypatch.delenv("LIFELONG_MC_THREADS", raising=False)
        pa = str(tmp_path / "serial.csv")
        cmd_compare_mixture(out=pa, **kw)
        monkeypatch.setenv("LIFELONG_MC_THREADS", "2")
        pb = str(tmp_path / "par.csv")
        cmd_compare_mixture(out=pb, workers=2, **kw)
        # the output path is not part of the compare header
        assert open(pa).read() == open(pb).read()


class TestCmdGen:
    def test_writes_matrices_and_meta(self, tmp_path):
        cfg = RunConfig(
            generator="gaussian", m=10, n=20, r=2, d=6, noise="sparse", s0=3,
            seed=42, out=str(tmp_path / "inst"),
        )
        paths = cmd_gen(cfg)
        L = load_matrix(paths["L"])
        M = load_matrix(paths["M"])
        assert L.shape == M.shape == (10, 20)
        meta = json.load(open(paths["meta"]))
        assert meta["rank"] == 2
        assert len(meta["noise_support"]) == 3
        diff = np.flatnonzero(np.any(L != M, axis=0)).tolist()
        assert diff == sorted(meta["noise_support"])
