import pytest

from lifelong_mc.cli import ConfigError, main, parse_config_file
from lifelong_mc.harness import mix_seed


def write(path, text):
    path.write_text(text)
    return str(path)


RUN_CFG = """
# exact recovery under sparse corruption
algorithm = exact
generator = gaussian
m = 18
n = 50
r = 2
d = 10
noise = sparse
s0 = auto
trials = 2
seed = 5
"""


class TestParseConfigFile:
    def test_basics(self, tmp_path):
        p = write(tmp_path / "a.cfg", "key = some value\n\n# note\nn=3\n")
        assert parse_config_file(p) == {"key": "some value", "n": "3"}

    def test_duplicate_key(self, tmp_path):
        p = write(tmp_path / "b.cfg", "a = 1\na = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(p)

    def test_missing_equals(self, tmp_path):
        p = write(tmp_path / "c.cfg", "just words\n")
        with pytest.raises(ConfigError, match=r":1: expected key = value"):
            parse_config_file(p)

    def test_empty_key(self, tmp_path):
        p = write(tmp_path / "d.cfg", "= 3\n")
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_file(p)


class TestExitCodes:
    def test_run_success_is_zero(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", RUN_CFG)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out.csv")])
        assert rc == 0
        assert "success fraction" in capsys.readouterr().out

    def test_recovery_failure_still_zero(self, tmp_path):
        # undersampled: recovery fails, the command does not
        bad = RUN_CFG.replace("d = 10", "d = 2").replace("r = 2", "r = 4")
        cfg = write(tmp_path / "run.cfg", bad)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out.csv")])
        assert rc == 0

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", RUN_CFG + "volume = 11\n")
        rc = main(["run", "--config", cfg])
        assert rc == 2
        assert "volume" in capsys.readouterr().err

    def test_bad_value_is_config_error(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", RUN_CFG.replace("m = 18", "m = many"))
        assert main(["run", "--config", cfg]) == 2

    def test_bad_semantics_is_config_error(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", RUN_CFG.replace("algorithm = exact", "algorithm = magic"))
        assert main(["run", "--config", cfg]) == 2

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_missing_compare_keys_is_config_error(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "m = 16\ntrials = 1\n")
        assert main(["compare-mixture", "--config", cfg]) == 2

    def test_run_inconsistent_config_is_config_error_without_csv(self, tmp_path):
        # more samples per column than rows: every trial would fail the same way
        cfg = write(tmp_path / "run.cfg", RUN_CFG.replace("d = 10", "d = 30"))
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "run"])
    def test_malformed_matrix_file_is_io_error(self, tmp_path, command):
        matrix = write(tmp_path / "m.txt", "2 2\n1 0\n0 oops\n")
        cfg = write(
            tmp_path / "file.cfg",
            f"generator = file\nmatrix_path = {matrix}\nm = 2\nr = 1\nd = 1\n",
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1


class TestOverrides:
    def test_seed_out_trials(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", RUN_CFG)
        out = tmp_path / "ovr.csv"
        rc = main([
            "run", "--config", cfg, "--seed", "77", "--out", str(out),
            "--trials", "3",
        ])
        assert rc == 0
        text = out.read_text()
        assert "# seed = 77" in text
        assert "# trials = 3" in text
        data = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(data) == 1 + 3 + 1  # header, three trials, aggregate

    def test_seed_changes_results(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", RUN_CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", cfg, "--out", str(a), "--seed", "1"])
        main(["run", "--config", cfg, "--out", str(b), "--seed", "2"])
        rows_a = [ln for ln in a.read_text().splitlines() if not ln.startswith("#")]
        rows_b = [ln for ln in b.read_text().splitlines() if not ln.startswith("#")]
        assert rows_a != rows_b


class TestSubcommands:
    def test_gen(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "gen.cfg",
            "generator = gaussian\nm = 8\nn = 12\nr = 2\nd = 6\nseed = 1\n",
        )
        rc = main(["gen", "--config", cfg, "--out", str(tmp_path / "inst")])
        assert rc == 0
        assert (tmp_path / "inst_L.txt").exists()
        assert (tmp_path / "inst_M.txt").exists()
        assert (tmp_path / "inst_meta.json").exists()

    def test_sweep(self, tmp_path):
        cfg = write(
            tmp_path / "s.cfg",
            "m = 16\nn = 40\nrank_ratios = 0.15\nsample_ratios = 0.5, 0.75\n"
            "trials_per_cell = 2\nseed = 3\n",
        )
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(lines) == 3  # header + 2 cells

    def test_sweep_trials_override_hits_cells(self, tmp_path):
        cfg = write(
            tmp_path / "s.cfg",
            "m = 16\nn = 30\nrank_ratios = 0.15\nsample_ratios = 0.5\n"
            "trials_per_cell = 1\n",
        )
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--config", cfg, "--out", str(out), "--trials", "4"])
        assert rc == 0
        assert "# trials_per_cell = 4" in out.read_text()

    def test_compare_mixture(self, tmp_path):
        cfg = write(
            tmp_path / "c.cfg",
            "m = 16\nper_subspace = 8\nn_subspaces = 2\nsubspace_dim = 2\n"
            "d_values = 6, 12\ntrials = 2\nseed = 1\n",
        )
        out = tmp_path / "c.csv"
        rc = main(["compare-mixture", "--config", cfg, "--out", str(out)])
        assert rc == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(lines) == 5  # header + 2 d-values x 2 algorithms


class TestCrossInterfaceAgreement:
    def test_cli_and_library_produce_identical_csv(self, tmp_path):
        from lifelong_mc.harness import RunConfig, cmd_run

        cfg_path = write(tmp_path / "run.cfg", RUN_CFG)
        cli_out = tmp_path / "cli.csv"
        main(["run", "--config", cfg_path, "--out", str(cli_out)])
        lib_out = tmp_path / "lib.csv"
        cmd_run(RunConfig(
            algorithm="exact", generator="gaussian", m=18, n=50, r=2, d=10,
            noise="sparse", s0="auto", trials=2, seed=5, out=str(lib_out),
        ))
        ta = cli_out.read_text().replace("cli.csv", "OUT")
        tb = lib_out.read_text().replace("lib.csv", "OUT")
        assert ta == tb
