import numpy as np
import pytest

from lifelong_mc.datagen import (
    CUMULATIVE_WIDTHS,
    Instance,
    MatrixFormatError,
    NoiseSpec,
    apply_noise,
    gen_cumulative,
    gen_gaussian_lowrank,
    gen_lower_bound,
    gen_mixture,
    load_matrix,
    save_matrix,
)
from lifelong_mc.linalg import incoherence, numerical_rank


class TestGaussian:
    def test_bitwise_determinism(self):
        a = gen_gaussian_lowrank(20, 50, 3, seed=123)
        b = gen_gaussian_lowrank(20, 50, 3, seed=123)
        assert np.array_equal(a.L, b.L)
        assert np.array_equal(a.M, b.M)
        c = gen_gaussian_lowrank(20, 50, 3, seed=124)
        assert not np.array_equal(a.L, c.L)

    def test_shape_rank_norms(self):
        inst = gen_gaussian_lowrank(30, 80, 4, seed=0)
        assert inst.shape == (30, 80)
        assert inst.rank == 4
        assert numerical_rank(inst.L) == 4
        assert np.allclose(np.linalg.norm(inst.L, axis=0), 1.0)
        assert inst.column_basis.shape == (30, 4)
        # observed equals clean before noise
        assert np.array_equal(inst.L, inst.M)
        assert inst.M is not inst.L

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            gen_gaussian_lowrank(10, 5, 6, seed=0)
        with pytest.raises(ValueError):
            gen_gaussian_lowrank(10, 5, 0, seed=0)


class TestCumulative:
    def test_default_widths(self):
        assert CUMULATIVE_WIDTHS == (200, 200, 200, 200, 1200)

    def test_block_structure(self):
        widths = (5, 4, 6)
        inst = gen_cumulative(12, seed=7, widths=widths)
        assert inst.shape == (12, 15)
        assert inst.rank == 3
        # rank grows by one per block boundary
        assert numerical_rank(inst.L[:, :5]) == 1
        assert numerical_rank(inst.L[:, :9]) == 2
        assert numerical_rank(inst.L) == 3
        # columns inside a block are identical
        assert np.array_equal(inst.L[:, 0], inst.L[:, 4])
        assert np.array_equal(inst.L[:, 5], inst.L[:, 8])
        assert not np.array_equal(inst.L[:, 4], inst.L[:, 5])
        assert np.allclose(np.linalg.norm(inst.L, axis=0), 1.0)

    def test_deterministic(self):
        a = gen_cumulative(15, seed=3, widths=(4, 4))
        b = gen_cumulative(15, seed=3, widths=(4, 4))
        assert np.array_equal(a.L, b.L)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_cumulative(2, seed=0, widths=(3, 3, 3))


class TestMixture:
    def test_rank_and_membership(self):
        inst = gen_mixture(24, per_subspace=10, n_subspaces=3, subspace_dim=2, seed=5)
        assert inst.shape == (24, 30)
        assert inst.rank == 6
        assert numerical_rank(inst.L) == 6
        assert inst.metadata["membership"] == [0] * 10 + [1] * 10 + [2] * 10
        assert np.allclose(np.linalg.norm(inst.L, axis=0), 1.0)

    def test_columns_live_in_their_subspace(self):
        inst = gen_mixture(20, per_subspace=8, n_subspaces=2, subspace_dim=3, seed=9)
        frame = inst.column_basis
        for j, g in enumerate(inst.metadata["membership"]):
            basis = frame[:, g * 3 : (g + 1) * 3]
            col = inst.L[:, j]
            assert np.linalg.norm(col - basis @ (basis.T @ col)) < 1e-10

    def test_subspaces_disjoint(self):
        inst = gen_mixture(20, per_subspace=5, n_subspaces=4, subspace_dim=2, seed=1)
        frame = inst.column_basis
        assert np.allclose(frame.T @ frame, np.eye(8), atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_mixture(5, per_subspace=3, n_subspaces=3, subspace_dim=2, seed=0)


class TestLowerBound:
    def test_exact_blocks(self):
        inst = gen_lower_bound(12, target_coherence=2.0, r=2, block_scales=[1.0, 0.5])
        # width = floor(12 / (2 * 2)) = 3
        assert inst.metadata["block_width"] == 3
        L = inst.L
        assert np.allclose(L[:3, :3], 1.0 / 3)
        assert np.allclose(L[3:6, 3:6], 0.5 / 3)
        assert np.count_nonzero(L[6:, :]) == 0
        assert np.count_nonzero(L[:3, 3:]) == 0

    def test_realized_coherence(self):
        inst = gen_lower_bound(12, target_coherence=2.0, r=2, block_scales=[1.0, 1.0])
        assert inst.metadata["coherence"] == pytest.approx(12 / (2 * 3))
        assert incoherence(inst.column_basis) == pytest.approx(12 / (2 * 3))

    def test_zero_scale_zeroes_the_block(self):
        inst = gen_lower_bound(8, target_coherence=2.0, r=2, block_scales=[1.0, 0.0])
        assert np.count_nonzero(inst.L[2:4, 2:4]) == 0
        assert inst.rank == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_lower_bound(10, target_coherence=20.0, r=2, block_scales=[1, 1])
        with pytest.raises(ValueError):
            gen_lower_bound(10, target_coherence=1.0, r=2, block_scales=[1])


class TestApplyNoise:
    def test_bounded_moves_each_column_exactly_eps(self):
        inst = gen_gaussian_lowrank(25, 60, 3, seed=0)
        noisy = apply_noise(inst, NoiseSpec("bounded", eps=0.05), seed=1)
        moved = np.linalg.norm(noisy.M - noisy.L, axis=0)
        assert np.allclose(moved, 0.05)
        assert noisy.noise_support == []
        assert np.array_equal(noisy.L, inst.L)

    def test_sparse_replaces_support_only(self):
        inst = gen_gaussian_lowrank(25, 60, 3, seed=2)
        noisy = apply_noise(inst, NoiseSpec("sparse_columns", s0=7), seed=3)
        assert len(noisy.noise_support) == 7
        assert noisy.noise_support == sorted(noisy.noise_support)
        diff = np.flatnonzero(np.any(noisy.M != noisy.L, axis=0))
        assert diff.tolist() == noisy.noise_support
        for p in noisy.noise_support:
            assert np.linalg.norm(noisy.M[:, p]) == pytest.approx(1.0)

    def test_explicit_positions(self):
        inst = gen_gaussian_lowrank(10, 20, 2, seed=4)
        spec = NoiseSpec("sparse_columns", s0=3, positions=[5, 1, 19])
        noisy = apply_noise(inst, spec, seed=5)
        assert noisy.noise_support == [1, 5, 19]

    def test_none_kind_copies(self):
        inst = gen_gaussian_lowrank(10, 20, 2, seed=6)
        noisy = apply_noise(inst, NoiseSpec("none"), seed=7)
        assert np.array_equal(noisy.M, inst.L)

    def test_deterministic(self):
        inst = gen_gaussian_lowrank(10, 30, 2, seed=8)
        a = apply_noise(inst, NoiseSpec("sparse_columns", s0=4), seed=9)
        b = apply_noise(inst, NoiseSpec("sparse_columns", s0=4), seed=9)
        assert np.array_equal(a.M, b.M)
        assert a.noise_support == b.noise_support

    def test_validation(self):
        inst = gen_gaussian_lowrank(10, 20, 2, seed=10)
        with pytest.raises(ValueError):
            NoiseSpec("speckle")
        with pytest.raises(ValueError):
            NoiseSpec("bounded", eps=0.0)
        with pytest.raises(ValueError):
            apply_noise(inst, NoiseSpec("sparse_columns", s0=21), seed=0)
        with pytest.raises(ValueError):
            apply_noise(
                inst, NoiseSpec("sparse_columns", s0=2, positions=[1, 1]), seed=0
            )
        with pytest.raises(ValueError):
            apply_noise(
                inst, NoiseSpec("sparse_columns", s0=2, positions=[1, 25]), seed=0
            )


class TestMatrixIO:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((7, 5))
        A[0, 0] = 1e-300
        A[1, 1] = -1e300
        A[2, 2] = 0.1  # not exactly representable; 17 digits still round-trip
        path = tmp_path / "a.txt"
        save_matrix(path, A)
        B = load_matrix(path)
        assert np.array_equal(A, B)

    def test_header_format(self, tmp_path):
        path = tmp_path / "b.txt"
        save_matrix(path, np.arange(6.0).reshape(2, 3))
        first = path.read_text().splitlines()[0]
        assert first == "2 3"

    def test_single_entry_literal(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1 1\n3.5\n")
        assert load_matrix(path).tolist() == [[3.5]]

    def test_rejects_non_finite_on_save(self, tmp_path):
        with pytest.raises(ValueError):
            save_matrix(tmp_path / "d.txt", np.array([[np.inf]]))

    def test_parse_errors_name_the_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 2\n1 2\n3\n")
        with pytest.raises(MatrixFormatError, match="line 3"):
            load_matrix(p)
        p.write_text("nope\n")
        with pytest.raises(MatrixFormatError, match="line 1"):
            load_matrix(p)
        p.write_text("2 2\n1 2\n")
        with pytest.raises(MatrixFormatError, match="2 data rows"):
            load_matrix(p)
        p.write_text("1 2\n1 banana\n")
        with pytest.raises(MatrixFormatError, match="line 2"):
            load_matrix(p)
        p.write_text("1 1\nnan\n")
        with pytest.raises(MatrixFormatError, match="non-finite"):
            load_matrix(p)
        p.write_text("")
        with pytest.raises(MatrixFormatError, match="line 1"):
            load_matrix(p)

    def test_generated_instances_round_trip(self, tmp_path):
        inst = gen_gaussian_lowrank(12, 18, 3, seed=1)
        path = tmp_path / "inst.txt"
        save_matrix(path, inst.M)
        assert np.array_equal(load_matrix(path), inst.M)
