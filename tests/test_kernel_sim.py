import dataclasses
import tracemalloc

import numpy as np
import pytest

from rmvhash import core_math, dataset, kernel_sim
from rmvhash.dataset import MultiViewDataset


def make_ds(seed=0, dims=(6, 9), n=30):
    rng = np.random.default_rng(seed)
    return MultiViewDataset(views=tuple(rng.normal(size=(d, n)) for d in dims))


class TestSelectKernelLandmarks:
    def test_block_shapes(self):
        ds = make_ds(seed=2, dims=(4, 7, 3), n=50)
        lm = kernel_sim.select_kernel_landmarks(ds, 10, seed=1)
        assert lm.R == 10
        assert tuple(b.shape for b in lm.blocks) == ((10, 4), (10, 7), (10, 3))

    def test_deterministic(self):
        ds = make_ds(seed=3, n=40)
        a = kernel_sim.select_kernel_landmarks(ds, 8, seed=5)
        b = kernel_sim.select_kernel_landmarks(ds, 8, seed=5)
        for ba, bb in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(ba, bb)

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            kernel_sim.select_kernel_landmarks(make_ds(n=5), 6)


class TestSelfTuningSigma:
    def test_degenerate_rejected(self):
        view = np.zeros((3, 10))
        z = np.zeros((4, 3))
        with pytest.raises(ValueError, match="degenerate"):
            kernel_sim.self_tuning_sigma(view, z, k_st=1)

    def test_grid_median(self):
        # samples at x = 1..5 on a line, single landmark at the origin
        view = np.arange(1.0, 6.0).reshape(1, -1)
        z = np.zeros((1, 1))
        sigma = kernel_sim.self_tuning_sigma(view, z, k_st=1)
        assert sigma == pytest.approx(3.0)

    def test_homogeneous_scaling(self):
        rng = np.random.default_rng(4)
        view = rng.normal(size=(3, 20))
        z = rng.normal(size=(5, 3))
        s1 = kernel_sim.self_tuning_sigma(view, z, k_st=2)
        s2 = kernel_sim.self_tuning_sigma(2.5 * view, 2.5 * z, k_st=2)
        assert s2 == pytest.approx(2.5 * s1, rel=1e-10)

    @pytest.mark.parametrize("k_st", [1, 3, 7])
    def test_bits_match_root_first_oracle(self, k_st):
        # oracle: the root of every distance first, then the partition
        rng = np.random.default_rng(k_st)
        view = rng.normal(size=(5, 60))
        z = rng.normal(size=(9, 5))
        d = np.sqrt(core_math.sq_dists(view.T, z))
        want = float(np.median(np.partition(d, k_st - 1, axis=1)[:, k_st - 1]))
        assert kernel_sim.self_tuning_sigma(view, z, k_st) == want


    @pytest.mark.parametrize("block", [1, 18, 50])
    def test_sigma_does_not_depend_on_block_size(self, monkeypatch, block):
        # the k-th distances are found a block of samples at a time: 1, 2
        # and 5 samples at R = 9 (a block of one sample may round its
        # distances differently in the last bit)
        rng = np.random.default_rng(5)
        view, z = rng.normal(size=(5, 60)), rng.normal(size=(9, 5))
        want = kernel_sim.self_tuning_sigma(view, z, 3)
        monkeypatch.setattr(core_math, "_BLOCK", block)
        assert kernel_sim.self_tuning_sigma(view, z, 3) == pytest.approx(want, rel=1e-13, abs=0)

    def test_peak_below_one_distance_array(self):
        # N = 4,000 samples, R = 200 landmarks in each of two views: the
        # R x N float64 distances (6.4 MB) and their partition are never held
        # whole, so the peak stays below half of one
        ds = make_ds(seed=3, dims=(16, 16), n=4000)
        lm = kernel_sim.KernelLandmarks(blocks=tuple(v[:, :200].T.copy() for v in ds.views))
        tracemalloc.start()
        try:
            kernel_sim.tune_config(ds, lm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 4000 * 200 * 8


class TestBuildKernelMatrix:
    def test_coincident_entry_one(self):
        view = np.array([[1.0, 2.0], [0.0, 1.0]])
        z = view.T[:1].copy()
        K = kernel_sim.build_kernel_matrix(view, z, sigma=1.0)
        assert K[0, 0] == pytest.approx(1.0)

    def test_formula_value(self):
        view = np.array([[0.0]])
        z = np.array([[np.sqrt(2.0)]])  # distance sigma*sqrt(2) with sigma=1
        K = kernel_sim.build_kernel_matrix(view, z, sigma=1.0)
        assert K[0, 0] == pytest.approx(np.exp(-1.0))

    def test_monotone_in_distance(self):
        view = np.arange(0.0, 5.0).reshape(1, -1)
        z = np.zeros((1, 1))
        K = kernel_sim.build_kernel_matrix(view, z, sigma=2.0)
        assert np.all(np.diff(K[0]) < 0)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(5)
        view = rng.normal(size=(4, 30))
        z = rng.normal(size=(6, 4))
        K = kernel_sim.build_kernel_matrix(view, z, sigma=1.3)
        assert K.min() > 0
        assert K.max() <= 1.0

    def test_sigma_growth_never_decreases_entries(self):
        rng = np.random.default_rng(6)
        view = rng.normal(size=(3, 15))
        z = rng.normal(size=(4, 3))
        k1 = kernel_sim.build_kernel_matrix(view, z, sigma=1.0)
        k2 = kernel_sim.build_kernel_matrix(view, z, sigma=2.0)
        assert np.all(k2 >= k1 - 1e-15)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kernel_sim.build_kernel_matrix(np.zeros((3, 5)), np.zeros((2, 4)), 1.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            kernel_sim.build_kernel_matrix(np.zeros((1, 3)), np.zeros((2, 1)), sigma)


class TestKernelFloor:
    """Samples on a line out to 40 bandwidths from the landmarks, so that
    exp(-d^2 / (2 sigma^2)) runs through normal, subnormal and zero values."""

    floor = np.sqrt(np.finfo(np.float32).tiny)

    @staticmethod
    def line_input():
        view = np.linspace(0.0, 40.0, 401).reshape(1, -1)
        z = np.array([[0.0], [3.0], [-2.5]])
        return view, z, 1.0

    def raw(self):
        view, z, sigma = self.line_input()
        return np.exp(-core_math.sq_dists(z, view.T) / (2.0 * sigma ** 2))

    def test_entries_are_zero_or_above_floor(self):
        raw = self.raw()
        assert np.any((raw > 0) & (raw < np.finfo(float).tiny))   # subnormals
        K = kernel_sim.build_kernel_matrix(*self.line_input())
        assert np.all((K == 0) | (K >= self.floor))
        np.testing.assert_array_equal(K == 0, raw < self.floor)

    def test_kept_entries_bit_equal_raw_formula(self):
        raw = self.raw()
        K = kernel_sim.build_kernel_matrix(*self.line_input())
        kept = raw >= self.floor
        assert 0 < np.count_nonzero(kept) < raw.size
        np.testing.assert_array_equal(K[kept], raw[kept])

    def test_float32_cast_keeps_floor(self):
        # train hands the ALM these kernels cast to float32, and casts only
        K32 = kernel_sim.build_kernel_matrix(*self.line_input()).astype(np.float32)
        assert not np.any((K32 > 0) & (K32 < self.floor))
        assert np.any(K32 > 0) and np.any(K32 == 0)


class TestInvariants:
    def test_config_frozen(self):
        # a model serves with its sigmas, so they cannot change after training
        cfg = kernel_sim.KernelConfig(sigmas=(1.0, 2.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.sigmas = (5.0,)

    def test_column_permutation_equivariance(self):
        ds = make_ds(seed=8, n=15)
        lm = kernel_sim.KernelLandmarks(blocks=tuple(v[:, ::3].T.copy() for v in ds.views))
        cfg = kernel_sim.KernelConfig(tuple(
            kernel_sim.self_tuning_sigma(v, z, 2) for v, z in zip(ds.views, lm.blocks)))
        K = kernel_sim.build_kernel_matrix(ds.views[0], lm.blocks[0], cfg.sigmas[0])
        perm = np.random.default_rng(9).permutation(15)
        Kp = kernel_sim.build_kernel_matrix(
            ds.views[0][:, perm], lm.blocks[0], cfg.sigmas[0]
        )
        np.testing.assert_allclose(Kp, K[:, perm], atol=1e-14)

    def test_view_kernels_written_in_slices(self, monkeypatch):
        ds = make_ds(seed=11, n=25)
        lm = kernel_sim.select_kernel_landmarks(ds, 6, seed=0)
        cfg = kernel_sim.tune_config(ds, lm)
        whole = [
            kernel_sim.build_kernel_matrix(v, z, s)
            for v, z, s in zip(ds.views, lm.blocks, cfg.sigmas)
        ]
        monkeypatch.setattr(kernel_sim, "_CHUNK", 4)   # slices of 4 columns, the last of 5
        K64 = kernel_sim.build_view_kernels(ds, lm, cfg)
        K32 = kernel_sim.build_view_kernels(ds, lm, cfg, dtype=np.float32)
        assert K64.shape == (2, 6, 25) and K32.dtype == np.float32
        np.testing.assert_allclose(K64, whole, rtol=1e-13, atol=1e-300)
        np.testing.assert_array_equal(K32, K64.astype(np.float32))

    def test_stored_sum_consistency(self):
        ds = make_ds(seed=10, dims=(3, 4, 5), n=25)
        lm = kernel_sim.select_kernel_landmarks(ds, 7, seed=3)
        cfg = kernel_sim.tune_config(ds, lm)   # R = 7, so at the 7th landmark
        K_list = kernel_sim.build_view_kernels(ds, lm, cfg)
        total = sum(K_list)
        np.testing.assert_allclose(total, np.sum(K_list, axis=0), atol=1e-12)
        for K in K_list:
            assert K.min() > 0 and K.max() <= 1.0
