import tracemalloc

import numpy as np
import pytest

from rmvhash import anchor_graph, core_math, dataset


def toy_view(seed=0, d=4, n=12):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(d, n))


def sample_landmarks(view, L, seed):
    """L distinct sample columns of a view, as landmark rows."""
    idx = np.random.default_rng(seed).choice(view.shape[1], size=L, replace=False)
    return view[:, idx].T.copy()


def dense(g, table):
    """The (N, L) matrix that the graph holds as the (N, k) table of values."""
    out = np.zeros((g.n_samples, len(g.sigma)))
    np.put_along_axis(out, g.cols, table, axis=1)
    return out


def dense_affinity_oracle(view, landmarks, k):
    """Direct implementation of the truncated-affinity formula, with the
    bandwidth t the mean squared distance to the k-th nearest landmark."""
    x = view.T
    n, L = x.shape[0], landmarks.shape[0]
    d2 = np.array([[np.sum((z - xi) ** 2) for z in landmarks] for xi in x])
    t = np.mean(np.sort(d2, axis=1)[:, k - 1]) or 1.0
    F = np.zeros((n, L))
    for i in range(n):
        order = np.argsort(d2[i], kind="stable")[:k]
        w = np.exp(-d2[i, order] / t)
        F[i, order] = w / w.sum()
    return F


class TestLandmarkSelection:
    """Landmarks as the graph tests pick them: core_math.kmeans on the
    columns of a (d, N) view."""

    def test_kmeans_mode_purity(self):
        # well-separated clusters: every landmark sits inside one cluster
        rng = np.random.default_rng(2)
        centers = rng.normal(size=(4, 3)) * 50
        labels = np.repeat(np.arange(4), 25)
        view = (centers[labels] + 0.1 * rng.normal(size=(100, 3))).T
        lm = core_math.kmeans(view.T, 4, seed=3)
        for c in lm:
            dists = np.linalg.norm(centers - c, axis=1)
            assert np.sort(dists)[0] < 1.0  # inside one cluster's spread

    def test_deterministic(self):
        view = toy_view(seed=3, n=30)
        a = core_math.kmeans(view.T, 5, seed=7)
        b = core_math.kmeans(view.T, 5, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            core_math.kmeans(toy_view(n=5).T, 6)


class TestTruncatedAffinity:
    def test_single_landmark_all_ones(self):
        view = toy_view(seed=4, n=8)
        lm = view.T[:1].copy()
        g = anchor_graph.build_truncated_affinity(view, lm, k=1)
        np.testing.assert_allclose(dense(g, g.F), np.ones((8, 1)))

    def test_equidistant_split(self):
        view = np.array([[0.0], [0.0]])  # one sample at the origin
        lm = np.array([[1.0, 0.0], [-1.0, 0.0]])
        g = anchor_graph.build_truncated_affinity(view, lm, k=2)
        np.testing.assert_allclose(dense(g, g.F)[0], [0.5, 0.5])

    def test_matches_dense_oracle(self):
        view = toy_view(seed=5, d=3, n=12)
        lm = sample_landmarks(view, 4, seed=1)
        g = anchor_graph.build_truncated_affinity(view, lm, k=2)
        oracle = dense_affinity_oracle(view, lm, 2)
        np.testing.assert_allclose(dense(g, g.F), oracle, atol=1e-14)

    def test_zero_distances_take_unit_bandwidth(self):
        # every sample sits on its k nearest landmarks: t = 1, equal weights
        view = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0]])
        lm = np.array([[0.0, 0.0], [5.0, 5.0]])
        g = anchor_graph.build_truncated_affinity(view, lm, k=1)
        np.testing.assert_array_equal(dense(g, g.F), [[1, 0], [1, 0], [0, 1]])
        np.testing.assert_array_equal(dense(g, g.F), dense_affinity_oracle(view, lm, 1))

    def test_row_stochastic_exact_k_nonzeros(self):
        view = toy_view(seed=6, d=5, n=40)
        lm = core_math.kmeans(view.T, 8, seed=2)
        g = anchor_graph.build_truncated_affinity(view, lm, k=3)
        F = dense(g, g.F)
        np.testing.assert_allclose(F.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(np.count_nonzero(F, axis=1) == 3)
        assert np.all(F.sum(axis=0) > 0)

    def test_far_sample_graph_finite(self):
        # the far sample's unshifted weights all underflow to 0
        rng = np.random.default_rng(0)
        view = rng.normal(scale=1e-3, size=(4, 3000))
        view[:, 0] = 5.0
        lm = view[:, 1:11].T
        g = anchor_graph.build_truncated_affinity(view, lm, k=3)
        F = dense(g, g.F)
        assert np.all(np.isfinite(F)) and np.all(np.isfinite(g.sigma))
        np.testing.assert_allclose(F.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        d2 = np.sum((lm - view[:, 0]) ** 2, axis=1)
        np.testing.assert_array_equal(
            np.flatnonzero(F[0]), np.sort(np.argsort(d2, kind="stable")[:3])
        )

    def test_k_exceeds_landmarks_rejected(self):
        view = toy_view(seed=7)
        lm = view.T[:3].copy()
        with pytest.raises(ValueError):
            anchor_graph.build_truncated_affinity(view, lm, k=4)

    def test_dead_landmark_dropped(self):
        # a landmark far from every sample attracts no one and is removed
        view = toy_view(seed=8, d=2, n=10)
        lm = np.vstack([view.T[:3], [[1e6, 1e6]]])
        g = anchor_graph.build_truncated_affinity(view, lm, k=2)
        F = dense(g, g.F)
        assert F.shape[1] == 3
        assert np.all(F.sum(axis=0) > 0)

    def test_drop_path_matches_graph_on_survivors(self):
        # dropping the dead landmarks' columns gives the graph built directly
        # on the survivors, and its oracle
        view = toy_view(seed=14, d=3, n=30)
        far = np.full((2, 3), 1e3)
        lm = np.vstack([view.T[:2], far, view.T[5:9]])
        g = anchor_graph.build_truncated_affinity(view, lm, k=3)
        survivors = np.vstack([view.T[:2], view.T[5:9]])
        direct = anchor_graph.build_truncated_affinity(view, survivors, k=3)
        F = dense(g, g.F)
        assert F.shape[1] == 6
        np.testing.assert_allclose(F, dense(direct, direct.F), rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            F, dense_affinity_oracle(view, survivors, 3), rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(g.sigma, direct.sigma, rtol=0, atol=1e-14)


    def test_dead_landmark_picked_with_weight_0(self):
        # the far sample's second pick, (150, 0), gets weight exp(-2500 / t) = 0
        # and no other sample picks it; its column goes, and the sample keeps
        # one nonzero entry, beside the slot of weight 0. Its distance still
        # counts towards t, so F is the oracle over all four landmarks without
        # that all-zero column
        rng = np.random.default_rng(0)
        view = np.hstack([rng.normal(scale=0.01, size=(2, 1000)), [[100.0], [0.0]]])
        lm = np.array([[0.0, 0.0], [0.02, 0.0], [100.0, 0.0], [150.0, 0.0]])
        g = anchor_graph.build_truncated_affinity(view, lm, k=2)
        F = dense(g, g.F)
        assert F.shape == (1001, 3)
        np.testing.assert_allclose(F.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        oracle = dense_affinity_oracle(view, lm, 2)
        assert not oracle[:, 3].any()
        np.testing.assert_allclose(F, oracle[:, :3], rtol=0, atol=1e-14)
        assert np.count_nonzero(F[1000]) == 1
        assert g.F[1000].tolist() == [0.0, 1.0]


class TestBlocks:
    @pytest.mark.parametrize("block", [1, 8, 40])
    def test_graph_does_not_depend_on_block_size(self, monkeypatch, block):
        # the distances, the k nearest and the bandwidth are taken a block of
        # samples at a time: 1, 2 and 10 samples at L = 4. A block of one
        # sample takes its distances from a matrix-vector product, whose
        # rounding may differ from the matrix product's in the last bit.
        view = toy_view(seed=12, n=50)
        lm = sample_landmarks(view, 4, seed=3)
        want = anchor_graph.build_truncated_affinity(view, lm, 3)
        monkeypatch.setattr(core_math, "_BLOCK", block)
        got = anchor_graph.build_truncated_affinity(view, lm, 3)
        np.testing.assert_array_equal(got.cols, want.cols)
        np.testing.assert_allclose(dense(got, got.F), dense(want, want.F), rtol=1e-13, atol=0)
        np.testing.assert_allclose(got.sigma, want.sigma, rtol=0, atol=1e-13)

    def test_peak_below_one_distance_array(self):
        # N = 4,000 samples, L = 200: the N x L float64 distances (6.4 MB),
        # their copy in the nearest search and the partition for the
        # bandwidth are never held whole, so the peak stays below half of one
        rng = np.random.default_rng(0)
        view = rng.normal(size=(16, 4000))
        lm = sample_landmarks(view, 200, seed=1)
        anchor_graph.build_truncated_affinity(view[:, :50], lm, 3)   # fills numpy's caches first
        tracemalloc.start()
        try:
            anchor_graph.build_truncated_affinity(view, lm, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 4000 * 200 * 8


class TestApply:
    def setup_method(self):
        view = toy_view(seed=9, d=4, n=10)
        lm = sample_landmarks(view, 4, seed=0)
        self.g = anchor_graph.build_truncated_affinity(view, lm, k=2)
        self.S = anchor_graph.materialize(self.g)

    def test_ones_preserved(self):
        ones = np.ones(self.g.n_samples)
        np.testing.assert_allclose(
            anchor_graph.adjacency_apply(self.g, ones), ones, atol=1e-10
        )

    def test_matches_dense(self):
        rng = np.random.default_rng(10)
        v = rng.normal(size=(10, 3))
        np.testing.assert_allclose(
            anchor_graph.adjacency_apply(self.g, v), self.S @ v, atol=1e-12
        )

    def test_zero_input(self):
        out = anchor_graph.adjacency_apply(self.g, np.zeros((10, 2)))
        np.testing.assert_array_equal(out, 0.0)

    def test_laplacian_nullspace(self):
        const = np.full((10, 2), 3.7)
        np.testing.assert_allclose(
            anchor_graph.laplacian_apply(self.g, const), 0.0, atol=1e-10
        )

    def test_quadratic_form_identity(self):
        # sum_ij S_ij ||v_i - v_j||^2 == 2 trace(V^T (V - S V))
        rng = np.random.default_rng(11)
        v = rng.normal(size=(10, 3))
        brute = 0.0
        for i in range(10):
            for j in range(10):
                brute += self.S[i, j] * np.sum((v[i] - v[j]) ** 2)
        lap = anchor_graph.laplacian_apply(self.g, v)
        assert brute == pytest.approx(2.0 * np.sum(v * lap), abs=1e-10)

    def test_spectral_factor(self):
        H = dense(self.g, self.g.H)
        np.testing.assert_allclose(H @ H.T, self.S, atol=1e-12)
        V, sigma = self.g.V, self.g.sigma
        np.testing.assert_allclose(V @ np.diag(sigma) @ V.T, H.T @ H, atol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(V.shape[0]), atol=1e-12)
        assert sigma.min() >= 0.0 and sigma.max() <= 1.0
        # the constant vector is an eigenvector of S with eigenvalue 1
        assert sigma.max() == pytest.approx(1.0, abs=1e-12)

    def test_materialized_symmetric_doubly_stochastic(self):
        np.testing.assert_allclose(self.S, self.S.T, atol=1e-10)
        assert self.S.min() >= 0
        np.testing.assert_allclose(self.S.sum(axis=0), 1.0, atol=1e-10)
        np.testing.assert_allclose(self.S.sum(axis=1), 1.0, atol=1e-10)

    def test_quadratic_form_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            v = rng.normal(size=(10, 2))
            lap = anchor_graph.laplacian_apply(self.g, v)
            assert np.sum(v * lap) >= -1e-10

    def test_operator_bound(self):
        rng = np.random.default_rng(13)
        v = np.linalg.qr(rng.normal(size=(10, 3)))[0]
        lap = anchor_graph.laplacian_apply(self.g, v)
        for j in range(3):
            assert np.all(np.isfinite(lap[:, j]))
            assert np.linalg.norm(lap[:, j]) <= 2 * np.linalg.norm(v[:, j]) + 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            anchor_graph.adjacency_apply(self.g, np.zeros((7, 2)))
