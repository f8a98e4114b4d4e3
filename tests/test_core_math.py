import numpy as np
import pytest

from rmvhash import core_math


class TestSqDists:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        pts, ctr = rng.normal(size=(30, 5)), rng.normal(size=(7, 5))
        want = ((pts[:, None, :] - ctr[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(core_math.sq_dists(pts, ctr), want, atol=1e-12)

    def test_clamped_at_zero(self):
        # large-norm duplicates cancel to tiny negatives before the clamp
        pts = np.full((4, 3), 1e8) + np.arange(4)[:, None]
        d2 = core_math.sq_dists(pts, pts)
        assert d2.min() >= 0.0


class TestSvt:
    def test_diagonal(self):
        out = core_math.svt(np.diag([3.0, 1.0, 0.2]), 1.0)
        np.testing.assert_allclose(out, np.diag([2.0, 0.0, 0.0]), atol=1e-12)

    def test_tau_zero_identity(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 4))
        np.testing.assert_allclose(core_math.svt(m, 0.0), m, atol=1e-10)

    def test_perturbation_oracle(self):
        # svt minimizes tau*||Q||_* + 0.5*||Q - M||_F^2
        rng = np.random.default_rng(2)
        m = rng.normal(size=(10, 8))
        tau = 0.7

        def obj(q):
            return tau * np.sum(np.linalg.svd(q, compute_uv=False)) + 0.5 * np.sum(
                (q - m) ** 2
            )

        q_star = core_math.svt(m, tau)
        base = obj(q_star)
        for _ in range(1000):
            pert = rng.normal(size=m.shape)
            pert *= 1e-3 / np.linalg.norm(pert)
            assert obj(q_star + pert) >= base - 1e-12

    def test_singular_value_map(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(7, 5))
        tau = 0.4
        s_in = np.linalg.svd(m, compute_uv=False)
        s_out = np.linalg.svd(core_math.svt(m, tau), compute_uv=False)
        np.testing.assert_allclose(s_out, np.maximum(s_in - tau, 0.0), atol=1e-8)

    def test_nuclear_norm_identity(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(9, 6))
        tau = 0.9
        out = core_math.svt(m, tau)
        expected = np.sum(np.maximum(np.linalg.svd(m, compute_uv=False) - tau, 0.0))
        assert np.sum(np.linalg.svd(out, compute_uv=False)) == pytest.approx(
            expected, abs=1e-8
        )

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            core_math.svt(np.eye(2), -1.0)

    def test_basis_spans_result(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 9))
        tau = 1.5
        q, u, _ = core_math.svt_with_basis(m, tau)
        np.testing.assert_array_equal(q, core_math.svt(m, tau))
        assert u.shape == (6, np.count_nonzero(np.linalg.svd(m, compute_uv=False) > tau))
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)
        np.testing.assert_allclose(u @ (u.T @ q), q, atol=1e-12)

    # the Gram-side path against np.linalg.svd: Q to 1e-12 relative, U U^T to 1e-10

    @staticmethod
    def svd_oracle(m, tau):
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        s = np.maximum(s - tau, 0.0)
        return (u * s) @ vt, u[:, s > 0]

    @staticmethod
    def rank_10_plus_noise(shape, seed):
        rng = np.random.default_rng(seed)
        planted = rng.normal(size=(shape[0], 10)) @ rng.normal(size=(10, shape[1]))
        return planted + 1e-3 * rng.normal(size=shape)

    @pytest.mark.parametrize(
        "shape", [(40, 300), (300, 40), (50, 50)], ids=["wide", "tall", "square"]
    )
    def test_gram_path_matches_svd(self, shape):
        m = self.rank_10_plus_noise(shape, 6)
        s = np.linalg.svd(m, compute_uv=False)
        tau = 0.5 * s[9]   # keeps the 10 planted values, drops the noise
        q, u, full_svd = core_math.svt_with_basis(m, tau)
        want_q, want_u = self.svd_oracle(m, tau)
        assert not full_svd
        assert u.shape == want_u.shape == (shape[0], 10)
        assert np.linalg.norm(q - want_q) <= 1e-12 * np.linalg.norm(want_q)
        np.testing.assert_allclose(u @ u.T, want_u @ want_u.T, atol=1e-10)
        np.testing.assert_allclose(u.T @ u, np.eye(10), atol=1e-10)

    @pytest.mark.parametrize("shape", [(40, 300), (300, 40)], ids=["wide", "tall"])
    def test_gram_singular_values_give_both_norms(self, shape):
        m = self.rank_10_plus_noise(shape, 9)
        s = np.linalg.svd(m, compute_uv=False)
        got = core_math._singular_values(m)
        assert got.shape == (40,)
        assert got[-1] == pytest.approx(s[0], rel=1e-14)
        assert got.sum() == pytest.approx(s.sum(), rel=1e-10)

    @pytest.mark.parametrize("shape", [(40, 300), (300, 40)], ids=["wide", "tall"])
    def test_tau_above_spectrum_gives_zero(self, shape):
        m = self.rank_10_plus_noise(shape, 7)
        tau = 1.5 * np.linalg.norm(m, 2)
        q, u, full_svd = core_math.svt_with_basis(m, tau)
        assert not full_svd
        np.testing.assert_array_equal(q, np.zeros(shape))
        assert u.shape == (shape[0], 0)

    def test_tau_zero_falls_back_and_returns_input(self):
        m = self.rank_10_plus_noise((40, 300), 8)
        q, u, full_svd = core_math.svt_with_basis(m, 0.0)
        assert full_svd
        assert np.linalg.norm(q - m) <= 1e-12 * np.linalg.norm(m)
        assert u.shape == (40, 40)

    def test_near_threshold_takes_svd(self):
        # singular values 1 and 1e-9 around tau = 5e-10: the Gram eigenvalue
        # 1e-18 is below eps * s_max^2, so only the SVD resolves the pair
        rng = np.random.default_rng(9)
        u0, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        v0, _ = np.linalg.qr(rng.normal(size=(30, 2)))
        m = (u0 * [1.0, 1e-9]) @ v0.T
        q, u, full_svd = core_math.svt_with_basis(m, 5e-10)
        want_q, want_u = self.svd_oracle(m, 5e-10)
        assert full_svd
        np.testing.assert_array_equal(q, want_q)
        np.testing.assert_array_equal(u, want_u)

    def test_fallback_rule_boundary(self):
        m = self.rank_10_plus_noise((40, 300), 10)
        rule = core_math._GRAM_MIN_TAU * np.linalg.norm(m, 2)
        assert core_math.svt_with_basis(m, 0.5 * rule)[2]
        assert not core_math.svt_with_basis(m, 2.0 * rule)[2]


class TestColL21Prox:
    def test_single_column(self):
        out = core_math.col_l21_prox(np.array([[3.0], [4.0]]), 1.0)
        np.testing.assert_allclose(out, [[2.4], [3.2]])

    def test_dead_zone_column(self):
        out = core_math.col_l21_prox(np.array([[0.3], [0.4]]), 1.0)
        np.testing.assert_allclose(out, [[0.0], [0.0]])

    def test_zero_column_stays_zero(self):
        c = np.zeros((4, 3))
        np.testing.assert_array_equal(core_math.col_l21_prox(c, 0.5), c)

    def test_grid_oracle(self):
        # per column, the prox of kappa*||.||_{2,1} scales the column; compare
        # against a dense 1-D grid search over the scaling factor
        rng = np.random.default_rng(5)
        c = rng.normal(size=(6, 5))
        kappa = 0.5
        out = core_math.col_l21_prox(c, kappa)

        def obj(e):
            return kappa * np.sum(np.linalg.norm(e, axis=0)) + 0.5 * np.sum((e - c) ** 2)

        # grid-search each column independently and assemble the best matrix
        e_grid = np.zeros_like(c)
        for i in range(c.shape[1]):
            col = c[:, i]
            vals = [
                kappa * s * np.linalg.norm(col) + 0.5 * (1 - s) ** 2 * col @ col
                for s in np.linspace(0, 1, 2001)
            ]
            s_best = np.linspace(0, 1, 2001)[int(np.argmin(vals))]
            e_grid[:, i] = s_best * col
        assert obj(out) <= obj(e_grid) + 1e-9

    def test_never_grows_and_parallel(self):
        rng = np.random.default_rng(6)
        c = rng.normal(size=(5, 8))
        out = core_math.col_l21_prox(c, 0.3)
        for i in range(c.shape[1]):
            assert np.linalg.norm(out[:, i]) <= np.linalg.norm(c[:, i]) + 1e-12
            cross = np.outer(out[:, i], c[:, i]) - np.outer(c[:, i], out[:, i])
            assert np.abs(cross).max() < 1e-10

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            core_math.col_l21_prox(np.eye(2), -0.5)


class TestProjections:
    def test_nonneg_examples(self):
        np.testing.assert_allclose(
            core_math.project_nonneg(np.array([0.5, -0.3])), [0.5, 0.0]
        )
        v = np.array([1.0, 2.0])
        np.testing.assert_array_equal(core_math.project_nonneg(v), v)
        np.testing.assert_array_equal(
            core_math.project_nonneg(np.array([-1.0, -2.0])), [0.0, 0.0]
        )

    def test_nonneg_idempotent(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=(4, 4))
        once = core_math.project_nonneg(v)
        np.testing.assert_allclose(core_math.project_nonneg(once), once, atol=1e-15)

    def test_simplex_symmetry(self):
        np.testing.assert_allclose(
            core_math.project_simplex(np.array([0.6, 0.6])), [0.5, 0.5]
        )

    def test_simplex_fixed_point(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(core_math.project_simplex(v), v, atol=1e-12)

    def test_simplex_example(self):
        np.testing.assert_allclose(
            core_math.project_simplex(np.array([1.2, 0.3])), [0.95, 0.05], atol=1e-12
        )

    def test_simplex_brute_force(self):
        # brute-force QP over a fine grid of feasible 2-D points
        v = np.array([1.2, 0.3])
        grid = np.linspace(0, 1, 100001)
        cand = np.stack([grid, 1 - grid], axis=1)
        dists = np.sum((cand - v) ** 2, axis=1)
        best = cand[np.argmin(dists)]
        np.testing.assert_allclose(core_math.project_simplex(v), best, atol=1e-4)

    def test_simplex_idempotent(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = rng.normal(size=6) * 3
            once = core_math.project_simplex(v)
            np.testing.assert_allclose(
                core_math.project_simplex(once), once, atol=1e-12
            )
            assert once.sum() == pytest.approx(1.0, abs=1e-12)
            assert once.min() >= 0

    def test_simplex_empty_rejected(self):
        with pytest.raises(ValueError):
            core_math.project_simplex(np.array([]))


class TestKmeans:
    def test_exact_clusters(self):
        rng = np.random.default_rng(9)
        centers = rng.normal(size=(4, 3)) * 5
        points = np.repeat(centers, 10, axis=0)
        res = core_math.kmeans(points, 4, max_iters=20, seed=0)
        assert res.inertia == pytest.approx(0.0, abs=1e-18)
        got = res.centers[np.lexsort(res.centers.T)]
        want = centers[np.lexsort(centers.T)]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(10)
        points = rng.normal(size=(30, 2))
        res = core_math.kmeans(points, 1, max_iters=5, seed=0)
        np.testing.assert_allclose(res.centers[0], points.mean(axis=0), atol=1e-12)

    def test_inertia_matches_recomputation(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(100, 3))
        res = core_math.kmeans(points, 6, max_iters=30, seed=1)
        recomputed = np.sum((points - res.centers[res.assignments]) ** 2)
        assert res.inertia == pytest.approx(recomputed, rel=1e-9)

    def test_inertia_non_increasing(self):
        # prefix runs share the seeded trajectory, so inertia at increasing
        # iteration caps traces the per-iteration sequence
        rng = np.random.default_rng(12)
        points = rng.normal(size=(200, 4))
        inertias = [
            core_math.kmeans(points, 5, max_iters=t, seed=3).inertia
            for t in range(1, 12)
        ]
        for a, b in zip(inertias, inertias[1:]):
            assert b <= a + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        points = rng.normal(size=(80, 3))
        a = core_math.kmeans(points, 7, max_iters=15, seed=5)
        b = core_math.kmeans(points, 7, max_iters=15, seed=5)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValueError):
            core_math.kmeans(np.zeros((3, 2)), 4)
