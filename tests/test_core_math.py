import tracemalloc

import numpy as np
import pytest

from rmvhash import core_math, dataset


def three_term_sq_dists(points, centers):
    """The distance expression sq_dists replaced, term by term."""
    d2 = (
        np.sum(points ** 2, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers ** 2, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0, out=d2)


def reference_kmeanspp_init(points, L, rng):
    """k-means++ seeding with each new center's distances summed as
    sum((points - c) ** 2), the formula kmeans seeded with before it took
    them from sq_dists."""
    n = points.shape[0]
    centers = np.empty((L, points.shape[1]))
    first = rng.integers(n)
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, L):
        total = d2.sum()
        if total <= 0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def reference_kmeans(points, L, iters, seed):
    """Lloyd from the reference seeding with a boolean-mask mean per cluster,
    as kmeans ran before its one-hot update; it agrees with kmeans whenever no
    cluster empties and both seedings pick the same centers."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    centers = reference_kmeanspp_init(points, L, np.random.default_rng(seed))
    assignments = np.zeros(n, dtype=int)
    for _ in range(iters):
        d2 = three_term_sq_dists(points, centers)
        new_assign = np.argmin(d2, axis=1)
        for j in range(L):
            mask = new_assign == j
            assert mask.any(), "reference input emptied a cluster"
            centers[j] = points[mask].mean(axis=0)
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
    return centers


def reference_onehot_lloyd(points, L, seed):
    """Lloyd from kmeans's own seeding that assigns by the argmin of
    three_term_sq_dists, as kmeans did before it assigned by one product, and
    updates the centers by the same one-hot product; it asserts that no
    cluster empties."""
    import scipy.sparse as sp
    n = points.shape[0]
    centers = core_math._kmeanspp_init(
        points, np.sum(points ** 2, axis=1), L, np.random.default_rng(seed)
    )
    assignments = np.zeros(n, dtype=int)
    for _ in range(core_math._KMEANS_ITERS):
        new_assign = np.argmin(three_term_sq_dists(points, centers), axis=1)
        counts = np.bincount(new_assign, minlength=L)
        assert counts.min() > 0, "reference input emptied a cluster"
        onehot = sp.csr_matrix(
            (np.ones(n), np.argsort(new_assign, kind="stable"),
             np.concatenate(([0], np.cumsum(counts)))),
            shape=(L, n),
        )
        centers = onehot @ np.ascontiguousarray(points) / counts[:, None]
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
    return centers


def bench_recipe_points(recipe):
    """The (n, d) concatenated training split of data seed 0 that the
    benchmark's k-means calls cluster."""
    if recipe == "criterion-6":
        ds = dataset.corrupt(
            dataset.synth_multiview(10, 200, (32, 48), seed=0),
            dataset.CorruptionSpec("gaussian-fraction", 0.2, 0),
        )
        db, _ = dataset.split(ds, 200, seed=0)
    else:
        db, _ = dataset.split(dataset.synth_multiview(10, 1050, (16, 16), seed=0), 500, seed=0)
    return db.concatenated().T


def distance_calls(monkeypatch, points, L, seed):
    """The points_sq argument of every sq_dists call that kmeans makes."""
    calls = []
    sq_dists = core_math.sq_dists

    def spy(pts, centers, points_sq=None):
        calls.append(points_sq)
        return sq_dists(pts, centers, points_sq)

    monkeypatch.setattr(core_math, "sq_dists", spy)
    core_math.kmeans(points, L, seed=seed)
    return calls


def kmeans_peak(points):
    """The tracemalloc peak of kmeans(points, 200, seed=0), in bytes."""
    core_math.kmeans(points[:50], 3)   # imports scipy outside the trace
    tracemalloc.start()
    try:
        core_math.kmeans(points, 200, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def inertia(points, centers):
    """Sum over points of the squared distance to the nearest center, by
    brute force."""
    return float(((points[:, None, :] - centers[None]) ** 2).sum(axis=2).min(axis=1).sum())


# The three sites of TestKmeans.test_no_cluster_left_empty and their counts.
SITES = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
SITE_COUNTS = [4, 3, 2]

# (n, d, L, iters, seed) of TestKmeans.test_matches_reference_lloyd.
LLOYD_CASES = [(50, 2, 3, 10, 0), (200, 5, 12, 25, 1), (400, 16, 40, 8, 2), (120, 33, 7, 3, 3)]


def lloyd_points(n, d, seed):
    rng = np.random.default_rng(100 + seed)
    return rng.normal(size=(n, d)) + 4.0 * rng.integers(0, 3, size=(n, 1))


def kmeans_case(name):
    """(points, L, seed) of each TestKmeans input, by name."""
    kind, *args = name.split("-")
    args = [int(a) for a in args]
    if kind == "exact":
        centers = np.random.default_rng(9).normal(size=(4, 3)) * 5
        return np.repeat(centers, 10, axis=0), 4, 0
    if kind == "sites":
        return np.repeat(SITES, SITE_COUNTS, axis=0), *args
    if kind == "lloyd":
        n, d, L, _, seed = args
        return lloyd_points(n, d, seed), L, seed
    rng_seed, n, d, L, seed = {
        "single": (10, 30, 2, 1, 0),
        "descent": (12, 200, 4, 5, 3),
        "deterministic": (13, 80, 3, 7, 5),
    }[kind]
    return np.random.default_rng(rng_seed).normal(size=(n, d)), L, seed


KMEANS_CASES = (
    ["exact", "single", "descent", "deterministic"]
    + ["lloyd-" + "-".join(map(str, c)) for c in LLOYD_CASES]
    + [f"sites-{L}-{seed}" for L in (5, 6) for seed in range(3)]
)


class TestBlocks:
    @pytest.mark.parametrize("n", [0, 1, 2, 4, 5, 8, 9, 10, 13])
    def test_spans_cover_in_order_without_a_lone_line(self, n):
        # 9 = 4 + 5 and 13 = 4 + 4 + 5: a lone last line joins the slice before
        sizes = [s.stop - s.start for s in core_math.spans(n, 4)]
        got = np.concatenate([np.arange(n)[s] for s in core_math.spans(n, 4)])
        np.testing.assert_array_equal(got, np.arange(n))
        assert max(sizes) <= 5 and (n < 2 or min(sizes) >= 2)

    def test_wide_lines_come_at_least_two_a_block(self):
        # a line wider than _BLOCK would make one-line blocks, whose products
        # numpy sends through its matrix-vector path
        sizes = [s.stop - s.start for s in core_math.blocks(7, 4 * core_math._BLOCK)]
        assert sizes == [2, 2, 3]


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

    @pytest.mark.parametrize("seed", range(4))
    def test_bits_match_three_term_expression(self, seed):
        rng = np.random.default_rng(seed)
        n, d, L = rng.integers(5, 300), rng.integers(1, 40), rng.integers(1, 60)
        scale = 10.0 ** rng.uniform(-3, 3)
        pts, ctr = scale * rng.normal(size=(n, d)), scale * rng.normal(size=(L, d))
        for p in (pts, np.asfortranarray(pts)):
            want = three_term_sq_dists(p, ctr)
            np.testing.assert_array_equal(core_math.sq_dists(p, ctr), want)
            # precomputed row norms give the same bits
            np.testing.assert_array_equal(
                core_math.sq_dists(p, ctr, np.sum(p ** 2, axis=1)), want
            )


def far_sample_distances():
    """Squared distances from 3,000 samples near the origin, and one sample at
    (5, 5, 5, 5), to 10 of the near samples; the far sample's d^2/t exceeds
    745, past which exp(-d^2/t) underflows to 0."""
    rng = np.random.default_rng(0)
    view = rng.normal(scale=1e-3, size=(4, 3000))
    view[:, 0] = 5.0
    return core_math.sq_dists(view.T, view[:, 1:11].T)


class TestKnnWeights:
    def test_ties_go_to_lower_index(self):
        d2 = np.array([[1.0, 0.5, 0.5, 0.5], [2.0, 2.0, 2.0, 2.0]])
        order, w = core_math.knn_weights(d2, 2, 1.0)
        np.testing.assert_array_equal(order, [[1, 2], [0, 1]])
        np.testing.assert_array_equal(w, 0.5)

    def test_matches_unshifted_formula(self):
        rng = np.random.default_rng(1)
        d2 = rng.uniform(0.0, 5.0, size=(40, 12))
        order, w = core_math.knn_weights(d2, 4, 1.3)
        want_order = np.argsort(d2, axis=1, kind="stable")[:, :4]
        want = np.exp(-np.take_along_axis(d2, want_order, axis=1) / 1.3)
        want /= want.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(order, want_order)
        np.testing.assert_allclose(w, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rows", ["random", "tied", "inf"])
    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_order_is_stable_argsort(self, rows, k):
        rng = np.random.default_rng(2)
        if rows == "random":
            d2 = rng.uniform(0.0, 5.0, size=(60, 12))
        else:   # three distinct values: many ties
            d2 = rng.integers(0, 3, size=(60, 12)).astype(float)
        if rows == "inf":   # about half past column k, so every row keeps k below +inf
            d2[:, k:][rng.random((60, 12 - k)) < 0.5] = np.inf
        order, _ = core_math.knn_weights(d2, k, 1.0)
        np.testing.assert_array_equal(order, np.argsort(d2, axis=1, kind="stable")[:, :k])

    def test_far_row_finite_and_normalised(self):
        d2 = far_sample_distances()
        t = float(np.mean(np.partition(d2, 2, axis=1)[:, 2]))
        order, w = core_math.knn_weights(d2, 3, t)
        # the unshifted weights of the far row are all 0: 0/0
        assert not np.any(np.exp(-d2[0, order[0]] / t))
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def svt_dense(m, tau):
    """svt_factors(m, tau) with Q multiplied out: (Q, U, full_svd)."""
    left, right, u, full_svd = core_math.svt_factors(m, tau)
    return left @ right, u, full_svd


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
        q, u, _ = svt_dense(m, tau)
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
        left, right, u, full_svd = core_math.svt_factors(m, tau)
        q = left @ right
        want_q, want_u = self.svd_oracle(m, tau)
        assert not full_svd
        assert left.shape == u.shape == want_u.shape == (shape[0], 10)
        assert right.shape == (10, shape[1])
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

    @pytest.mark.parametrize("shape", [(40, 3000), (3000, 40)], ids=["wide", "tall"])
    @pytest.mark.parametrize("full_svd", [False, True])
    def test_float32_input_keeps_float32_factors(self, shape, full_svd):
        # the Gram matrix is float64, formed over blocks of _GRAM_CHUNK
        # columns (the last one narrower); U stays float64
        m = self.rank_10_plus_noise(shape, 12).astype(np.float32)
        m64 = m.astype(float)
        s = np.linalg.svd(m64, compute_uv=False)
        tau = 0.0 if full_svd else 0.5 * s[9]
        left, right, u, took_svd = core_math.svt_factors(m, tau)
        want_q, want_u = self.svd_oracle(m64, tau)
        assert took_svd == full_svd
        assert left.dtype == right.dtype == np.float32 and u.dtype == np.float64
        assert u.shape == want_u.shape
        assert np.linalg.norm(left @ right - want_q) <= 1e-6 * np.linalg.norm(want_q)
        np.testing.assert_allclose(
            core_math._singular_values(m)[::-1][:10], s[:10], rtol=1e-12
        )

    @pytest.mark.parametrize("shape", [(40, 300), (300, 40)], ids=["wide", "tall"])
    def test_tau_above_spectrum_gives_zero(self, shape):
        m = self.rank_10_plus_noise(shape, 7)
        tau = 1.5 * np.linalg.norm(m, 2)
        q, u, full_svd = svt_dense(m, tau)
        assert not full_svd
        np.testing.assert_array_equal(q, np.zeros(shape))
        assert u.shape == (shape[0], 0)

    def test_tau_zero_falls_back_and_returns_input(self):
        m = self.rank_10_plus_noise((40, 300), 8)
        q, u, full_svd = svt_dense(m, 0.0)
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
        q, u, full_svd = svt_dense(m, 5e-10)
        want_q, want_u = self.svd_oracle(m, 5e-10)
        assert full_svd
        np.testing.assert_array_equal(q, want_q)
        np.testing.assert_array_equal(u, want_u)

    def test_fallback_rule_boundary(self):
        m = self.rank_10_plus_noise((40, 300), 10)
        rule = core_math._GRAM_MIN_TAU * np.linalg.norm(m, 2)
        assert core_math.svt_factors(m, 0.5 * rule)[3]
        assert not core_math.svt_factors(m, 2.0 * rule)[3]

    @pytest.mark.parametrize("shape", [(6, 30), (30, 6)], ids=["wide", "tall"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_gram_rejected(self, shape, bad):
        # 1e200 is finite, but its square overflows the Gram diagonal
        m = self.rank_10_plus_noise(shape, 11)
        m[2, 3] = bad
        with pytest.raises(ValueError, match="must be finite, with no square that overflows"):
            core_math.svt_factors(m, 0.1)


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
        points, L, seed = kmeans_case("exact")
        got = core_math.kmeans(points, L, seed=seed)
        assert inertia(points, got) == pytest.approx(0.0, abs=1e-18)
        want = points[::10]
        np.testing.assert_allclose(
            got[np.lexsort(got.T)], want[np.lexsort(want.T)], atol=1e-12
        )

    def test_single_cluster_is_mean(self):
        points, L, seed = kmeans_case("single")
        got = core_math.kmeans(points, L, seed=seed)
        np.testing.assert_allclose(got[0], points.mean(axis=0), atol=1e-12)

    def test_inertia_non_increasing(self, monkeypatch):
        # prefix runs share the seeded trajectory, so inertia at increasing
        # iteration caps traces the per-iteration sequence
        points, L, seed = kmeans_case("descent")
        inertias = []
        for t in range(1, 12):
            monkeypatch.setattr(core_math, "_KMEANS_ITERS", t)
            inertias.append(inertia(points, core_math.kmeans(points, L, seed=seed)))
        for a, b in zip(inertias, inertias[1:]):
            assert b <= a + 1e-9

    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr(core_math, "_KMEANS_ITERS", 15)
        points, L, seed = kmeans_case("deterministic")
        np.testing.assert_array_equal(
            core_math.kmeans(points, L, seed=seed), core_math.kmeans(points, L, seed=seed)
        )

    @pytest.mark.parametrize("n, d, L, iters, seed", LLOYD_CASES)
    def test_matches_reference_lloyd(self, monkeypatch, n, d, L, iters, seed):
        monkeypatch.setattr(core_math, "_KMEANS_ITERS", iters)
        points = lloyd_points(n, d, seed)
        for p in (points, np.asfortranarray(points)):
            np.testing.assert_array_equal(
                core_math.kmeans(p, L, seed=seed), reference_kmeans(p, L, iters, seed)
            )

    @pytest.mark.parametrize("name", KMEANS_CASES)
    def test_seeding_matches_old_formula(self, name):
        points, L, seed = kmeans_case(name)
        for p in (points, np.asfortranarray(points)):
            np.testing.assert_array_equal(
                core_math._kmeanspp_init(
                    p, np.sum(p ** 2, axis=1), L, np.random.default_rng(seed)
                ),
                reference_kmeanspp_init(p, L, np.random.default_rng(seed)),
            )

    @pytest.mark.parametrize("recipe", ["criterion-6", "scale-10k"])
    def test_seeding_matches_old_formula_on_bench_recipes(self, recipe):
        # the base-set call (L = 300) on the training split of data seed 0
        points = bench_recipe_points(recipe)
        np.testing.assert_array_equal(
            core_math._kmeanspp_init(
                points, np.sum(points ** 2, axis=1), 300, np.random.default_rng(0)
            ),
            reference_kmeanspp_init(points, 300, np.random.default_rng(0)),
        )

    @pytest.mark.parametrize("recipe, L", [
        ("criterion-6", 100), ("criterion-6", 300), ("scale-10k", 200), ("scale-10k", 300),
    ])
    def test_product_assignment_matches_distances_on_bench_recipes(self, recipe, L):
        # every k-means call of the benchmark at data seed 0: assigning by
        # ||c||^2 - 2 x.c picks the centers that the distances pick
        points = bench_recipe_points(recipe)
        np.testing.assert_array_equal(
            core_math.kmeans(points, L, seed=0), reference_onehot_lloyd(points, L, 0)
        )

    @pytest.mark.parametrize("order", [[0, 1], [1, 0]])
    def test_exact_tie_goes_to_lower_index(self, monkeypatch, order):
        # p is exactly equidistant (3.25) from a and b, and both of its scores
        # are exactly -1, so it joins whichever of them has the lower index
        a, b, p = [1.0, 2.0], [3.0, -1.0], [2.0, 0.5]
        points = np.array([a, b, p])
        seeds = points[order]
        monkeypatch.setattr(core_math, "_KMEANS_ITERS", 1)
        monkeypatch.setattr(core_math, "_kmeanspp_init", lambda *args: seeds.copy())
        d2 = ((points[:, None, :] - seeds[None]) ** 2).sum(axis=2)
        assert d2[2, 0] == d2[2, 1] == 3.25
        assign = np.argmin(d2, axis=1)
        assert assign[2] == 0
        want = np.array([points[assign == j].mean(axis=0) for j in range(2)])
        np.testing.assert_array_equal(core_math.kmeans(points, 2), want)

    @pytest.mark.parametrize("order", [[0, 1], [1, 0]])
    def test_blocks_match_full_argmin_across_a_tie(self, monkeypatch, order):
        # rows 2..9 are p, exactly equidistant from the seeds a and b; at 4
        # points a block the tied rows straddle the boundaries at rows 4 and
        # 8, and each joins the seed of lower index, as the argmin over the
        # full distance matrix assigns it
        a, b, p = [1.0, 2.0], [3.0, -1.0], [2.0, 0.5]
        points = np.vstack([[a, b], [p] * 8, lloyd_points(30, 2, 0)])
        seeds = points[order]
        monkeypatch.setattr(core_math, "_kmeanspp_init", lambda *args: seeds.copy())
        monkeypatch.setattr(core_math, "_BLOCK", 8)
        assert [s.start for s in core_math.blocks(len(points), 2)][1:3] == [4, 8]
        d2 = three_term_sq_dists(points, seeds)
        assert np.all(d2[2:10, 0] == d2[2:10, 1])
        np.testing.assert_array_equal(
            core_math.kmeans(points, 2), reference_onehot_lloyd(points, 2, 0)
        )

    def test_scores_taken_in_blocks(self):
        # the n x L scores are formed a block of points at a time, so the
        # peak stays well below one n x L float64 array
        points = np.random.default_rng(0).normal(size=(4000, 4))
        assert kmeans_peak(points) < 0.5 * 4000 * 200 * 8

    @pytest.mark.parametrize("L", [5, 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_no_cluster_left_empty(self, monkeypatch, L, seed):
        # 9 points on 3 sites: k-means++ seeds duplicate centers, so clusters
        # empty and must be re-seeded from clusters that can spare a point.
        # Every center is then the mean of points on one site, and a site
        # holding c points holds at most c centers.
        monkeypatch.setattr(core_math, "_KMEANS_ITERS", 5)
        points, _, _ = kmeans_case(f"sites-{L}-{seed}")
        got = core_math.kmeans(points, L, seed=seed)
        on_site = np.all(got[:, None, :] == SITES[None], axis=2)
        assert np.all(on_site.sum(axis=1) == 1)
        assert np.all(on_site.sum(axis=0) <= SITE_COUNTS)
        again = core_math.kmeans(points, L, seed=seed)
        np.testing.assert_array_equal(again, got)

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValueError):
            core_math.kmeans(np.zeros((3, 2)), 4)

    @pytest.mark.parametrize("points, L, match", [
        (np.ones((5, 2)), 0, "cannot form 0 clusters from 5 points"),
        (np.ones((5, 2)), -2, "cannot form -2 clusters from 5 points"),
        (np.zeros((0, 3)), 0, "empty set of points"),
        (np.zeros((0, 3)), 1, "empty set of points"),
        (np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0]]), 2, "must be finite"),
        (np.array([[0.0, 1.0], [np.inf, 2.0], [3.0, 4.0]]), 2, "must be finite"),
        (np.array([[0.0, 1.0], [1e200, 2.0], [3.0, 4.0]]), 2, "overflow"),
        # a squared norm of 1e308 is finite, but a squared distance could not be
        (np.array([[0.0, 1.0], [1e154, 2.0], [3.0, 4.0]]), 2, "overflow"),
    ])
    def test_bad_input_rejected_before_seeding(self, monkeypatch, points, L, match):
        def no_seeding(*args):
            raise AssertionError("seeding started")

        monkeypatch.setattr(core_math, "_kmeanspp_init", no_seeding)
        with pytest.raises(ValueError, match=match):
            core_math.kmeans(points, L)

    def test_every_distance_reuses_row_norms(self, monkeypatch):
        # kmeans computes ||x||^2 once; seeding takes its L - 1 distance
        # columns from sq_dists with those norms, and Lloyd iterations that
        # empty no cluster assign by products alone
        points, L, seed = kmeans_case("lloyd-200-5-12-25-1")
        calls = distance_calls(monkeypatch, points, L, seed)
        assert len(calls) == L - 1
        for points_sq in calls:
            np.testing.assert_array_equal(points_sq, np.sum(points ** 2, axis=1))

    def test_empty_cluster_distances_reuse_row_norms(self, monkeypatch):
        # on the sites clusters empty, and the empty-cluster rule takes its
        # distances from sq_dists with the same norms
        points, L, seed = kmeans_case("sites-6-0")
        calls = distance_calls(monkeypatch, points, L, seed)
        assert len(calls) > L - 1
        for points_sq in calls:
            np.testing.assert_array_equal(points_sq, np.sum(points ** 2, axis=1))

    def test_one_distance_array_alive(self):
        # each Lloyd iteration frees its n x L scores before the next product
        # builds new ones, so the peak stays near one such array
        points = np.random.default_rng(0).normal(size=(4000, 4))
        assert kmeans_peak(points) < 1.5 * 4000 * 200 * 8

    def test_one_distance_array_alive_when_clusters_empty(self, monkeypatch):
        # 4000 points on at most 150 sites: the 200 seeds repeat and clusters
        # empty, and the scores are freed before sq_dists builds the n x L
        # distances of the empty-cluster rule
        rng = np.random.default_rng(0)
        points = rng.normal(size=(150, 4))[rng.integers(150, size=4000)]
        assert len(distance_calls(monkeypatch, points, 200, 0)) > 199
        monkeypatch.undo()
        assert kmeans_peak(points) < 1.5 * 4000 * 200 * 8
