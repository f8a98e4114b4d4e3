import numpy as np
import pytest

from rmvhash import (
    anchor_graph, core_math, dataset, evaluation, hash_trainer, kernel_sim, lowrank_alm,
    model_io,
)
from rmvhash.dataset import MultiViewDataset
from rmvhash.hash_trainer import (
    ALMConfig,
    CodeState,
    GraphConfig,
    HyperParams,
    KernelSelectConfig,
    OosConfig,
)


def small_train_kwargs():
    return dict(
        graph_cfg=GraphConfig(L=20, k=3),
        kernel_cfg=KernelSelectConfig(R=20),
        oos_cfg=OosConfig(Z=25, k_oos=10),
    )


def mean_kernel_oracle(model, x):
    """k(x) for one concatenated item: the mean over views of
    exp(-||z - x_m||^2 / (2 sigma_m^2)) against that view's landmarks."""
    blocks = model.landmarks.blocks
    parts = np.split(x, np.cumsum([z.shape[1] for z in blocks])[:-1])
    return np.mean([
        np.exp(-np.sum((z - xm) ** 2, axis=1) / (2.0 * s ** 2))
        for z, xm, s in zip(blocks, parts, model.kernel_config.sigmas)
    ], axis=0)


def toy_graphs_and_state(seed=0, n=30, p=4, m=2):
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(m):
        view = rng.normal(size=(5, n))
        lm = view[:, np.random.default_rng(i).choice(n, size=6, replace=False)].T
        graphs.append(anchor_graph.build_truncated_affinity(view, lm, k=2))
    Y = rng.normal(size=(n, p))
    state = CodeState(Y=Y, Y_view=[Y.copy() for _ in range(m)])
    Khat = np.abs(rng.normal(size=(8, n)))
    W = rng.normal(size=(8, p))
    b = rng.normal(size=p)
    return graphs, state, Khat, W, b


class TestUpdateWb:
    def test_residual_column_means_vanish(self):
        rng = np.random.default_rng(1)
        Khat = np.abs(rng.normal(size=(10, 40)))
        Y = rng.normal(size=(40, 6))
        W, b = hash_trainer.update_Wb(Khat, Y, delta=1e-6)
        resid = Khat.T @ W + b - Y
        np.testing.assert_allclose(resid.sum(axis=0), 0.0, atol=1e-9)

    def test_ridge_asymptote(self):
        rng = np.random.default_rng(2)
        Khat = np.abs(rng.normal(size=(8, 30)))
        Y = rng.normal(size=(30, 4))
        W_small, _ = hash_trainer.update_Wb(Khat, Y, delta=1e-6)
        W_big, _ = hash_trainer.update_Wb(Khat, Y, delta=1e8)
        assert np.linalg.norm(W_big) <= 1e-4 * np.linalg.norm(W_small)

    def test_finite_difference_gradient(self):
        rng = np.random.default_rng(3)
        Khat = np.abs(rng.normal(size=(20, 50)))
        Y = rng.normal(size=(50, 8))
        delta = 1e-3
        W, b = hash_trainer.update_Wb(Khat, Y, delta=delta)

        def quad(w, bias):
            r = Khat.T @ w + bias - Y
            return np.sum(r ** 2) + delta * np.sum(w ** 2)

        eps = 1e-5
        grad = []
        for idx in np.ndindex(W.shape):
            w_hi, w_lo = W.copy(), W.copy()
            w_hi[idx] += eps
            w_lo[idx] -= eps
            grad.append((quad(w_hi, b) - quad(w_lo, b)) / (2 * eps))
        for j in range(b.size):
            b_hi, b_lo = b.copy(), b.copy()
            b_hi[j] += eps
            b_lo[j] -= eps
            grad.append((quad(W, b_hi) - quad(W, b_lo)) / (2 * eps))
        scale = max(np.linalg.norm(W), 1.0)
        assert np.linalg.norm(grad) < 1e-6 * scale

    def test_singular_system_without_ridge(self):
        Khat = np.zeros((5, 10))
        Y = np.random.default_rng(4).normal(size=(10, 3))
        with pytest.raises(hash_trainer.NumericError, match="delta"):
            hash_trainer.update_Wb(Khat, Y, delta=0.0)


class TestUpdateCodes:
    def test_gamma_zero_decouples(self):
        # Y is the orthogonalized regression output sqrt(N) U V^T, with
        # U S V^T its thin SVD; the view codes keep the previous Y
        graphs, state, Khat, W, b = toy_graphs_and_state(seed=5)
        hp = HyperParams(P=4, gamma=0.0)
        out = hash_trainer.update_codes(state, graphs, Khat, W, b, hp)
        u, _, vt = np.linalg.svd(Khat.T @ W + b, full_matrices=False)
        np.testing.assert_allclose(out.Y, np.sqrt(30) * u @ vt, rtol=0, atol=1e-10)
        for yv in out.Y_view:
            np.testing.assert_array_equal(yv, state.Y)

    def test_constant_codes_are_laplacian_fixed_point(self):
        graphs, state, Khat, W, b = toy_graphs_and_state(seed=6)
        const = np.tile(np.array([1.0, -2.0, 0.5, 3.0]), (30, 1))
        state = CodeState(Y=const, Y_view=[const.copy() for _ in graphs])
        hp = HyperParams(P=4, gamma=0.5)
        out = hash_trainer.update_codes(state, graphs, Khat, W, b, hp)
        for yv in out.Y_view:
            np.testing.assert_allclose(yv, const, atol=1e-6)

    def test_view_solves_exact_against_dense_operator(self):
        rng = np.random.default_rng(12)
        n, p, gamma = 1200, 8, 1e-4
        graphs = []
        for m in range(2):
            view = rng.normal(size=(6, n))
            lm = anchor_graph.select_graph_landmarks(view, 60, seed=m)
            graphs.append(anchor_graph.build_truncated_affinity(view, lm, k=3))
        Y = rng.normal(size=(n, p))
        state = CodeState(Y=Y, Y_view=[Y.copy() for _ in graphs])
        Khat = np.abs(rng.normal(size=(8, n)))
        hp = HyperParams(P=p, gamma=gamma)
        out = hash_trainer.update_codes(
            state, graphs, Khat, rng.normal(size=(8, p)), np.zeros(p), hp
        )
        for g, yv in zip(graphs, out.Y_view):
            A = (2.0 + gamma) * np.eye(n) - 2.0 * anchor_graph.materialize(g)
            resid = np.linalg.norm(A @ yv - gamma * Y) / np.linalg.norm(gamma * Y)
            assert resid <= 1e-10

    def test_orthogonalized_codes_decorrelated(self):
        graphs, state, Khat, W, b = toy_graphs_and_state(seed=8)
        hp = HyperParams(P=4, gamma=0.1)
        out = hash_trainer.update_codes(state, graphs, Khat, W, b, hp)
        n = out.Y.shape[0]
        np.testing.assert_allclose(out.Y.T @ out.Y / n, np.eye(4), atol=1e-6)


class TestObjective:
    def test_zero_state_is_zero(self):
        graphs, *_ = toy_graphs_and_state(seed=9)
        n = graphs[0].n_samples
        zeros = CodeState(Y=np.zeros((n, 4)), Y_view=[np.zeros((n, 4))] * 2)
        val = hash_trainer.objective(
            zeros, graphs, np.zeros((8, n)), np.zeros((8, 4)), np.zeros(4), HyperParams(P=4),
        )
        assert val == 0.0

    def test_duplicated_views_double_view_terms(self):
        graphs, state, Khat, W, b = toy_graphs_and_state(seed=10)
        hp = HyperParams(P=4)
        single = hash_trainer.objective(state, graphs[:1], Khat, W, b, hp)
        state2 = CodeState(Y=state.Y, Y_view=[state.Y_view[0]] * 2)
        double = hash_trainer.objective(state2, graphs[:1] * 2, Khat, W, b, hp)
        fixed = hp.beta * (np.sum((Khat.T @ W + b - state.Y) ** 2) + hp.delta * np.sum(W ** 2))
        assert double - fixed == pytest.approx(2 * (single - fixed), rel=1e-10)

    def test_matches_dense_oracle(self):
        graphs, state, Khat, W, b = toy_graphs_and_state(seed=11, n=20)
        hp = HyperParams(P=4, gamma=0.3)
        val = hash_trainer.objective(state, graphs, Khat, W, b, hp)
        total = 0.0
        for g, yv in zip(graphs, state.Y_view):
            S = anchor_graph.materialize(g)
            for i in range(20):
                for j in range(20):
                    total += S[i, j] * np.sum((yv[i] - yv[j]) ** 2)
            total += hp.gamma * np.sum((state.Y - yv) ** 2)
        total += hp.beta * (
            np.sum((Khat.T @ W + b - state.Y) ** 2) + hp.delta * np.sum(W ** 2)
        )
        assert val == pytest.approx(total, abs=1e-8)


# Each float setting with a value just outside its range.
FLOAT_SETTINGS = [
    (HyperParams, "gamma", -1e-3), (HyperParams, "delta", -1e-9),
    (HyperParams, "beta", 0.0), (HyperParams, "outer_tol", 0.0),
    (ALMConfig, "alpha", 0.0), (ALMConfig, "lam", -1e-3),
    (ALMConfig, "rho", 1.0), (ALMConfig, "tol", 0.0),
]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "edge"])
@pytest.mark.parametrize(
    "cls, name, edge", FLOAT_SETTINGS, ids=[f"{c.__name__}.{n}" for c, n, _ in FLOAT_SETTINGS]
)
def test_bad_float_setting_rejected(cls, name, edge, value):
    value = edge if value == "edge" else value
    with pytest.raises(ValueError, match=rf"{cls.__name__}\.{name} must be finite"):
        cls(**{name: value})


class TestTrain:
    def test_converges_on_synthetic(self):
        ds = dataset.synth_multiview(6, 40, (12, 16), seed=0)
        hp = HyperParams(P=16, outer_iters=60)
        _, _, _, diag = hash_trainer.train(ds, hp, seed=0, **small_train_kwargs())
        assert diag.converged
        assert diag.outer_iterations <= 60

    def test_deterministic(self):
        ds = dataset.synth_multiview(4, 25, (10,), seed=1)
        kw = small_train_kwargs()
        m1, _, k1, _ = hash_trainer.train(ds, HyperParams(P=8), seed=3, **kw)
        m2, _, k2, _ = hash_trainer.train(ds, HyperParams(P=8), seed=3, **kw)
        np.testing.assert_array_equal(m1.W, m2.W)
        np.testing.assert_array_equal(m1.b, m2.b)
        np.testing.assert_array_equal(k1, k2)

    def test_w_in_recovered_range(self):
        # with recovery, W is projected onto the column space of the ALM's Q
        ds = dataset.synth_multiview(4, 25, (10, 12), seed=4)
        model, _, _, diag = hash_trainer.train(
            ds, HyperParams(P=8, outer_iters=5), seed=0, **small_train_kwargs()
        )
        U = diag.alm.U
        assert U.shape[1] < model.W.shape[0]
        np.testing.assert_allclose(U @ (U.T @ model.W), model.W, atol=1e-12)

    def test_non_finite_data_rejected_before_train(self):
        # the dataset gate names the value; train never reaches k-means with it
        views = [v.copy() for v in dataset.synth_multiview(4, 25, (10, 12), seed=0).views]
        views[1][3, 7] = np.nan
        with pytest.raises(dataset.DatasetFormatError, match="view 1: value nan at row 3, col 7"):
            hash_trainer.train(
                MultiViewDataset(views=tuple(views)), HyperParams(P=8), seed=0,
                **small_train_kwargs(),
            )

    def test_negative_kernel_r_rejected(self):
        with pytest.raises(ValueError, match="KernelSelectConfig.R"):
            KernelSelectConfig(R=-3)
        assert KernelSelectConfig().R == 0   # 0 means "same as L"

    @pytest.mark.parametrize("field, hp, cfg", [
        pytest.param("GraphConfig.L", HyperParams(P=8), dict(graph_cfg=GraphConfig(L=21)),
                     id="L"),
        pytest.param("KernelSelectConfig.R", HyperParams(P=8),
                     dict(kernel_cfg=KernelSelectConfig(R=21)), id="R"),
        pytest.param("HyperParams.P", HyperParams(P=32), {}, id="P"),
        pytest.param("GraphConfig.k", HyperParams(P=8),
                     dict(graph_cfg=GraphConfig(L=10, k=11)), id="k"),
        pytest.param("KernelSelectConfig.self_tuning_k", HyperParams(P=8),
                     dict(kernel_cfg=KernelSelectConfig(R=10, self_tuning_k=11)), id="k_st"),
    ])
    def test_unsatisfiable_setting_rejected_before_kmeans(self, monkeypatch, field, hp, cfg):
        # on 20 items P=32 used to train 20 bits; k > L and k_st > R failed
        # only after the k-means, without naming the setting
        def no_kmeans(*args, **kwargs):
            raise AssertionError("k-means ran before the settings were checked")

        monkeypatch.setattr(core_math, "kmeans", no_kmeans)
        ds = dataset.synth_multiview(4, 5, (6, 7), seed=0)
        kw = dict(graph_cfg=GraphConfig(L=10), kernel_cfg=KernelSelectConfig(R=10),
                  oos_cfg=OosConfig(Z=10, k_oos=5))
        with pytest.raises(ValueError, match=rf"^{field}=\d+ exceeds "):
            hash_trainer.train(ds, hp, **{**kw, **cfg})

    @pytest.mark.parametrize("L, R, Z, clusterings", [
        (20, 20, 20, 1), (20, 20, 25, 2), (15, 20, 20, 2), (20, 15, 20, 2),
    ], ids=["L=R=Z", "L=R!=Z", "L!=R=Z", "L=Z!=R"])
    def test_one_kmeans_per_distinct_count(self, monkeypatch, L, R, Z, clusterings):
        # every landmark set is a split of kmeans(concatenated features,
        # count, seed), clustered once per distinct count below N
        ds = dataset.synth_multiview(4, 25, (10, 12), seed=0)
        concat = ds.concatenated().T
        joint = {c: np.split(core_math.kmeans(concat, c, seed=2), [10], axis=1) for c in (L, R)}
        counts, graph_landmarks = [], []
        kmeans, build = core_math.kmeans, anchor_graph.build_truncated_affinity
        monkeypatch.setattr(
            core_math, "kmeans", lambda pts, c, seed: counts.append(c) or kmeans(pts, c, seed)
        )
        monkeypatch.setattr(
            anchor_graph, "build_truncated_affinity",
            lambda view, lm, k: graph_landmarks.append(lm) or build(view, lm, k),
        )
        model, _, _, _ = hash_trainer.train(
            ds, HyperParams(P=8, outer_iters=3), graph_cfg=GraphConfig(L=L, k=3),
            kernel_cfg=KernelSelectConfig(R=R), oos_cfg=OosConfig(Z=Z, k_oos=10), seed=2,
        )
        assert len(counts) == clusterings
        for got, want in zip(graph_landmarks, joint[L], strict=True):
            np.testing.assert_array_equal(got, want)
        if L == R:
            for got, want in zip(graph_landmarks, model.landmarks.blocks, strict=True):
                np.testing.assert_array_equal(got, want)
        for got, want in zip(model.landmarks.blocks, joint[R], strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(model.base_set.centers, kmeans(concat, Z, seed=2))

    def test_rank_0_recovery_rejected(self):
        # alpha this large shrinks Q to 0, so W would be 0 and every code sign(b)
        ds = dataset.synth_multiview(4, 25, (10, 12), seed=0)
        with pytest.raises(ValueError, match="alpha=10"):
            hash_trainer.train(
                ds, HyperParams(P=8), alm_cfg=ALMConfig(alpha=10), **small_train_kwargs()
            )

    def test_alpha_and_lam_set_only_on_alm_config(self, monkeypatch):
        # alpha and lam are set on ALMConfig alone; HyperParams only reads
        # back ALMConfig's defaults
        with pytest.raises(TypeError, match="alpha"):
            HyperParams(alpha=0.5)
        hp = HyperParams(P=8)
        for name in ("alpha", "lam"):
            with pytest.raises(AttributeError):
                setattr(hp, name, 0.5)
        assert (hp.alpha, hp.lam) == (ALMConfig.alpha, ALMConfig.lam)
        seen, recover = [], lowrank_alm.recover
        monkeypatch.setattr(
            lowrank_alm, "recover",
            lambda K_list, cfg: seen.append((cfg.alpha, cfg.lam)) or recover(K_list, cfg),
        )
        ds = dataset.synth_multiview(4, 25, (10, 12), seed=0)
        hash_trainer.train(ds, hp, **small_train_kwargs())
        hash_trainer.train(ds, hp, alm_cfg=ALMConfig(alpha=0.5, lam=0.01), **small_train_kwargs())
        assert seen == [(ALMConfig.alpha, ALMConfig.lam), (0.5, 0.01)]

    def test_single_bit(self):
        ds = dataset.synth_multiview(3, 20, (8, 8), seed=2)
        model, state, Khat, _ = hash_trainer.train(
            ds, HyperParams(P=1, outer_iters=10), seed=0, **small_train_kwargs()
        )
        codes = hash_trainer.encode_database(model, Khat)
        assert codes.shape == (60, 1)
        assert set(np.unique(codes)) <= {-1, 1}

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        ds = dataset.synth_multiview(3, 15, (6, 7), seed=3)
        model, _, Khat, _ = hash_trainer.train(
            ds, HyperParams(P=8, outer_iters=5), seed=0, **small_train_kwargs()
        )
        codes = hash_trainer.encode_database(model, Khat)
        perm = rng.permutation(ds.n_samples)
        codes_perm = hash_trainer.encode_database(model, Khat[:, perm])
        np.testing.assert_array_equal(codes_perm, codes[perm])

    def test_recover_gets_float32_kernels(self, monkeypatch):
        # the ALM sweeps in float32, on kernels floored at sqrt(float32 tiny);
        # the average that replaces it without recovery stays float64
        seen, recover = [], lowrank_alm.recover
        monkeypatch.setattr(
            lowrank_alm, "recover", lambda K_list, cfg: seen.extend(K_list) or recover(K_list, cfg)
        )
        ds = dataset.synth_multiview(4, 25, (10, 12), seed=0)
        _, _, Khat, _ = hash_trainer.train(ds, HyperParams(P=8), **small_train_kwargs())
        assert len(seen) == 2 and Khat.dtype == np.float64
        tiny = np.sqrt(np.finfo(np.float32).tiny)
        for K in seen:
            assert K.dtype == np.float32
            assert not np.any((K > 0) & (K < tiny))
        _, _, Khat, _ = hash_trainer.train(
            ds, HyperParams(P=8), recovery=False, **small_train_kwargs()
        )
        assert len(seen) == 2 and Khat.dtype == np.float64


def criterion_3_train(monkeypatch=None, g_seed=None):
    """train on criterion 3's recipe; with g_seed, recover's Khat is first
    multiplied by (1 + 1e-15 g), g standard normal drawn with that seed."""
    if g_seed is not None:
        recover = lowrank_alm.recover

        def perturbed(K_list, cfg):
            Khat, E_list, diag = recover(K_list, cfg)
            g = np.random.default_rng(g_seed).standard_normal(Khat.shape)
            return Khat * (1.0 + 1e-15 * g), E_list, diag

        monkeypatch.setattr(lowrank_alm, "recover", perturbed)
    ds = dataset.synth_multiview(6, 60, (16, 20), seed=0)
    return hash_trainer.train(
        ds, HyperParams(P=16, outer_iters=60),
        graph_cfg=GraphConfig(L=30, k=3),
        kernel_cfg=KernelSelectConfig(R=30),
        oos_cfg=OosConfig(Z=50, k_oos=15),
        seed=0,
    )


class TestOrthonormalCodes:
    """The code step returns the polar factor of its target, so Y^T Y = N I
    holds even where the target has lost rank, and every block step of the
    outer loop is an exact minimiser."""

    def test_codes_keep_constraint(self):
        _, state, _, _ = criterion_3_train()
        n, p = state.Y.shape
        np.testing.assert_allclose(state.Y.T @ state.Y / n, np.eye(p), rtol=0, atol=1e-10)

    def test_objective_never_rises(self):
        traces = [criterion_3_train()[3].objective_trace]
        ds = dataset.synth_multiview(6, 40, (12, 16), seed=0)
        traces.append(hash_trainer.train(
            ds, HyperParams(P=16, outer_iters=60), seed=0, **small_train_kwargs()
        )[3].objective_trace)
        for trace in traces:
            trace = np.array(trace)
            assert np.all(np.diff(trace) <= 1e-12 * np.abs(trace[:-1])), trace

    @pytest.mark.parametrize("g_seed", range(3))
    def test_convergence_survives_rounding_of_khat(self, monkeypatch, g_seed):
        want = criterion_3_train()[3]
        got = criterion_3_train(monkeypatch, g_seed)[3]
        assert want.converged and got.converged
        assert got.outer_iterations == want.outer_iterations


class TestEncoding:
    def test_zero_w_uses_bias_sign(self):
        graphs, _, Khat, W, b = toy_graphs_and_state(seed=13)
        model = hash_trainer.HashModel(
            W=np.zeros_like(W),
            b=np.array([1.0, -1.0, 2.0, -0.5]),
            landmarks=None,
            kernel_config=None,
        )
        codes = hash_trainer.encode_database(model, Khat)
        np.testing.assert_array_equal(codes, np.tile([1, -1, 1, -1], (30, 1)))

    def test_bit_flip_equivariance(self):
        graphs, _, Khat, W, b = toy_graphs_and_state(seed=14)
        model = hash_trainer.HashModel(W=W, b=b, landmarks=None, kernel_config=None)
        codes = hash_trainer.encode_database(model, Khat)
        W2 = W.copy()
        W2[:, 1] *= -1
        b2 = b.copy()
        b2[1] *= -1
        flipped = hash_trainer.encode_database(
            hash_trainer.HashModel(W=W2, b=b2, landmarks=None, kernel_config=None),
            Khat,
        )
        np.testing.assert_array_equal(flipped[:, 1], -codes[:, 1])
        np.testing.assert_array_equal(
            np.delete(flipped, 1, axis=1), np.delete(codes, 1, axis=1)
        )

    def test_matches_dense_product_oracle(self):
        graphs, _, Khat, W, b = toy_graphs_and_state(seed=15)
        model = hash_trainer.HashModel(W=W, b=b, landmarks=None, kernel_config=None)
        codes = hash_trainer.encode_database(model, Khat)
        for i in range(Khat.shape[1]):
            pre = W.T @ Khat[:, i] + b
            want = np.array([1 if x >= 0 else -1 for x in pre])
            np.testing.assert_array_equal(codes[i], want)

    def test_query_codes_are_sign_vectors(self):
        ds = dataset.synth_multiview(3, 20, (8, 9), seed=4)
        model, _, _, _ = hash_trainer.train(
            ds, HyperParams(P=8, outer_iters=5), seed=0, **small_train_kwargs()
        )
        rng = np.random.default_rng(16)
        queries = MultiViewDataset(views=tuple(rng.normal(size=(d, 20)) for d in ds.dims))
        codes = hash_trainer.encode_queries(model, queries)
        assert codes.shape == (20, 8)
        assert set(np.unique(codes)) <= {-1, 1}

    def test_shape_mismatch_rejected(self):
        model = hash_trainer.HashModel(
            W=np.zeros((5, 4)), b=np.zeros(4), landmarks=None, kernel_config=None
        )
        with pytest.raises(ValueError):
            hash_trainer.encode_database(model, np.zeros((6, 10)))


class TestEncodeQueries:
    """encode_queries and embed against a model whose kernel landmarks are
    sample columns of a random dataset, with random W and b."""

    def setup_method(self):
        rng = np.random.default_rng(17)
        self.ds = MultiViewDataset(views=(rng.normal(size=(4, 60)), rng.normal(size=(5, 60))))
        lm = kernel_sim.KernelLandmarks(
            blocks=tuple(v[:, :12].T.copy() for v in self.ds.views)
        )
        cfg = kernel_sim.tune_config(self.ds, lm, self_tuning_k=3)
        self.model = hash_trainer.HashModel(
            W=rng.normal(size=(12, 6)), b=rng.normal(size=6) * 0.1,
            landmarks=lm, kernel_config=cfg,
        )

    def test_matches_per_item_oracle(self):
        codes = hash_trainer.encode_queries(self.model, self.ds)
        for i, x in enumerate(self.ds.concatenated().T):
            pre = self.model.W.T @ mean_kernel_oracle(self.model, x) + self.model.b
            np.testing.assert_array_equal(codes[i], np.where(pre >= 0, 1, -1))

    def test_far_samples_match_raw_kernel_codes(self):
        # sample 0 walked out to 60 bandwidths along the diagonal: its raw
        # kernel vectors pass through the subnormal range, which the kernel
        # map zeroes, and the codes are those of the raw kernel
        steps = np.linspace(0.0, 30.0, 121) * self.model.kernel_config.sigmas[0]
        far = self.ds.concatenated()[:, :1] + steps
        ds = MultiViewDataset(views=(far[:4], far[4:]))
        tiny = np.finfo(float).tiny
        for v, z, s in zip(ds.views, self.model.landmarks.blocks, self.model.kernel_config.sigmas):
            raw = np.exp(-core_math.sq_dists(z, v.T) / (2.0 * s ** 2))
            assert np.any((raw > 0) & (raw < tiny))
        codes = hash_trainer.encode_queries(self.model, ds)
        for i, x in enumerate(far.T):
            pre = self.model.W.T @ mean_kernel_oracle(self.model, x) + self.model.b
            np.testing.assert_array_equal(codes[i], np.where(pre >= 0, 1, -1))

    def test_subset_rows_across_chunks(self, monkeypatch):
        monkeypatch.setattr(hash_trainer, "_CHUNK", 7)
        full = hash_trainer.encode_queries(self.model, self.ds)
        idx = np.random.default_rng(18).permutation(60)[:23]
        np.testing.assert_array_equal(
            hash_trainer.encode_queries(self.model, self.ds.subset(idx)), full[idx]
        )

    def test_landmark_peaks(self):
        # with W = I and b = 0 the projection is the kernel vector itself
        model = hash_trainer.HashModel(
            W=np.eye(12), b=np.zeros(12),
            landmarks=self.model.landmarks, kernel_config=self.model.kernel_config,
        )
        v = hash_trainer.embed(model, np.hstack(self.model.landmarks.blocks)[2][:, None])[0]
        assert v[2] == pytest.approx(1.0)
        assert np.argmax(v) == 2
        assert np.all(np.delete(v, 2) < 1.0)

    def test_missing_view_rejected(self):
        with pytest.raises(ValueError, match="1 views, expected 2"):
            hash_trainer.encode_queries(self.model, MultiViewDataset(views=(self.ds.views[0],)))

    def test_wrong_view_dim_rejected(self):
        ds = MultiViewDataset(views=(self.ds.views[0], self.ds.views[1][:4]))
        with pytest.raises(ValueError, match="view 1"):
            hash_trainer.encode_queries(self.model, ds)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        views = [v.copy() for v in self.ds.views]
        views[1][2, 5] = bad
        with pytest.raises(ValueError, match="view 1"):
            hash_trainer.encode_queries(self.model, MultiViewDataset(views=tuple(views)))


class TestInvariance:
    """Codes are a function of the data values and the model: not of memory
    layout, feature scale or a save/load round trip. 160 training items and
    40 queries from a corrupted four-cluster dataset."""

    @staticmethod
    def split(seed):
        ds = dataset.synth_multiview(4, 50, (8, 12), seed=seed)
        ds = dataset.corrupt(ds, dataset.CorruptionSpec("gaussian-fraction", 0.2, seed))
        return dataset.split(ds, 40, seed=seed)

    @staticmethod
    def codes(db, queries, seed):
        model, _, Khat, _ = hash_trainer.train(
            db, HyperParams(P=8, outer_iters=20), seed=seed, **small_train_kwargs()
        )
        return model, hash_trainer.encode_database(model, Khat), hash_trainer.encode_queries(
            model, queries
        )

    @staticmethod
    def mapped(ds, fn):
        return MultiViewDataset(views=tuple(fn(v) for v in ds.views), labels=ds.labels)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_memory_layout(self, seed):
        db, queries = self.split(seed)
        c, f = np.ascontiguousarray, np.asfortranarray
        _, db_c, q_c = self.codes(self.mapped(db, c), self.mapped(queries, c), seed)
        _, db_f, q_f = self.codes(self.mapped(db, f), self.mapped(queries, f), seed)
        np.testing.assert_array_equal(db_c, db_f)
        np.testing.assert_array_equal(q_c, q_f)

    def test_feature_scale(self):
        db, queries = self.split(0)
        _, db_1, q_1 = self.codes(db, queries, 0)
        db_8, queries_8 = (self.mapped(ds, lambda v: v * 2.0 ** 3) for ds in (db, queries))
        _, db_8, q_8 = self.codes(db_8, queries_8, 0)
        np.testing.assert_array_equal(db_1, db_8)
        np.testing.assert_array_equal(q_1, q_8)

    def test_save_load(self, tmp_path):
        db, queries = self.split(0)
        model, _, q_codes = self.codes(db, queries, 0)
        model_io.save_model(model, tmp_path / "m.rmvm")
        back, _ = model_io.load_model(tmp_path / "m.rmvm")
        np.testing.assert_array_equal(hash_trainer.encode_queries(back, queries), q_codes)


@pytest.mark.slow
class TestServedQuality:
    """The criterion-6 recipe scored on the codes every command serves: database
    and queries both through encode_queries. Measured on seeds 0-4, whole-ranking
    MAP read 0.975-0.996 with recovery and 0.742-0.856 without, so the bounds
    below leave room on both sides without letting recovery's lead vanish."""

    MIN_MAP_ALL = 0.95
    MIN_MARGIN = 0.10

    @staticmethod
    def served_maps(seed, recovery):
        ds = dataset.synth_multiview(10, 200, (32, 48), seed=seed)
        corrupted = dataset.corrupt(ds, dataset.CorruptionSpec("gaussian-fraction", 0.2, seed))
        db, queries = dataset.split(corrupted, 200, seed=seed)
        model, _, _, _ = hash_trainer.train(
            db, HyperParams(P=32, outer_iters=30),
            graph_cfg=GraphConfig(L=100, k=3),
            kernel_cfg=KernelSelectConfig(R=100),
            oos_cfg=OosConfig(Z=300, k_oos=25),
            seed=seed, recovery=recovery,
        )
        db_codes = hash_trainer.encode_queries(model, db)
        q_codes = hash_trainer.encode_queries(model, queries)
        rel = evaluation.relevance_matrix(queries.labels, db.labels)
        return (
            evaluation.mean_average_precision(q_codes, db_codes, rel, top_k=db.n_samples),
            evaluation.mean_average_precision(q_codes, db_codes, rel, top_k=100),
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_recovery_beats_ablation(self, seed):
        full_all, full_100 = self.served_maps(seed, recovery=True)
        abl_all, abl_100 = self.served_maps(seed, recovery=False)
        assert full_all >= self.MIN_MAP_ALL
        assert full_all - abl_all >= self.MIN_MARGIN, (full_all, abl_all)
        assert full_100 >= abl_100, (full_100, abl_100)
