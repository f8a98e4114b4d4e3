import dataclasses

import numpy as np
import pytest

from rmvhash import core_math, dataset, hash_trainer, oos_encoder
from rmvhash.hash_trainer import GraphConfig, HyperParams, KernelSelectConfig, OosConfig


def trained_model(seed=0, n_clusters=4, per_cluster=30, dims=(10, 12), p=8):
    ds = dataset.synth_multiview(n_clusters, per_cluster, dims, seed=seed)
    model, state, Khat, _ = hash_trainer.train(
        ds,
        HyperParams(P=p, outer_iters=10),
        graph_cfg=GraphConfig(L=15, k=3),
        kernel_cfg=KernelSelectConfig(R=15),
        oos_cfg=OosConfig(Z=ds.n_samples, k_oos=10),
        seed=seed,
    )
    return ds, model, state, Khat


class TestInductiveEmbed:
    def test_k1_returns_nearest_embedding(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 5))
        Y = rng.normal(size=(20, 4))
        x_q = X[7] + 1e-8
        out = oos_encoder.inductive_embed(x_q, X, Y, k=1, sigma=1.0)
        np.testing.assert_allclose(out, Y[7], atol=1e-6)

    def test_equidistant_neighbors_average(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        Y = np.array([[2.0, 4.0], [0.0, -2.0]])
        out = oos_encoder.inductive_embed([0.0, 0.0], X, Y, k=2, sigma=1.0)
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 6))
        Y = rng.normal(size=(50, 5))
        x_q = rng.normal(size=6)
        k, sigma = 9, 1.7
        got = oos_encoder.inductive_embed(x_q, X, Y, k=k, sigma=sigma)
        d2 = np.array([np.sum((row - x_q) ** 2) for row in X])
        idx = np.argsort(d2, kind="stable")[:k]
        w = np.exp(-d2[idx] / sigma ** 2)
        want = sum(wi * Y[i] for wi, i in zip(w, idx)) / w.sum()
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_underflow_falls_back_to_nearest(self):
        X = np.array([[1e4, 0.0], [2e4, 0.0]])
        Y = np.array([[1.0, -1.0], [5.0, 5.0]])
        out = oos_encoder.inductive_embed([0.0, 0.0], X, Y, k=2, sigma=1e-3)
        np.testing.assert_array_equal(out, Y[0])

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4))
        Y = rng.normal(size=(30, 3))
        for _ in range(10):
            x_q = rng.normal(size=4)
            out = oos_encoder.inductive_embed(x_q, X, Y, k=5, sigma=2.0)
            assert np.all(out >= Y.min(axis=0) - 1e-12)
            assert np.all(out <= Y.max(axis=0) + 1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        base = oos_encoder.BaseSet(centers=X, embeddings=np.eye(2), sigma=1.0, k_oos=2)
        with pytest.raises(ValueError, match="non-finite"):
            oos_encoder.inductive_embed([bad, 0.0], X, np.eye(2), k=2, sigma=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            oos_encoder.prototype_encode([0.0, bad], base)

    @pytest.mark.parametrize("n_features", [1, 4, 6])
    def test_query_length_rejected(self, n_features):
        # lengths 1, d - 1 and d + 1 against d = 5 features
        X = np.random.default_rng(3).normal(size=(6, 5))
        base = oos_encoder.BaseSet(centers=X, embeddings=np.ones((6, 2)), sigma=1.0, k_oos=3)
        msg = f"query has {n_features} features, expected 5"
        with pytest.raises(ValueError, match=msg):
            oos_encoder.inductive_embed(np.zeros(n_features), X, np.ones((6, 2)), k=3, sigma=1.0)
        with pytest.raises(ValueError, match=msg):
            oos_encoder.prototype_encode(np.zeros(n_features), base)

    def test_bad_arguments(self):
        X = np.zeros((3, 2))
        Y = np.zeros((3, 1))
        with pytest.raises(ValueError):
            oos_encoder.inductive_embed([0.0, 0.0], X, Y, k=4, sigma=1.0)
        with pytest.raises(ValueError):
            oos_encoder.inductive_embed([0.0, 0.0], X, Y, k=2, sigma=0.0)


class TestBaseSet:
    def test_full_base_keeps_all_points(self):
        ds, model, _, _ = trained_model(seed=3)
        base = model.base_set
        assert base.Z == ds.n_samples
        concat = ds.concatenated().T
        np.testing.assert_allclose(
            base.centers[np.lexsort(base.centers.T)],
            concat[np.lexsort(concat.T)],
        )

    def test_embeddings_match_query_path(self):
        ds, model, _, _ = trained_model(seed=4)
        base = model.base_set
        i = 11
        x_views = [v[:, i] for v in ds.views]
        concat = np.concatenate(x_views)
        j = int(np.argmin(np.sum((base.centers - concat) ** 2, axis=1)))
        # k(x): the mean over views of the RBF similarities to that view's landmarks
        k = np.mean([
            np.exp(-np.sum((z - x) ** 2, axis=1) / (2.0 * s ** 2))
            for z, x, s in zip(model.landmarks.blocks, x_views, model.kernel_config.sigmas)
        ], axis=0)
        np.testing.assert_allclose(base.embeddings[j], model.W.T @ k + model.b, atol=1e-10)

    def test_z_equal_r_base_set_and_kernel_landmarks_from_same_kmeans(self):
        # the base set and the kernel landmarks are both kmeans(concat, 20, 7),
        # which is deterministic, so a base set at Z = R equals them bit for bit
        ds = dataset.synth_multiview(4, 30, (10, 12), seed=7)
        model, _, _, _ = hash_trainer.train(
            ds,
            HyperParams(P=8, outer_iters=10),
            graph_cfg=GraphConfig(L=15, k=3),
            kernel_cfg=KernelSelectConfig(R=20),
            oos_cfg=OosConfig(Z=20, k_oos=10),
            seed=7,
        )
        own = oos_encoder.build_base_set(ds, model, Z=20, seed=7, k_oos=10)
        np.testing.assert_array_equal(model.base_set.centers, np.hstack(model.landmarks.blocks))
        np.testing.assert_array_equal(model.base_set.centers, own.centers)
        np.testing.assert_array_equal(model.base_set.embeddings, own.embeddings)
        assert model.base_set.sigma == own.sigma

    def test_too_many_centers_rejected(self):
        ds, model, _, _ = trained_model(seed=5)
        with pytest.raises(ValueError):
            oos_encoder.build_base_set(ds, model, Z=ds.n_samples + 1, k_oos=10)

    @pytest.mark.parametrize("z", [2, 5, 8, 40])
    def test_bandwidth_bits_match_root_first_oracle(self, z):
        # oracle: the root of every distance first, then the partition
        centers = np.random.default_rng(z).normal(size=(z, 6))
        d = np.sqrt(core_math.sq_dists(centers, centers))
        k = min(oos_encoder._CENTER_K, z - 1)
        want = float(np.median(np.partition(d, k, axis=1)[:, k]))
        assert oos_encoder._center_bandwidth(centers) == want

    def test_bandwidth_positive(self):
        ds, model, _, _ = trained_model(seed=6)
        assert model.base_set.sigma > 0


class TestPrototypeEncode:
    def test_outputs_signs(self):
        ds, model, _, _ = trained_model(seed=7)
        rng = np.random.default_rng(7)
        x_q = rng.normal(size=sum(ds.dims))
        code = oos_encoder.prototype_encode(x_q, model.base_set)
        assert code.dtype == np.int8
        assert set(np.unique(code)) <= {-1, 1}

    def test_full_base_matches_inductive_sign(self):
        # with the base set equal to the training set and the full sum,
        # the prototype code is exactly the signed inductive embedding
        ds, model, _, _ = trained_model(seed=8)
        base = model.base_set
        rng = np.random.default_rng(8)
        for _ in range(15):
            x_q = rng.normal(size=sum(ds.dims)) * 2.0
            proto = oos_encoder.prototype_encode(x_q, dataclasses.replace(base, k_oos=base.Z))
            emb = oos_encoder.inductive_embed(
                x_q, base.centers, base.embeddings, k=base.Z, sigma=base.sigma
            )
            np.testing.assert_array_equal(proto, np.where(emb >= 0, 1, -1))

    def test_dominant_center_wins(self):
        centers = np.array([[0.0, 0.0], [100.0, 100.0]])
        embeddings = np.array([[3.0, -2.0], [-5.0, 5.0]])
        base = oos_encoder.BaseSet(
            centers=centers, embeddings=embeddings, sigma=1.0, k_oos=2
        )
        code = oos_encoder.prototype_encode([0.1, -0.1], base)
        np.testing.assert_array_equal(code, [1, -1])

    def test_truncated_close_to_inductive_codes(self):
        # prototype codes over a reduced base agree with the exact
        # inductive codes on most bits for in-distribution queries
        ds = dataset.synth_multiview(4, 50, (10, 12), seed=9)
        train_ds, query_ds = dataset.split(ds, 20, seed=9)
        model, state, Khat, _ = hash_trainer.train(
            train_ds,
            HyperParams(P=16, outer_iters=10),
            graph_cfg=GraphConfig(L=20, k=3),
            kernel_cfg=KernelSelectConfig(R=20),
            oos_cfg=OosConfig(Z=60, k_oos=15),
            seed=9,
        )
        base = model.base_set
        full = oos_encoder.build_base_set(
            train_ds, model, Z=train_ds.n_samples, seed=0, k_oos=25
        )
        agree = []
        for i in range(query_ds.n_samples):
            x_q = np.concatenate([v[:, i] for v in query_ds.views])
            a = oos_encoder.prototype_encode(x_q, base)
            emb = oos_encoder.inductive_embed(
                x_q, full.centers, full.embeddings, k=full.k_oos, sigma=full.sigma
            )
            b = np.where(emb >= 0, 1, -1)
            agree.append(np.mean(a == b))
        assert np.mean(agree) >= 0.8

    def test_empty_base_rejected(self):
        base = oos_encoder.BaseSet(
            centers=np.zeros((0, 2)),
            embeddings=np.zeros((0, 3)),
            sigma=1.0,
            k_oos=1,
        )
        with pytest.raises(ValueError):
            oos_encoder.prototype_encode([0.0, 0.0], base)
