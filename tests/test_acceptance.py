"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion so the suite
doubles as a human-readable checklist when run with `pytest -s`.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from rmvhash import (
    anchor_graph,
    core_math,
    dataset,
    evaluation,
    hash_trainer,
    lowrank_alm,
    model_io,
    oos_encoder,
)
from rmvhash.hash_trainer import GraphConfig, HyperParams, KernelSelectConfig, OosConfig
from rmvhash.lowrank_alm import ALMConfig


def report(num, name, ok):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def simplex_project_bisection(v):
    """Independent simplex projection: bisection on the shift theta such
    that sum(max(v - theta, 0)) = 1."""
    lo, hi = v.min() - 1.0, v.max()
    for _ in range(100):
        mid = (lo + hi) / 2
        if np.sum(np.maximum(v - mid, 0.0)) > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - (lo + hi) / 2, 0.0)


def test_criterion_1_proximal_operator_oracles():
    rng = np.random.default_rng(0)
    start = time.time()
    ok = True

    # svt against constructed instances with known singular factors
    for _ in range(100):
        r, c = rng.integers(2, 12, size=2)
        k = min(r, c)
        u, _ = np.linalg.qr(rng.normal(size=(r, k)))
        v, _ = np.linalg.qr(rng.normal(size=(c, k)))
        s = np.sort(rng.uniform(0.0, 3.0, size=k))[::-1]
        tau = rng.uniform(0.0, 2.0)
        a = u @ np.diag(s) @ v.T
        want = u @ np.diag(np.maximum(s - tau, 0.0)) @ v.T
        ok &= np.allclose(core_math.svt(a, tau), want, atol=1e-6)

    # column-group shrinkage against per-column scalar minimization
    for _ in range(100):
        c = rng.normal(size=(rng.integers(1, 8), rng.integers(1, 8)))
        kappa = rng.uniform(0.0, 2.0)
        got = core_math.col_l21_prox(c, kappa)
        for j in range(c.shape[1]):
            col = c[:, j]
            nrm = np.linalg.norm(col)
            if nrm == 0:
                ok &= np.allclose(got[:, j], 0.0)
                continue
            res = minimize_scalar(
                lambda t: 0.5 * (t - nrm) ** 2 + kappa * abs(t),
                bounds=(0.0, nrm + 1.0), method="bounded",
                options={"xatol": 1e-10},
            )
            ok &= np.allclose(got[:, j], res.x / nrm * col, atol=1e-6)

    # simplex projection against the bisection oracle
    for _ in range(100):
        v = rng.normal(scale=3.0, size=rng.integers(1, 30))
        ok &= np.allclose(
            core_math.project_simplex(v), simplex_project_bisection(v), atol=1e-6
        )

    elapsed = time.time() - start
    ok &= elapsed < 10.0
    report(1, "proximal operator oracles", ok)


def planted_instance(seed=42):
    rng = np.random.default_rng(seed)
    r, n, rank, n_corr = 60, 400, 5, 20  # 5% corrupted columns per view
    A = rng.uniform(0.1, 1.0, size=(r, rank))
    B = rng.uniform(0.1, 1.0, size=(rank, n))
    Kstar = (A @ B) / rank
    cols = rng.permutation(n)[: 3 * n_corr]
    K_list, supports = [], []
    for m in range(3):
        K = Kstar.copy()
        cm = np.sort(cols[m * n_corr:(m + 1) * n_corr])
        K[:, cm] += rng.normal(scale=1.0, size=(r, n_corr))
        K_list.append(K)
        supports.append(set(cm.tolist()))
    return Kstar, K_list, supports


def recover_planted():
    Kstar, K_list, supports = planted_instance()
    cfg = ALMConfig(alpha=0.01, lam=1.0, rho=1.05, max_iters=300, tol=1e-6)
    Khat, E_list, diag = lowrank_alm.recover(K_list, cfg)
    return Kstar, supports, Khat, E_list, diag


def test_criterion_2_planted_lowrank_recovery():
    start = time.time()
    Kstar, supports, Khat, E_list, diag = recover_planted()
    elapsed = time.time() - start
    relerr = np.linalg.norm(Khat - Kstar) / np.linalg.norm(Kstar)
    hit = total = 0
    for E, sup in zip(E_list, supports):
        norms = np.linalg.norm(E, axis=0)
        top = set(np.argsort(norms)[-len(sup):].tolist())
        hit += len(top & sup)
        total += len(sup)
    ok = (
        relerr <= 1e-2
        and hit / total >= 0.9
        and diag.iterations <= 300
        and elapsed < 30.0
    )
    report(2, "planted low-rank recovery", ok)


def test_criterion_3_convergence_shape():
    _, _, _, _, alm_diag = recover_planted()
    ok = alm_diag.converged and alm_diag.fit_residuals[-1] < 1e-6

    ds = dataset.synth_multiview(6, 60, (16, 20), seed=0)
    _, _, _, diag = hash_trainer.train(
        ds, HyperParams(P=16, outer_iters=60),
        graph_cfg=GraphConfig(L=30, k=3),
        kernel_cfg=KernelSelectConfig(R=30),
        oos_cfg=OosConfig(Z=50, k_oos=15),
        seed=0,
    )
    ok &= diag.converged and diag.outer_iterations <= 60
    ok &= diag.alm is not None and diag.alm.fit_residuals[-1] < 1e-6
    report(3, "convergence shape", ok)


def test_criterion_4_closed_form_solve():
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(20):
        r = int(rng.integers(4, 20))
        n = int(rng.integers(r + 5, 60))
        p = int(rng.integers(2, 10))
        Khat = np.abs(rng.normal(size=(r, n)))
        Y = rng.normal(size=(n, p))
        delta = 10.0 ** rng.uniform(-6, -2)
        W, b = hash_trainer.update_Wb(Khat, Y, delta=delta)

        def quad(w, bias):
            resid = Khat.T @ w + bias - Y
            return np.sum(resid ** 2) + delta * np.sum(w ** 2)

        eps = 1e-5
        grad = []
        for idx in np.ndindex(W.shape):
            hi, lo = W.copy(), W.copy()
            hi[idx] += eps
            lo[idx] -= eps
            grad.append((quad(hi, b) - quad(lo, b)) / (2 * eps))
        for j in range(p):
            hi, lo = b.copy(), b.copy()
            hi[j] += eps
            lo[j] -= eps
            grad.append((quad(W, hi) - quad(W, lo)) / (2 * eps))
        scale = max(1.0, quad(W, b))
        ok &= np.linalg.norm(grad) < 1e-6 * scale
    report(4, "closed-form solve gradient", ok)


def test_criterion_5_anchor_graph_invariants():
    rng = np.random.default_rng(2)
    view = rng.normal(size=(8, 500))
    lm = core_math.kmeans(view.T, 40, seed=0)
    g = anchor_graph.build_truncated_affinity(view, lm, k=3)
    F = g.F.toarray()
    ok = np.allclose(F.sum(axis=1), 1.0, atol=1e-10)
    ok &= bool(np.all(np.count_nonzero(F, axis=1) == 3))
    S = anchor_graph.materialize(g)
    ok &= np.allclose(S, S.T, atol=1e-10)
    ok &= np.allclose(S.sum(axis=1), 1.0, atol=1e-10)
    v = rng.normal(size=(500, 4))
    ok &= np.allclose(anchor_graph.adjacency_apply(g, v), S @ v, atol=1e-12)
    report(5, "anchor graph invariants", ok)


def _benchmark_run(seed, recovery):
    ds = dataset.synth_multiview(10, 200, (32, 48), seed=seed)
    corrupted = dataset.corrupt(
        ds, dataset.CorruptionSpec("gaussian-fraction", 0.2, seed)
    )
    db, queries = dataset.split(corrupted, 200, seed=seed)
    model, _, Khat, _ = hash_trainer.train(
        db, HyperParams(P=32, outer_iters=30),
        graph_cfg=GraphConfig(L=100, k=3),
        kernel_cfg=KernelSelectConfig(R=100),
        oos_cfg=OosConfig(Z=300, k_oos=25),
        seed=seed, recovery=recovery,
    )
    db_codes = hash_trainer.encode_database(model, Khat)
    q_codes = hash_trainer.encode_queries(model, queries)
    rel = evaluation.relevance_matrix(queries.labels, db.labels)
    mapk = evaluation.evaluate(q_codes, db_codes, rel, top_k=100).map
    return mapk, db, queries, model, rel


@pytest.mark.slow
def test_criterion_6_robustness_ablation():
    wins = 0
    both_beat_random = 0
    for seed in range(10):
        full, db, queries, _, rel = _benchmark_run(seed, recovery=True)
        ablation, _, _, _, _ = _benchmark_run(seed, recovery=False)
        rng = np.random.default_rng(seed)
        rnd_db = rng.choice([-1, 1], size=(db.n_samples, 32))
        rnd_q = rng.choice([-1, 1], size=(queries.n_samples, 32))
        random_map = evaluation.evaluate(rnd_q, rnd_db, rel, top_k=100).map
        wins += full >= ablation
        both_beat_random += (full > random_map) and (ablation > random_map)
    ok = wins >= 8 and both_beat_random == 10
    report(6, "robustness ablation", ok)


def _scaling_outer_loop(n, seed):
    """Wall time of one train's whole outer loop (3 iterations) at n items."""
    ds = dataset.synth_multiview(10, n // 10, (16, 16), seed=seed)
    _, _, _, diag = hash_trainer.train(
        ds, HyperParams(P=32, outer_iters=3, outer_tol=1e-12),
        alm_cfg=ALMConfig(max_iters=20, tol=1e-12),
        graph_cfg=GraphConfig(L=200, k=3),
        kernel_cfg=KernelSelectConfig(R=200),
        oos_cfg=OosConfig(Z=300, k_oos=25),
        seed=seed,
    )
    return float(np.sum(diag.outer_iter_seconds))


@pytest.mark.slow
def test_criterion_7_linear_scaling():
    t_small = np.median([_scaling_outer_loop(10000, s) for s in range(5)])
    t_large = np.median([_scaling_outer_loop(20000, s) for s in range(5)])
    ratio = t_large / t_small
    print(f"\nouter-loop time: {t_small:.3f}s @ N=10000, "
          f"{t_large:.3f}s @ N=20000, ratio {ratio:.2f}")
    report(7, "linear scaling in training size", ratio <= 2.5)


def test_criterion_8_metric_correctness():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(20):
        p = int(rng.integers(4, 17))
        n_db = int(rng.integers(10, 201))
        n_q = int(rng.integers(1, 11))
        q = rng.choice([-1, 1], size=(n_q, p)).astype(np.int8)
        d = rng.choice([-1, 1], size=(n_db, p)).astype(np.int8)
        rel = rng.random((n_q, n_db)) < rng.uniform(0.1, 0.6)
        top_k = int(rng.integers(1, n_db + 1))
        radius = int(rng.integers(0, p + 1))

        dist = [
            [evaluation.hamming_distance(q[i], d[j]) for j in range(n_db)]
            for i in range(n_q)
        ]

        # brute-force MAP
        aps = []
        for i in range(n_q):
            l_q = int(rel[i].sum())
            if l_q == 0:
                aps.append(0.0)
                continue
            order = sorted(range(n_db), key=lambda j: (dist[i][j], j))[:top_k]
            hits, ap = 0, 0.0
            for rank, j in enumerate(order, start=1):
                if rel[i, j]:
                    hits += 1
                    ap += hits / rank
            aps.append(ap / l_q)
        ok &= evaluation.evaluate(q, d, rel, top_k=top_k).map == pytest.approx(
            np.mean(aps), abs=1e-12
        )

        # brute-force lookup precision
        per_q = []
        for i in range(n_q):
            ball = [j for j in range(n_db) if dist[i][j] <= radius]
            per_q.append(
                sum(rel[i, j] for j in ball) / len(ball) if ball else 0.0
            )
        mean = evaluation.evaluate(q, d, rel, radius=radius).lookup_precision_mean
        ok &= mean == pytest.approx(np.mean(per_q), abs=1e-12)

        # brute-force PR curve
        curve = evaluation.evaluate(q, d, rel).pr_curve
        for r in range(p + 1):
            precs, recs = [], []
            for i in range(n_q):
                ball = [j for j in range(n_db) if dist[i][j] <= r]
                hits = sum(rel[i, j] for j in ball)
                l_q = rel[i].sum()
                precs.append(hits / len(ball) if ball else 0.0)
                recs.append(hits / l_q if l_q else 0.0)
            ok &= curve[r][0] == pytest.approx(np.mean(recs), abs=1e-12)
            ok &= curve[r][1] == pytest.approx(np.mean(precs), abs=1e-12)
    report(8, "retrieval metric correctness", ok)


def test_criterion_9_out_of_sample_consistency():
    _, db, queries, model, _ = _benchmark_run(0, recovery=True)
    full = oos_encoder.build_base_set(db, model, Z=db.n_samples, seed=0, k_oos=25)

    ok = True
    rng = np.random.default_rng(4)
    for _ in range(20):
        x_q = rng.normal(size=sum(db.dims)) * 2.0
        proto = oos_encoder.prototype_encode(x_q, dataclasses.replace(full, k_oos=full.Z))
        emb = oos_encoder.inductive_embed(
            x_q, full.centers, full.embeddings, k=full.Z, sigma=full.sigma
        )
        ok &= bool(np.array_equal(proto, np.where(emb >= 0, 1, -1)))

    agree = []
    for i in range(queries.n_samples):
        x_q = np.concatenate([v[:, i] for v in queries.views])
        proto = oos_encoder.prototype_encode(x_q, model.base_set)  # Z=300
        emb = oos_encoder.inductive_embed(
            x_q, full.centers, full.embeddings, k=full.k_oos, sigma=full.sigma
        )
        agree.append(np.mean(proto == np.where(emb >= 0, 1, -1)))
    ok &= np.mean(agree) >= 0.8
    report(9, "out-of-sample consistency", ok)


def test_criterion_10_determinism(tmp_path):
    ds_a = dataset.synth_multiview(4, 30, (10, 12), seed=5)
    ds_b = dataset.synth_multiview(4, 30, (10, 12), seed=5)
    ok = all(
        np.array_equal(a, b) for a, b in zip(ds_a.views, ds_b.views)
    )
    spec = dataset.CorruptionSpec("gaussian-fraction", 0.2, 6)
    ca = dataset.corrupt(ds_a, spec)
    cb = dataset.corrupt(ds_b, spec)
    ok &= all(np.array_equal(a, b) for a, b in zip(ca.views, cb.views))

    kw = dict(
        graph_cfg=GraphConfig(L=15, k=3),
        kernel_cfg=KernelSelectConfig(R=15),
        oos_cfg=OosConfig(Z=30, k_oos=10),
        seed=7,
    )
    m1, _, k1, _ = hash_trainer.train(ca, HyperParams(P=8, outer_iters=8), **kw)
    m2, _, k2, _ = hash_trainer.train(ca, HyperParams(P=8, outer_iters=8), **kw)
    ok &= bool(np.array_equal(m1.W, m2.W) and np.array_equal(m1.b, m2.b))
    ok &= bool(np.array_equal(k1, k2))
    ok &= bool(
        np.array_equal(
            hash_trainer.encode_database(m1, k1),
            hash_trainer.encode_database(m2, k2),
        )
    )

    path_a, path_b = tmp_path / "a.rmvm", tmp_path / "b.rmvm"
    model_io.save_model(m1, path_a, config_snapshot={"seed": 7})
    model_io.save_model(m1, path_b, config_snapshot={"seed": 7})
    ok &= path_a.read_bytes() == path_b.read_bytes()
    back, _ = model_io.load_model(path_a)
    ok &= bool(np.array_equal(back.W, m1.W) and np.array_equal(back.b, m1.b))
    C = m1.base_set.centers
    ok &= bool(
        np.array_equal(
            oos_encoder.make_base_set(back, C, 10).embeddings,
            oos_encoder.make_base_set(m1, C, 10).embeddings,
        )
    )
    report(10, "determinism and round-trip", ok)
