"""The numpy products on the anchor graph's (N, k) tables, and the k-means
center update, against scipy's sparse products on the same matrices, bit for
bit. Training computed them with scipy before, so equal bits here keep every
trained model as it was."""

import numpy as np
import pytest
import scipy.sparse as sp

from rmvhash import anchor_graph, core_math, hash_trainer

N = 3003   # samples of both test graphs

def edge_graph():
    """3,000 samples near the origin and three far ones over six landmarks at
    k = 2. The sample at (100, 0) picks (150, 0) with weight 0 and no sample
    picks it with more, so that landmark is dropped; the samples at (-100, 0)
    and (-150, 0) pick each other's landmark with weight 0, a zero entry in a
    live column."""
    rng = np.random.default_rng(0)
    far = [[100.0, -100.0, -150.0], [0.0, 0.0, 0.0]]
    view = np.hstack([rng.normal(scale=0.01, size=(2, 3000)), far])
    lm = np.array([[0, 0], [0.02, 0], [100, 0], [150, 0], [-100, 0], [-150, 0]], dtype=float)
    return anchor_graph.build_truncated_affinity(view, lm, k=2)


def second_graph():
    view = np.random.default_rng(1).normal(size=(3, N))
    return anchor_graph.build_truncated_affinity(view, core_math.kmeans(view.T, 8, seed=0), k=3)


def scipy_factors(g):
    """CSR F and H built from the graph's tables as training built them with
    scipy: F with sorted column indices, H = F diag(col_mass^-1/2) by a sparse
    product, which stores each row of H in descending column order."""
    n, k = g.cols.shape
    rows = np.repeat(np.arange(n), k)
    F = sp.csr_matrix((g.F.ravel(), (rows, g.cols.ravel())), shape=(n, len(g.sigma)))
    col_mass = np.asarray(F.sum(axis=0)).ravel()
    return F, F @ sp.diags(1.0 / np.sqrt(col_mass))


def dense(g, table):
    out = np.zeros((g.n_samples, len(g.sigma)))
    np.put_along_axis(out, g.cols, table, axis=1)
    return out


@pytest.fixture(scope="module", params=["edge", "k3"])
def graph(request):
    # at k = 2 a row's two products add in either order to the same bits;
    # the k = 3 graph tests the order
    return edge_graph() if request.param == "edge" else second_graph()


def test_edge_graph_has_a_dropped_landmark_and_zero_entries():
    graph = edge_graph()
    assert len(graph.sigma) == 5
    assert np.count_nonzero(graph.F == 0) == 3


def test_factors_and_spectrum(graph):
    F, H = scipy_factors(graph)
    np.testing.assert_array_equal(dense(graph, graph.F), F.toarray())
    np.testing.assert_array_equal(dense(graph, graph.H), H.toarray())
    gram = (H.T @ H).toarray()
    L = len(graph.sigma)
    np.testing.assert_array_equal(anchor_graph.factor_gram(graph.cols, graph.H, L), gram)
    sigma, V = np.linalg.eigh(gram)
    np.testing.assert_array_equal(graph.sigma, np.clip(sigma, 0.0, 1.0))
    np.testing.assert_array_equal(graph.V, V)


@pytest.mark.parametrize("shape", [(N,), (N, 4)])
def test_adjacency_apply(graph, shape):
    _, H = scipy_factors(graph)
    v = np.random.default_rng(2).normal(size=shape)
    np.testing.assert_array_equal(anchor_graph.adjacency_apply(graph, v), H @ (H.T @ v))


def test_view_code_products(graph):
    _, H = scipy_factors(graph)
    rng = np.random.default_rng(3)
    L = len(graph.sigma)
    Y, Z = rng.normal(size=(N, 4)), rng.normal(size=(L, 4))
    np.testing.assert_array_equal(
        anchor_graph.factor_transpose_apply(graph.cols, graph.H, Y, L), H.T @ Y
    )
    np.testing.assert_array_equal(anchor_graph.factor_apply(graph.cols, graph.H, Z), H @ Z)
    gamma, c = 1e-4, 2.0 + 1e-4
    coef = (graph.V.T @ (H.T @ Y)) * (2.0 / (c - 2.0 * graph.sigma))[:, None]
    np.testing.assert_array_equal(
        hash_trainer._solve_view_codes(graph, Y, gamma),
        (gamma / c) * (Y + H @ (graph.V @ coef)),
    )


def test_spectral_code_init():
    graphs = [edge_graph(), second_graph()]
    H = sp.hstack([scipy_factors(g)[1] / np.sqrt(2) for g in graphs], format="csr")
    cols = np.hstack([graphs[0].cols, graphs[1].cols + 5])
    scaled = np.hstack([g.H * (1.0 / np.sqrt(2)) for g in graphs])
    gram = (H.T @ H).toarray()
    np.testing.assert_array_equal(anchor_graph.factor_gram(cols, scaled, 13), gram)
    # the warm start, as it was computed with scipy
    n, p = N, 3
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    U = H @ evecs[:, :p]
    U /= np.sqrt(evals[:p])
    Y = U / np.linalg.norm(U, axis=0) * np.sqrt(n)
    q, r = np.linalg.qr(Y.T @ np.random.default_rng(0).normal(size=(n, p)))
    want = Y @ (q * np.where(np.diag(r) < 0, -1.0, 1.0))
    got, fell_back = hash_trainer.spectral_code_init(graphs, p, seed=0)
    assert not fell_back
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("fortran", [False, True])
def test_kmeans_centers(monkeypatch, fortran):
    # seven clusters far apart, in shuffled order, seeded one point each:
    # every point joins its own cluster, so the centers are the one-hot
    # product's sums of each cluster's points in index order
    rng = np.random.default_rng(4)
    labels = rng.permutation(np.repeat(np.arange(7), 300))
    noise = rng.normal(size=(2100, 5)) * rng.lognormal(size=(2100, 5))
    points = rng.normal(size=(7, 5))[labels] * 1e6 + noise
    if fortran:
        points = np.asfortranarray(points)
    seeds = points[[np.flatnonzero(labels == j)[0] for j in range(7)]]
    monkeypatch.setattr(core_math, "_kmeanspp_init", lambda *args: seeds.copy())
    counts = np.bincount(labels)
    onehot = sp.csr_matrix(
        (np.ones(2100), np.argsort(labels, kind="stable"), np.concatenate(([0], np.cumsum(counts)))),
        shape=(7, 2100),
    )
    want = onehot @ np.ascontiguousarray(points)
    want /= counts[:, None]
    np.testing.assert_array_equal(core_math.kmeans(points, 7), want)
