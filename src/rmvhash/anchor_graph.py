"""Landmark selection and the sparse truncated-affinity (anchor) graph.

The graph stores F (N x L, row-stochastic with exactly k nonzeros per row)
and Lambda = diag(F^T 1), representing the approximate adjacency
S_hat = F Lambda^{-1} F^T in factored form so applying it costs O(N k).
It also holds the spectral factor H = F Lambda^{-1/2}, with S_hat = H H^T, and
H^T H = V diag(sigma) V^T, the nonzero spectrum of S_hat (Liu et al., ICML 2011).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import core_math


@dataclass(frozen=True)
class AnchorGraph:
    F: sp.csr_matrix         # (N, L), row-stochastic, k nonzeros per row
    lambda_diag: np.ndarray  # (L,), column sums of F, all positive
    H: sp.csr_matrix         # (N, L), F Lambda^{-1/2}
    sigma: np.ndarray        # (L,), eigenvalues of H^T H, clamped to [0, 1]
    V: np.ndarray            # (L, L), orthonormal eigenvectors of H^T H

    @property
    def n_samples(self):
        return self.F.shape[0]

    @property
    def n_landmarks(self):
        return self.F.shape[1]


def select_graph_landmarks(view, L, mode="kmeans", seed=0):
    """Pick L landmark rows from a (d_m, N) view.

    kmeans mode runs Lloyd with capped iterations on the transposed view;
    uniform mode samples points without replacement.
    """
    view = np.asarray(view, dtype=float)
    n = view.shape[1]
    if L > n:
        raise ValueError(f"cannot select {L} landmarks from {n} samples")
    if mode == "uniform":
        rng = np.random.default_rng(seed)
        idx = rng.choice(n, size=L, replace=False)
        return view[:, idx].T.copy()
    if mode == "kmeans":
        return core_math.kmeans(view.T, L, seed=seed).centers
    raise ValueError(f"unknown landmark mode {mode!r}")


def default_bandwidth(view, landmarks, k):
    """Mean squared distance from samples to their k-th nearest landmark."""
    d2 = core_math.sq_dists(np.asarray(view, dtype=float).T, landmarks)
    kth = np.sort(d2, axis=1)[:, k - 1]
    t = float(np.mean(kth))
    return t if t > 0 else 1.0


def build_truncated_affinity(view, landmarks, k, t=None):
    """Build the anchor graph for one view.

    For each sample, the k nearest landmarks (ties broken by lower landmark
    index) get weight exp(-d^2/t), normalized to sum to 1; all other entries
    are zero. Landmarks that attract no sample are dropped and the graph is
    rebuilt on the survivors.
    """
    view = np.asarray(view, dtype=float)
    landmarks = np.asarray(landmarks, dtype=float)
    n = view.shape[1]
    L = landmarks.shape[0]
    if k > L:
        raise ValueError(f"k={k} exceeds number of landmarks L={L}")
    if t is None:
        t = default_bandwidth(view, landmarks, k)
    if t <= 0:
        raise ValueError(f"bandwidth must be positive, got {t}")

    d2 = core_math.sq_dists(view.T, landmarks)
    # stable sort: equal distances resolve to the lower landmark index
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    sel = np.take_along_axis(d2, order, axis=1)
    w = np.exp(-sel / t)
    w /= w.sum(axis=1, keepdims=True)

    rows = np.repeat(np.arange(n), k)
    F = sp.csr_matrix((w.ravel(), (rows, order.ravel())), shape=(n, L))
    col_mass = np.asarray(F.sum(axis=0)).ravel()
    if np.any(col_mass <= 0):
        keep = col_mass > 0
        return build_truncated_affinity(view, landmarks[keep], k, t)
    H = F @ sp.diags(1.0 / np.sqrt(col_mass))
    sigma, V = np.linalg.eigh((H.T @ H).toarray())
    return AnchorGraph(
        F=F, lambda_diag=col_mass, H=H, sigma=np.clip(sigma, 0.0, 1.0), V=V,
    )


def adjacency_apply(g, v):
    """Compute S_hat @ v = F (Lambda^{-1} (F^T v)) without forming S_hat."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != g.n_samples:
        raise ValueError(f"expected {g.n_samples} rows, got {v.shape[0]}")
    return g.F @ ((g.F.T @ v) / g.lambda_diag.reshape(-1, *([1] * (v.ndim - 1))))


def laplacian_apply(g, v):
    """Compute (I - S_hat) @ v; S_hat has unit row sums so D = I."""
    v = np.asarray(v, dtype=float)
    return v - adjacency_apply(g, v)


def materialize(g):
    """Dense S_hat = F Lambda^{-1} F^T, for tests and small instances only."""
    F = g.F.toarray()
    return (F / g.lambda_diag) @ F.T
