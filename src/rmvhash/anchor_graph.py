"""The sparse truncated-affinity (anchor) graph of a view over its landmarks.

The graph stores F (N x L, row-stochastic with at most k stored entries per
row, of which only the nearest cannot underflow to 0) and its spectral factor
H = F Lambda^{-1/2}, Lambda = diag(F^T 1). The approximate adjacency is
S_hat = F Lambda^{-1} F^T = H H^T, applied through H alone so that it costs
O(N k), and H^T H = V diag(sigma) V^T is the nonzero spectrum of S_hat
(Liu et al., ICML 2011).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core_math


@dataclass(frozen=True)
class AnchorGraph:
    F: sp.csr_matrix         # (N, L), row-stochastic, at most k stored entries per row
    H: sp.csr_matrix         # (N, L), F Lambda^{-1/2}
    sigma: np.ndarray        # (L,), eigenvalues of H^T H, clamped to [0, 1]
    V: np.ndarray            # (L, L), orthonormal eigenvectors of H^T H

    @property
    def n_samples(self):
        return self.F.shape[0]


def build_truncated_affinity(view, landmarks, k):
    """Build the anchor graph for one view.

    For each sample, the k nearest landmarks get the core_math.nearest_weights
    of exp(-d^2/t); all other entries are zero. The bandwidth t is the mean
    squared distance from the samples to their k-th nearest landmark (1 if
    that is 0). The distances and the k nearest are taken in blocks of
    samples (see core_math.blocks), so no N x L array is made. Landmarks that
    attract no sample are dropped; a sample that picked one gave it weight 0
    and keeps fewer than k stored entries.
    """
    import scipy.sparse as sp  # here, so that only training loads scipy
    points = np.asarray(view, dtype=float).T
    landmarks = np.asarray(landmarks, dtype=float)
    n, L = len(points), landmarks.shape[0]
    if k > L:
        raise ValueError(f"k={k} exceeds number of landmarks L={L}")
    order, sel = np.empty((n, k), dtype=np.intp), np.empty((n, k))
    for part in core_math.blocks(n, L):
        order[part], sel[part] = core_math.nearest(core_math.sq_dists(points[part], landmarks), k)
    t = float(np.mean(sel[:, k - 1]))
    t = t if t > 0 else 1.0
    rows = np.repeat(np.arange(n), k)
    F = sp.csr_matrix(
        (core_math.nearest_weights(sel, t).ravel(), (rows, order.ravel())), shape=(n, L)
    )
    col_mass = np.asarray(F.sum(axis=0)).ravel()
    alive = col_mass > 0
    F, col_mass = F[:, alive], col_mass[alive]
    H = F @ sp.diags(1.0 / np.sqrt(col_mass))
    sigma, V = np.linalg.eigh((H.T @ H).toarray())
    return AnchorGraph(F=F, H=H, sigma=np.clip(sigma, 0.0, 1.0), V=V)


def adjacency_apply(g, v):
    """Compute S_hat @ v = H (H^T v) without forming S_hat."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != g.n_samples:
        raise ValueError(f"expected {g.n_samples} rows, got {v.shape[0]}")
    return g.H @ (g.H.T @ v)


def laplacian_apply(g, v):
    """Compute (I - S_hat) @ v; S_hat has unit row sums so D = I."""
    v = np.asarray(v, dtype=float)
    return v - adjacency_apply(g, v)


def materialize(g):
    """Dense S_hat = H H^T, for tests and small instances only."""
    return (g.H @ g.H.T).toarray()
