"""The truncated-affinity (anchor) graph of a view over its landmarks.

The graph stores F (N x L, row-stochastic with k entries per row, of which
only the nearest cannot underflow to 0) and its spectral factor
H = F Lambda^{-1/2}, Lambda = diag(F^T 1), each as an (N, k) table of values
beside the (N, k) landmark indices of their columns. The approximate
adjacency is S_hat = F Lambda^{-1} F^T = H H^T, applied through H alone so
that it costs O(N k), and H^T H = V diag(sigma) V^T is the nonzero spectrum
of S_hat (Liu et al., ICML 2011).

The products sum in fixed orders: H^T y and H^T H add each landmark's samples
in ascending sample order, and H z adds each row's entries in slot order,
which the graph stores as descending landmark order. These are the orders of
scipy's CSR products on the same matrices, so the codes keep their bits.
"""

from dataclasses import dataclass

import numpy as np

from . import core_math


@dataclass(frozen=True)
class AnchorGraph:
    cols: np.ndarray         # (N, k), landmark of each entry, descending along a row
    F: np.ndarray            # (N, k), row-stochastic weights
    H: np.ndarray            # (N, k), F Lambda^{-1/2}
    sigma: np.ndarray        # (L,), eigenvalues of H^T H, clamped to [0, 1]
    V: np.ndarray            # (L, L), orthonormal eigenvectors of H^T H

    @property
    def n_samples(self):
        return len(self.F)


def build_truncated_affinity(view, landmarks, k):
    """Build the anchor graph for one view.

    For each sample, the k nearest landmarks get the core_math.nearest_weights
    of exp(-d^2/t); all other entries are zero. The bandwidth t is the mean
    squared distance from the samples to their k-th nearest landmark (1 if
    that is 0). The distances and the k nearest are taken in blocks of
    samples (see core_math.blocks), so no N x L array is made. Landmarks that
    attract no sample are dropped; a sample that picked one gave it weight 0
    and keeps that weight in the slot, indexed as the survivor below it (or
    0). Such a slot sorts before a live slot of the same index, so
    np.put_along_axis(np.zeros((N, L)), g.cols, g.F, axis=1) gives the dense F.
    """
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
    weights = core_math.nearest_weights(sel, t)
    col_mass = np.bincount(order.ravel(), weights=weights.ravel(), minlength=L)
    alive = col_mass > 0
    survivor = np.maximum(np.cumsum(alive) - 1, 0)
    cols = survivor[order]
    # descending landmark order; a dropped landmark's slot first among equals
    slots = np.argsort(-(2 * cols + ~alive[order]), axis=1, kind="stable")
    cols = np.take_along_axis(cols, slots, axis=1)
    F = np.take_along_axis(weights, slots, axis=1)
    H = F * (1.0 / np.sqrt(col_mass[alive]))[cols]
    sigma, V = np.linalg.eigh(factor_gram(cols, H, int(alive.sum())))
    return AnchorGraph(cols=cols, F=F, H=H, sigma=np.clip(sigma, 0.0, 1.0), V=V)


def factor_gram(cols, H, L):
    """The (L, L) Gram H^T H of an (N, L) matrix held as the (N, k) tables
    cols and H: each entry sums its samples in ascending sample order, by one
    np.bincount over the sample-major pairs of each row's slots."""
    pairs = cols[:, :, None] * L + cols[:, None, :]
    products = H[:, :, None] * H[:, None, :]
    return np.bincount(pairs.ravel(), weights=products.ravel(), minlength=L * L).reshape(L, L)


def factor_apply(cols, H, z):
    """H @ z for the (N, L) matrix held as the (N, k) tables cols and H and
    z of shape (L, P): each row sums its entries in slot order, from 0."""
    out = np.zeros((len(H), z.shape[1]))
    for s in range(cols.shape[1]):
        out += H[:, s, None] * z[cols[:, s]]
    return out


def factor_transpose_apply(cols, H, y, L):
    """H^T @ y (L, P) for the (N, L) matrix held as the (N, k) tables cols and
    H and y of shape (N, P): each entry sums its samples in ascending sample
    order, by one np.bincount per column of y."""
    idx = cols.ravel()
    out = np.empty((L, y.shape[1]))
    for p in range(y.shape[1]):
        out[:, p] = np.bincount(idx, weights=(H * y[:, p, None]).ravel(), minlength=L)
    return out


def adjacency_apply(g, v):
    """Compute S_hat @ v = H (H^T v) without forming S_hat."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != g.n_samples:
        raise ValueError(f"expected {g.n_samples} rows, got {v.shape[0]}")
    proj = factor_transpose_apply(g.cols, g.H, v.reshape(len(v), -1), len(g.sigma))
    return factor_apply(g.cols, g.H, proj).reshape(v.shape)


def laplacian_apply(g, v):
    """Compute (I - S_hat) @ v; S_hat has unit row sums so D = I."""
    v = np.asarray(v, dtype=float)
    return v - adjacency_apply(g, v)


def materialize(g):
    """Dense S_hat = H H^T, for tests and small instances only."""
    H = np.zeros((g.n_samples, len(g.sigma)))
    np.put_along_axis(H, g.cols, g.H, axis=1)
    return H @ H.T
