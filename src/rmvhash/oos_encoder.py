"""Out-of-sample encoding: exact inductive embedding over training neighbors
and the scalable prototype approximation over a small K-means base set."""

from dataclasses import dataclass

import numpy as np

from . import core_math


@dataclass(frozen=True)
class BaseSet:
    centers: np.ndarray      # (Z, d) in the concatenated feature space
    embeddings: np.ndarray   # (Z, P) pre-sign real embeddings
    sigma: float
    k_oos: int

    @property
    def Z(self):
        return self.centers.shape[0]


# The base-set bandwidth is the median distance to the _CENTER_K-th nearest
# other center.
_CENTER_K = 7


def _center_bandwidth(centers):
    z = centers.shape[0]
    if z == 1:
        return 1.0
    d2 = core_math.sq_dists(centers, centers)
    # k-th nearest *other* center; the nearest is the center itself
    k = min(_CENTER_K, z - 1)
    kth = np.sqrt(np.partition(d2, k, axis=1)[:, k])
    sigma = float(np.median(kth))
    return sigma if sigma > 0 else 1.0


def make_base_set(model, centers, k_oos):
    """The base set over (Z, d) centers: each center's pre-sign projection
    through the model's kernel map, the centers' bandwidth and min(k_oos, Z)."""
    from . import hash_trainer  # local import: model embedding path

    embeddings = hash_trainer.embed(model, centers.T)
    return BaseSet(centers, embeddings, _center_bandwidth(centers), int(min(k_oos, len(centers))))


def build_base_set(ds, model, Z, k_oos, seed=0):
    """Cluster the concatenated features into Z centers and build the base
    set over them; Z = N takes every item as a center."""
    n = ds.n_samples
    if Z > n:
        raise ValueError(f"cannot build {Z} base centers from {n} samples")
    concat = ds.concatenated().T                     # (N, d)
    centers = concat.copy() if Z == n else core_math.kmeans(concat, Z, seed=seed)
    return make_base_set(model, centers, k_oos)


def _weighted_embed(x_q, points, embeddings, k, sigma):
    x_q = np.asarray(x_q, dtype=float).ravel()
    if x_q.size != points.shape[1]:
        raise ValueError(f"query has {x_q.size} features, expected {points.shape[1]}")
    if not np.all(np.isfinite(x_q)):
        raise ValueError("query has non-finite entries")
    order, w = core_math.knn_weights(core_math.sq_dists(x_q[None], points), k, sigma ** 2)
    return w[0] @ embeddings[order[0]]


def inductive_embed(x_q, X, Y, k, sigma):
    """Exact inductive embedding: Gaussian-weighted average of the embeddings
    of the k nearest training points.

    X is (N, d) in the concatenated feature space and Y is (N, P).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if k > X.shape[0]:
        raise ValueError(f"k={k} exceeds N={X.shape[0]}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return _weighted_embed(x_q, X, Y, k, sigma)


def prototype_encode(x_q, base):
    """Binary code from the base-set approximation over the base.k_oos
    nearest centers; sign(0) = +1."""
    if base.Z < 1:
        raise ValueError("base set is empty")
    y = _weighted_embed(x_q, base.centers, base.embeddings, base.k_oos, base.sigma)
    return np.where(y >= 0, 1, -1).astype(np.int8)
