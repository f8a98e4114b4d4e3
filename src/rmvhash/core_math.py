"""Proximal operators, projections, and K-means used by the solver modules."""

from dataclasses import dataclass

import numpy as np


class NumericError(RuntimeError):
    """A numerical routine (SVD, linear solve) failed to produce a result."""


def svt(mtx, tau):
    """Singular value thresholding: U S_tau(Sigma) V^T, the prox of tau*||.||_*."""
    return svt_with_basis(mtx, tau)[0]


# The Gram path resolves tau only above this multiple of sqrt(eps) * s_max.
_GRAM_MIN_TAU = 1e3 * np.sqrt(np.finfo(float).eps)


def svt_with_basis(mtx, tau):
    """svt(mtx, tau), the columns of U with nonzero S_tau(Sigma) (an
    orthonormal basis of its column space, largest singular value first), and
    whether the full SVD was taken.

    The singular pairs come from eigh of the Gram matrix of the short side
    (mtx mtx^T when rows <= cols), so the cost is one small eigenproblem plus
    products with the few kept pairs. Gram eigenvalues carry an absolute
    error of about eps * s_max^2, which resolves a singular value s only to
    about eps * s_max^2 / s; when tau <= 1e3 * sqrt(eps) * s_max the values
    near tau drown in that error, and the full SVD of mtx is taken instead.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    mtx = np.asarray(mtx, dtype=float)
    if not np.all(np.isfinite(mtx)):
        raise ValueError("svt input must be finite")
    wide = mtx.shape[0] <= mtx.shape[1]
    try:
        lam, vec = np.linalg.eigh(mtx @ mtx.T if wide else mtx.T @ mtx)
        s = np.sqrt(np.maximum(lam, 0.0))
        if tau <= _GRAM_MIN_TAU * s.max(initial=0.0):
            u, s, vt = np.linalg.svd(mtx, full_matrices=False)
            s = np.maximum(s - tau, 0.0)
            return (u * s) @ vt, u[:, s > 0], True
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"SVD or Gram eigh did not converge on a {mtx.shape} matrix: {exc}"
        ) from exc
    keep = np.flatnonzero(s > tau)[::-1]
    v, s = vec[:, keep], s[keep]
    if wide:   # v holds left singular vectors: Q = V diag((s-tau)/s) V^T mtx
        return (v * ((s - tau) / s)) @ (v.T @ mtx), v, False
    mv = mtx @ v   # v holds right singular vectors: mtx v = U diag(s)
    return (mv * ((s - tau) / s)) @ v.T, mv / s, False


def _singular_values(mtx):
    """Singular values of mtx, in ascending order, from eigvalsh of the Gram
    matrix of its short side. Each carries an absolute error of about
    eps * s_max^2 / s, which the spectral and nuclear norms tolerate."""
    mtx = np.asarray(mtx, dtype=float)
    gram = mtx @ mtx.T if mtx.shape[0] <= mtx.shape[1] else mtx.T @ mtx
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram), 0.0))


def col_l21_prox(c, kappa, out=None):
    """Columnwise shrinkage: prox of kappa*||.||_{2,1}.

    Column i is scaled by max(0, 1 - kappa/||c_i||); columns with norm <= kappa
    (including zero columns) are zeroed. The result goes to out when given,
    which may be c itself.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    c = np.asarray(c, dtype=float)
    norms = np.linalg.norm(c, axis=0)
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = np.maximum(0.0, 1.0 - kappa / norms[nz])
    return np.multiply(c, scale, out=out)


def project_nonneg(v, out=None):
    """Elementwise projection onto the nonnegative orthant, into out when
    given (which may be v itself)."""
    return np.maximum(np.asarray(v, dtype=float), 0.0, out=out)


def project_simplex(v):
    """Euclidean projection of a vector onto {w : w >= 0, sum(w) = 1}.

    Sort-based algorithm, O(n log n).
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("cannot project an empty vector onto the simplex")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def sq_dists(points, centers):
    """(n, L) squared Euclidean distances between the rows of points (n, d)
    and centers (L, d), clamped at 0 against cancellation."""
    d2 = (
        np.sum(points ** 2, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers ** 2, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0, out=d2)


@dataclass
class KMeansResult:
    centers: np.ndarray      # (L, d)
    assignments: np.ndarray  # (N,) int
    inertia: float


def _kmeanspp_init(points, L, rng):
    n = points.shape[0]
    centers = np.empty((L, points.shape[1]))
    first = rng.integers(n)
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, L):
        total = d2.sum()
        if total <= 0:
            # all remaining mass at existing centers; fall back to uniform
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def kmeans(points, L, max_iters=25, seed=0):
    """At most max_iters Lloyd iterations with k-means++ seeding; deterministic
    for a fixed seed. Every landmark and base-set caller uses the default cap.

    Empty clusters are re-seeded at the point farthest from its assigned
    center (deterministic tie-break by lowest index).
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if L > n:
        raise ValueError(f"cannot form {L} clusters from {n} points")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(points, L, rng)
    assignments = np.zeros(n, dtype=int)
    for _ in range(max_iters):
        d2 = sq_dists(points, centers)
        new_assign = np.argmin(d2, axis=1)
        for j in range(L):
            mask = new_assign == j
            if not np.any(mask):
                worst = int(np.argmax(d2[np.arange(n), new_assign]))
                centers[j] = points[worst]
                new_assign[worst] = j
                mask = new_assign == j
            centers[j] = points[mask].mean(axis=0)
        if np.array_equal(new_assign, assignments):
            assignments = new_assign
            break
        assignments = new_assign
    inertia = float(np.sum((points - centers[assignments]) ** 2))
    return KMeansResult(centers=centers, assignments=assignments, inertia=inertia)
