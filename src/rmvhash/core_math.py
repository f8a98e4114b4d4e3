"""Proximal operators, projections, and K-means used by the solver modules."""

import math

import numpy as np


class NumericError(RuntimeError):
    """A numerical routine (SVD, linear solve) failed to produce a result."""


def check_range(cfg, low, *names, strict=False):
    """Reject a field of the settings object cfg that is not finite or is
    below low (at or below it when strict), naming it as Class.field."""
    for name in names:
        value = getattr(cfg, name)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise ValueError(
                f"{type(cfg).__name__}.{name} must be finite and "
                f"{'above' if strict else 'at least'} {low}, got {value}"
            )


def svt(mtx, tau):
    """Singular value thresholding: U S_tau(Sigma) V^T, the prox of tau*||.||_*."""
    left, right, _, _ = svt_factors(mtx, tau)
    return left @ right


# The Gram path resolves tau only above this multiple of sqrt(eps) * s_max.
_GRAM_MIN_TAU = 1e3 * np.sqrt(np.finfo(float).eps)


def svt_factors(mtx, tau):
    """svt(mtx, tau) as rank-r factors (left (rows, r), right (r, cols)) with
    left @ right = svt(mtx, tau), r the number of singular values above tau;
    the columns of U with nonzero S_tau(Sigma) (an orthonormal basis of its
    column space, largest singular value first); and whether the full SVD was
    taken.

    The singular pairs come from eigh of the Gram matrix of the short side
    (mtx mtx^T when rows <= cols), so the cost is one small eigenproblem plus
    products with the few kept pairs. Its diagonal holds the sums of squares
    of the rows (columns), so it is finite exactly when every entry is finite
    and no square overflows; any other mtx is rejected with ValueError. Gram
    eigenvalues carry an absolute error of about eps * s_max^2, which resolves
    a singular value s only to about eps * s_max^2 / s; when
    tau <= 1e3 * sqrt(eps) * s_max the values near tau drown in that error,
    and the full SVD of mtx is taken instead.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    mtx = np.asarray(mtx, dtype=float)
    wide = mtx.shape[0] <= mtx.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):   # rejected just below
        gram = mtx @ mtx.T if wide else mtx.T @ mtx
    if not np.all(np.isfinite(np.diagonal(gram))):
        raise ValueError("svt input must be finite, with no square that overflows")
    try:
        lam, vec = np.linalg.eigh(gram)
        s = np.sqrt(np.maximum(lam, 0.0))
        if tau <= _GRAM_MIN_TAU * s.max(initial=0.0):
            u, s, vt = np.linalg.svd(mtx, full_matrices=False)
            s = np.maximum(s - tau, 0.0)
            keep = s > 0
            return u[:, keep] * s[keep], vt[keep], u[:, keep], True
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"SVD or Gram eigh did not converge on a {mtx.shape} matrix: {exc}"
        ) from exc
    keep = np.flatnonzero(s > tau)[::-1]
    v, s = vec[:, keep], s[keep]
    if wide:   # v holds left singular vectors: Q = V diag((s-tau)/s) V^T mtx
        return v * ((s - tau) / s), v.T @ mtx, v, False
    mv = mtx @ v   # v holds right singular vectors: mtx v = U diag(s)
    return mv * ((s - tau) / s), v.T, mv / s, False


def _singular_values(mtx):
    """Singular values of mtx, in ascending order, from eigvalsh of the Gram
    matrix of its short side. Each carries an absolute error of about
    eps * s_max^2 / s, which the spectral and nuclear norms tolerate."""
    mtx = np.asarray(mtx, dtype=float)
    gram = mtx @ mtx.T if mtx.shape[0] <= mtx.shape[1] else mtx.T @ mtx
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram), 0.0))


def col_l21_prox(c, kappa, out=None, work=None):
    """Columnwise shrinkage: prox of kappa*||.||_{2,1}.

    Column i is scaled by max(0, 1 - kappa/||c_i||); columns with norm <= kappa
    (including zero columns) are zeroed. The result goes to out when given,
    which may be c itself. The squares behind the column norms go to work
    when given (an array of c's shape and memory order, not c itself); they
    and the norms are those of np.linalg.norm(c, axis=0), which takes a fresh
    array for the squares.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    c = np.asarray(c, dtype=float)
    norms = np.sqrt(np.add.reduce(np.multiply(c, c, out=work), axis=0))
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


def sq_dists(points, centers, points_sq=None):
    """(n, L) squared Euclidean distances between the rows of points (n, d)
    and centers (L, d), clamped at 0 against cancellation. points_sq, when
    given, must be np.sum(points ** 2, axis=1); a caller that measures the same
    points against many centers computes it once.

    Built in place in one (n, L) array, in the order x.(-2c), + ||x||^2,
    + ||c||^2, clamp; scaling by -2 is exact, so the bits are those of
    ||x||^2 - 2 x.c + ||c||^2.
    """
    if points_sq is None:
        points_sq = np.sum(points ** 2, axis=1)
    d2 = points @ (-2.0 * centers).T
    d2 += points_sq[:, None]
    d2 += np.sum(centers ** 2, axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def knn_weights(d2, k, scale):
    """Each row's k nearest columns of the squared distances d2, nearest first
    (ties go to the lower index, as in a stable sort), and their weights
    exp(-(d2 - row minimum)/scale), normalized to sum to 1. The shift changes
    no weight in exact arithmetic and makes the nearest one exactly 1, so no
    row sums to 0; a weight past the nearest may still underflow to 0.

    The columns come from k passes of argmin, which takes the first of equal
    minima, over a copy of d2 in which each chosen entry is set to +inf: the
    first k columns of a stable argsort of any row with k values below +inf.
    """
    left = np.array(d2, dtype=float)
    rows = np.arange(len(left))
    order = np.empty((len(left), k), dtype=np.intp)
    for j in range(k):
        order[:, j] = np.argmin(left, axis=1)
        left[rows, order[:, j]] = np.inf
    sel = np.take_along_axis(d2, order, axis=1)
    w = np.exp(-(sel - sel[:, :1]) / scale)
    return order, w / w.sum(axis=1, keepdims=True)


# Lloyd iterations per kmeans call; every landmark and base-set caller uses it.
_KMEANS_ITERS = 25


def _kmeanspp_init(points, points_sq, L, rng):
    n = points.shape[0]
    idx = [rng.integers(n)]
    d2 = np.full(n, np.inf)
    for _ in range(1, L):
        d2 = np.minimum(d2, sq_dists(points, points[idx[-1:]], points_sq)[:, 0])
        total = d2.sum()
        if total <= 0:
            # all remaining mass at existing centers; fall back to uniform
            idx.append(rng.integers(n))
        else:
            idx.append(rng.choice(n, p=d2 / total))
    return points[idx]


def kmeans(points, L, seed=0):
    """The (L, d) centers of at most _KMEANS_ITERS Lloyd iterations with
    k-means++ seeding; deterministic for a fixed seed.

    Each Lloyd iteration assigns every point x by one product, to the argmin
    over j of the score [x, 1].[-2 c_j, ||c_j||^2] = ||x - c_j||^2 - ||x||^2.
    The two differ by a per-point constant, so they pick the same center up
    to ties at rounding level; an exact tie goes to the lower index.

    No cluster is left empty: before the centers are updated, each empty
    cluster in index order takes the point farthest from its assigned center,
    chosen among clusters that hold at least two points (lowest index on
    ties); those distances come from sq_dists, on the rare iteration that
    empties a cluster. Every center is then the mean of its members, summed in
    index order by one one-hot sparse product. An empty or non-finite point
    set, squared norms past a quarter of the largest float (a squared distance
    between two points could overflow) and L outside 1..n are rejected with
    ValueError before seeding.
    """
    import scipy.sparse as sp  # here, so that only training loads scipy
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty set of points")
    if not 1 <= L <= n:
        raise ValueError(f"cannot form {L} clusters from {n} points: need 1 <= L <= {n}")
    if not np.all(np.isfinite(points)):
        raise ValueError("kmeans points must be finite")
    with np.errstate(over="ignore"):
        points_sq = np.sum(points ** 2, axis=1)
    if not points_sq.max() <= np.finfo(float).max / 4:
        raise ValueError("kmeans points overflow: their squared norms must stay "
                         "below a quarter of the largest float")
    centers = _kmeanspp_init(points, points_sq, L, np.random.default_rng(seed))
    assignments = np.zeros(n, dtype=int)
    # the sparse product would copy a non-C-ordered points on every iteration
    rows = np.ascontiguousarray(points)
    lifted = np.column_stack((points, np.ones(n)))
    for _ in range(_KMEANS_ITERS):
        weights = np.column_stack((-2.0 * centers, np.sum(centers ** 2, axis=1)))
        scores = lifted @ weights.T
        new_assign = np.argmin(scores, axis=1)
        del scores   # freed before sq_dists or the next product
        counts = np.bincount(new_assign, minlength=L)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            far = sq_dists(points, centers, points_sq)[np.arange(n), new_assign]
        for j in empty:
            # while a cluster is empty, L <= n leaves one with two points
            worst = int(np.argmax(np.where(counts[new_assign] >= 2, far, -np.inf)))
            counts[new_assign[worst]] -= 1
            new_assign[worst] = j
            counts[j] = 1
        onehot = sp.csr_matrix(
            (np.ones(n), np.argsort(new_assign, kind="stable"),
             np.concatenate(([0], np.cumsum(counts)))),
            shape=(L, n),
        )
        centers = onehot @ rows
        centers /= counts[:, None]
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
    return centers
