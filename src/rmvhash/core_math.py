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

# Long-side entries per block when a float32 Gram is formed in float64: a
# 200 x 1024 float64 block stays under 2 MB.
_GRAM_CHUNK = 1024


def _as_float(x):
    """x as an array of float32 if it holds float32, else of float64 (without
    a copy when it is one already): the solvers compute in float32 only when
    they are handed float32."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(float, copy=False)


# Entries per block where a routine walks an array it does not hold whole
# (k-means scores, nearest-landmark distances, the ALM's violations): 2^15
# float64 entries are 256 KB.
_BLOCK = 1 << 15


def spans(n, step):
    """Slices that cover 0..n in order, step lines each, where a lone last
    line joins the slice before it. With step >= 2 only n = 1 gives a slice of
    one line, whose matrix products numpy would send through its matrix-vector
    path, which can round differently from the matrix product of the whole."""
    ends = [*range(step, n - 1, step), n]
    return [slice(lo, hi) for lo, hi in zip([0, *ends], ends)]


def blocks(n, width):
    """The spans, of max(2, _BLOCK // width) lines, that an n-line array of
    width entries a line is walked in."""
    return spans(n, max(2, _BLOCK // max(width, 1)))


def _gram(mtx):
    """The float64 Gram matrix of the short side of mtx (mtx mtx^T when
    rows <= cols) and whether mtx is wide. A float32 mtx is cast _GRAM_CHUNK
    long-side entries at a time, so no full-size float64 copy is made."""
    wide = mtx.shape[0] <= mtx.shape[1]
    short = mtx if wide else mtx.T
    if mtx.dtype != np.float32:
        return short @ short.T, wide
    gram = np.zeros((short.shape[0],) * 2)
    buf = np.empty((short.shape[0], min(_GRAM_CHUNK, short.shape[1])))
    for start in range(0, short.shape[1], _GRAM_CHUNK):
        block = buf[:, :short.shape[1] - start]   # the last block may be narrower
        block[...] = short[:, start:start + _GRAM_CHUNK]
        gram += block @ block.T
    return gram, wide


def svt_factors(mtx, tau):
    """svt(mtx, tau) as rank-r factors (left (rows, r), right (r, cols)) with
    left @ right = svt(mtx, tau), r the number of singular values above tau;
    the columns of U with nonzero S_tau(Sigma) (an orthonormal basis of its
    column space, largest singular value first); and whether the full SVD was
    taken.

    The singular pairs come from eigh of the float64 Gram matrix of the short
    side (mtx mtx^T when rows <= cols; see _gram), so the cost is one small
    eigenproblem plus products with the few kept pairs. Its diagonal holds the
    sums of squares of the rows (columns), so it is finite exactly when every
    entry is finite and no square overflows; any other mtx is rejected with
    ValueError. Gram eigenvalues carry an absolute error of about
    eps * s_max^2, which resolves a singular value s only to about
    eps * s_max^2 / s; when tau <= 1e3 * sqrt(eps) * s_max the values near tau
    drown in that error, and the full SVD of mtx (in float64) is taken
    instead. The factors keep the dtype of a float32 mtx; U is float64.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    mtx = _as_float(mtx)
    with np.errstate(over="ignore", invalid="ignore"):   # rejected just below
        gram, wide = _gram(mtx)
    if not np.all(np.isfinite(np.diagonal(gram))):
        raise ValueError("svt input must be finite, with no square that overflows")
    dtype = mtx.dtype
    try:
        lam, vec = np.linalg.eigh(gram)
        s = np.sqrt(np.maximum(lam, 0.0))
        if tau <= _GRAM_MIN_TAU * s.max(initial=0.0):
            u, s, vt = np.linalg.svd(mtx.astype(float, copy=False), full_matrices=False)
            s = np.maximum(s - tau, 0.0)
            keep = s > 0
            u, vt = u[:, keep], vt[keep].astype(dtype, copy=False)
            return (u * s[keep]).astype(dtype, copy=False), vt, u, True
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"SVD or Gram eigh did not converge on a {mtx.shape} matrix: {exc}"
        ) from exc
    keep = np.flatnonzero(s > tau)[::-1]
    v, s = vec[:, keep], s[keep]
    shrink = (s - tau) / s
    vd = v.astype(dtype, copy=False)
    if wide:   # v holds left singular vectors: Q = V diag((s-tau)/s) V^T mtx
        return (v * shrink).astype(dtype, copy=False), vd.T @ mtx, v, False
    mv = mtx @ vd   # v holds right singular vectors: mtx v = U diag(s)
    return mv * shrink.astype(dtype, copy=False), vd.T, mv / s, False


def _singular_values(mtx):
    """Singular values of mtx, in ascending order, from eigvalsh of the float64
    Gram matrix of its short side (see _gram). Each carries an absolute error
    of about eps * s_max^2 / s, which the spectral and nuclear norms tolerate."""
    return np.sqrt(np.maximum(np.linalg.eigvalsh(_gram(_as_float(mtx))[0]), 0.0))


def col_l21_prox(c, kappa, out=None):
    """Columnwise shrinkage: prox of kappa*||.||_{2,1}.

    Column i is scaled by max(0, 1 - kappa/||c_i||); columns with norm <= kappa
    (including zero columns) are zeroed. The result goes to out when given,
    which may be c itself. The squared column norms come from one einsum,
    which adds each column's squares down its rows as np.linalg.norm(c,
    axis=0) does for a C-ordered c, and makes no array of c's size.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    c = _as_float(c)
    norms = np.sqrt(np.einsum("ij,ij->j", c, c))
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = np.maximum(0.0, 1.0 - kappa / norms[nz])
    return np.multiply(c, scale, out=out)


def project_nonneg(v, out=None):
    """Elementwise projection onto the nonnegative orthant, into out when
    given (which may be v itself). Float32 stays float32 (see _as_float)."""
    return np.maximum(_as_float(v), 0.0, out=out)


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


def nearest(d2, k):
    """Each row's k nearest columns of the squared distances d2, nearest first
    (ties go to the lower index, as in a stable sort), and their distances.

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
    return order, np.take_along_axis(d2, order, axis=1)


def nearest_weights(sel, scale):
    """Weights exp(-(sel - row minimum)/scale) of rows of distances that
    nearest returns, nearest first, normalized to sum to 1. The shift changes
    no weight in exact arithmetic and makes the nearest one exactly 1, so no
    row sums to 0; a weight past the nearest may still underflow to 0."""
    w = np.exp(-(sel - sel[:, :1]) / scale)
    return w / w.sum(axis=1, keepdims=True)


def knn_weights(d2, k, scale):
    """The nearest(d2, k) columns of each row and their nearest_weights."""
    order, sel = nearest(d2, k)
    return order, nearest_weights(sel, scale)


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

    Each Lloyd iteration assigns every point x to the argmin over j of the
    score [x, 1].[-2 c_j, ||c_j||^2] = ||x - c_j||^2 - ||x||^2, one product
    and argmin per block of points (see blocks). The two differ by a
    per-point constant, so they pick the same center up to ties at rounding
    level; an exact tie goes to the lower index. Only an iteration that
    empties a cluster makes an n x L array (below).

    No cluster is left empty: before the centers are updated, each empty
    cluster in index order takes the point farthest from its assigned center,
    chosen among clusters that hold at least two points (lowest index on
    ties); those distances come from sq_dists, on the rare iteration that
    empties a cluster. Every center is then the mean of its members, summed in
    index order by one np.bincount per feature. An empty or non-finite point
    set, squared norms past a quarter of the largest float (a squared distance
    between two points could overflow) and L outside 1..n are rejected with
    ValueError before seeding.
    """
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
    # one contiguous line per feature, for the per-feature sums
    features = np.ascontiguousarray(points.T)
    lifted = np.column_stack((points, np.ones(n)))
    for _ in range(_KMEANS_ITERS):
        weights = np.column_stack((-2.0 * centers, np.sum(centers ** 2, axis=1)))
        new_assign = np.empty(n, dtype=np.intp)
        for part in blocks(n, L):
            new_assign[part] = np.argmin(lifted[part] @ weights.T, axis=1)
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
        centers = np.column_stack(
            [np.bincount(new_assign, weights=f, minlength=L) for f in features]
        )
        centers /= counts[:, None]
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
    return centers
