"""Correctness oracles that use numpy only, never `rmvhash`.

Retrieval metrics are recomputed from bit-packed codes with XOR popcounts and
per-query distance histograms, which shares no code or method with
`rmvhash.evaluation` (dense ±1 inner products and sorts). Ranking ties at equal
distance go to the lower database index, as the program documents.
"""

import numpy as np

CHUNK = 64   # queries per block; keeps the oracles' memory far below evaluate's


def pack(codes):
    """±1 codes (n, P) -> (n, ceil(P/8)) uint8 bit rows."""
    return np.packbits(np.asarray(codes) > 0, axis=1)


def distances(q_packed, d_packed):
    """Hamming distances (F, n) between packed code rows, as uint8."""
    x = np.bitwise_xor(q_packed[:, None, :], d_packed[None, :, :])
    return np.bitwise_count(x).sum(axis=2, dtype=np.uint8)


def retrieval_metrics(q_codes, d_codes, relevant, top_k, radius):
    """(MAP@top_k, mean radius lookup precision, PR curve as a (P+1, 2) array
    of mean (recall, precision) per radius)."""
    bits = np.asarray(q_codes).shape[1]
    qp, dp = pack(q_codes), pack(d_codes)
    n = dp.shape[0]
    aps, lookups, recalls, precisions = [], [], [], []
    for lo in range(0, qp.shape[0], CHUNK):
        dist = distances(qp[lo:lo + CHUNK], dp)
        rel = np.asarray(relevant[lo:lo + CHUNK], dtype=bool)
        for i in range(dist.shape[0]):
            hist = np.bincount(dist[i], minlength=bits + 1)
            rel_hist = np.bincount(dist[i][rel[i]], minlength=bits + 1)
            within = np.cumsum(hist)
            rel_within = np.cumsum(rel_hist)
            l_q = int(rel_within[-1])
            with np.errstate(invalid="ignore", divide="ignore"):
                prec = np.where(within > 0, rel_within / within, 0.0)
            precisions.append(prec)
            recalls.append(rel_within / l_q if l_q else np.zeros(bits + 1))
            lookups.append(prec[radius])
            aps.append(_ap_top_k(dist[i], rel[i], hist, top_k, l_q, n))
    curve = np.stack([np.mean(recalls, axis=0), np.mean(precisions, axis=0)], axis=1)
    return float(np.mean(aps)), float(np.mean(lookups)), curve


def _ap_top_k(dist, rel, hist, top_k, l_q, n):
    """AP over the first top_k items of the (distance, index) order, normalised
    by l_q. The ranking is cut at the smallest distance whose cumulative count
    reaches top_k; items at that distance enter in index order."""
    if l_q == 0:
        return 0.0
    k = min(top_k, n)
    cut = int(np.searchsorted(np.cumsum(hist), k))
    inner = np.flatnonzero(dist < cut)
    border = np.flatnonzero(dist == cut)[: k - inner.size]
    inner = inner[np.argsort(dist[inner], kind="stable")]
    ranked = rel[np.concatenate([inner, border])]
    hits = np.cumsum(ranked)
    return float(np.sum(ranked * hits / np.arange(1, k + 1)) / l_q)


def relevance(q_labels, d_labels):
    return np.asarray(q_labels)[:, None] == np.asarray(d_labels)[None, :]


def sign_codes(Khat, W, b):
    """Database codes sign(Khat^T W + b) with sign(0) = +1."""
    return np.where(Khat.T @ W + b >= 0, 1, -1).astype(np.int8)


def is_pm1(codes):
    return bool(np.all(np.abs(np.asarray(codes, dtype=np.int64)) == 1))


def is_orthonormal(Y, tol=1e-6):
    """Y^T Y / N == I within tol."""
    gram = Y.T @ Y / Y.shape[0]
    return bool(np.max(np.abs(gram - np.eye(Y.shape[1]))) <= tol)


def bit_agreement(a, b):
    return float(np.mean(np.asarray(a) == np.asarray(b)))


def random_code_map(relevant, n_query, n_db, bits, top_k, seed):
    """MAP@top_k of uniformly random codes on the same relevance."""
    rng = np.random.default_rng(seed)
    q = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_query, bits))
    d = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_db, bits))
    return retrieval_metrics(q, d, relevant, top_k, 0)[0]


def self_test():
    """Checks the oracles on cases small enough to work out by hand.
    Returns a list of the failures (empty when all hold)."""
    failed = []
    q = np.array([[1, 1, 1, 1]], dtype=np.int8)
    d = np.array(
        [[1, 1, 1, 1], [1, 1, 1, -1], [-1, -1, -1, -1], [1, 1, -1, -1], [1, -1, 1, 1]],
        dtype=np.int8,
    )
    rel = np.array([[True, False, True, True, False]])
    # distances 0, 1, 4, 2, 1 -> order 0, 1, 4, 3, 2 -> relevance T F F T T
    if distances(pack(q), pack(d)).tolist() != [[0, 1, 4, 2, 1]]:
        failed.append("hamming distances")
    map5, lookup2, curve = retrieval_metrics(q, d, rel, top_k=5, radius=2)
    if abs(map5 - (1 / 1 + 2 / 4 + 3 / 5) / 3) > 1e-12:
        failed.append("MAP@5")
    map2 = retrieval_metrics(q, d, rel, top_k=2, radius=2)[0]
    if abs(map2 - 1 / 3) > 1e-12:
        failed.append("MAP@2 with a distance tie at the cut")
    if abs(lookup2 - 2 / 4) > 1e-12:
        failed.append("radius-2 lookup precision")
    expect = [(1 / 3, 1.0), (1 / 3, 1 / 3), (2 / 3, 2 / 4), (2 / 3, 2 / 4), (1.0, 3 / 5)]
    if not np.allclose(curve, expect, atol=1e-12):
        failed.append("PR curve")
    empty = retrieval_metrics(-q, d[:2], np.array([[True, True]]), top_k=1, radius=0)
    if empty[1] != 0.0 or empty[2][0, 1] != 0.0:
        failed.append("empty Hamming ball counts as precision 0")
    Khat = np.array([[1.0, 0.0], [0.0, 2.0]])
    W = np.array([[1.0, -1.0], [-1.0, 0.5]])
    if sign_codes(Khat, W, np.array([0.0, -1.0])).tolist() != [[1, -1], [-1, 1]]:
        failed.append("sign codes, sign(0) = +1")
    Y = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    if not is_orthonormal(Y) or is_orthonormal(2 * Y):
        failed.append("orthonormality")
    if not is_pm1(d) or is_pm1(np.array([1, 0, -1])):
        failed.append("±1 codes")
    return failed
