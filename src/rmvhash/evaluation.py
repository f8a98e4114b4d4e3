"""Retrieval evaluation: Hamming ranking, radius-2 hash lookup, AP/MAP,
precision-recall curves.

Codes are (n, P) arrays of +/-1; any other value is a ValueError naming its
argument. Relevance follows the shared-label rule:
two items are true neighbors when they share at least one label; with one
label per sample this is plain label equality. Ranking ties at equal Hamming
distance are broken by ascending database index.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

# Query-database pairs per block of evaluate; bounds its working memory.
_BLOCK = 1 << 21


@dataclass
class EvalReport:
    map: float
    lookup_precision_mean: float
    lookup_precision_std: float
    lookup_precision_nonempty: float   # mean over queries with non-empty balls
    lookup_coverage: float
    top_k: int
    radius: int
    pr_curve: list                     # (recall, precision) pairs per radius

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2)

    def pr_csv(self, path):
        rows = [f"{r},{rec:.12g},{prec:.12g}" for r, (rec, prec) in enumerate(self.pr_curve)]
        with open(path, "w") as fh:
            fh.write("\n".join(["radius,recall,precision", *rows]) + "\n")


def _signs(codes, name):
    """codes as a C-ordered int8 array; ValueError naming name unless every
    value is +1 or -1."""
    codes = np.asarray(codes)
    if not np.all(np.abs(codes) == 1):
        raise ValueError(f"{name} must hold only +1 and -1")
    return np.ascontiguousarray(codes, dtype=np.int8)


def _packed_pair(query_codes, db_codes):
    """(F, W) and (n, W) uint64 words of (F, P) query and (n, P) database
    codes, each checked by _signs and for being 2-D, and P; W = max(1,
    ceil(P / 64)). Bit j of a code's word j // 64 is set for +1 at j, and the
    padding bits are 0."""
    q, d = _signs(query_codes, "query_codes"), _signs(db_codes, "db_codes")
    for name, codes in (("query_codes", q), ("db_codes", d)):
        if codes.ndim != 2:
            raise ValueError(f"{name} must be a 2-D (n, P) array, got {codes.ndim}-D")
    p, words = q.shape[1], max(1, -(-q.shape[1] // 64))
    if d.shape[1] != p:
        raise ValueError(f"code length mismatch: {p} vs {d.shape[1]}")
    packed = []
    for codes in (q, d):
        bits = np.zeros((len(codes), words * 64), dtype=bool)
        np.greater(codes, 0, out=bits[:, :p])
        packed.append(np.packbits(bits, bitorder="little").view("<u8").reshape(len(codes), words))
    return *packed, p


def _word_distances(qw, dw, p):
    """hamming_distances of codes of length p from their _packed_pair words."""
    # widened to the result dtype before a second word is added
    dist = np.bitwise_count(qw[:, 0, None] ^ dw[:, 0]).astype(np.min_scalar_type(p), copy=False)
    for w in range(1, qw.shape[1]):
        dist += np.bitwise_count(qw[:, w, None] ^ dw[:, w])
    return dist


def hamming_distance(a, b):
    """Number of differing bits between two +/-1 codes of equal length."""
    a = _signs(a, "a")
    b = _signs(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"code length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def hamming_distances(query_codes, db_codes):
    """(F, n) matrix of Hamming distances between (F, P) query and (n, P)
    database codes of +/-1.

    Each code is packed into uint64 words, one bit per value, and a distance
    is the popcount of the XOR of two codes' words, summed over words; exact
    for every P. The distances come back in np.min_scalar_type(P), uint8 for
    P <= 255, so a stable argsort of them is a radix sort. They are unsigned:
    subtracting from them, or adding a Python int, wraps around modulo the
    dtype's range instead of going negative or growing; widen them first.
    """
    return _word_distances(*_packed_pair(query_codes, db_codes))


def relevance_matrix(query_labels, db_labels):
    """(F, n) boolean relevance under the shared-label rule."""
    q = np.asarray(query_labels)
    d = np.asarray(db_labels)
    if q.ndim == 1:
        return q[:, None] == d[None, :]
    # multi-label: rows are indicator vectors
    return (q @ d.T) > 0


def average_precision(ranked_relevance, l_q):
    """AP of ranked relevance sequences along the last axis, each normalized
    by its total number of ground-truth neighbors l_q; a float for one
    sequence, an array for a stack of them."""
    l_q = np.asarray(l_q)
    if np.any(l_q < 1):
        raise ValueError("l_q must be at least 1")
    rel = np.asarray(ranked_relevance, dtype=float)
    prec_at = np.cumsum(rel, axis=-1) / np.arange(1, rel.shape[-1] + 1)
    ap = np.sum(prec_at * rel, axis=-1) / l_q
    return float(ap) if ap.ndim == 0 else ap


def hash_lookup_precision(query_codes, db_codes, relevant, radius):
    """Mean/std of per-query precision of the Hamming ball of given radius.

    Queries with empty balls contribute precision 0 and reduce coverage.
    Returns (mean, std, coverage, mean_over_nonempty).
    """
    r = evaluate(query_codes, db_codes, relevant, radius=radius)
    return (r.lookup_precision_mean, r.lookup_precision_std, r.lookup_coverage,
            r.lookup_precision_nonempty)


def mean_average_precision(query_codes, db_codes, relevant, top_k):
    """MAP over the top_k Hamming-ranked items per query; each AP is
    normalized by the query's total neighbor count in the database."""
    return evaluate(query_codes, db_codes, relevant, top_k=top_k).map


def pr_curve(query_codes, db_codes, relevant):
    """Mean recall and precision per Hamming radius 0..P.

    Queries with an empty ball at a radius get precision 0 there.
    """
    return evaluate(query_codes, db_codes, relevant).pr_curve


def evaluate(query_codes, db_codes, relevant, top_k=100, radius=2):
    """Full report: MAP@top_k, lookup stats at radius, PR curve.

    One pass over blocks of queries: each block computes its distances once,
    counts per query the items and the relevant items at every distance 0..P,
    and ranks its top_k with one stable sort. Every radius metric is read from
    the cumulative counts.
    """
    qw, dw, p = _packed_pair(query_codes, db_codes)
    relevant = np.asarray(relevant, dtype=bool)
    if top_k < 1 or radius < 0:
        raise ValueError(f"need top_k >= 1 and radius >= 0, got {top_k} and {radius}")
    if len(qw) == 0 or len(dw) == 0:
        raise ValueError("query and database must be non-empty")
    if relevant.shape != (len(qw), len(dw)):
        raise ValueError(f"relevance is {relevant.shape}, expected {(len(qw), len(dw))}")
    f, n = relevant.shape
    l_q = np.count_nonzero(relevant, axis=1)
    counts = np.zeros((2, f, p + 1), dtype=np.intp)   # items, relevant items at each distance
    aps = np.empty(f)
    step = max(1, _BLOCK // n)
    for lo in range(0, f, step):
        dist = _word_distances(qw[lo:lo + step], dw, p)
        rel = relevant[lo:lo + step]
        rows = len(dist)
        # an intp row offset widens the unsigned distances before the add
        bins = dist + (p + 1) * np.arange(rows)[:, None]
        for c, b in zip(counts, (bins.ravel(), bins[rel])):
            c[lo:lo + rows] = np.bincount(b, minlength=rows * (p + 1)).reshape(rows, p + 1)
        ranked = np.take_along_axis(rel, np.argsort(dist, axis=1, kind="stable")[:, :top_k], axis=1)
        # a query without neighbors ranks no hit, so its AP is 0 over any l_q >= 1
        aps[lo:lo + rows] = average_precision(ranked, np.maximum(l_q[lo:lo + rows], 1))
    hits, rel_hits = np.cumsum(counts, axis=2).transpose(0, 2, 1)   # (P+1, F): within radius
    precision = np.where(hits > 0, rel_hits / np.maximum(hits, 1), 0.0)
    recall = rel_hits / np.maximum(l_q, 1)
    lookup, ball = precision[min(radius, p)], hits[min(radius, p)] > 0
    return EvalReport(
        map=float(np.mean(aps)),
        lookup_precision_mean=float(lookup.mean()),
        lookup_precision_std=float(lookup.std()),
        lookup_precision_nonempty=float(np.mean(lookup[ball])) if ball.any() else 0.0,
        lookup_coverage=np.count_nonzero(ball) / f,
        pr_curve=list(zip(recall.mean(axis=1).tolist(), precision.mean(axis=1).tolist())),
        top_k=top_k,
        radius=radius,
    )
