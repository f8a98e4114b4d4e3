"""Retrieval evaluation: Hamming ranking, radius-2 hash lookup, AP/MAP,
precision-recall curves.

Codes are (n, P) arrays of +/-1. Relevance follows the shared-label rule:
two items are true neighbors when they share at least one label; with one
label per sample this is plain label equality. Ranking ties at equal Hamming
distance are broken by ascending database index.
"""

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class EvalReport:
    map: float
    lookup_precision_mean: float
    lookup_precision_std: float
    lookup_precision_nonempty: float   # mean over queries with non-empty balls
    lookup_coverage: float
    pr_curve: list                     # (recall, precision) pairs per radius
    top_k: int
    radius: int

    def to_json(self, path):
        payload = {
            "map": self.map,
            "lookup_precision_mean": self.lookup_precision_mean,
            "lookup_precision_std": self.lookup_precision_std,
            "lookup_precision_nonempty": self.lookup_precision_nonempty,
            "lookup_coverage": self.lookup_coverage,
            "top_k": self.top_k,
            "radius": self.radius,
            "pr_curve": [[float(r), float(p)] for r, p in self.pr_curve],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)

    def pr_csv(self, path):
        lines = ["radius,recall,precision"]
        for radius, (rec, prec) in enumerate(self.pr_curve):
            lines.append(f"{radius},{rec:.12g},{prec:.12g}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def hamming_distance(a, b):
    """Number of differing bits between two +/-1 codes of equal length."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"code length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def hamming_distances(query_codes, db_codes):
    """(F, n) matrix of Hamming distances between query and database codes."""
    q = np.asarray(query_codes, dtype=np.int32)
    d = np.asarray(db_codes, dtype=np.int32)
    if q.shape[1] != d.shape[1]:
        raise ValueError(f"code length mismatch: {q.shape[1]} vs {d.shape[1]}")
    p = q.shape[1]
    return (p - q @ d.T) // 2


def relevance_matrix(query_labels, db_labels):
    """(F, n) boolean relevance under the shared-label rule."""
    q = np.asarray(query_labels)
    d = np.asarray(db_labels)
    if q.ndim == 1:
        return q[:, None] == d[None, :]
    # multi-label: rows are indicator vectors
    return (q @ d.T) > 0


def hash_lookup_precision(query_codes, db_codes, relevant, radius=2):
    """Mean/std of per-query precision of the Hamming ball of given radius.

    Queries with empty balls contribute precision 0 and reduce coverage.
    Returns (mean, std, coverage, mean_over_nonempty).
    """
    return _lookup_precision(hamming_distances(query_codes, db_codes), relevant, radius)


def _ball_counts(dist, relevant, radius):
    """Per query: items, and relevant items, within the Hamming radius."""
    ball = dist <= radius
    return np.count_nonzero(ball, axis=1), np.count_nonzero(relevant & ball, axis=1)


def _lookup_precision(dist, relevant, radius):
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if dist.shape[1] == 0:
        raise ValueError("database is empty")
    hits, rel_hits = _ball_counts(dist, np.asarray(relevant, dtype=bool), radius)
    precisions = np.where(hits > 0, rel_hits / np.maximum(hits, 1), 0.0)
    nonempty = precisions[hits > 0]
    coverage = nonempty.size / precisions.size
    mean_nonempty = float(np.mean(nonempty)) if nonempty.size else 0.0
    return float(precisions.mean()), float(precisions.std()), coverage, mean_nonempty


def average_precision(ranked_relevance, l_q):
    """AP of a ranked relevance sequence, normalized by the total number of
    ground-truth neighbors l_q."""
    if l_q < 1:
        raise ValueError("l_q must be at least 1")
    rel = np.asarray(ranked_relevance, dtype=float)
    if rel.size == 0 or rel.sum() == 0:
        return 0.0
    cum = np.cumsum(rel)
    prec_at = cum / np.arange(1, rel.size + 1)
    return float(np.sum(prec_at * rel) / l_q)


def ranked_indices(dist_row):
    """Database order by ascending distance, ties broken by ascending index."""
    return np.argsort(dist_row, kind="stable")


def mean_average_precision(query_codes, db_codes, relevant, top_k=100):
    """MAP over the top_k Hamming-ranked items per query; each AP is
    normalized by the query's total neighbor count in the database."""
    dist = hamming_distances(query_codes, db_codes)
    return _mean_average_precision(dist, relevant, top_k)


def _mean_average_precision(dist, relevant, top_k):
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    if dist.shape[0] == 0:
        raise ValueError("query set is empty")
    relevant = np.asarray(relevant, dtype=bool)
    aps = [
        average_precision(rel[ranked_indices(row)[:top_k]], l_q) if l_q else 0.0
        for row, rel, l_q in zip(dist, relevant, np.count_nonzero(relevant, axis=1))
    ]
    return float(np.mean(aps))


def pr_curve(query_codes, db_codes, relevant):
    """Mean precision and recall per Hamming radius 0..P.

    Radii with no retrieved item for any query get precision 0.
    """
    p = np.shape(query_codes)[1]
    return _pr_curve(hamming_distances(query_codes, db_codes), relevant, p)


def _pr_curve(dist, relevant, p):
    if 0 in dist.shape:
        raise ValueError("query and database must be non-empty")
    relevant = np.asarray(relevant, dtype=bool)
    l_q = np.count_nonzero(relevant, axis=1)
    curve = []
    for radius in range(p + 1):
        hits, rel_hits = _ball_counts(dist, relevant, radius)
        precisions = np.where(hits > 0, rel_hits / np.maximum(hits, 1), 0.0)
        recalls = np.where(l_q > 0, rel_hits / np.maximum(l_q, 1), 0.0)
        curve.append((float(np.mean(recalls)), float(np.mean(precisions))))
    return curve


def evaluate(query_codes, db_codes, relevant, top_k=100, radius=2):
    """Full report from one distance matrix: MAP@top_k, lookup stats, PR curve."""
    dist = hamming_distances(query_codes, db_codes)
    relevant = np.asarray(relevant, dtype=bool)
    mean, std, coverage, mean_nonempty = _lookup_precision(dist, relevant, radius)
    return EvalReport(
        map=_mean_average_precision(dist, relevant, top_k),
        lookup_precision_mean=mean,
        lookup_precision_std=std,
        lookup_precision_nonempty=mean_nonempty,
        lookup_coverage=coverage,
        pr_curve=_pr_curve(dist, relevant, np.shape(query_codes)[1]),
        top_k=top_k,
        radius=radius,
    )
