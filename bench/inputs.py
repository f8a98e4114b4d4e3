"""Seeded workload inputs, generated by the benchmark's own code.

The trained workloads follow the recipe of `dataset.synth_multiview`,
`dataset.corrupt` (gaussian-fraction) and `dataset.split`, including the
float32 rounding that `MultiViewDataset` applies, so that a given seed gives
the same arrays as those functions did when the benchmark was written. They
are reimplemented here so that a change to the program's generators cannot
change what the benchmark measures. The retrieval workload uses planted codes.
"""

import numpy as np


def _f32(a):
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def synth(n_clusters, per_cluster, dims, seed, view_noise=0.1):
    """Clustered multi-view data: views are random linear embeddings of shared
    latent cluster centres plus gaussian noise. Returns (views, labels)."""
    rng = np.random.default_rng(seed)
    n = n_clusters * per_cluster
    latent_dim = max(4, n_clusters)
    centres = rng.normal(size=(n_clusters, latent_dim)) * 3.0
    labels = np.repeat(np.arange(n_clusters), per_cluster)
    views = []
    for d in dims:
        proj = rng.normal(size=(d, latent_dim)) / np.sqrt(latent_dim)
        clean = proj @ centres[labels].T
        views.append(_f32(clean + view_noise * rng.normal(size=(d, n))))
    return views, labels


def corrupt_gaussian(views, fraction, seed):
    """Add standard-normal noise to a uniform `fraction` of each view's entries."""
    rng = np.random.default_rng(seed)
    out = []
    for v in views:
        mask = rng.random(v.shape) < fraction
        out.append(_f32(v + mask * rng.normal(size=v.shape)))
    return out


def split(n, n_query, seed):
    """Disjoint sorted (train, query) index sets."""
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[n_query:]), np.sort(perm[:n_query])


def multiview_split(n_clusters, per_cluster, dims, n_query, seed, corrupt_fraction=0.0):
    """((train_views, train_labels), (query_views, query_labels))."""
    views, labels = synth(n_clusters, per_cluster, dims, seed)
    if corrupt_fraction > 0:
        views = corrupt_gaussian(views, corrupt_fraction, seed)
    train, query = split(labels.size, n_query, seed)
    return (
        ([v[:, train] for v in views], labels[train]),
        ([v[:, query] for v in views], labels[query]),
    )


def planted_codes(n_db, n_query, n_centres, bits, flip, seed):
    """±1 int8 codes drawn around random cluster centres with each bit flipped
    with probability `flip`. Returns (db_codes, db_labels, q_codes, q_labels)."""
    rng = np.random.default_rng(seed)
    centres = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_centres, bits))

    def draw(n):
        labels = rng.integers(0, n_centres, size=n)
        codes = centres[labels].copy()
        codes[rng.random(codes.shape) < flip] *= -1
        return codes, labels

    db, db_labels = draw(n_db)
    q, q_labels = draw(n_query)
    return db, db_labels, q, q_labels
