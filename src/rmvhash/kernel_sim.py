"""Gaussian-RBF kernelized similarity between landmarks and samples.

A kernelized similarity matrix K^(m) is the rectangular R x N matrix of RBF
similarities between R landmark objects and the N samples of view m.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import core_math


@dataclass(frozen=True)
class KernelLandmarks:
    """R landmark objects, stored as one (R, d_m) block per view.

    Row r of every block refers to the same underlying landmark object.
    """

    blocks: tuple            # M arrays, each (R, d_m)

    @property
    def R(self):
        return self.blocks[0].shape[0]


@dataclass(frozen=True)
class KernelConfig:
    sigmas: tuple                 # one per view


def select_kernel_landmarks(ds, R, seed=0):
    """Pick R landmark objects from a dataset: k-means centers of the
    concatenated feature space, split back into per-view blocks. It is train's
    one landmark rule, for graph and kernel landmarks alike."""
    concat = ds.concatenated().T                     # (N, d)
    centers = core_math.kmeans(concat, R, seed=seed)
    blocks = np.split(centers, np.cumsum(ds.dims)[:-1], axis=1)
    return KernelLandmarks(blocks=tuple(b.copy() for b in blocks))


def self_tuning_sigma(view, z_view, k_st):
    """Self-tuned bandwidth: median over samples of the distance to the
    k_st-th nearest landmark, found in blocks of samples (see
    core_math.blocks)."""
    points = np.asarray(view, dtype=float).T
    z_view = np.asarray(z_view, dtype=float)
    if k_st > z_view.shape[0]:
        raise ValueError(f"k_st={k_st} exceeds R={z_view.shape[0]}")
    kth = np.empty(len(points))
    for part in core_math.blocks(len(points), len(z_view)):
        d2 = core_math.sq_dists(points[part], z_view)
        kth[part] = np.partition(d2, k_st - 1, axis=1)[:, k_st - 1]
    # sqrt is monotone: the root of the k-th squared distance is the k-th distance
    np.sqrt(kth, out=kth)
    sigma = float(np.median(kth))
    if sigma <= 0:
        raise ValueError("degenerate data: self-tuned bandwidth is zero")
    return sigma


# Kernel entries below sqrt(float32 tiny) = 2^-63 (about 1.1e-19) are set to 0,
# so no product of two kept entries is subnormal in float64 or float32, the
# ALM's dtype, into which a kept entry casts at or above 2^-63. exp is about
# 100 times slower where its result underflows, so exponents are first clamped
# at _FLOOR_EXPONENT, whose exp, floor / e, is zeroed like every entry below it.
_KERNEL_FLOOR = float(np.sqrt(np.finfo(np.float32).tiny))
_FLOOR_EXPONENT = math.log(_KERNEL_FLOOR) - 1.0


def build_kernel_matrix(view, z_view, sigma):
    """R x N matrix with entries exp(-||z_r - x_i||^2 / (2 sigma^2)), each
    entry below _KERNEL_FLOOR set to exactly 0."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    view = np.asarray(view, dtype=float)
    z_view = np.asarray(z_view, dtype=float)
    if view.shape[0] != z_view.shape[1]:
        raise ValueError(
            f"view dim {view.shape[0]} != landmark dim {z_view.shape[1]}"
        )
    K = core_math.sq_dists(z_view, view.T)
    K /= -2.0 * sigma ** 2
    np.exp(np.maximum(K, _FLOOR_EXPONENT, out=K), out=K)
    K *= K >= _KERNEL_FLOOR
    return K


SELF_TUNING_K = 7    # bandwidths are tuned at the min(7, R)-th nearest landmark


def tune_config(ds, landmarks):
    """Per-view self-tuned bandwidths at the min(SELF_TUNING_K, R)-th nearest landmark."""
    k_st = min(SELF_TUNING_K, landmarks.R)
    sigmas = tuple(self_tuning_sigma(v, z, k_st) for v, z in zip(ds.views, landmarks.blocks))
    return KernelConfig(sigmas=sigmas)


# Columns per slice of kernel_slices: 1024 x R float64 stays a few MB.
_CHUNK = 1024


def kernel_slices(views, landmarks, sigmas):
    """(columns, kernels) for each core_math.spans slice of _CHUNK columns of
    the (d_m, n) views, in order: the build_kernel_matrix of every view, with
    its (R, d_m) landmarks and sigma, over those columns."""
    for cols in core_math.spans(views[0].shape[1], _CHUNK):
        yield cols, [
            build_kernel_matrix(v[:, cols], z, s) for v, z, s in zip(views, landmarks, sigmas)
        ]


def build_view_kernels(ds, landmarks, cfg, dtype=float):
    """The (M, R, N) per-view kernelized similarity matrices in dtype, written
    a slice of columns at a time (see kernel_slices), so a float32 result
    makes no float64 R x N array."""
    out = np.empty((ds.n_views, landmarks.R, ds.n_samples), dtype)
    for cols, parts in kernel_slices(ds.views, landmarks.blocks, cfg.sigmas):
        out[..., cols] = parts
    return out
