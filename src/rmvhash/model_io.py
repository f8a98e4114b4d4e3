"""Versioned binary model container with a trailing 64-bit checksum.

Layout (little-endian throughout, like the MVH1 data format):
magic "RMVM", uint32 format version, uint64-length-prefixed UTF-8 JSON
metadata, a sequence of float64 blocks as dataset.pack_block writes them
(uint64 rows, uint64 cols, row-major payload), and a trailing 8-byte checksum
(leading 8 bytes of the SHA-256 of everything before it). Version 3 holds the
metadata "sigmas" (one per view), "base_k_oos", "model_meta" and "config",
then W (R, P), b (1, P), one (R, d_m) landmark block per sigma and the (Z, d)
base-set centers: only what training chose. load_model rebuilds the rest of
the base set with the builder train uses. Version 1 and 2 files are refused.
"""

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from . import dataset, hash_trainer, kernel_sim, oos_encoder

MAGIC = b"RMVM"
FORMAT_VERSION = 3
_HEADER = struct.Struct("<4sIQ")      # magic, format version, metadata length


class ModelFileError(ValueError):
    """Raised for corrupt, truncated, or incompatible model files."""


# The JSON type of each metadata key load_model reads; others are ignored.
_META_TYPES = dict(sigmas=list, base_k_oos=int, model_meta=dict, config=dict)


def _check_meta(meta, error):
    if not isinstance(meta, dict):
        raise error("metadata is not a JSON object")
    for key, kind in _META_TYPES.items():
        if type(meta.get(key)) is not kind:
            raise error(f"metadata {key!r} is missing or not a {kind.__name__}")
    sigmas = meta["sigmas"]
    if not sigmas or not all(type(s) is float and 0 < s < math.inf for s in sigmas):
        raise error("metadata needs one positive finite sigma per view")


def save_model(model, path, config_snapshot=None):
    """Serialize a trained HashModel to path; the model needs its base set."""
    if model.base_set is None:
        raise ValueError("cannot save a model without a base set; train builds one")
    meta = {
        "sigmas": list(model.kernel_config.sigmas),
        "base_k_oos": model.base_set.k_oos,
        "model_meta": model.meta,
        "config": config_snapshot or {},
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = _HEADER.pack(MAGIC, FORMAT_VERSION, len(blob)) + blob
    for mtx in (model.W, model.b.reshape(1, -1), *model.landmarks.blocks, model.base_set.centers):
        body += dataset.pack_block(mtx, "<f8")
    checksum = hashlib.sha256(body).digest()[:8]
    Path(path).write_bytes(body + checksum)


def load_model(path):
    """Load a HashModel; raises ModelFileError on corruption or another
    format version. Returns (model, config_snapshot)."""
    def error(msg):
        return ModelFileError(f"{path}: {msg}")

    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + 8:
        raise error("file too short to be a model container")
    body, checksum = raw[:-8], raw[-8:]
    if hashlib.sha256(body).digest()[:8] != checksum:
        raise error("checksum mismatch, file is corrupt")
    magic, version, blob_len = _HEADER.unpack_from(body)   # the size check left these bytes
    if magic != MAGIC:
        raise error("bad magic, not a model container")
    if version != FORMAT_VERSION:
        raise error(
            f"format version {version} is not the supported version {FORMAT_VERSION}"
            + ("" if version > FORMAT_VERSION else "; older files are not read, retrain the model")
        )
    pos = _HEADER.size + blob_len
    if pos > len(body):
        raise error(f"truncated metadata, {len(body) - _HEADER.size} bytes for {blob_len}")
    try:
        meta = json.loads(body[_HEADER.size:pos].decode("utf-8"))
    except ValueError as exc:     # JSONDecodeError and UnicodeDecodeError
        raise error(f"metadata is not UTF-8 JSON: {exc}") from exc
    _check_meta(meta, error)

    def matrix():
        nonlocal pos
        mtx, pos = dataset.read_block(body, pos, "<f8", error)
        if not (mtx.size and np.isfinite(mtx).all()):
            raise error("a matrix is empty or holds a non-finite value")
        return mtx.copy()

    W = matrix()
    b = matrix().ravel()
    blocks = tuple(matrix() for _ in meta["sigmas"])
    if b.shape != (W.shape[1],) or any(z.shape[0] != W.shape[0] for z in blocks):
        raise error("W, b and landmark shapes disagree")
    centers = matrix()
    if centers.shape[1] != sum(z.shape[1] for z in blocks):
        raise error("base-set and landmark shapes disagree")
    if not 1 <= meta["base_k_oos"] <= len(centers):
        raise error("metadata base_k_oos is not in [1, Z]")
    if pos != len(body):
        raise error(f"{len(body) - pos} unread bytes before the checksum")
    model = hash_trainer.HashModel(
        W=W, b=b, landmarks=kernel_sim.KernelLandmarks(blocks=blocks),
        kernel_config=kernel_sim.KernelConfig(tuple(meta["sigmas"])), meta=meta["model_meta"],
    )
    # Far kernel entries underflow on healthy models; an extreme stored value
    # can overflow, in numpy or in a Python float such as sigma ** 2.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            model.base_set = oos_encoder.make_base_set(model, centers, meta["base_k_oos"])
    except (FloatingPointError, OverflowError) as exc:
        raise error(f"cannot rebuild the base set: {exc}") from exc
    return model, meta["config"]
