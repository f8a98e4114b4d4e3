"""Versioned binary model container with a trailing 64-bit checksum.

Layout (little-endian throughout, like the MVH1 data format):
magic "RMVM", uint32 format version, uint64-length-prefixed UTF-8 JSON
metadata, a sequence of float64 matrices (uint64 rows, uint64 cols, row-major
payload), and a trailing 8-byte checksum (leading 8 bytes of the SHA-256 of
everything before it). Version 1 models fit a kernel no longer served.
"""

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from . import dataset, hash_trainer, kernel_sim, oos_encoder

MAGIC = b"RMVM"
FORMAT_VERSION = 2


class ModelFileError(ValueError):
    """Raised for corrupt, truncated, or incompatible model files."""


# The JSON type of each metadata key load_model reads; others are ignored.
_META_TYPES = dict(
    n_views=int, sigmas=list, self_tuning_k=int, has_base_set=bool,
    base_k_oos=int, base_sigma=float, model_meta=dict, config=dict,
)


def _positive(x):
    return type(x) is float and 0 < x < math.inf


def _check_meta(meta, path):
    if not isinstance(meta, dict):
        raise ModelFileError(f"{path}: metadata is not a JSON object")
    for key, kind in _META_TYPES.items():
        if type(meta.get(key)) is not kind:
            raise ModelFileError(f"{path}: metadata {key!r} is missing or not a {kind.__name__}")
    sigmas = meta["sigmas"]
    if meta["n_views"] < 1 or len(sigmas) != meta["n_views"] or not all(map(_positive, sigmas)):
        raise ModelFileError(f"{path}: metadata needs one positive finite sigma per view")
    if meta["has_base_set"] and not _positive(meta["base_sigma"]):
        raise ModelFileError(f"{path}: metadata base_sigma is not positive and finite")


def _pack_matrix(arr):
    arr = np.ascontiguousarray(np.atleast_2d(np.asarray(arr, dtype="<f8")))
    return struct.pack("<QQ", arr.shape[0], arr.shape[1]) + arr.tobytes()


class _Reader:
    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise ModelFileError("model file is truncated")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def matrix(self):
        mtx, self.pos = dataset.read_block(self.buf, self.pos, "<f8", ModelFileError)
        return mtx.copy()


def save_model(model, path, config_snapshot=None):
    """Serialize a HashModel (including its base set) to path."""
    meta = {
        "sigmas": list(model.kernel_config.sigmas),
        "self_tuning_k": model.kernel_config.self_tuning_k,
        "n_views": len(model.landmarks.blocks),
        "has_base_set": model.base_set is not None,
        "base_k_oos": model.base_set.k_oos if model.base_set is not None else 0,
        "base_sigma": model.base_set.sigma if model.base_set is not None else 0.0,
        "model_meta": model.meta,
        "config": config_snapshot or {},
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = MAGIC + struct.pack("<I", FORMAT_VERSION)
    body += struct.pack("<Q", len(blob)) + blob
    body += _pack_matrix(model.W)
    body += _pack_matrix(model.b.reshape(1, -1))
    for block in model.landmarks.blocks:
        body += _pack_matrix(block)
    if model.base_set is not None:
        body += _pack_matrix(model.base_set.centers)
        body += _pack_matrix(model.base_set.embeddings)
    checksum = hashlib.sha256(body).digest()[:8]
    Path(path).write_bytes(body + checksum)


def load_model(path):
    """Load a HashModel; raises ModelFileError on corruption or another
    format version. Returns (model, config_snapshot)."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 + 4 + 8 + 8:
        raise ModelFileError(f"{path}: file too short to be a model container")
    body, checksum = raw[:-8], raw[-8:]
    if hashlib.sha256(body).digest()[:8] != checksum:
        raise ModelFileError(f"{path}: checksum mismatch, file is corrupt")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise ModelFileError(f"{path}: bad magic, not a model container")
    (version,) = struct.unpack("<I", r.take(4))
    if version != FORMAT_VERSION:
        raise ModelFileError(
            f"{path}: format version {version} is not the supported version {FORMAT_VERSION}"
            + ("" if version > FORMAT_VERSION else "; it fits an older kernel, retrain the model")
        )
    (blob_len,) = struct.unpack("<Q", r.take(8))
    try:
        meta = json.loads(r.take(blob_len).decode("utf-8"))
    except ValueError as exc:     # JSONDecodeError and UnicodeDecodeError
        raise ModelFileError(f"{path}: metadata is not UTF-8 JSON: {exc}") from exc
    _check_meta(meta, path)
    W = r.matrix()
    b = r.matrix().ravel()
    blocks = tuple(r.matrix() for _ in range(meta["n_views"]))
    if b.shape != (W.shape[1],) or any(z.shape[0] != W.shape[0] for z in blocks):
        raise ModelFileError(f"{path}: W, b and landmark shapes disagree")
    base_set = None
    if meta["has_base_set"]:
        centers, embeddings = r.matrix(), r.matrix()
        if embeddings.shape != (len(centers), W.shape[1]) or centers.shape[1] != sum(
            z.shape[1] for z in blocks
        ):
            raise ModelFileError(f"{path}: base-set shapes disagree with the model")
        if not 1 <= meta["base_k_oos"] <= len(centers):
            raise ModelFileError(f"{path}: metadata base_k_oos is not in [1, Z]")
        base_set = oos_encoder.BaseSet(centers, embeddings, meta["base_sigma"], meta["base_k_oos"])
    if r.pos != len(body):
        raise ModelFileError(f"{path}: {len(body) - r.pos} unread bytes before the checksum")
    model = hash_trainer.HashModel(
        W=W, b=b, landmarks=kernel_sim.KernelLandmarks(blocks=blocks),
        kernel_config=kernel_sim.KernelConfig(tuple(meta["sigmas"]), meta["self_tuning_k"]),
        base_set=base_set, meta=meta["model_meta"],
    )
    return model, meta["config"]
