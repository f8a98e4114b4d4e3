"""Versioned binary model container with a trailing 64-bit checksum.

Layout (little-endian throughout, like the MVH1 data format):
magic "RMVM", uint32 format version, uint64-length-prefixed UTF-8 JSON
metadata, a sequence of float64 matrices (uint64 rows, uint64 cols, row-major
payload), and a trailing 8-byte checksum (leading 8 bytes of the SHA-256 of
everything before it).
"""

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from . import hash_trainer, kernel_sim, oos_encoder

MAGIC = b"RMVM"
FORMAT_VERSION = 1


class ModelFileError(ValueError):
    """Raised for corrupt, truncated, or incompatible model files."""


# The JSON type of each metadata key load_model reads; others are ignored.
_META_TYPES = dict(
    n_views=int, sigmas=list, sigma_concat=float, self_tuning_k=int, has_base_set=bool,
    base_k_oos=int, base_sigma=float, model_meta=dict, config=dict,
)


def _check_meta(meta, path):
    if not isinstance(meta, dict):
        raise ModelFileError(f"{path}: metadata is not a JSON object")
    for key, kind in _META_TYPES.items():
        if type(meta.get(key)) is not kind:
            raise ModelFileError(f"{path}: metadata {key!r} is missing or not a {kind.__name__}")
    sigmas = meta["sigmas"] + [meta["sigma_concat"]]
    if meta["n_views"] < 1 or len(sigmas) != meta["n_views"] + 1 or not all(
        type(s) is float and 0 < s < math.inf for s in sigmas
    ):
        raise ModelFileError(f"{path}: metadata needs one positive finite sigma per view")


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
        rows, cols = struct.unpack("<QQ", self.take(16))
        data = self.take(rows * cols * 8)
        try:
            return np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()
        except ValueError as exc:     # a dimension numpy cannot represent
            raise ModelFileError(f"bad matrix shape ({rows}, {cols})") from exc


def save_model(model, path, config_snapshot=None):
    """Serialize a HashModel (including its base set) to path."""
    meta = {
        "sigmas": list(model.kernel_config.sigmas),
        "sigma_concat": model.kernel_config.sigma_concat,
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
    """Load a HashModel; raises ModelFileError on corruption or a newer
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
    if version > FORMAT_VERSION:
        raise ModelFileError(
            f"{path}: format version {version} is newer than supported "
            f"version {FORMAT_VERSION}"
        )
    (blob_len,) = struct.unpack("<Q", r.take(8))
    try:
        meta = json.loads(r.take(blob_len).decode("utf-8"))
    except ValueError as exc:     # JSONDecodeError and UnicodeDecodeError
        raise ModelFileError(f"{path}: metadata is not UTF-8 JSON: {exc}") from exc
    _check_meta(meta, path)
    if meta.get("query_mode", "concat") != "concat":
        raise ModelFileError(
            f"{path}: query mode {meta['query_mode']!r} is no longer supported; "
            "retrain the model"
        )
    W = r.matrix()
    b = r.matrix().ravel()
    blocks = tuple(r.matrix() for _ in range(meta["n_views"]))
    if b.shape != (W.shape[1],) or any(z.shape[0] != W.shape[0] for z in blocks):
        raise ModelFileError(f"{path}: W, b and landmark shapes disagree")
    landmarks = kernel_sim.KernelLandmarks(blocks=blocks)
    kcfg = kernel_sim.KernelConfig(
        sigmas=tuple(meta["sigmas"]),
        sigma_concat=meta["sigma_concat"],
        self_tuning_k=meta["self_tuning_k"],
    )
    base_set = None
    if meta["has_base_set"]:
        centers = r.matrix()
        embeddings = r.matrix()
        base_set = oos_encoder.BaseSet(
            centers=centers,
            embeddings=embeddings,
            sigma=meta["base_sigma"],
            k_oos=meta["base_k_oos"],
        )
    model = hash_trainer.HashModel(
        W=W,
        b=b,
        landmarks=landmarks,
        kernel_config=kcfg,
        base_set=base_set,
        meta=meta["model_meta"],
    )
    return model, meta["config"]
