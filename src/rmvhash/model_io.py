"""Versioned binary model container with a trailing 64-bit checksum.

Layout (little-endian throughout, like the MVH1 data format):
magic "RMVM", uint32 format version, uint64-length-prefixed UTF-8 JSON
metadata, a sequence of float64 matrices (uint64 rows, uint64 cols, row-major
payload), and a trailing 8-byte checksum (leading 8 bytes of the SHA-256 of
everything before it).
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from . import hash_trainer, kernel_sim, oos_encoder

MAGIC = b"RMVM"
FORMAT_VERSION = 1


class ModelFileError(ValueError):
    """Raised for corrupt, truncated, or incompatible model files."""


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
        return np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()


def save_model(model, path, config_snapshot=None):
    """Serialize a HashModel (including its base set) to path."""
    meta = {
        "sigmas": list(model.kernel_config.sigmas),
        "sigma_concat": model.kernel_config.sigma_concat,
        "self_tuning_k": model.kernel_config.self_tuning_k,
        "landmark_mode": model.landmarks.mode,
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
    meta = json.loads(r.take(blob_len).decode("utf-8"))
    if meta.get("query_mode", "concat") != "concat":
        raise ModelFileError(
            f"{path}: query mode {meta['query_mode']!r} is no longer supported; "
            "retrain the model"
        )
    W = r.matrix()
    b = r.matrix().ravel()
    blocks = tuple(r.matrix() for _ in range(meta["n_views"]))
    landmarks = kernel_sim.KernelLandmarks(blocks=blocks, mode=meta["landmark_mode"])
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
