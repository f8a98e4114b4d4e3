"""Versioned binary model container with a trailing 64-bit checksum.

Layout (little-endian throughout, like the MVH1 data format):
magic "RMVM", uint32 format version, uint64-length-prefixed UTF-8 JSON
metadata, a sequence of float64 blocks as dataset.pack_block writes them
(uint64 rows, uint64 cols, row-major payload), and a trailing 8-byte checksum
(leading 8 bytes of the SHA-256 of everything before it). Version 4 holds the
metadata "sigmas" (one per view), "model_meta" and "config", then W (R, P),
b (1, P) and one (R, d_m) landmark block per sigma: the kernel map every item
is served through, and nothing else. A loaded model has no base set.
Version 1, 2 and 3 files are refused.
"""

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from . import dataset, hash_trainer, kernel_sim

MAGIC = b"RMVM"
FORMAT_VERSION = 4
_HEADER = struct.Struct("<4sIQ")      # magic, format version, metadata length


class ModelFileError(ValueError):
    """Raised for corrupt, truncated, or incompatible model files."""


# The JSON type of each metadata key load_model reads; others are ignored.
_META_TYPES = dict(sigmas=list, model_meta=dict, config=dict)


def _check_meta(meta, error):
    if not isinstance(meta, dict):
        raise error("metadata is not a JSON object")
    for key, kind in _META_TYPES.items():
        if type(meta.get(key)) is not kind:
            raise error(f"metadata {key!r} is missing or not a {kind.__name__}")
    sigmas = meta["sigmas"]
    if not sigmas or not all(type(s) is float and 0 < s < math.inf for s in sigmas):
        raise error("metadata needs one positive finite sigma per view")


def _count_blocks(body, pos):
    """How many whole float64 blocks body[pos:] holds, or None when it is not
    a run of whole blocks."""
    count = 0
    while pos < len(body):
        try:
            _, pos = dataset.read_block(body, pos, "<f8", ModelFileError)
        except ModelFileError:
            return None
        count += 1
    return count


def save_model(model, path, config_snapshot=None):
    """Serialize a trained HashModel's kernel map to path; a base set is not
    stored."""
    meta = {
        "sigmas": list(model.kernel_config.sigmas),
        "model_meta": model.meta,
        "config": config_snapshot or {},
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts = [_HEADER.pack(MAGIC, FORMAT_VERSION, len(blob)), blob]
    for mtx in (model.W, model.b.reshape(1, -1), *model.landmarks.blocks):
        parts += dataset.pack_block(mtx, "<f8")
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    with open(path, "wb") as f:
        f.writelines((*parts, digest.digest()[:8]))


def load_model(path):
    """Load a HashModel, with base_set None; raises ModelFileError on
    corruption, another format version or a kernel map that cannot be
    evaluated. Returns (model, config_snapshot)."""
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
    stored = _count_blocks(body, pos)
    if stored is not None and stored != len(meta["sigmas"]):
        raise error(f"the number of sigmas, {len(meta['sigmas'])}, disagrees with "
                    f"the {stored} landmark blocks stored")
    blocks = tuple(matrix() for _ in meta["sigmas"])
    if b.shape != (W.shape[1],) or any(z.shape[0] != W.shape[0] for z in blocks):
        raise error("W, b and landmark shapes disagree")
    if pos != len(body):
        raise error(f"{len(body) - pos} unread bytes before the checksum")
    model = hash_trainer.HashModel(
        W=W, b=b, landmarks=kernel_sim.KernelLandmarks(blocks=blocks),
        kernel_config=kernel_sim.KernelConfig(tuple(meta["sigmas"])), meta=meta["model_meta"],
    )
    # The map must be computable: evaluate it on its own landmarks. Far kernel
    # entries underflow on healthy models; an extreme stored value can
    # overflow, in numpy or in a Python float such as sigma ** 2.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            hash_trainer.embed(model, np.hstack(blocks).T)
    except (FloatingPointError, OverflowError) as exc:
        raise error(f"cannot evaluate the kernel map: {exc}") from exc
    return model, meta["config"]
