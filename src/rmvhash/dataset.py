"""Multi-view dataset container, view file I/O (float32 MVH1 and sign-packed
MVS1), synthetic data, corruptions."""

import math
import struct
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

MAGIC = b"MVH1"          # a float32 view
SIGN_MAGIC = b"MVS1"     # a sign-packed view, every value +1 or -1
SIGNS = "signs"          # the pack_block / read_block dtype of a sign-packed block
_VIEW_DTYPES = {MAGIC: "<f4", SIGN_MAGIC: SIGNS}


class DatasetFormatError(ValueError):
    """Raised when a view file or manifest violates the MVH1 format."""


@dataclass(frozen=True)
class MultiViewDataset:
    """N samples observed under M views; view m is a (d_m, N) matrix."""

    views: tuple            # M arrays, each (d_m, N)
    labels: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self):
        """The one gate for view data: every view is a nonempty 2-D matrix of
        finite values that float32 holds, with the first view's N samples.
        Views are stored read-only, so the checks hold for the dataset's
        life."""
        if len(self.views) < 1:
            raise ValueError("a dataset needs at least one view")
        views = []
        for m, raw in enumerate(self.views):
            raw = np.asarray(raw)
            if raw.ndim != 2 or raw.shape[0] < 1:
                raise ValueError(f"view {m} must be a nonempty 2-D matrix")
            n = views[0].shape[1] if views else raw.shape[1]
            if raw.shape[1] != n:
                raise DatasetFormatError(
                    f"view {m} has {raw.shape[1]} samples, expected {n}"
                )
            # Round-trip through float32 so the MVH1 format is lossless for any
            # dataset held in memory; downstream math runs in float64.
            with np.errstate(over="ignore"):
                v = np.asarray(raw, dtype=np.float32)
            if not np.isfinite(v).all():
                r, c = np.argwhere(~np.isfinite(v))[0]
                raise DatasetFormatError(
                    f"view {m}: value {raw[r, c]} at row {r}, col {c} is not a finite float32"
                )
            v = v.astype(np.float64)
            v.flags.writeable = False
            views.append(v)
        object.__setattr__(self, "views", tuple(views))
        if self.labels is not None and len(self.labels) != n:
            raise DatasetFormatError(
                f"{len(self.labels)} labels for {n} samples"
            )

    @property
    def n_samples(self):
        return self.views[0].shape[1]

    @property
    def n_views(self):
        return len(self.views)

    @property
    def dims(self):
        return tuple(v.shape[0] for v in self.views)

    def concatenated(self):
        """Stack all views into a single (sum d_m, N) matrix."""
        return np.vstack(self.views)

    def subset(self, idx):
        idx = np.asarray(idx)
        return MultiViewDataset(
            views=tuple(v[:, idx] for v in self.views),
            labels=None if self.labels is None else self.labels[idx],
            name=self.name,
        )


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str               # "gaussian-fraction" or "block-zero"
    fraction: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("gaussian-fraction", "block-zero"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")


def save_view(path, view):
    """Write one (d_m, N) view matrix: a view whose values are all +1 or -1
    as magic "MVS1" and a sign-packed block, 24 + N * ceil(d_m / 8) bytes;
    any other as magic "MVH1" and a float32 block (see pack_block)."""
    view = np.asarray(view)
    # two bool masks; np.abs would make a float copy of the whole view
    magic = SIGN_MAGIC if np.all((view == 1) | (view == -1)) else MAGIC
    with open(path, "wb") as f:
        f.writelines((magic, *pack_block(view, _VIEW_DTYPES[magic])))


def pack_block(arr, dtype):
    """A 2-D array as the parts of the block read_block reads, written one
    after another: little-endian uint64 rows and cols, then its values as
    dtype in row-major order, the cast array itself (not copied to bytes).

    With dtype SIGNS, arr holds only +1 and -1 and the payload is one bit per
    value, 1 for +1: each column's rows fill ceil(rows / 8) bytes, value j at
    bit j % 8 of byte j // 8, the padding bits 0. A little-endian uint32
    CRC-32 of the header and payload follows it."""
    if dtype == SIGNS:
        arr = np.asarray(arr)
        header = struct.pack("<QQ", arr.shape[0], arr.shape[1])
        payload = np.ascontiguousarray(np.packbits(arr.T > 0, axis=1, bitorder="little"))
        return header, payload, struct.pack("<I", zlib.crc32(payload, zlib.crc32(header)))
    arr = np.ascontiguousarray(arr, dtype=dtype)
    return struct.pack("<QQ", arr.shape[0], arr.shape[1]), arr


def read_block(buf, offset, dtype, error):
    """Read the `uint64 rows, uint64 cols, row-major payload of dtype` block at
    buf[offset:]; returns (read-only view into buf, offset past the block).
    A SIGNS block comes back as a new int8 array of +1 and -1.
    Raises error(message) for a short header, a short payload, or a dimension
    too large for a float64 copy, and for a SIGNS block whose checksum does
    not match or whose padding bits are not 0."""
    if len(buf) - offset < 16:
        raise error("truncated header")
    rows, cols = struct.unpack_from("<QQ", buf, offset)
    start = offset + 16
    signs = dtype == SIGNS
    width = -(-rows // 8)    # bytes per column of a SIGNS block
    end = start + (cols * width if signs else rows * cols * np.dtype(dtype).itemsize)
    if end + 4 * signs > len(buf):
        raise error(f"truncated payload, {len(buf) - start} bytes for {rows} x {cols}")
    if max(rows, cols) > np.iinfo(np.intp).max // 8:
        # only a zero-size block gets here past the payload-size check
        raise error(f"header claims {rows} x {cols}, too many for an array")
    if not signs:
        return np.frombuffer(buf, dtype, rows * cols, start).reshape(rows, cols), end
    if zlib.crc32(buf[offset:end]) != struct.unpack_from("<I", buf, end)[0]:
        raise error("checksum mismatch")
    bits = np.unpackbits(
        np.frombuffer(buf, np.uint8, cols * width, start).reshape(cols, width),
        axis=1, bitorder="little",
    )
    if bits[:, rows:].any():
        raise error("nonzero padding bits")
    return np.ascontiguousarray(bits[:, :rows].T).view(np.int8) * 2 - 1, end + 4


def load_view(path):
    """Read one view file, float32 or sign-packed; raises DatasetFormatError
    unless the file holds exactly the header's rows x cols values, with at
    least one row."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"view file not found: {path}")
    raw = path.read_bytes()
    dtype = _VIEW_DTYPES.get(raw[:4])
    if dtype is None:
        raise DatasetFormatError(
            f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r} or {SIGN_MAGIC!r}"
        )
    view, end = read_block(raw, 4, dtype, lambda msg: DatasetFormatError(f"{path}: {msg}"))
    if len(view) < 1:
        raise DatasetFormatError(f"{path}: header claims no rows")
    if end != len(raw):
        raise DatasetFormatError(f"{path}: trailing bytes, {len(raw) - end} after {view.shape}")
    bad = np.argwhere(~np.isfinite(view))
    if bad.size:
        r, c = bad[0]
        raise DatasetFormatError(f"{path}: non-finite value at row {r}, col {c}")
    return view.astype(np.float64)


def save_dataset(ds, out_dir, name=None):
    """Write all views, optional labels, and a manifest; returns the manifest
    path. Labels must be 1-D integers, which the label file holds exactly."""
    if ds.labels is not None:
        labels = np.asarray(ds.labels)
        exact = labels.ndim == 1 and labels.dtype.kind in "biuf"
        if exact:
            with np.errstate(invalid="ignore"):   # NaN and inf cast to an int they differ from
                ints = labels.astype(np.int64)
            exact = np.array_equal(ints, labels)
        if not exact:
            raise ValueError(f"labels must be 1-D integers to be saved, got {labels.dtype} "
                             f"of shape {labels.shape}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = name or ds.name
    lines = [f"name={name}"]
    for m, v in enumerate(ds.views):
        fname = f"{name}_view{m}.mvh"
        save_view(out_dir / fname, v)
        lines.append(f"view{m}={fname}")
    if ds.labels is not None:
        lfile = f"{name}_labels.txt"
        (out_dir / lfile).write_text("\n".join(map(str, ints)) + "\n")
        lines.append(f"labels={lfile}")
    manifest = out_dir / f"{name}.manifest"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def read_key_values(path, error):
    """The stripped key=value lines of a UTF-8 file, split on the first "=",
    skipping blank and "#" lines; error(message) names the path for text
    that is not UTF-8, a line without "=" and a repeated key."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{path}: bad line (expected key=value): {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise error(f"{path}: key {key!r} is repeated")
        kv[key] = val
    return kv


def load_dataset(manifest_path):
    """Load a dataset from a manifest of view files (see save_dataset)."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    kv = read_key_values(manifest_path, DatasetFormatError)
    base = manifest_path.parent
    # every key but name and labels is a view, and the views are view0, view1, ...
    view_keys = [f"view{m}" for m in range(len(kv.keys() - {"name", "labels"}))]
    unknown = sorted(kv.keys() - {"name", "labels", *view_keys})
    if unknown:
        raise DatasetFormatError(f"{manifest_path}: unknown key(s) {', '.join(map(repr, unknown))}")
    if not view_keys:
        raise DatasetFormatError(f"{manifest_path}: no view entries")
    views = [load_view(base / kv[key]) for key in view_keys]
    labels = None
    if "labels" in kv:
        lpath = base / kv["labels"]
        if not lpath.is_file():
            raise FileNotFoundError(f"label file not found: {lpath}")
        try:
            labels = np.array([int(x) for x in lpath.read_bytes().split()])
        except ValueError as exc:
            raise DatasetFormatError(f"{lpath}: labels must be integers: {exc}") from exc
    return MultiViewDataset(
        views=tuple(views), labels=labels, name=kv.get("name", manifest_path.stem)
    )


def synth_multiview(n_clusters, per_cluster, dims, view_noise=0.1, seed=0):
    """Clustered synthetic data: each view is a random linear embedding of
    shared latent cluster centers plus Gaussian view noise."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"dims must be positive, got {dims}")
    if per_cluster < 1 or n_clusters < 1:
        raise ValueError("n_clusters and per_cluster must be at least 1")
    if not (np.isfinite(view_noise) and view_noise >= 0):
        raise ValueError(f"view_noise must be finite and at least 0, got {view_noise}")
    rng = np.random.default_rng(seed)
    n = n_clusters * per_cluster
    latent_dim = max(4, n_clusters)
    centers = rng.normal(size=(n_clusters, latent_dim)) * 3.0
    labels = np.repeat(np.arange(n_clusters), per_cluster)
    views = []
    for d in dims:
        proj = rng.normal(size=(d, latent_dim)) / np.sqrt(latent_dim)
        clean = proj @ centers[labels].T          # (d, N)
        noisy = clean + view_noise * rng.normal(size=(d, n))
        views.append(noisy)
    return MultiViewDataset(views=tuple(views), labels=labels, name="synthetic")


def corrupt(ds, spec):
    """gaussian-fraction adds independent standard-normal noise to a uniform
    fraction of the entries of each view. block-zero zeroes, in each sample
    of view m, a contiguous run of ceil(fraction * d_m) coordinates at a
    uniformly drawn offset; the product is exact for the decimal the
    fraction is written as, so 0.07 of 100 coordinates is 7."""
    rng = np.random.default_rng(spec.seed)
    views = []
    for v in ds.views:
        if spec.kind == "gaussian-fraction":
            views.append(v + (rng.random(v.shape) < spec.fraction) * rng.normal(size=v.shape))
            continue
        d, n = v.shape
        width = math.ceil(Fraction(str(spec.fraction)) * d)
        starts = rng.integers(0, d - width + 1, size=n)
        rows = np.arange(d)[:, None]
        views.append(np.where((rows >= starts) & (rows < starts + width), 0.0, v))
    return MultiViewDataset(views=tuple(views), labels=ds.labels, name=ds.name)


def split(ds, n_query, seed=0):
    """Disjoint uniform train/query split, deterministic per seed."""
    n = ds.n_samples
    if not 1 <= n_query < n:
        raise ValueError(f"n_query={n_query} must be at least 1 and below N={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    query_idx = np.sort(perm[:n_query])
    train_idx = np.sort(perm[n_query:])
    return ds.subset(train_idx), ds.subset(query_idx)
