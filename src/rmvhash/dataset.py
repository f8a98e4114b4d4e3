"""Multi-view dataset container, MVH1 file I/O, synthetic data, corruptions."""

import gzip
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"MVH1"
COMPRESSED_SUFFIXES = (".gz", ".gzip")


class DatasetFormatError(ValueError):
    """Raised when a view file or manifest violates the MVH1 format."""


@dataclass(frozen=True)
class MultiViewDataset:
    """N samples observed under M views; view m is a (d_m, N) matrix."""

    views: tuple            # M arrays, each (d_m, N)
    labels: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self):
        if len(self.views) < 1:
            raise ValueError("a dataset needs at least one view")
        # Round-trip through float32 so the MVH1 format is lossless for any
        # dataset held in memory; downstream math runs in float64.
        views = tuple(
            np.asarray(v, dtype=np.float32).astype(np.float64) for v in self.views
        )
        object.__setattr__(self, "views", views)
        n = self.views[0].shape[1]
        for m, v in enumerate(self.views):
            if v.ndim != 2 or v.shape[0] < 1:
                raise ValueError(f"view {m} must be a nonempty 2-D matrix")
            if v.shape[1] != n:
                raise DatasetFormatError(
                    f"view {m} has {v.shape[1]} samples, expected {n}"
                )
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


def _opener(path, mode):
    if str(path).endswith(COMPRESSED_SUFFIXES):
        return gzip.open(path, mode)
    return open(path, mode)


def save_view(path, view):
    """Write one view matrix in the MVH1 binary format.

    Layout: magic "MVH1", little-endian uint64 rows (d_m) and cols (N),
    then rows*cols little-endian float32 values in row-major order.
    """
    view = np.ascontiguousarray(view, dtype="<f4")
    with _opener(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<QQ", view.shape[0], view.shape[1]))
        f.write(view.tobytes())


def read_block(buf, offset, dtype, error):
    """Read the `uint64 rows, uint64 cols, row-major payload of dtype` block at
    buf[offset:]; returns (read-only view into buf, offset past the block).
    Raises error(message) for a short header, a short payload, or a dimension
    too large for a float64 copy."""
    if len(buf) - offset < 16:
        raise error("truncated header")
    rows, cols = struct.unpack_from("<QQ", buf, offset)
    start = offset + 16
    end = start + rows * cols * np.dtype(dtype).itemsize
    if end > len(buf):
        raise error(f"truncated payload, {len(buf) - start} bytes for {rows} x {cols}")
    if max(rows, cols) > np.iinfo(np.intp).max // 8:
        # only a zero-size block gets here past the payload-size check
        raise error(f"header claims {rows} x {cols}, too many for an array")
    return np.frombuffer(buf, dtype, rows * cols, start).reshape(rows, cols), end


def load_view(path):
    """Read one MVH1 view; raises DatasetFormatError unless the file holds
    exactly the header's rows x cols values, with at least one row."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"view file not found: {path}")
    try:
        with _opener(path, "rb") as f:
            raw = f.read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DatasetFormatError(f"{path}: corrupt compressed file: {exc}") from exc
    if raw[:4] != MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    view, end = read_block(raw, 4, "<f4", lambda msg: DatasetFormatError(f"{path}: {msg}"))
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
    """Write all views, optional labels, and a manifest; returns the manifest path."""
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
        (out_dir / lfile).write_text("\n".join(str(int(x)) for x in ds.labels) + "\n")
        lines.append(f"labels={lfile}")
    manifest = out_dir / f"{name}.manifest"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def load_dataset(manifest_path):
    """Load a dataset from a manifest of view files (see save_dataset)."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{manifest_path}: not UTF-8 text: {exc}") from exc
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DatasetFormatError(f"bad manifest line: {line!r}")
        key, val = line.split("=", 1)
        kv[key.strip()] = val.strip()
    base = manifest_path.parent
    views = []
    m = 0
    while f"view{m}" in kv:
        views.append(load_view(base / kv[f"view{m}"]))
        m += 1
    if not views:
        raise DatasetFormatError(f"{manifest_path}: no view entries")
    labels = None
    if "labels" in kv:
        lpath = base / kv["labels"]
        if not lpath.is_file():
            raise FileNotFoundError(f"label file not found: {lpath}")
        try:
            labels = np.array([int(x) for x in lpath.read_bytes().split()])
        except ValueError as exc:
            raise DatasetFormatError(f"{lpath}: labels must be integers: {exc}") from exc
    n = views[0].shape[1]
    for m, v in enumerate(views):
        if v.shape[1] != n:
            raise DatasetFormatError(
                f"view {m} ({kv[f'view{m}']}) has {v.shape[1]} samples, expected {n}"
            )
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


def corrupt_gaussian(ds, spec):
    """Add independent standard-normal noise to a uniform fraction of entries
    in each view."""
    if spec.kind != "gaussian-fraction":
        raise ValueError(f"expected gaussian-fraction spec, got {spec.kind!r}")
    rng = np.random.default_rng(spec.seed)
    views = []
    for v in ds.views:
        mask = rng.random(v.shape) < spec.fraction
        noisy = v + mask * rng.normal(size=v.shape)
        views.append(noisy)
    return MultiViewDataset(views=tuple(views), labels=ds.labels, name=ds.name)


def corrupt_block(ds, spec):
    """Zero a contiguous run of ceil(fraction * d_m) coordinates per sample,
    per view, at a uniformly sampled offset."""
    if spec.kind != "block-zero":
        raise ValueError(f"expected block-zero spec, got {spec.kind!r}")
    rng = np.random.default_rng(spec.seed)
    views = []
    for v in ds.views:
        d, n = v.shape
        width = int(np.ceil(spec.fraction * d))
        out = v.copy()
        if width > 0:
            starts = rng.integers(0, d - width + 1, size=n)
            for i in range(n):
                out[starts[i]:starts[i] + width, i] = 0.0
        views.append(out)
    return MultiViewDataset(views=tuple(views), labels=ds.labels, name=ds.name)


def corrupt(ds, spec):
    if spec.kind == "gaussian-fraction":
        return corrupt_gaussian(ds, spec)
    return corrupt_block(ds, spec)


def split(ds, n_query, seed=0):
    """Disjoint uniform train/query split, deterministic per seed."""
    n = ds.n_samples
    if n_query >= n:
        raise ValueError(f"n_query={n_query} must be smaller than N={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    query_idx = np.sort(perm[:n_query])
    train_idx = np.sort(perm[n_query:])
    return ds.subset(train_idx), ds.subset(query_idx)
