import gzip
import hashlib
import re
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmvhash import dataset
from rmvhash.dataset import CorruptionSpec, DatasetFormatError, MultiViewDataset


def make_random_ds(seed=0, dims=(8, 12), n=40, labels=True):
    rng = np.random.default_rng(seed)
    views = tuple(rng.normal(size=(d, n)) for d in dims)
    lab = rng.integers(0, 4, size=n) if labels else None
    return MultiViewDataset(views=views, labels=lab, name="rand")


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        ds = make_random_ds(seed=1)
        manifest = dataset.save_dataset(ds, tmp_path)
        back = dataset.load_dataset(manifest)
        assert back.n_views == ds.n_views
        for a, b in zip(back.views, ds.views):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_gzip_view_round_trip(self, tmp_path):
        # a .gz name is just a name: the file written is a plain view file
        rng = np.random.default_rng(2)
        v = rng.normal(size=(5, 7)).astype(np.float32).astype(np.float64)
        path = tmp_path / "view.mvh.gz"
        dataset.save_view(path, v)
        assert path.read_bytes()[:4] == dataset.MAGIC
        np.testing.assert_array_equal(dataset.load_view(path), v)

    def test_nuswide_like_dims(self, tmp_path):
        ds = make_random_ds(seed=3, dims=(128, 225, 500), n=10)
        back = dataset.load_dataset(dataset.save_dataset(ds, tmp_path))
        assert back.dims == (128, 225, 500)
        assert back.n_views == 3

    def test_sample_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(4)
        dataset.save_view(tmp_path / "a.mvh", rng.normal(size=(4, 100)))
        dataset.save_view(tmp_path / "b.mvh", rng.normal(size=(4, 99)))
        (tmp_path / "bad.manifest").write_text(
            "name=bad\nview0=a.mvh\nview1=b.mvh\n"
        )
        with pytest.raises(DatasetFormatError, match="view 1"):
            dataset.load_dataset(tmp_path / "bad.manifest")

    @pytest.mark.parametrize("labels", [
        np.array([0.5, 1.5, 2.0, 3.0]), np.array([0, 1, np.nan, 2]), np.eye(4, dtype=int),
        np.array(["a", "b", "c", "d"]),
    ], ids=["fractional", "nan", "2-D", "text"])
    def test_labels_the_file_cannot_hold_rejected(self, tmp_path, labels):
        ds = MultiViewDataset(views=(np.ones((2, 4)),), labels=labels)  # valid in memory
        with pytest.raises(ValueError, match="labels must be 1-D integers"):
            dataset.save_dataset(ds, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_missing_view_file(self, tmp_path):
        (tmp_path / "m.manifest").write_text("name=x\nview0=absent.mvh\n")
        with pytest.raises(FileNotFoundError):
            dataset.load_dataset(tmp_path / "m.manifest")

    def test_nan_rejected_with_coordinates(self, tmp_path):
        v = np.zeros((3, 4), dtype=np.float32)
        v[1, 2] = np.nan
        path = tmp_path / "nan.mvh"
        import struct

        with open(path, "wb") as f:
            f.write(b"MVH1" + struct.pack("<QQ", 3, 4) + v.tobytes())
        with pytest.raises(DatasetFormatError, match="row 1, col 2"):
            dataset.load_view(path)

    def test_manifest_line_without_equals_names_path(self, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_text("name=x\nview0 a.mvh\n")
        want = f"{path}: bad line (expected key=value): 'view0 a.mvh'"
        with pytest.raises(DatasetFormatError, match=re.escape(want)):
            dataset.load_dataset(path)

    @pytest.mark.parametrize("lines, key", [
        ("view0=a.mvh\nview0=b.mvh\n", "view0"),
        ("name=x\nview0=a.mvh\nname=y\n", "name"),
    ], ids=["view0", "name"])
    def test_repeated_manifest_key_names_key_and_path(self, tmp_path, lines, key):
        dataset.save_view(tmp_path / "a.mvh", np.ones((2, 3)))
        dataset.save_view(tmp_path / "b.mvh", np.ones((4, 3)))
        path = tmp_path / "m.manifest"
        path.write_text(lines)
        with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: key {key!r} is repeated")):
            dataset.load_dataset(path)

    @pytest.mark.parametrize("bad", ["veiw1", "view3", "View1", "view01", "labels_file"])
    def test_unknown_manifest_key_names_key_and_path(self, tmp_path, bad):
        # a misspelt or misnumbered view must not load as a dataset of fewer views
        ds = make_random_ds(seed=6, dims=(3, 4, 5), n=10)
        manifest = dataset.save_dataset(ds, tmp_path)
        manifest.write_text(manifest.read_text().replace("view1=", f"{bad}="))
        with pytest.raises(DatasetFormatError, match=re.escape(f"{manifest}: unknown key(s) ")):
            dataset.load_dataset(manifest)
        with pytest.raises(DatasetFormatError, match=repr(bad)):
            dataset.load_dataset(manifest)

    def test_non_utf8_manifest_names_path(self, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_bytes(b"name=\xff\n")
        with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: not UTF-8 text")):
            dataset.load_dataset(path)

    def test_truncated_payload(self, tmp_path):
        ds = make_random_ds(seed=5, dims=(6,), n=10)
        manifest = dataset.save_dataset(ds, tmp_path)
        vfile = tmp_path / "rand_view0.mvh"
        vfile.write_bytes(vfile.read_bytes()[:-10])
        with pytest.raises(DatasetFormatError, match="truncated"):
            dataset.load_dataset(manifest)


class TestGate:
    """MultiViewDataset is the one gate for view data."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300], ids=str)
    def test_value_float32_cannot_hold_rejected(self, bad):
        views = (np.zeros((2, 4)), np.zeros((3, 4)))
        views[1][1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no RuntimeWarning before the error
            with pytest.raises(DatasetFormatError, match=re.escape(
                f"view 1: value {bad} at row 1, col 2 is not a finite float32"
            )):
                MultiViewDataset(views=views)

    @pytest.mark.parametrize("views, m", [
        ((np.zeros(4), np.zeros((3, 4))), 0),
        ((np.zeros((3, 4)), np.zeros(4)), 1),
        ((np.zeros((0, 4)), np.zeros((3, 4))), 0),
    ], ids=["1-D first", "1-D second", "no rows"])
    def test_view_not_2d_rejected(self, views, m):
        # each shape is checked before N is read from the first view
        with pytest.raises(ValueError, match=f"view {m} must be a nonempty 2-D matrix"):
            MultiViewDataset(views=views)

    def test_views_read_only(self):
        src = np.ones((3, 4))
        ds = MultiViewDataset(views=(src,), labels=np.arange(4))
        for out in (ds, ds.subset([0, 2]), dataset.corrupt(ds, CorruptionSpec("block-zero", 0.5))):
            with pytest.raises(ValueError, match="read-only"):
                out.views[0][0, 0] = np.nan
        assert src.flags.writeable   # the caller's array is copied, not frozen


class TestSynth:
    def test_construction(self):
        ds = dataset.synth_multiview(10, 200, (32, 48), seed=0)
        assert ds.n_samples == 2000
        assert ds.n_views == 2
        assert ds.dims == (32, 48)
        counts = np.bincount(ds.labels)
        assert np.all(counts == 200)

    def test_zero_noise_collapses_clusters(self):
        ds = dataset.synth_multiview(3, 5, (8,), view_noise=0.0, seed=1)
        for c in range(3):
            cols = ds.views[0][:, ds.labels == c]
            assert np.ptp(cols, axis=1).max() == 0.0

    def test_deterministic(self):
        a = dataset.synth_multiview(4, 10, (6, 7), seed=9)
        b = dataset.synth_multiview(4, 10, (6, 7), seed=9)
        for va, vb in zip(a.views, b.views):
            np.testing.assert_array_equal(va, vb)

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            dataset.synth_multiview(2, 5, ())

    @pytest.mark.parametrize("noise", [np.nan, np.inf, -1.0])
    def test_bad_view_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="view_noise"):
            dataset.synth_multiview(2, 5, (3,), view_noise=noise)


def reference_corrupt(ds, spec):
    """The per-sample corruption loop that dataset.corrupt replaced; its
    block width is the floating-point ceil(fraction * d_m)."""
    rng = np.random.default_rng(spec.seed)
    views = []
    for v in ds.views:
        if spec.kind == "gaussian-fraction":
            mask = rng.random(v.shape) < spec.fraction
            views.append(v + mask * rng.normal(size=v.shape))
            continue
        d, n = v.shape
        width = int(np.ceil(spec.fraction * d))
        out = v.copy()
        if width > 0:
            starts = rng.integers(0, d - width + 1, size=n)
            for i in range(n):
                out[starts[i]:starts[i] + width, i] = 0.0
        views.append(out)
    return tuple(views)


class TestCorruption:
    def test_gaussian_zero_fraction_identity(self):
        ds = make_random_ds(seed=6)
        out = dataset.corrupt(ds, CorruptionSpec("gaussian-fraction", 0.0, 1))
        for a, b in zip(out.views, ds.views):
            np.testing.assert_array_equal(a, b)

    def test_gaussian_fraction_count(self):
        rng = np.random.default_rng(7)
        ds = MultiViewDataset(views=(rng.normal(size=(100, 1000)),))
        out = dataset.corrupt(ds, CorruptionSpec("gaussian-fraction", 0.2, 2))
        changed = np.count_nonzero(out.views[0] != ds.views[0])
        assert 19000 * 0.95 <= changed <= 21000 * 1.05

    def test_gaussian_full_fraction(self):
        rng = np.random.default_rng(8)
        ds = MultiViewDataset(views=(rng.normal(size=(50, 200)),))
        out = dataset.corrupt(ds, CorruptionSpec("gaussian-fraction", 1.0, 3))
        frac_changed = np.mean(out.views[0] != ds.views[0])
        assert frac_changed >= 0.999

    def test_block_exact_width(self):
        rng = np.random.default_rng(9)
        ds = MultiViewDataset(views=(rng.normal(size=(100, 30)) + 10.0,))
        out = dataset.corrupt(ds, CorruptionSpec("block-zero", 0.25, 4))
        for i in range(30):
            zeros = np.nonzero(out.views[0][:, i] == 0.0)[0]
            assert len(zeros) == 25
            assert np.all(np.diff(zeros) == 1)  # contiguous run

    def test_block_identity_and_full(self):
        ds = make_random_ds(seed=10, dims=(10,), n=5)
        ident = dataset.corrupt(ds, CorruptionSpec("block-zero", 0.0, 0))
        np.testing.assert_array_equal(ident.views[0], ds.views[0])
        full = dataset.corrupt(ds, CorruptionSpec("block-zero", 1.0, 0))
        assert np.all(full.views[0] == 0.0)

    def test_shapes_and_labels_preserved(self):
        ds = make_random_ds(seed=11)
        for spec in (
            CorruptionSpec("gaussian-fraction", 0.3, 5),
            CorruptionSpec("block-zero", 0.5, 5),
        ):
            out = dataset.corrupt(ds, spec)
            assert out.dims == ds.dims
            np.testing.assert_array_equal(out.labels, ds.labels)

    def test_reproducible(self):
        ds = make_random_ds(seed=12)
        spec = CorruptionSpec("gaussian-fraction", 0.4, 77)
        a = dataset.corrupt(ds, spec)
        b = dataset.corrupt(ds, spec)
        for va, vb in zip(a.views, b.views):
            np.testing.assert_array_equal(va, vb)

    @pytest.mark.parametrize("fraction, d, width", [
        (0.07, 100, 7), (0.14, 50, 7), (0.28, 225, 63), (0.56, 100, 56), (0.25, 10, 3),
    ])
    def test_block_width_is_exact_for_the_written_decimal(self, fraction, d, width):
        # 0.07 * 100 is 7.000000000000001 in floating point, whose ceiling is 8
        ds = MultiViewDataset(views=(np.full((d, 6), 5.0),))
        out = dataset.corrupt(ds, CorruptionSpec("block-zero", fraction, 1))
        np.testing.assert_array_equal(np.sum(out.views[0] == 0.0, axis=0), width)

    def test_matches_per_sample_reference(self):
        rng = np.random.default_rng(13)
        for case in range(200):
            kind = ("gaussian-fraction", "block-zero")[case % 2]
            fraction = rng.choice([0.0, 1.0, rng.random()], p=[0.1, 0.1, 0.8])
            dims = tuple(rng.integers(1, 40, size=rng.integers(1, 4)))
            ds = make_random_ds(seed=case, dims=dims, n=int(rng.integers(0, 30)))
            spec = CorruptionSpec(kind, float(fraction), int(rng.integers(2 ** 31)))
            want = MultiViewDataset(views=reference_corrupt(ds, spec))
            for got, ref in zip(dataset.corrupt(ds, spec).views, want.views):
                assert got.tobytes() == ref.tobytes(), (case, spec, ds.dims)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            CorruptionSpec("gaussian-fraction", 1.5, 0)
        with pytest.raises(ValueError):
            CorruptionSpec("block-zero", -0.1, 0)


class TestSplit:
    def test_sizes(self):
        ds = make_random_ds(seed=13, n=60)
        train, query = dataset.split(ds, 10, seed=0)
        assert train.n_samples == 50
        assert query.n_samples == 10

    @pytest.mark.parametrize("n_query", [-1, 0])
    def test_query_count_below_1_rejected(self, n_query):
        # -1 used to give 19 queries and 0 an empty query set
        ds = make_random_ds(seed=14, n=20)
        with pytest.raises(ValueError, match=f"n_query={n_query} must be at least 1"):
            dataset.split(ds, n_query, seed=0)

    def test_partition_property(self):
        # the only view holds each sample's index, so the split's columns name it
        ds = MultiViewDataset(views=(np.arange(50.0)[None, :],), name="index")
        train, query = dataset.split(ds, 12, seed=4)
        union = np.sort(np.concatenate([train.views[0][0], query.views[0][0]]))
        np.testing.assert_array_equal(union, np.arange(50))

    def test_too_large_query_rejected(self):
        ds = make_random_ds(seed=16, n=10)
        with pytest.raises(ValueError, match="n_query=10 must be at least 1 and below N=10"):
            dataset.split(ds, 10, seed=0)


def view_bytes(rows, cols, payload):
    return b"MVH1" + struct.pack("<QQ", rows, cols) + payload


class TestBlock:
    @pytest.mark.parametrize("dtype", ["<f4", "<f8"])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (4, 0)])
    def test_pack_read_round_trip(self, dtype, shape):
        a = np.random.default_rng(0).normal(size=shape).astype(dtype)
        prefix = b"\xff" * 3   # read_block starts at any offset
        buf = b"".join((prefix, *dataset.pack_block(a, dtype)))
        back, end = dataset.read_block(buf, len(prefix), dtype, AssertionError)
        assert end == len(buf) == len(prefix) + 16 + a.nbytes
        assert back.dtype == np.dtype(dtype) and back.shape == shape
        np.testing.assert_array_equal(back, a)

    def test_view_file_is_magic_and_block(self, tmp_path):
        v = np.arange(6.0).reshape(2, 3)
        dataset.save_view(tmp_path / "v.mvh", v)
        assert (tmp_path / "v.mvh").read_bytes() == view_bytes(2, 3, v.astype("<f4").tobytes())

    # SHA-256 of the files save_view writes for fixed_views(); pinned, so a
    # change to how a file is written cannot change a byte of it
    PINNED = {
        "float64_transposed": "228aa3ba8eebd7039f76acca4a8a9d5ccbc67b105e395ca6c70b3903d79030b7",
        "float32": "228c80a944fda042e7843e08b395644c5f9448cd169353985acc6ada13474b25",
        "signs_int8": "83643f7e436f0a8f4f008d76e6c3b8d50a2a3d695efb1f5602899703351cbfca",
        "signs_fortran": "2fe20cb9fbf432b36f137974da14742bad0a5e5e186f4127e6e797566342b9c7",
    }

    @staticmethod
    def fixed_views():
        rng = np.random.default_rng(0)
        return {
            "float64_transposed": rng.normal(size=(7, 5)).T,
            "float32": rng.normal(size=(3, 4)).astype(np.float32),
            "signs_int8": rng.choice([-1, 1], size=(9, 3)).astype(np.int8),
            "signs_fortran": np.asfortranarray(rng.choice([-1.0, 1.0], size=(17, 2))),
        }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_file_bytes_pinned(self, tmp_path, name):
        dataset.save_view(tmp_path / "v.mvh", self.fixed_views()[name])
        raw = (tmp_path / "v.mvh").read_bytes()
        assert raw[:4] == (b"MVS1" if name.startswith("signs") else b"MVH1")
        assert hashlib.sha256(raw).hexdigest() == self.PINNED[name]

    def test_save_holds_one_copy_of_the_block(self, tmp_path):
        # the float32 cast is the only block-sized allocation while saving:
        # the sign check, the header and the write copy none of it
        v = np.random.default_rng(0).normal(size=(1000, 2000))
        block = v.size * 4
        tracemalloc.start()
        try:
            dataset.save_view(tmp_path / "v.mvh", v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block <= peak <= 1.25 * block
        assert (tmp_path / "v.mvh").stat().st_size == 20 + block


def sign_bytes(rows, cols, payload, crc=None):
    """A sign-packed view file; crc defaults to the header and payload's."""
    body = struct.pack("<QQ", rows, cols) + payload
    return b"MVS1" + body + struct.pack("<I", zlib.crc32(body) if crc is None else crc)


def claiming(rows, cols, claim_rows, claim_cols):
    """A checksummed sign-packed file of rows x cols -1 values whose header is
    then changed to claim claim_rows x claim_cols."""
    raw = sign_bytes(rows, cols, bytes(cols * -(-rows // 8)))
    return raw[:4] + struct.pack("<QQ", claim_rows, claim_cols) + raw[20:]


class TestSignPacked:
    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(1, 130), n=st.integers(0, 9), seed=st.integers(0, 2 ** 32 - 1))
    def test_round_trip(self, fuzz_dir, p, n, seed):
        v = np.random.default_rng(seed).choice([-1.0, 1.0], size=(p, n))
        path = fuzz_dir / "f.mvh"
        dataset.save_view(path, v)
        raw = path.read_bytes()
        assert raw[:4] == b"MVS1" and len(raw) == 24 + n * -(-p // 8)
        back = dataset.load_view(path)
        assert back.dtype == np.float64 and back.flags.c_contiguous
        np.testing.assert_array_equal(back, v)

    def test_layout(self, tmp_path):
        # column 0 sets bits 0, 2, 3 of byte 0 and bit 0 of byte 1; column 1 is all -1
        v = np.array([[1, -1, 1, 1, -1, -1, -1, -1, 1], [-1] * 9], dtype=np.int8).T
        want = sign_bytes(9, 2, bytes([0x0D, 0x01, 0, 0]))
        dataset.save_view(tmp_path / "v.mvh", v)
        assert (tmp_path / "v.mvh").read_bytes() == want
        assert b"".join(dataset.pack_block(v, dataset.SIGNS)) == want[4:]

    @pytest.mark.parametrize("odd", [0.0, 2.0, 0.5, -1 - 1e-9, np.nan], ids=str)
    def test_other_values_write_float32_bytes(self, tmp_path, odd):
        v = np.ones((3, 4))
        v[1, 2] = odd
        dataset.save_view(tmp_path / "v.mvh", v)
        assert (tmp_path / "v.mvh").read_bytes() == view_bytes(3, 4, v.astype("<f4").tobytes())

    @pytest.mark.parametrize("data, match", [
        (b"MVS1" + struct.pack("<QQ", 9, 2)[:10], "truncated header"),
        (sign_bytes(9, 2, bytes(4))[:-1], "truncated payload"),
        (sign_bytes(9, 2, bytes(3)), "truncated payload"),
        (sign_bytes(9, 2, bytes(4)) + b"\0", "trailing bytes"),
        (sign_bytes(9, 2, bytes([0, 0x02, 0, 0])), "nonzero padding bits"),
        (sign_bytes(8, 2, bytes([0, 0]), crc=0), "checksum mismatch"),
        (sign_bytes(9, 2, bytes([1, 0, 0, 0]),
                    crc=zlib.crc32(struct.pack("<QQ", 9, 2) + bytes(4))),
         "checksum mismatch"),
        (claiming(16, 8, 8, 16), "checksum mismatch"),
        (claiming(16, 1, 15, 1), "checksum mismatch"),
        (claiming(8, 2, 9, 2), "truncated payload"),
        (claiming(8, 2, 8, 3), "truncated payload"),
        (sign_bytes(0, 3, b""), "no rows"),
        (sign_bytes(2 ** 62, 0, b""), "too many"),
    ], ids=[
        "short-header", "short-checksum", "short-payload", "trailing-bytes", "padding-bit",
        "bad-checksum", "flipped-payload-bit", "swapped-shape", "fewer-rows", "more-rows",
        "more-cols", "zero-rows", "huge-rows",
    ])
    def test_rejected_naming_file(self, tmp_path, data, match):
        path = tmp_path / "codes.mvh"
        path.write_bytes(data)
        with pytest.raises(DatasetFormatError, match=match) as info:
            dataset.load_view(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_zero_columns_load(self, tmp_path):
        path = tmp_path / "v.mvh"
        path.write_bytes(sign_bytes(5, 0, b""))
        assert dataset.load_view(path).shape == (5, 0)


class TestViewHeader:
    """A 28-byte view file: a header and two float32 values."""

    @pytest.mark.parametrize("rows, cols, match", [
        (2 ** 62, 4, "truncated"),
        (2 ** 36, 1, "truncated"),
        (1, 1, "trailing"),
        (0, 2, "no rows"),
    ], ids=["huge-product", "huge-rows", "trailing-bytes", "zero-rows"])
    def test_rejected(self, tmp_path, rows, cols, match):
        path = tmp_path / "v.mvh"
        path.write_bytes(view_bytes(rows, cols, np.ones(2, "<f4").tobytes()))
        with pytest.raises(DatasetFormatError, match=match):
            dataset.load_view(path)

    def test_zero_columns_load(self, tmp_path):
        path = tmp_path / "v.mvh"
        path.write_bytes(view_bytes(3, 0, b""))
        assert dataset.load_view(path).shape == (3, 0)

    def test_zero_columns_huge_rows(self, tmp_path):
        path = tmp_path / "v.mvh"
        path.write_bytes(view_bytes(2 ** 60, 0, b""))
        with pytest.raises(DatasetFormatError, match="too many"):
            dataset.load_view(path)

    def test_truncated_gzip(self, tmp_path):
        # view files are never compressed, whatever their name: a gzip
        # stream, whole or truncated, is a bad magic
        dataset.save_view(tmp_path / "v.mvh", np.ones((4, 5)))
        packed = gzip.compress((tmp_path / "v.mvh").read_bytes())
        path = tmp_path / "v.mvh.gz"
        manifest = tmp_path / "d.manifest"
        manifest.write_text("view0=v.mvh.gz\n")
        for raw in (packed, packed[:-6]):
            path.write_bytes(raw)
            for load, arg in ((dataset.load_view, path), (dataset.load_dataset, manifest)):
                with pytest.raises(DatasetFormatError, match=rf"{re.escape(str(path))}: bad magic"):
                    load(arg)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory with two 10-sample views, a 9-sample view and a
    subdirectory; tests write their own manifest, labels and view."""
    root = tmp_path_factory.mktemp("mvh_fuzz")
    rng = np.random.default_rng(0)
    dataset.save_view(root / "a.mvh", rng.normal(size=(3, 10)))
    dataset.save_view(root / "b.mvh", rng.normal(size=(4, 10)))
    dataset.save_view(root / "c.mvh", rng.normal(size=(4, 9)))
    (root / "sub").mkdir()
    return root


def loads_or_rejects(load, path):
    try:
        load(path)
    except (DatasetFormatError, FileNotFoundError):
        pass


NAMES = st.sampled_from([
    "a.mvh", "b.mvh", "c.mvh", "f.mvh", "labels.txt", "missing.mvh",
    "", ".", "..", "sub",
]) | st.text(alphabet="ab.\x00 ", max_size=4)
LINES = st.tuples(st.sampled_from(["name", "view0", "view1", "view2", "labels"]), NAMES).map(
    lambda kv: "=".join(kv)
) | st.text(st.characters(blacklist_characters="/\\"), max_size=8)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(0, 2 ** 64 - 1) | st.integers(0, 4),
        cols=st.integers(0, 2 ** 64 - 1) | st.integers(0, 4),
        payload=st.binary(max_size=40),
    )
    def test_view_header_and_payload(self, fuzz_dir, rows, cols, payload):
        path = fuzz_dir / "f.mvh"
        path.write_bytes(view_bytes(rows, cols, payload))
        loads_or_rejects(dataset.load_view, path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_view_truncated_or_flipped(self, fuzz_dir, data):
        raw = bytearray(view_bytes(2, 3, np.arange(6, dtype="<f4").tobytes()))
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            for pos, mask in data.draw(st.lists(
                st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
                min_size=1, max_size=4,
            ), label="flips"):
                raw[pos] ^= mask
        path = fuzz_dir / "f.mvh"
        path.write_bytes(bytes(raw))
        loads_or_rejects(dataset.load_view, path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sign_view_truncated_or_flipped(self, fuzz_dir, data):
        raw = bytearray(sign_bytes(11, 3, bytes([0x5A, 0x03, 0xFF, 0x07, 0x00, 0x01])))
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            for pos, mask in data.draw(st.lists(
                st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
                min_size=1, max_size=4,
            ), label="flips"):
                raw[pos] ^= mask
        path = fuzz_dir / "f.mvh"
        path.write_bytes(bytes(raw))
        loads_or_rejects(dataset.load_view, path)

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(LINES, max_size=6),
        manifest_tail=st.binary(max_size=3),
        labels=st.text(max_size=30) | st.just(" ".join(["1"] * 10)),
    )
    def test_manifest(self, fuzz_dir, lines, manifest_tail, labels):
        (fuzz_dir / "labels.txt").write_text(labels, encoding="utf-8")
        manifest = fuzz_dir / "m.manifest"
        # surrogatepass: a lone surrogate drawn for a line reaches the loader as
        # invalid UTF-8 bytes, which it must reject, instead of failing here.
        manifest.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass") + manifest_tail)
        loads_or_rejects(dataset.load_dataset, manifest)
