import gzip
import struct

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
        rng = np.random.default_rng(2)
        v = rng.normal(size=(5, 7)).astype(np.float32).astype(np.float64)
        path = tmp_path / "view.mvh.gz"
        dataset.save_view(path, v)
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

    def test_truncated_payload(self, tmp_path):
        ds = make_random_ds(seed=5, dims=(6,), n=10)
        manifest = dataset.save_dataset(ds, tmp_path)
        vfile = tmp_path / "rand_view0.mvh"
        vfile.write_bytes(vfile.read_bytes()[:-10])
        with pytest.raises(DatasetFormatError, match="truncated"):
            dataset.load_dataset(manifest)


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


class TestCorruption:
    def test_gaussian_zero_fraction_identity(self):
        ds = make_random_ds(seed=6)
        out = dataset.corrupt_gaussian(ds, CorruptionSpec("gaussian-fraction", 0.0, 1))
        for a, b in zip(out.views, ds.views):
            np.testing.assert_array_equal(a, b)

    def test_gaussian_fraction_count(self):
        rng = np.random.default_rng(7)
        ds = MultiViewDataset(views=(rng.normal(size=(100, 1000)),))
        out = dataset.corrupt_gaussian(ds, CorruptionSpec("gaussian-fraction", 0.2, 2))
        changed = np.count_nonzero(out.views[0] != ds.views[0])
        assert 19000 * 0.95 <= changed <= 21000 * 1.05

    def test_gaussian_full_fraction(self):
        rng = np.random.default_rng(8)
        ds = MultiViewDataset(views=(rng.normal(size=(50, 200)),))
        out = dataset.corrupt_gaussian(ds, CorruptionSpec("gaussian-fraction", 1.0, 3))
        frac_changed = np.mean(out.views[0] != ds.views[0])
        assert frac_changed >= 0.999

    def test_block_exact_width(self):
        rng = np.random.default_rng(9)
        ds = MultiViewDataset(views=(rng.normal(size=(100, 30)) + 10.0,))
        out = dataset.corrupt_block(ds, CorruptionSpec("block-zero", 0.25, 4))
        for i in range(30):
            zeros = np.nonzero(out.views[0][:, i] == 0.0)[0]
            assert len(zeros) == 25
            assert np.all(np.diff(zeros) == 1)  # contiguous run

    def test_block_identity_and_full(self):
        ds = make_random_ds(seed=10, dims=(10,), n=5)
        ident = dataset.corrupt_block(ds, CorruptionSpec("block-zero", 0.0, 0))
        np.testing.assert_array_equal(ident.views[0], ds.views[0])
        full = dataset.corrupt_block(ds, CorruptionSpec("block-zero", 1.0, 0))
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
        a = dataset.corrupt_gaussian(ds, spec)
        b = dataset.corrupt_gaussian(ds, spec)
        for va, vb in zip(a.views, b.views):
            np.testing.assert_array_equal(va, vb)

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

    def test_zero_query(self):
        ds = make_random_ds(seed=14, n=20)
        train, query = dataset.split(ds, 0, seed=0)
        assert query.n_samples == 0
        np.testing.assert_array_equal(train.views[0], ds.views[0])

    def test_partition_property(self):
        # the only view holds each sample's index, so the split's columns name it
        ds = MultiViewDataset(views=(np.arange(50.0)[None, :],), name="index")
        train, query = dataset.split(ds, 12, seed=4)
        union = np.sort(np.concatenate([train.views[0][0], query.views[0][0]]))
        np.testing.assert_array_equal(union, np.arange(50))

    def test_too_large_query_rejected(self):
        ds = make_random_ds(seed=16, n=10)
        with pytest.raises(ValueError):
            dataset.split(ds, 10, seed=0)


def view_bytes(rows, cols, payload):
    return b"MVH1" + struct.pack("<QQ", rows, cols) + payload


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
        path = tmp_path / "v.mvh.gz"
        dataset.save_view(path, np.ones((4, 5)))
        path.write_bytes(path.read_bytes()[:-6])
        with pytest.raises(DatasetFormatError, match="compressed"):
            dataset.load_view(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory with two 10-sample views, a 9-sample view, a gzip view
    and a subdirectory; tests write their own manifest, labels and view."""
    root = tmp_path_factory.mktemp("mvh_fuzz")
    rng = np.random.default_rng(0)
    dataset.save_view(root / "a.mvh", rng.normal(size=(3, 10)))
    dataset.save_view(root / "b.mvh", rng.normal(size=(4, 10)))
    dataset.save_view(root / "c.mvh", rng.normal(size=(4, 9)))
    dataset.save_view(root / "d.mvh.gz", rng.normal(size=(2, 10)))
    (root / "sub").mkdir()
    return root


def loads_or_rejects(load, path):
    try:
        load(path)
    except (DatasetFormatError, FileNotFoundError):
        pass


NAMES = st.sampled_from([
    "a.mvh", "b.mvh", "c.mvh", "d.mvh.gz", "f.mvh", "labels.txt", "missing.mvh",
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
        gz=st.booleans(),
    )
    def test_view_header_and_payload(self, fuzz_dir, rows, cols, payload, gz):
        data = view_bytes(rows, cols, payload)
        path = fuzz_dir / ("f.mvh.gz" if gz else "f.mvh")
        path.write_bytes(gzip.compress(data, mtime=0) if gz else data)
        loads_or_rejects(dataset.load_view, path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), gz=st.booleans())
    def test_view_truncated_or_flipped(self, fuzz_dir, data, gz):
        raw = bytearray(view_bytes(2, 3, np.arange(6, dtype="<f4").tobytes()))
        if gz:
            raw = bytearray(gzip.compress(bytes(raw), mtime=0))
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            for pos, mask in data.draw(st.lists(
                st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
                min_size=1, max_size=4,
            ), label="flips"):
                raw[pos] ^= mask
        path = fuzz_dir / ("f.mvh.gz" if gz else "f.mvh")
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
