import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmvhash import dataset, hash_trainer, model_io
from rmvhash.hash_trainer import GraphConfig, HyperParams, KernelSelectConfig, OosConfig
from rmvhash.model_io import ModelFileError


def trained(seed=0):
    ds = dataset.synth_multiview(3, 20, (8, 10), seed=seed)
    model, _, Khat, _ = hash_trainer.train(
        ds,
        HyperParams(P=8, outer_iters=5),
        graph_cfg=GraphConfig(L=10, k=3),
        kernel_cfg=KernelSelectConfig(R=10),
        oos_cfg=OosConfig(Z=20, k_oos=10),
        seed=seed,
    )
    return ds, model, Khat


class TestRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        _, model, Khat = trained(seed=1)
        path = tmp_path / "m.rmvm"
        model_io.save_model(model, path, config_snapshot={"bits": 8, "seed": 1})
        back, snapshot = model_io.load_model(path)
        np.testing.assert_array_equal(back.W, model.W)
        np.testing.assert_array_equal(back.b, model.b)
        for a, b in zip(back.landmarks.blocks, model.landmarks.blocks):
            np.testing.assert_array_equal(a, b)
        assert back.kernel_config.sigmas == model.kernel_config.sigmas
        np.testing.assert_array_equal(back.base_set.centers, model.base_set.centers)
        np.testing.assert_array_equal(
            back.base_set.embeddings, model.base_set.embeddings
        )
        assert back.base_set.sigma == model.base_set.sigma
        assert back.base_set.k_oos == model.base_set.k_oos == 10
        assert snapshot == {"bits": 8, "seed": 1}

    def test_loaded_model_encodes_identically(self, tmp_path):
        ds, model, Khat = trained(seed=2)
        path = tmp_path / "m.rmvm"
        model_io.save_model(model, path)
        back, _ = model_io.load_model(path)
        np.testing.assert_array_equal(
            hash_trainer.encode_database(back, Khat),
            hash_trainer.encode_database(model, Khat),
        )
        np.testing.assert_array_equal(
            hash_trainer.encode_queries(back, ds),
            hash_trainer.encode_queries(model, ds),
        )

    def test_file_holds_only_what_training_chose(self, tmp_path):
        _, model, _ = trained(seed=9)
        path = tmp_path / "m.rmvm"
        model_io.save_model(model, path)
        body = path.read_bytes()[:-8]
        (n,) = struct.unpack("<Q", body[8:16])
        meta = json.loads(body[16:16 + n])
        assert set(meta) == {"sigmas", "base_k_oos", "model_meta", "config"}
        assert set(meta["model_meta"]) == {"N", "seed", "recovery"}
        assert [struct.unpack_from("<QQ", body, pos) for pos in matrix_offsets(body)] == [
            model.W.shape, (1, model.code_length),
            *(z.shape for z in model.landmarks.blocks), model.base_set.centers.shape,
        ]

    def test_model_without_base_set_not_saved(self, tmp_path):
        _, model, _ = trained(seed=9)
        with pytest.raises(ValueError, match="base set"):
            model_io.save_model(dataclasses.replace(model, base_set=None), tmp_path / "m.rmvm")
        assert not (tmp_path / "m.rmvm").exists()

    def test_save_is_deterministic(self, tmp_path):
        _, model, _ = trained(seed=3)
        a = tmp_path / "a.rmvm"
        b = tmp_path / "b.rmvm"
        model_io.save_model(model, a)
        model_io.save_model(model, b)
        assert a.read_bytes() == b.read_bytes()


class TestCorruption:
    def test_truncated_file(self, tmp_path):
        _, model, _ = trained(seed=4)
        path = tmp_path / "m.rmvm"
        model_io.save_model(model, path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(ModelFileError, match="checksum|truncated"):
            model_io.load_model(path)

    def test_flipped_byte_fails_checksum(self, tmp_path):
        _, model, _ = trained(seed=5)
        path = tmp_path / "m.rmvm"
        model_io.save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[30] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match="checksum"):
            model_io.load_model(path)

    def test_bad_magic(self, tmp_path):
        _, model, _ = trained(seed=6)
        path = tmp_path / "m.rmvm"
        model_io.save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        # refresh the checksum so only the magic check trips
        import hashlib

        body = bytes(raw[:-8])
        path.write_bytes(body + hashlib.sha256(body).digest()[:8])
        with pytest.raises(ModelFileError, match="magic"):
            model_io.load_model(path)

    def test_newer_version_names_both(self, tmp_path):
        _, model, _ = trained(seed=7)
        path = tmp_path / "m.rmvm"
        model_io.save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        import hashlib

        body = bytes(raw[:-8])
        path.write_bytes(body + hashlib.sha256(body).digest()[:8])
        with pytest.raises(ModelFileError, match=rf"99.*{model_io.FORMAT_VERSION}"):
            model_io.load_model(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_version_says_retrain(self, tmp_path, version):
        _, model, _ = trained(seed=7)
        path = tmp_path / "m.rmvm"
        model_io.save_model(model, path)
        body = bytearray(path.read_bytes()[:-8])
        body[4:8] = struct.pack("<I", version)
        path.write_bytes(resum(bytes(body)))
        with pytest.raises(ModelFileError, match=rf"version {version} .*retrain"):
            model_io.load_model(path)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "m.rmvm"
        path.write_bytes(b"RM")
        with pytest.raises(ModelFileError, match="short"):
            model_io.load_model(path)


def resum(body):
    return body + hashlib.sha256(body).digest()[:8]


def with_meta_blob(raw, blob):
    """raw with its metadata replaced by blob, re-checksummed."""
    body = raw[:-8]
    (n,) = struct.unpack("<Q", body[8:16])
    return resum(body[:8] + struct.pack("<Q", len(blob)) + blob + body[16 + n:])


def matrix_offsets(body):
    """The offset of each matrix stored after the metadata of a model file's body."""
    (n,) = struct.unpack("<Q", body[8:16])
    pos, out = 16 + n, []
    while pos < len(body):
        out.append(pos)
        pos = dataset.read_block(body, pos, "<f8", AssertionError)[1]
    return out


def with_value(raw, index, row, value):
    """raw with entry [row, 0] of its index-th matrix set to value, re-checksummed."""
    body = bytearray(raw[:-8])
    pos = matrix_offsets(body)[index]
    cols = struct.unpack_from("<QQ", body, pos)[1]
    struct.pack_into("<d", body, pos + 16 + 8 * row * cols, value)
    return resum(bytes(body))


def edit_meta(raw, edit):
    """raw with its metadata replaced by edit(metadata), re-checksummed."""
    body = raw[:-8]
    (n,) = struct.unpack("<Q", body[8:16])
    meta = edit(json.loads(body[16:16 + n]))
    return with_meta_blob(raw, json.dumps(meta).encode("utf-8"))


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """(bytes of a valid model file, a path to write variants to)."""
    _, model, _ = trained(seed=8)
    path = tmp_path_factory.mktemp("fuzz") / "m.rmvm"
    model_io.save_model(model, path, config_snapshot={"bits": 8})
    return path.read_bytes(), path


def loads_or_rejects(path, data):
    """A variant either loads or raises ModelFileError, nothing else."""
    path.write_bytes(data)
    try:
        model_io.load_model(path)
    except ModelFileError:
        pass


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 70), 2 ** 70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
META_KEYS = st.sampled_from(sorted(model_io._META_TYPES))


class TestMalformedMetadata:
    # The number of views is the number of sigmas, so the view-count cases
    # edit "sigmas". One sigma too few reads the second landmark block as the
    # base-set centres, whose width then disagrees with the first block.
    @pytest.mark.parametrize("edit, match", [
        (lambda m: {k: v for k, v in m.items() if k != "sigmas"}, "metadata"),
        (lambda m: {**m, "sigmas": "2"}, "metadata"),
        (lambda m: {**m, "sigmas": [True] + m["sigmas"][1:]}, "metadata"),
        (lambda m: {**m, "sigmas": []}, "metadata"),
        (lambda m: {**m, "sigmas": m["sigmas"][:1]}, "shapes"),
        (lambda m: {**m, "sigmas": [-1.0] + m["sigmas"][1:]}, "metadata"),
        (lambda m: list(m), "metadata"),
        (lambda m: None, "metadata"),
        (lambda m: {**m, "base_k_oos": 0}, "metadata"),
        (lambda m: {**m, "base_k_oos": 21}, "metadata"),
    ], ids=[
        "no-n_views", "str-n_views", "bool-n_views", "zero-views", "short-sigmas",
        "negative-sigma", "list", "null", "zero-k_oos", "k_oos-above-Z",
    ])
    def test_rejected(self, model_file, edit, match):
        raw, path = model_file
        path.write_bytes(edit_meta(raw, edit))
        with pytest.raises(ModelFileError, match=match):
            model_io.load_model(path)

    @pytest.mark.parametrize("blob", [b"{", b"\xff\xfe", b""], ids=["open", "not-utf8", "empty"])
    def test_not_json_rejected(self, model_file, blob):
        raw, path = model_file
        path.write_bytes(with_meta_blob(raw, blob))
        with pytest.raises(ModelFileError, match="JSON"):
            model_io.load_model(path)

    def test_zero_row_matrix_with_huge_width_rejected(self, model_file):
        raw, path = model_file
        body = bytearray(raw[:-8])
        (n,) = struct.unpack("<Q", body[8:16])
        body[16 + n:32 + n] = struct.pack("<QQ", 0, 2 ** 62)   # W's header
        path.write_bytes(resum(bytes(body)))
        with pytest.raises(ModelFileError):
            model_io.load_model(path)

    def test_trailing_bytes_rejected(self, model_file):
        raw, path = model_file
        path.write_bytes(resum(raw[:-8] + b"\0" * 8))
        with pytest.raises(ModelFileError, match="8 unread bytes"):
            model_io.load_model(path)

    def test_file_with_self_tuning_k_loads(self, model_file, tmp_path):
        # a metadata key the loader does not read is ignored
        raw, path = model_file
        assert b"self_tuning_k" not in raw
        path.write_bytes(raw)
        model, _ = model_io.load_model(path)
        old = tmp_path / "old.rmvm"
        old.write_bytes(edit_meta(raw, lambda m: {**m, "self_tuning_k": 7}))
        back, snapshot = model_io.load_model(old)
        np.testing.assert_array_equal(back.W, model.W)
        assert back.kernel_config == model.kernel_config
        assert snapshot == {"bits": 8}

    def test_landmark_rows_must_match_w(self, model_file):
        raw, path = model_file
        # a third view reads the base-set centres as its landmark block
        path.write_bytes(edit_meta(raw, lambda m: {**m, "sigmas": m["sigmas"] + m["sigmas"][:1]}))
        with pytest.raises(ModelFileError, match="shapes"):
            model_io.load_model(path)

    # W, b, the two landmark blocks and the base-set centres
    @pytest.mark.parametrize("index", range(5))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, model_file, index, value):
        raw, path = model_file
        path.write_bytes(with_value(raw, index, 0, value))
        with pytest.raises(ModelFileError, match="non-finite"):
            model_io.load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda raw: edit_meta(raw, lambda m: {**m, "sigmas": [1e-300] + m["sigmas"][1:]}),
        lambda raw: edit_meta(raw, lambda m: {**m, "sigmas": [1e155] + m["sigmas"][1:]}),
        lambda raw: with_value(raw, 4, 3, 1e200),
    ], ids=["sigma-squared-underflows", "sigma-squared-overflows", "far-centre"])
    def test_base_set_that_cannot_be_rebuilt_rejected(self, model_file, edit):
        # extreme finite values overflow or divide by zero while the base set
        # is rebuilt; that is a bad file, not a floating-point warning
        raw, path = model_file
        path.write_bytes(edit(raw))
        with pytest.raises(ModelFileError, match="cannot rebuild the base set"):
            model_io.load_model(path)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(key=META_KEYS, value=JSON, delete=st.booleans())
    def test_metadata_value(self, model_file, key, value, delete):
        raw, path = model_file

        def edit(meta):
            if delete:
                meta.pop(key, None)
            else:
                meta[key] = value
            return meta

        loads_or_rejects(path, edit_meta(raw, edit))

    @settings(max_examples=100, deadline=None)
    @given(meta=JSON, blob=st.binary(max_size=40), raw_blob=st.booleans())
    def test_whole_metadata(self, model_file, meta, blob, raw_blob):
        raw, path = model_file
        new = blob if raw_blob else json.dumps(meta).encode("utf-8")
        loads_or_rejects(path, with_meta_blob(raw, new))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), recheck=st.booleans())
    def test_truncated_or_flipped(self, model_file, data, recheck):
        raw, path = model_file
        body = bytearray(raw[:-8])
        if data.draw(st.booleans(), label="truncate"):
            body = body[:data.draw(st.integers(0, len(body) - 1), label="length")]
        else:
            flips = data.draw(st.lists(
                st.tuples(st.integers(0, len(body) - 1), st.integers(1, 255)),
                min_size=1, max_size=4,
            ), label="flips")
            for pos, mask in flips:
                body[pos] ^= mask
        out = resum(bytes(body)) if recheck else bytes(body) + raw[-8:]
        loads_or_rejects(path, out)


def error_message(path, data):
    """The message of the ModelFileError load_model raises for data, or None
    when data loads."""
    path.write_bytes(data)
    try:
        model_io.load_model(path)
    except ModelFileError as exc:
        return str(exc)
    return None


def cut(raw, length):
    """raw's body cut to length bytes, re-checksummed."""
    return resum(raw[:-8][:length])


def meta_end(raw):
    return 16 + struct.unpack("<Q", raw[8:16])[0]


class TestErrorsNameTheFile:
    @pytest.mark.parametrize("variant", [
        lambda raw: b"RM",
        lambda raw: raw[:50],
        lambda raw: raw[:30] + bytes([raw[30] ^ 0xFF]) + raw[31:],
        lambda raw: resum(b"XXXX" + raw[4:-8]),
        lambda raw: resum(raw[:4] + struct.pack("<I", 99) + raw[8:-8]),
        lambda raw: resum(raw[:4] + struct.pack("<I", 2) + raw[8:-8]),
        lambda raw: cut(raw, meta_end(raw) - 1),
        lambda raw: with_meta_blob(raw, b"{"),
        lambda raw: edit_meta(raw, lambda m: None),
        lambda raw: edit_meta(raw, lambda m: {**m, "sigmas": m["sigmas"][:1]}),
        lambda raw: edit_meta(raw, lambda m: {**m, "sigmas": m["sigmas"] + m["sigmas"][:1]}),
        lambda raw: edit_meta(raw, lambda m: {**m, "base_k_oos": 0}),
        lambda raw: cut(raw, meta_end(raw) + 8),
        lambda raw: cut(raw, meta_end(raw) + 20),
        lambda raw: resum(raw[:meta_end(raw)] + struct.pack("<QQ", 0, 2 ** 62)
                          + raw[meta_end(raw) + 16:-8]),
        lambda raw: resum(raw[:-8] + b"\0" * 8),
        lambda raw: with_value(raw, 0, 0, np.nan),
        lambda raw: with_value(raw, 4, 0, np.inf),
        lambda raw: with_value(raw, 4, 3, 1e200),
    ], ids=[
        "tiny", "truncated", "flipped", "bad-magic", "newer-version", "older-version",
        "cut-in-metadata", "not-json", "null-metadata", "short-sigmas", "extra-sigma",
        "zero-k_oos", "cut-in-W-header", "cut-in-W-payload", "zero-row-huge-width",
        "trailing-bytes", "nan-in-W", "inf-in-centres", "far-centre",
    ])
    def test_fixed_inputs(self, model_file, variant):
        raw, path = model_file
        message = error_message(path, variant(raw))
        assert message is not None and message.startswith(f"{path}: ")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), recheck=st.booleans())
    def test_truncated_or_flipped(self, model_file, data, recheck):
        raw, path = model_file
        body = bytearray(raw[:-8])
        if data.draw(st.booleans(), label="truncate"):
            body = body[:data.draw(st.integers(0, len(body) - 1), label="length")]
        else:
            for pos, mask in data.draw(st.lists(
                st.tuples(st.integers(0, len(body) - 1), st.integers(1, 255)),
                min_size=1, max_size=4,
            ), label="flips"):
                body[pos] ^= mask
        message = error_message(path, resum(bytes(body)) if recheck else bytes(body) + raw[-8:])
        assert message is None or message.startswith(f"{path}: ")

    @settings(max_examples=200, deadline=None)
    @given(key=META_KEYS, value=JSON)
    def test_metadata_value(self, model_file, key, value):
        raw, path = model_file
        message = error_message(path, edit_meta(raw, lambda m: {**m, key: value}))
        assert message is None or message.startswith(f"{path}: ")
