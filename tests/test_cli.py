import hashlib
import json
import struct

import numpy as np
import pytest

from rmvhash import cli, dataset, evaluation, hash_trainer, model_io
from rmvhash.hash_trainer import GraphConfig, HyperParams, KernelSelectConfig, OosConfig

TRAIN_FLAGS = [
    "--bits", "8", "--graph-l", "12", "--kernel-r", "12",
    "--outer-iters", "8", "--oos-z", "20", "--k-oos", "10",
    "--seed", "0",
]


def run(argv):
    return cli.main(argv)


def train_model(root, path, *extra):
    assert run([
        "train", "--manifest", str(root / "db" / "db.manifest"),
        "--model", str(path), *TRAIN_FLAGS, *extra,
    ]) == 0
    return path


def encode_codes(model_path, manifest, out, command="encode"):
    assert run([
        command, "--model", str(model_path), "--manifest", str(manifest), "--out", str(out),
    ]) == 0
    return dataset.load_view(out).T.astype(np.int8)


def rewrite_meta(src, dst, edit):
    """Copy a model file with its JSON metadata changed by edit(meta),
    re-checksummed so only the metadata differs."""
    body = src.read_bytes()[:-8]
    (n,) = struct.unpack("<Q", body[8:16])
    meta = json.loads(body[16:16 + n])
    edit(meta)
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = body[:8] + struct.pack("<Q", len(blob)) + blob + body[16 + n:]
    dst.write_bytes(body + hashlib.sha256(body).digest()[:8])
    return dst


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small end-to-end pipeline: synth db + queries, train, encode, eval."""
    root = tmp_path_factory.mktemp("cli")
    db_dir = root / "db"
    q_dir = root / "queries"
    assert run([
        "synth", "--out", str(db_dir), "--name", "db",
        "--clusters", "4", "--per-cluster", "25", "--dims", "10,12",
        "--seed", "0",
    ]) == 0
    assert run([
        "synth", "--out", str(q_dir), "--name", "q",
        "--clusters", "4", "--per-cluster", "5", "--dims", "10,12",
        "--seed", "0",
    ]) == 0
    train_model(root, root / "model.rmvm")
    return root


class TestSynthCorrupt:
    def test_synth_output_loads(self, workspace):
        ds = dataset.load_dataset(workspace / "db" / "db.manifest")
        assert ds.n_samples == 100
        assert ds.dims == (10, 12)
        assert ds.labels is not None

    def test_synth_deterministic_bytes(self, tmp_path):
        for sub in ("a", "b"):
            assert run([
                "synth", "--out", str(tmp_path / sub), "--name", "x",
                "--clusters", "2", "--per-cluster", "5", "--dims", "4",
                "--seed", "7",
            ]) == 0
        fa = (tmp_path / "a" / "x_view0.mvh").read_bytes()
        fb = (tmp_path / "b" / "x_view0.mvh").read_bytes()
        assert fa == fb

    def test_corrupt(self, workspace, tmp_path):
        out = tmp_path / "corr"
        assert run([
            "corrupt", "--manifest", str(workspace / "db" / "db.manifest"),
            "--out", str(out), "--kind", "gaussian-fraction",
            "--fraction", "0.3", "--seed", "1", "--name", "dbc",
        ]) == 0
        ds = dataset.load_dataset(workspace / "db" / "db.manifest")
        corr = dataset.load_dataset(out / "dbc.manifest")
        assert corr.dims == ds.dims
        changed = sum(
            np.count_nonzero(a != b) for a, b in zip(corr.views, ds.views)
        )
        assert changed > 0

    def test_bad_manifest_exits_nonzero(self, tmp_path, capsys):
        assert run([
            "corrupt", "--manifest", str(tmp_path / "nope.manifest"),
            "--out", str(tmp_path / "o"),
        ]) == 1
        assert "error:" in capsys.readouterr().err


class TestTrainArtifacts:
    @pytest.mark.parametrize("extra", [[], ["--no-recovery"]], ids=["recovery", "no-recovery"])
    def test_train_reports_json_line(self, workspace, tmp_path, capsys, extra):
        model_path = train_model(workspace, tmp_path / "m.rmvm", *extra)
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        ds = dataset.load_dataset(workspace / "db" / "db.manifest")
        _, _, _, diag = hash_trainer.train(
            ds, HyperParams(P=8, outer_iters=8),
            graph_cfg=GraphConfig(L=12), kernel_cfg=KernelSelectConfig(R=12),
            oos_cfg=OosConfig(Z=20, k_oos=10), seed=0, recovery=not extra,
        )
        assert report["model"] == str(model_path)
        assert report["P"] == 8
        assert report["outer_iterations"] == diag.outer_iterations
        assert report["converged"] == diag.converged
        assert len(report["objective"]) == len(report["seconds"]) == diag.outer_iterations
        if extra:
            assert report["alm"] is None
        else:
            alm = report["alm"]
            assert alm["sweeps"] == diag.alm.iterations
            assert alm["converged"] == diag.alm.converged
            assert len(alm["fit_residual"]) == len(alm["gap_residual"]) == alm["sweeps"]
        assert [p.name for p in tmp_path.iterdir()] == ["m.rmvm"]

    @pytest.mark.parametrize("flag, field", [
        ("--alm-max-iters", "ALMConfig.max_iters"),
        ("--outer-iters", "HyperParams.outer_iters"),
        ("--k-oos", "OosConfig.k_oos"),
        ("--oos-z", "OosConfig.Z"),
        ("--graph-l", "GraphConfig.L"),
        ("--graph-k", "GraphConfig.k"),
        ("--self-tuning-k", "KernelSelectConfig.self_tuning_k"),
    ])
    def test_count_below_1_rejected(self, workspace, tmp_path, capsys, flag, field):
        assert run([
            "train", "--manifest", str(workspace / "db" / "db.manifest"),
            "--model", str(tmp_path / "m.rmvm"), *TRAIN_FLAGS, flag, "0",
        ]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "m.rmvm").exists()

    def test_inspect(self, workspace, capsys):
        assert run(["inspect", "--model", str(workspace / "model.rmvm")]) == 0
        out = capsys.readouterr().out
        assert "code length P: 8" in out
        assert "kernel landmarks R: 12" in out

    def test_snapshot_records_defaults(self, workspace):
        _, snapshot = model_io.load_model(workspace / "model.rmvm")
        assert snapshot["gamma"] == 1e-4
        assert snapshot["delta"] == 1e-6
        assert snapshot["alpha"] == 0.1
        assert snapshot["beta"] == 1.0
        assert snapshot["lam"] == 1e-3

    def test_config_file_and_flag_precedence(self, workspace, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "bits=4\ngraph-l=12\nkernel-r=12\nouter-iters=3\n"
            "oos-z=20\nk-oos=10\nalpha=0.5\n"
        )
        model_path = tmp_path / "m.rmvm"
        assert run([
            "train", "--manifest", str(workspace / "db" / "db.manifest"),
            "--model", str(model_path), "--config", str(cfg),
            "--alpha", "0.25",  # flag beats the config file
        ]) == 0
        model, snapshot = model_io.load_model(model_path)
        assert model.code_length == 4
        assert snapshot["alpha"] == 0.25
        assert snapshot["outer_iters"] == 3

    def test_unknown_config_key_rejected(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("bits=4\nalhpa=0.5\n")
        assert run([
            "train", "--manifest", str(workspace / "db" / "db.manifest"),
            "--model", str(tmp_path / "m.rmvm"), "--config", str(cfg),
        ]) == 1
        assert "alhpa" in capsys.readouterr().err
        assert not (tmp_path / "m.rmvm").exists()

    def test_rank_0_recovery_rejected(self, workspace, tmp_path, capsys):
        assert run([
            "train", "--manifest", str(workspace / "db" / "db.manifest"),
            "--model", str(tmp_path / "m.rmvm"), *TRAIN_FLAGS, "--alpha", "10",
        ]) == 1
        assert "alpha=10" in capsys.readouterr().err
        assert not (tmp_path / "m.rmvm").exists()

    @pytest.mark.parametrize("argv", [
        ["encode", "--seed", "1"],
        ["encode", "--config", "f"],
        ["query", "--config", "f"],
        ["query", "--seed", "1"],
        ["eval", "--seed", "1", "--db", "d", "--queries", "q", "--out-prefix", "r"],
        ["train", "--trace-prefix", "t", "--manifest", "m"],
    ])
    def test_ignored_flags_rejected(self, argv, capsys):
        if argv[0] in ("encode", "query"):
            argv = [*argv, "--manifest", "m", "--out", "o"]
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([*argv, "--model", "x.rmvm"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_matches_library_defaults(self, workspace):
        model, _ = model_io.load_model(workspace / "model.rmvm")
        ds = dataset.load_dataset(workspace / "db" / "db.manifest")
        lib, _, _, _ = hash_trainer.train(
            ds, HyperParams(P=8, outer_iters=8),
            graph_cfg=GraphConfig(L=12), kernel_cfg=KernelSelectConfig(R=12),
            oos_cfg=OosConfig(Z=20, k_oos=10), seed=0,
        )
        np.testing.assert_array_equal(model.W, lib.W)
        np.testing.assert_array_equal(model.b, lib.b)


class TestEncodeQueryEval:
    def test_encode_shapes(self, workspace, tmp_path):
        out = tmp_path / "codes.mvh"
        assert run([
            "encode", "--model", str(workspace / "model.rmvm"),
            "--manifest", str(workspace / "db" / "db.manifest"),
            "--out", str(out),
        ]) == 0
        codes = dataset.load_view(out)
        assert codes.shape == (8, 100)
        assert set(np.unique(codes)) <= {-1.0, 1.0}

    def test_query_codes(self, workspace, tmp_path):
        out = tmp_path / "qcodes.mvh"
        assert run([
            "query", "--model", str(workspace / "model.rmvm"),
            "--manifest", str(workspace / "queries" / "q.manifest"),
            "--out", str(out),
        ]) == 0
        codes = dataset.load_view(out)
        assert codes.shape == (8, 20)
        assert set(np.unique(codes)) <= {-1.0, 1.0}

    def test_eval_report(self, workspace, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        assert run([
            "eval", "--model", str(workspace / "model.rmvm"),
            "--db", str(workspace / "db" / "db.manifest"),
            "--queries", str(workspace / "queries" / "q.manifest"),
            "--out-prefix", prefix, "--top-k", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "MAP@20=" in out
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["top_k"] == 20
        assert report["radius"] == 2  # default lookup radius
        assert 0.0 <= report["map"] <= 1.0
        pr = (tmp_path / "run_pr.csv").read_text().splitlines()
        assert pr[0] == "radius,recall,precision"
        assert len(pr) == 1 + 9  # radii 0..8 for 8-bit codes

    def test_eval_reads_config(self, workspace, tmp_path):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("top_k=7\nradius=1\n")
        assert run([
            "eval", "--model", str(workspace / "model.rmvm"),
            "--db", str(workspace / "db" / "db.manifest"),
            "--queries", str(workspace / "queries" / "q.manifest"),
            "--out-prefix", str(tmp_path / "run"), "--config", str(cfg),
        ]) == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert (report["top_k"], report["radius"]) == (7, 1)

    def test_eval_dim_mismatch(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad"
        assert run([
            "synth", "--out", str(bad), "--name", "bad",
            "--clusters", "2", "--per-cluster", "3", "--dims", "10,13",
        ]) == 0
        assert run([
            "eval", "--model", str(workspace / "model.rmvm"),
            "--db", str(workspace / "db" / "db.manifest"),
            "--queries", str(bad / "bad.manifest"),
            "--out-prefix", str(tmp_path / "x"),
        ]) == 1
        assert "dimension mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [(), ("--no-recovery",)], ids=["recovery", "no-recovery"])
    def test_one_encoder(self, workspace, tmp_path, extra):
        # encode, query and eval all sign the model's kernel map
        path = train_model(workspace, tmp_path / "m.rmvm", *extra)
        model, _ = model_io.load_model(path)
        db_path, q_path = workspace / "db" / "db.manifest", workspace / "queries" / "q.manifest"
        db, queries = dataset.load_dataset(db_path), dataset.load_dataset(q_path)
        db_codes = hash_trainer.encode_queries(model, db)
        for command in ("encode", "query"):
            codes = encode_codes(path, db_path, tmp_path / f"{command}.mvh", command)
            np.testing.assert_array_equal(codes, db_codes)
        assert run([
            "eval", "--model", str(path), "--db", str(db_path), "--queries", str(q_path),
            "--out-prefix", str(tmp_path / "run"),
        ]) == 0
        want = evaluation.evaluate(
            hash_trainer.encode_queries(model, queries), db_codes,
            evaluation.relevance_matrix(queries.labels, db.labels),
        )
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["map"] == want.map
        assert report["lookup_precision_mean"] == want.lookup_precision_mean

    def test_subset_encodes_as_rows_of_full(self, workspace, tmp_path):
        # a code depends only on the model and the item, not on its batch
        model_path = workspace / "model.rmvm"
        db = dataset.load_dataset(workspace / "db" / "db.manifest")
        half = dataset.MultiViewDataset(
            views=tuple(v[:, :50] for v in db.views), labels=db.labels[:50]
        )
        manifest = dataset.save_dataset(half, tmp_path / "half", name="half")
        full = encode_codes(model_path, workspace / "db" / "db.manifest", tmp_path / "full.mvh")
        part = encode_codes(model_path, manifest, tmp_path / "half.mvh")
        np.testing.assert_array_equal(part, full[:50])

    def test_version_1_model_rejected(self, workspace, tmp_path, capsys):
        # version 1 served queries through a kernel on the concatenated
        # features, with its own bandwidth; its W does not fit today's kernel
        old = rewrite_meta(
            workspace / "model.rmvm", tmp_path / "v1.rmvm",
            lambda meta: meta.update(sigma_concat=1.0),
        )
        body = bytearray(old.read_bytes()[:-8])
        body[4:8] = struct.pack("<I", 1)
        old.write_bytes(bytes(body) + hashlib.sha256(body).digest()[:8])
        with pytest.raises(model_io.ModelFileError, match="retrain"):
            model_io.load_model(old)
        db = str(workspace / "db" / "db.manifest")
        q = str(workspace / "queries" / "q.manifest")
        for argv in (
            ["encode", "--manifest", db, "--out", str(tmp_path / "c.mvh")],
            ["query", "--manifest", q, "--out", str(tmp_path / "q.mvh")],
            ["eval", "--db", db, "--queries", q, "--out-prefix", str(tmp_path / "r")],
        ):
            assert run([*argv, "--model", str(old)]) == 1
            assert "retrain" in capsys.readouterr().err

    def test_corrupt_model_file_reported(self, workspace, tmp_path, capsys):
        broken = tmp_path / "broken.rmvm"
        raw = bytearray((workspace / "model.rmvm").read_bytes())
        raw[20] ^= 0xFF
        broken.write_bytes(bytes(raw))
        assert run([
            "encode", "--model", str(broken),
            "--manifest", str(workspace / "db" / "db.manifest"),
            "--out", str(tmp_path / "c.mvh"),
        ]) == 1
        assert "checksum" in capsys.readouterr().err
