import argparse
import hashlib
import inspect
import json
import struct

import numpy as np
import pytest

from rmvhash import cli, dataset, evaluation, hash_trainer, model_io
from rmvhash.hash_trainer import GraphConfig, HyperParams, KernelSelectConfig

TRAIN_FLAGS = [
    "--bits", "8", "--graph-l", "12", "--kernel-r", "12", "--outer-iters", "8", "--seed", "0",
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

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_bad_kind_exits_1_naming_it(self, workspace, tmp_path, capsys, how):
        cfg = tmp_path / "corrupt.cfg"
        cfg.write_text("kind=bogus\n")
        assert run([
            "corrupt", "--manifest", str(workspace / "db" / "db.manifest"),
            "--out", str(tmp_path / "o"),
            *(["--kind", "bogus"] if how == "flag" else ["--config", str(cfg)]),
        ]) == 1
        assert "'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
    def test_bad_view_noise_rejected(self, tmp_path, capsys, noise):
        assert run([
            "synth", "--out", str(tmp_path), "--name", "x", "--clusters", "2",
            "--per-cluster", "5", "--dims", "3", "--view-noise", noise,
        ]) == 1
        assert "view_noise" in capsys.readouterr().err
        assert not (tmp_path / "x.manifest").exists()

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
            seed=0, recovery=not extra,
        )
        assert report["model"] == str(model_path)
        assert report["P"] == 8
        assert report["outer_iterations"] == diag.outer_iterations
        assert report["converged"] == diag.converged
        assert len(report["objective"]) == len(report["seconds"]) == diag.outer_iterations
        assert report["spectral_fallback"] is diag.spectral_fallback is False
        if extra:
            assert report["alm"] is None
        else:
            alm = report["alm"]
            assert alm["sweeps"] == diag.alm.iterations
            assert alm["converged"] == diag.alm.converged
            assert alm["svd_fallbacks"] == diag.alm.svd_fallbacks
            assert len(alm["fit_residual"]) == len(alm["gap_residual"]) == alm["sweeps"]
        assert [p.name for p in tmp_path.iterdir()] == ["m.rmvm"]

    @pytest.mark.parametrize("flag, field", [
        ("--alm-max-iters", "ALMConfig.max_iters"),
        ("--outer-iters", "HyperParams.outer_iters"),
        ("--graph-l", "GraphConfig.L"),
        ("--graph-k", "GraphConfig.k"),
    ])
    def test_count_below_1_rejected(self, workspace, tmp_path, capsys, flag, field):
        assert run([
            "train", "--manifest", str(workspace / "db" / "db.manifest"),
            "--model", str(tmp_path / "m.rmvm"), *TRAIN_FLAGS, flag, "0",
        ]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "m.rmvm").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "edge"])
    @pytest.mark.parametrize("flag, field, edge", [
        ("--gamma", "HyperParams.gamma", "-1e-3"),
        ("--gamma", "HyperParams.gamma", "0"),
        ("--delta", "HyperParams.delta", "-1e-9"),
        ("--alpha", "ALMConfig.alpha", "0"),
        ("--beta", "HyperParams.beta", "0"),
        ("--lam", "ALMConfig.lam", "-1e-3"),
        ("--alm-tol", "ALMConfig.tol", "0"),
        ("--alm-rho", "ALMConfig.rho", "1"),
    ])
    def test_bad_float_rejected(self, workspace, tmp_path, capsys, flag, field, edge, value):
        assert run([
            "train", "--manifest", str(workspace / "db" / "db.manifest"),
            "--model", str(tmp_path / "m.rmvm"), *TRAIN_FLAGS,
            f"{flag}={edge if value == 'edge' else value}",
        ]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "m.rmvm").exists()

    def test_negative_kernel_r_rejected(self, workspace, tmp_path, capsys):
        # R = 0 means "same as L"; below 0 is an error naming the field
        assert run([
            "train", "--manifest", str(workspace / "db" / "db.manifest"),
            "--model", str(tmp_path / "m.rmvm"), *TRAIN_FLAGS, "--kernel-r", "-3",
        ]) == 1
        assert "KernelSelectConfig.R" in capsys.readouterr().err
        assert not (tmp_path / "m.rmvm").exists()

    def test_inspect(self, workspace, capsys):
        assert run(["inspect", "--model", str(workspace / "model.rmvm")]) == 0
        out = capsys.readouterr().out
        assert "code length P: 8" in out
        assert "kernel landmarks R: 12" in out
        assert "base set" not in out

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
            "bits=4\ngraph-l=12\nkernel-r=12\nouter-iters=3\nalpha=0.5\n"
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

    @pytest.mark.parametrize("raw, want", [
        ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False),
    ])
    def test_config_boolean_spellings(self, tmp_path, raw, want):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"no_recovery={raw}\n")
        args = argparse.Namespace(command="train", config=cfg, no_recovery=None)
        assert cli._resolve(args, {"no_recovery": (bool, False)}) == {"no_recovery": want}

    @pytest.mark.parametrize("line, key", [
        ("no_recovery=ture", "no_recovery"), ("no_recovery=2", "no_recovery"),
        ("no_recovery=y", "no_recovery"), ("no_recovery=", "no_recovery"),
        ("bits=four", "bits"), ("gamma=1e-4x", "gamma"),
    ])
    def test_bad_config_value_names_key(self, workspace, tmp_path, capsys, line, key):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"outer_iters=2\n{line}\n")
        assert run([
            "train", "--manifest", str(workspace / "db" / "db.manifest"),
            "--model", str(tmp_path / "m.rmvm"), "--config", str(cfg),
        ]) == 1
        assert f"config key {key} has a bad value" in capsys.readouterr().err
        assert not (tmp_path / "m.rmvm").exists()

    def test_unknown_config_key_rejected(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("bits=4\nalhpa=0.5\n")
        assert run([
            "train", "--manifest", str(workspace / "db" / "db.manifest"),
            "--model", str(tmp_path / "m.rmvm"), "--config", str(cfg),
        ]) == 1
        assert "alhpa" in capsys.readouterr().err
        assert not (tmp_path / "m.rmvm").exists()

    def test_self_tuning_k_is_no_setting(self, workspace, tmp_path, capsys):
        # the bandwidth always takes the min(7, R)-th nearest landmark
        cfg = tmp_path / "old.cfg"
        cfg.write_text("self_tuning_k=7\n")
        assert run([
            "train", "--manifest", str(workspace / "db" / "db.manifest"),
            "--model", str(tmp_path / "m.rmvm"), *TRAIN_FLAGS, "--config", str(cfg),
        ]) == 1
        assert "self_tuning_k" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            run(["train", "--manifest", "m", "--model", "o", "--self-tuning-k", "7"])
        assert not (tmp_path / "m.rmvm").exists()

    @pytest.mark.parametrize("flag, key", [("--k-oos", "k_oos"), ("--oos-z", "oos_z")])
    def test_base_set_setting_rejected(self, workspace, tmp_path, capsys, flag, key):
        # train builds no base set, so neither its size nor its k is a setting
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key}=7\n")
        assert run([
            "train", "--manifest", str(workspace / "db" / "db.manifest"),
            "--model", str(tmp_path / "m.rmvm"), *TRAIN_FLAGS, "--config", str(cfg),
        ]) == 1
        assert key in capsys.readouterr().err
        with pytest.raises(SystemExit):
            run(["train", "--manifest", "m", "--model", "o", flag, "7"])
        assert not (tmp_path / "m.rmvm").exists()

    @pytest.mark.parametrize("raw, key", [
        ("bits=4\nbits=16\n", "'bits'"), ("outer-iters=3\nouter_iters=4\n", "outer_iters"),
    ], ids=["same-spelling", "dash-and-underscore"])
    def test_repeated_config_key_rejected(self, workspace, tmp_path, capsys, raw, key):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(raw)
        assert run([
            "train", "--manifest", str(workspace / "db" / "db.manifest"),
            "--model", str(tmp_path / "m.rmvm"), "--config", str(cfg),
        ]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}: key " in err and key in err
        assert not (tmp_path / "m.rmvm").exists()

    @pytest.mark.parametrize("raw, message", [
        (b"bits=4\nalpha 0.5\n", "bad line (expected key=value): 'alpha 0.5'"),
        (b"bits=\xff\n", "not UTF-8 text"),
    ])
    def test_bad_config_file_names_path(self, workspace, tmp_path, capsys, raw, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(raw)
        assert run([
            "train", "--manifest", str(workspace / "db" / "db.manifest"),
            "--model", str(tmp_path / "m.rmvm"), "--config", str(cfg),
        ]) == 1
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "m.rmvm").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--bits", "101", "HyperParams.P"),
        ("--graph-k", "13", "GraphConfig.k"),
    ])
    def test_setting_beyond_data_rejected(self, workspace, tmp_path, capsys, flag, value, field):
        # the db has N = 100 items and TRAIN_FLAGS set L = R = 12
        assert run([
            "train", "--manifest", str(workspace / "db" / "db.manifest"),
            "--model", str(tmp_path / "m.rmvm"), *TRAIN_FLAGS, flag, value,
        ]) == 1
        assert f"{field}={value} exceeds" in capsys.readouterr().err
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

    @pytest.mark.parametrize("command, spec", [
        ("synth", cli._SYNTH_SPEC), ("corrupt", cli._CORRUPT_SPEC),
        ("train", cli._TRAIN_SPEC), ("eval", cli._EVAL_SPEC),
    ])
    def test_options_are_the_spec(self, command, spec):
        # every optional flag but --config is one spec key, and the reverse
        subs = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        dests = [
            a.dest for a in subs.choices[command]._actions
            if a.option_strings and not a.required and a.dest not in ("help", "config")
        ]
        assert dests == list(spec)

    def test_cli_matches_library_defaults(self, workspace, tmp_path):
        model, _ = model_io.load_model(workspace / "model.rmvm")
        ds = dataset.load_dataset(workspace / "db" / "db.manifest")
        lib, _, _, _ = hash_trainer.train(
            ds, HyperParams(P=8, outer_iters=8),
            graph_cfg=GraphConfig(L=12), kernel_cfg=KernelSelectConfig(R=12), seed=0,
        )
        np.testing.assert_array_equal(model.W, lib.W)
        np.testing.assert_array_equal(model.b, lib.b)
        # eval without --top-k and --radius reports evaluate's own defaults
        queries = dataset.load_dataset(workspace / "queries" / "q.manifest")
        assert run([
            "eval", "--model", str(workspace / "model.rmvm"),
            "--db", str(workspace / "db" / "db.manifest"),
            "--queries", str(workspace / "queries" / "q.manifest"),
            "--out-prefix", str(tmp_path / "run"),
        ]) == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        defaults = inspect.signature(evaluation.evaluate).parameters
        assert (report["top_k"], report["radius"]) == (
            defaults["top_k"].default, defaults["radius"].default,
        )
        want = evaluation.evaluate(
            hash_trainer.encode_queries(model, queries), hash_trainer.encode_queries(model, ds),
            evaluation.relevance_matrix(queries.labels, ds.labels),
        )
        assert report["map"] == want.map
        assert report["lookup_precision_mean"] == want.lookup_precision_mean


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

    def test_code_files_are_sign_packed(self, workspace, tmp_path):
        # 11 bits: two bytes per item, five of them padding
        path = train_model(workspace, tmp_path / "m.rmvm", "--bits", "11")
        model, _ = model_io.load_model(path)
        for command, manifest in [("encode", "db/db.manifest"), ("query", "queries/q.manifest")]:
            ds = dataset.load_dataset(workspace / manifest)
            out = tmp_path / f"{command}.mvh"
            codes = encode_codes(path, workspace / manifest, out, command)
            assert out.read_bytes()[:4] == b"MVS1"
            assert out.stat().st_size == 24 + ds.n_samples * 2
            np.testing.assert_array_equal(codes, hash_trainer.encode_queries(model, ds))

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

    @pytest.mark.parametrize("version, old_meta", [
        # version 1 served queries through a kernel on the concatenated
        # features, with its own bandwidth; its W does not fit today's kernel
        (1, dict(sigma_concat=1.0)),
        # version 2 also stored the base-set embeddings and bandwidth
        (2, dict(n_views=2, has_base_set=True, base_sigma=1.0)),
        # version 3 stored the base-set centres and k_oos, which no command read
        (3, dict(base_k_oos=10)),
    ], ids=["1", "2", "3"])
    def test_older_version_model_rejected(self, workspace, tmp_path, capsys, version, old_meta):
        old = rewrite_meta(
            workspace / "model.rmvm", tmp_path / f"v{version}.rmvm",
            lambda meta: meta.update(old_meta),
        )
        body = bytearray(old.read_bytes()[:-8])
        body[4:8] = struct.pack("<I", version)
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

    def test_inspect_names_file_cut_in_w_header(self, workspace, tmp_path, capsys):
        body = (workspace / "model.rmvm").read_bytes()[:-8]
        (n,) = struct.unpack("<Q", body[8:16])
        cut = tmp_path / "cut.rmvm"
        body = body[:16 + n + 8]      # half of W's 16-byte header
        cut.write_bytes(body + hashlib.sha256(body).digest()[:8])
        assert run(["inspect", "--model", str(cut)]) == 1
        assert f"error: {cut}: truncated header" in capsys.readouterr().err

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
