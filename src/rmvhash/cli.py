"""Command-line front end.

Subcommands: synth, corrupt, train, encode, query, eval, inspect.

Every option of synth, corrupt, train and eval can also come from a flat
UTF-8 key=value config file passed with --config; command-line flags win over
config values. Config keys equal the long option names with dashes replaced
by underscores; a key the command does not read is an error.
"""

import argparse
import dataclasses
import inspect
import json
import sys
import typing
from pathlib import Path

import numpy as np

from . import dataset, evaluation, hash_trainer, model_io
from .hash_trainer import ALMConfig, GraphConfig, HyperParams, KernelSelectConfig, OosConfig


def _load_config(path):
    cfg = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {line!r}")
        key, val = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _resolve(args, spec):
    """Merge flag values over config-file values over defaults."""
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    unknown = ", ".join(sorted(set(cfg) - set(spec)))
    if unknown:
        raise ValueError(f"{args.command} does not read config key(s) {unknown}")
    out = {}
    for key, (cast, default) in spec.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            out[key] = flag_val
        elif key in cfg:
            raw = cfg[key]
            out[key] = raw.lower() in ("1", "true", "yes") if cast is bool else cast(raw)
        else:
            out[key] = default
    return out


def _dims(text):
    return tuple(int(x) for x in str(text).split(","))


# Each training key names one field of a config dataclass, which holds its
# type and its default. alpha and lam also set the ALM's alpha and lam.
_TRAIN_FIELDS = {
    "bits": (HyperParams, "P"),
    "gamma": (HyperParams, "gamma"),
    "delta": (HyperParams, "delta"),
    "alpha": (HyperParams, "alpha"),
    "beta": (HyperParams, "beta"),
    "lam": (HyperParams, "lam"),
    "outer_iters": (HyperParams, "outer_iters"),
    "graph_l": (GraphConfig, "L"),
    "graph_k": (GraphConfig, "k"),
    "kernel_r": (KernelSelectConfig, "R"),
    "self_tuning_k": (KernelSelectConfig, "self_tuning_k"),
    "alm_tol": (ALMConfig, "tol"),
    "alm_max_iters": (ALMConfig, "max_iters"),
    "alm_rho": (ALMConfig, "rho"),
    "oos_z": (OosConfig, "Z"),
    "k_oos": (OosConfig, "k_oos"),
}


def _field_spec(cls, name):
    """(cast, default) of a dataclass field; an `int | None` field casts as int."""
    f = next(f for f in dataclasses.fields(cls) if f.name == name)
    cast = next((a for a in typing.get_args(f.type) if a is not type(None)), f.type)
    return cast, f.default


_TRAIN_ARGS = inspect.signature(hash_trainer.train).parameters
_TRAIN_SPEC = {key: _field_spec(*target) for key, target in _TRAIN_FIELDS.items()}
_TRAIN_SPEC["seed"] = (int, _TRAIN_ARGS["seed"].default)
_TRAIN_SPEC["no_recovery"] = (bool, not _TRAIN_ARGS["recovery"].default)


def _train_configs(p):
    """HyperParams, ALMConfig, GraphConfig, KernelSelectConfig and OosConfig
    from training values keyed as in _TRAIN_SPEC."""
    kwargs = {cls: {} for cls, _ in _TRAIN_FIELDS.values()}
    for key, (cls, name) in _TRAIN_FIELDS.items():
        kwargs[cls][name] = p[key]
    hp = HyperParams(**kwargs[HyperParams])
    alm_cfg = ALMConfig(alpha=hp.alpha, lam=hp.lam, **kwargs[ALMConfig])
    return (
        hp, alm_cfg, GraphConfig(**kwargs[GraphConfig]),
        KernelSelectConfig(**kwargs[KernelSelectConfig]), OosConfig(**kwargs[OosConfig]),
    )


def cmd_synth(args):
    p = _resolve(args, {
        "clusters": (int, 10),
        "per_cluster": (int, 200),
        "dims": (_dims, (32, 48)),
        "view_noise": (float, 0.1),
        "seed": (int, 0),
        "name": (str, "synthetic"),
    })
    ds = dataset.synth_multiview(
        p["clusters"], p["per_cluster"], p["dims"],
        view_noise=p["view_noise"], seed=p["seed"],
    )
    manifest = dataset.save_dataset(ds, args.out, name=p["name"])
    print(f"wrote {manifest} ({ds.n_samples} samples, {ds.n_views} views)")
    return 0


def cmd_corrupt(args):
    p = _resolve(args, {
        "kind": (str, "gaussian-fraction"),
        "fraction": (float, 0.2),
        "seed": (int, 0),
        "name": (str, ""),
    })
    ds = dataset.load_dataset(args.manifest)
    spec = dataset.CorruptionSpec(kind=p["kind"], fraction=p["fraction"], seed=p["seed"])
    out = dataset.corrupt(ds, spec)
    name = p["name"] or f"{ds.name}_corrupted"
    manifest = dataset.save_dataset(out, args.out, name=name)
    print(f"wrote {manifest}")
    return 0


def cmd_train(args):
    p = _resolve(args, _TRAIN_SPEC)
    ds = dataset.load_dataset(args.manifest)
    hp, alm_cfg, graph_cfg, kernel_cfg, oos_cfg = _train_configs(p)
    model, _, _, diag = hash_trainer.train(
        ds, hp, alm_cfg=alm_cfg, graph_cfg=graph_cfg, kernel_cfg=kernel_cfg,
        oos_cfg=oos_cfg, seed=p["seed"], recovery=not p["no_recovery"],
    )
    model_io.save_model(model, args.model, config_snapshot=p)
    alm = diag.alm
    print(json.dumps({
        "model": str(args.model), "P": hp.P,
        "outer_iterations": diag.outer_iterations, "converged": diag.converged,
        "objective": diag.objective_trace, "seconds": diag.outer_iter_seconds,
        "alm": None if alm is None else {
            "sweeps": alm.iterations, "converged": alm.converged,
            "fit_residual": alm.fit_residuals, "gap_residual": alm.gap_residuals,
        },
    }))
    return 0


def _write_codes(codes, path):
    # codes are (n, P) +/-1; stored as a (P, n) MVH1 matrix
    dataset.save_view(path, codes.T.astype(np.float32))


def cmd_encode(args):
    """Codes of every item of a manifest, for both encode and query."""
    model, _ = model_io.load_model(args.model)
    ds = dataset.load_dataset(args.manifest)
    codes = hash_trainer.encode_queries(model, ds)
    _write_codes(codes, args.out)
    print(f"wrote {args.out} ({codes.shape[0]} codes of {codes.shape[1]} bits)")
    return 0


def cmd_eval(args):
    p = _resolve(args, {
        "top_k": (int, 100),
        "radius": (int, 2),
    })
    model, _ = model_io.load_model(args.model)
    db = dataset.load_dataset(args.db)
    queries = dataset.load_dataset(args.queries)
    if db.labels is None or queries.labels is None:
        raise ValueError("both database and query datasets need labels to evaluate")
    db_codes = hash_trainer.encode_queries(model, db)
    query_codes = hash_trainer.encode_queries(model, queries)
    relevant = evaluation.relevance_matrix(queries.labels, db.labels)
    report = evaluation.evaluate(
        query_codes, db_codes, relevant, top_k=p["top_k"], radius=p["radius"]
    )
    prefix = args.out_prefix
    report.to_json(f"{prefix}_report.json")
    report.pr_csv(f"{prefix}_pr.csv")
    print(
        f"MAP@{report.top_k}={report.map:.4f}  "
        f"lookup@r{report.radius}={report.lookup_precision_mean:.4f} "
        f"(coverage {report.lookup_coverage:.2f})"
    )
    return 0


def cmd_inspect(args):
    model, snapshot = model_io.load_model(args.model)
    print(f"code length P: {model.code_length}")
    print(f"kernel landmarks R: {model.landmarks.R}")
    print(f"view dims: {[b.shape[1] for b in model.landmarks.blocks]}")
    print(f"sigmas: {[round(s, 6) for s in model.kernel_config.sigmas]}")
    if model.base_set is not None:
        print(f"base set: Z={model.base_set.Z}, k_oos={model.base_set.k_oos}")
    print(f"meta: {model.meta}")
    if snapshot:
        print(f"training config: {snapshot}")
    return 0


def _add_common(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--seed", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rmvhash",
        description="Robust multi-view hashing: train, encode, and evaluate",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("synth", help="generate a synthetic multi-view dataset")
    _add_common(s)
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--name")
    s.add_argument("--clusters", type=int)
    s.add_argument("--per-cluster", dest="per_cluster", type=int)
    s.add_argument("--dims", type=_dims)
    s.add_argument("--view-noise", dest="view_noise", type=float)
    s.set_defaults(func=cmd_synth)

    s = subs.add_parser("corrupt", help="apply a corruption protocol to a dataset")
    _add_common(s)
    s.add_argument("--manifest", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--name")
    s.add_argument("--kind", choices=["gaussian-fraction", "block-zero"])
    s.add_argument("--fraction", type=float)
    s.set_defaults(func=cmd_corrupt)

    s = subs.add_parser("train", help="train a hash model on a dataset")
    _add_common(s)
    s.add_argument("--manifest", required=True)
    s.add_argument("--model", required=True, help="output model file")
    for key, (cls, name) in _TRAIN_FIELDS.items():
        cast, default = _TRAIN_SPEC[key]
        s.add_argument(
            "--" + key.replace("_", "-"), dest=key, type=cast,
            help=f"{cls.__name__}.{name} (default {default})",
        )
    s.add_argument("--no-recovery", dest="no_recovery", action="store_const", const=True)
    s.set_defaults(func=cmd_train)

    for name in ("encode", "query"):
        s = subs.add_parser(name, help="encode items with a trained model's kernel map")
        s.add_argument("--model", required=True)
        s.add_argument("--manifest", required=True)
        s.add_argument("--out", required=True)
        s.set_defaults(func=cmd_encode)

    s = subs.add_parser("eval", help="retrieval metrics for a model on db/query sets")
    s.add_argument("--config", help="flat key=value config file")
    s.add_argument("--model", required=True)
    s.add_argument("--db", required=True)
    s.add_argument("--queries", required=True)
    s.add_argument("--out-prefix", dest="out_prefix", required=True)
    s.add_argument("--top-k", dest="top_k", type=int)
    s.add_argument("--radius", type=int)
    s.set_defaults(func=cmd_eval)

    s = subs.add_parser("inspect", help="print model metadata")
    s.add_argument("--model", required=True)
    s.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
