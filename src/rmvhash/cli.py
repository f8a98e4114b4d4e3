"""Command-line front end.

Subcommands: synth, corrupt, train, encode, query, eval, inspect.

Every option of synth, corrupt, train and eval can also come from a flat
UTF-8 key=value config file passed with --config; command-line flags win over
config values. Config keys equal the long option names with dashes replaced
by underscores; a key the command does not read is an error.
"""

import argparse
import inspect
import json
import sys

from . import dataset, evaluation, hash_trainer, model_io
from .hash_trainer import ALMConfig, GraphConfig, HyperParams, KernelSelectConfig, OosConfig


def _load_config(path):
    cfg = {}
    for key, val in dataset.read_key_values(path, ValueError).items():
        name = key.replace("-", "_")
        if name in cfg:
            raise ValueError(f"{path}: key {key!r} gives config key {name} a second time")
        cfg[name] = val
    return cfg


# The config-file spellings of a boolean, in any case; others are errors.
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


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
            try:
                out[key] = _BOOLS[raw.lower()] if cast is bool else cast(raw)
            except (KeyError, ValueError) as exc:
                raise ValueError(f"config key {key} has a bad value {raw!r}") from exc
        else:
            out[key] = default
    return out


def _dims(text):
    return tuple(int(x) for x in str(text).split(","))


def _default(fn, name):
    """The default of a parameter of a library function or config class; the
    CLI writes none of its own."""
    return inspect.signature(fn).parameters[name].default


# Each training key names one field of a config dataclass, which holds its
# type and its default.
_TRAIN_FIELDS = {
    "bits": (HyperParams, "P"),
    "gamma": (HyperParams, "gamma"),
    "delta": (HyperParams, "delta"),
    "alpha": (ALMConfig, "alpha"),
    "beta": (HyperParams, "beta"),
    "lam": (ALMConfig, "lam"),
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


_TRAIN_SPEC = {
    key: (cls.__annotations__[name], _default(cls, name))
    for key, (cls, name) in _TRAIN_FIELDS.items()
}
_TRAIN_SPEC["seed"] = (int, _default(hash_trainer.train, "seed"))
_TRAIN_SPEC["no_recovery"] = (bool, not _default(hash_trainer.train, "recovery"))

_SYNTH_SPEC = {
    "clusters": (int, 10),
    "per_cluster": (int, 200),
    "dims": (_dims, (32, 48)),
    "view_noise": (float, _default(dataset.synth_multiview, "view_noise")),
    "seed": (int, _default(dataset.synth_multiview, "seed")),
    "name": (str, "synthetic"),
}

_CORRUPT_SPEC = {
    "kind": (str, "gaussian-fraction"),
    "fraction": (float, 0.2),
    "seed": (int, _default(dataset.CorruptionSpec, "seed")),
    "name": (str, ""),
}

_EVAL_SPEC = {key: (int, _default(evaluation.evaluate, key)) for key in ("top_k", "radius")}


def _train_configs(p):
    """HyperParams, ALMConfig, GraphConfig, KernelSelectConfig and OosConfig
    from training values keyed as in _TRAIN_SPEC."""
    kwargs = {cls: {} for cls, _ in _TRAIN_FIELDS.values()}
    for key, (cls, name) in _TRAIN_FIELDS.items():
        kwargs[cls][name] = p[key]
    return tuple(
        cls(**kwargs[cls])
        for cls in (HyperParams, ALMConfig, GraphConfig, KernelSelectConfig, OosConfig)
    )


def cmd_synth(args):
    p = _resolve(args, _SYNTH_SPEC)
    ds = dataset.synth_multiview(
        p["clusters"], p["per_cluster"], p["dims"],
        view_noise=p["view_noise"], seed=p["seed"],
    )
    manifest = dataset.save_dataset(ds, args.out, name=p["name"])
    print(f"wrote {manifest} ({ds.n_samples} samples, {ds.n_views} views)")
    return 0


def cmd_corrupt(args):
    p = _resolve(args, _CORRUPT_SPEC)
    spec = dataset.CorruptionSpec(kind=p["kind"], fraction=p["fraction"], seed=p["seed"])
    ds = dataset.load_dataset(args.manifest)
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
            "svd_fallbacks": alm.svd_fallbacks,
            "fit_residual": alm.fit_residuals, "gap_residual": alm.gap_residuals,
        },
    }))
    return 0


def cmd_encode(args):
    """Codes of every item of a manifest, for both encode and query."""
    model, _ = model_io.load_model(args.model)
    ds = dataset.load_dataset(args.manifest)
    codes = hash_trainer.encode_queries(model, ds)
    # (n, P) +/-1 codes as a sign-packed (P, n) view: ceil(P / 8) bytes per item
    dataset.save_view(args.out, codes.T)
    print(f"wrote {args.out} ({codes.shape[0]} codes of {codes.shape[1]} bits)")
    return 0


def cmd_eval(args):
    p = _resolve(args, _EVAL_SPEC)
    model, _ = model_io.load_model(args.model)
    db = dataset.load_dataset(args.db)
    queries = dataset.load_dataset(args.queries)
    if db.labels is None or queries.labels is None:
        raise ValueError("both database and query datasets need labels to evaluate")
    db_codes = hash_trainer.encode_queries(model, db)
    query_codes = hash_trainer.encode_queries(model, queries)
    relevant = evaluation.relevance_matrix(queries.labels, db.labels)
    report = evaluation.evaluate(query_codes, db_codes, relevant, **p)
    report.to_json(f"{args.out_prefix}_report.json")
    report.pr_csv(f"{args.out_prefix}_pr.csv")
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
    print(f"base set: Z={model.base_set.Z}, k_oos={model.base_set.k_oos}")
    print(f"meta: {model.meta}")
    if snapshot:
        print(f"training config: {snapshot}")
    return 0


def _add_options(sub, spec, notes=None):
    """--config and one flag per spec key, with notes[key] and the default as
    its help; a bool key is a flag without a value. A flag left out stays
    None, so _resolve falls back to the config file, then to the default."""
    notes = notes or {}
    sub.add_argument("--config", help="flat key=value config file")
    for key, (cast, default) in spec.items():
        how = dict(action="store_const", const=True) if cast is bool else dict(type=cast)
        note = f"{notes.get(key, '')} (default {default!r})".lstrip()
        sub.add_argument("--" + key.replace("_", "-"), dest=key, help=note, **how)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rmvhash",
        description="Robust multi-view hashing: train, encode, and evaluate",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("synth", help="generate a synthetic multi-view dataset")
    s.add_argument("--out", required=True, help="output directory")
    _add_options(s, _SYNTH_SPEC)
    s.set_defaults(func=cmd_synth)

    s = subs.add_parser("corrupt", help="apply a corruption protocol to a dataset")
    s.add_argument("--manifest", required=True)
    s.add_argument("--out", required=True)
    _add_options(s, _CORRUPT_SPEC, {"kind": "gaussian-fraction or block-zero"})
    s.set_defaults(func=cmd_corrupt)

    s = subs.add_parser("train", help="train a hash model on a dataset")
    s.add_argument("--manifest", required=True)
    s.add_argument("--model", required=True, help="output model file")
    _add_options(s, _TRAIN_SPEC, {
        key: f"{cls.__name__}.{name}" for key, (cls, name) in _TRAIN_FIELDS.items()
    })
    s.set_defaults(func=cmd_train)

    for name in ("encode", "query"):
        s = subs.add_parser(name, help="encode items with a trained model's kernel map")
        s.add_argument("--model", required=True)
        s.add_argument("--manifest", required=True)
        s.add_argument("--out", required=True)
        s.set_defaults(func=cmd_encode)

    s = subs.add_parser("eval", help="retrieval metrics for a model on db/query sets")
    s.add_argument("--model", required=True)
    s.add_argument("--db", required=True)
    s.add_argument("--queries", required=True)
    s.add_argument("--out-prefix", dest="out_prefix", required=True)
    _add_options(s, _EVAL_SPEC)
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
