#!/usr/bin/env python3
"""rmvhash benchmark.

Usage, from the root of a checkout:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: it imports `rmvhash` from the checkout's `src/` and fails when
that is missing. The workload's inputs are generated from --seed and written
under `.bench_run/` in the checkout, which is removed at the end. Passes run
until --seconds have elapsed (at least one). With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run. Exits 1 when a correctness
check fails, 2 when the program cannot be found.
"""

import os

# One BLAS thread, set before numpy loads: on two shared cores a second
# thread measures the scheduler rather than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracles
from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5          # before the passes, and as many after them
MODULES = (
    "anchor_graph", "core_math", "dataset", "evaluation", "hash_trainer",
    "kernel_sim", "lowrank_alm", "model_io", "oos_encoder",
)

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "map_at_100": "share",
    "code_bytes_per_item": "bytes",
}

# per-layer metric -> (traced function, "s" for seconds or "calls")
SPANS = {
    "lowrank_alm.recover_s": ("lowrank_alm.recover", "s"),
    "lowrank_alm.recover_calls": ("lowrank_alm.recover", "calls"),
    "lowrank_alm.update_Q_s": ("lowrank_alm.update_Q", "s"),
    "lowrank_alm.update_E_s": ("lowrank_alm.update_E", "s"),
    "lowrank_alm.update_Khat_s": ("lowrank_alm.update_Khat", "s"),
    "lowrank_alm.update_multipliers_s": ("lowrank_alm.update_multipliers", "s"),
    "lowrank_alm.residuals_s": ("lowrank_alm.residuals", "s"),
    "lowrank_alm.objective_s": ("lowrank_alm.objective", "s"),
    "core_math.svt_s": ("core_math.svt", "s"),
    "core_math.svt_calls": ("core_math.svt", "calls"),
    "core_math.kmeans_s": ("core_math.kmeans", "s"),
    "core_math.kmeans_calls": ("core_math.kmeans", "calls"),
    "oos_encoder.build_base_set_s": ("oos_encoder.build_base_set", "s"),
    "anchor_graph.select_landmarks_s": ("anchor_graph.select_graph_landmarks", "s"),
    "anchor_graph.build_s": ("anchor_graph.build_truncated_affinity", "s"),
    "anchor_graph.build_calls": ("anchor_graph.build_truncated_affinity", "calls"),
    "anchor_graph.laplacian_apply_s": ("anchor_graph.laplacian_apply", "s"),
    "anchor_graph.laplacian_apply_calls": ("anchor_graph.laplacian_apply", "calls"),
    "hash_trainer.train_s": ("hash_trainer.train", "s"),
    "hash_trainer.spectral_init_s": ("hash_trainer.spectral_code_init", "s"),
    "hash_trainer.update_Wb_s": ("hash_trainer.update_Wb", "s"),
    "hash_trainer.update_codes_s": ("hash_trainer.update_codes", "s"),
    "hash_trainer.objective_s": ("hash_trainer.objective", "s"),
    "hash_trainer.encode_queries_s": ("hash_trainer.encode_queries", "s"),
    "hash_trainer.encode_database_s": ("hash_trainer.encode_database", "s"),
    "kernel_sim.select_landmarks_s": ("kernel_sim.select_kernel_landmarks", "s"),
    "kernel_sim.tune_s": ("kernel_sim.tune_config", "s"),
    "kernel_sim.build_view_kernels_s": ("kernel_sim.build_view_kernels", "s"),
    "kernel_sim.query_vector_s": ("kernel_sim.query_kernel_vector", "s"),
    "kernel_sim.query_vector_calls": ("kernel_sim.query_kernel_vector", "calls"),
    "evaluation.evaluate_s": ("evaluation.evaluate", "s"),
    "evaluation.evaluate_calls": ("evaluation.evaluate", "calls"),
    "evaluation.hamming_distances_s": ("evaluation.hamming_distances", "s"),
    "evaluation.hamming_distances_calls": ("evaluation.hamming_distances", "calls"),
    "evaluation.mean_average_precision_s": ("evaluation.mean_average_precision", "s"),
    "evaluation.hash_lookup_precision_s": ("evaluation.hash_lookup_precision", "s"),
    "evaluation.pr_curve_s": ("evaluation.pr_curve", "s"),
    "dataset.save_view_s": ("dataset.save_view", "s"),
    "model_io.save_s": ("model_io.save_model", "s"),
    "model_io.load_s": ("model_io.load_model", "s"),
}

# figures of the untraced passes of a traced run
STAGES = {
    "train_s": "s",
    "encode_db_items_per_s": "1/s",
    "encode_query_items_per_s": "1/s",
    "search_queries_per_s": "1/s",
    "lookup_precision_r2": "share",
    "path_bit_agreement": "share",
    "batch_bit_agreement": "share",
    "model_bytes": "bytes",
}
COUNTERS = ("lowrank_alm.sweeps", "hash_trainer.outer_iterations")


def per_layer_units():
    units = {name: ("count" if kind == "calls" else "s") for name, (_, kind) in SPANS.items()}
    units.update({c: "count" for c in COUNTERS})
    units["dataset.load_s"] = "s"
    units.update({f"{m}.self_s": "s" for m in MODULES})
    units.update({f"stage.{k}": u for k, u in STAGES.items()})
    units.update({
        "trace.untraced_pass_s": "s",
        "trace.traced_pass_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_share": "share",
        "trace.spans": "count",
    })
    return units


def import_program():
    """Import rmvhash from this checkout's src/ only."""
    if not (SRC / "rmvhash" / "__init__.py").is_file():
        print(f"bench: no rmvhash package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    rm = importlib.import_module("rmvhash")
    if Path(rm.__file__).resolve().parent != SRC / "rmvhash":
        print(f"bench: imported rmvhash from {rm.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return rm


def setup_times(paths, probes):
    """Seconds taken by each of `probes` fresh interpreters to import rmvhash
    and read the inputs."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *map(str, paths)]
    return [
        float(subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
              .stdout.strip().splitlines()[-1])
        for _ in range(probes)
    ]


def median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


def traced_metrics(tracer, pass_metrics, load_seconds):
    calls, seconds, self_time = tracer.summary()
    out = {}
    for name, (fn, kind) in SPANS.items():
        out[name] = calls.get(fn, 0) if kind == "calls" else seconds.get(fn, 0.0)
    for m in MODULES:
        out[f"{m}.self_s"] = self_time.get(m, 0.0)
    for c in COUNTERS:
        out[c] = pass_metrics[c]
    out["dataset.load_s"] = load_seconds
    out["trace.traced_pass_s"] = pass_metrics["pipeline_s"]
    out["trace.spans"] = len(tracer.spans)
    return out


def run(args, rm, workdir):
    workload = WORKLOADS[args.workload](args.seed, workdir)
    failures = [f"oracle self-test: {name}" for name in oracles.self_test()]
    attempted = 1
    paths = workload.write_inputs(rm)

    tracer = Tracer([getattr(rm, m) for m in MODULES])
    if args.trace:
        tracer.install()
        workload.load(rm)
        tracer.uninstall()
        load_seconds = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    else:
        setup_times(paths, 1)   # unrecorded: writes bytecode, warms the file cache
        setup = setup_times(paths, SETUP_PROBES)
        workload.load(rm)

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        passes = [workload.run_pass(rm)]
        if args.trace:
            tracer.reset()
            tracer.install()
            try:
                passes.append(workload.run_pass(rm))
            finally:
                tracer.uninstall()
            traced.append(traced_metrics(tracer, passes[-1].metrics(), load_seconds))
        plain.append(passes[0].metrics())
        for p in passes:
            attempted += p.ops
            failures += p.failures
        if time.perf_counter() - start >= args.seconds:
            break

    if args.trace:
        metrics = {k: median_of(traced, k) for k in traced[0]}
        for k in STAGES:
            metrics[f"stage.{k}"] = median_of(plain, k)
        untraced = median_of(plain, "pipeline_s")
        metrics["trace.untraced_pass_s"] = untraced
        metrics["trace.overhead_s"] = metrics["trace.traced_pass_s"] - untraced
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced
        units = per_layer_units()
    else:
        # half the set-up probes run after the passes, so that their median
        # spans the run rather than the few seconds before it
        setup += setup_times(paths, SETUP_PROBES)
        metrics = {k: median_of(plain, k) for k in END_TO_END if k in plain[0]}
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    for name in failures:
        print(f"check failed: {name}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    rm = import_program()
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        result = run(args, rm, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # another run may still use it
            scratch.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
