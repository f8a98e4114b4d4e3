"""The three benchmark workloads.

Each workload writes its seeded inputs through the program's writers, reads
them back through the program's readers, and then runs passes. A pass is one
whole round of the same operations; it times every call into the program and,
after the timed sections, checks the outputs against `oracles`.

- robust-1800: the criterion-6 configuration (corrupted train and serve) for
  three datasets per pass, data seeds 3*seed, 3*seed+1 and 3*seed+2, so seed 0
  is the criterion's seeds 0, 1 and 2.
- scale-10k: the criterion-7 configuration at N=10,000 with a fixed amount of
  solver work (exactly 20 ALM sweeps and 3 outer iterations).
- retrieval-100k: Hamming search of 500 planted query codes in 100,000
  database codes; no training.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import inputs
import oracles

TOP_K = 100
RADIUS = 2
BITS = 32
# learned MAP must exceed random-code MAP on the same relevance by this factor
MAP_OVER_RANDOM = 4.0


class Pass:
    """What one pass measured: seconds per stage, counters, quality figures
    and the outcome of every operation."""

    def __init__(self):
        self.seconds = {}
        self.counts = {}
        self.quality = {}
        self.ops = 0
        self.failures = []

    @contextmanager
    def timed(self, stage):
        self.ops += 1
        start = time.perf_counter()
        yield
        self.seconds[stage] = self.seconds.get(stage, 0.0) + time.perf_counter() - start

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def check(self, name, ok):
        self.ops += 1
        if not ok:
            self.failures.append(name)

    def note(self, key, value):
        self.quality.setdefault(key, []).append(float(value))

    def metrics(self):
        """End-to-end and stage figures of this pass."""
        s, c = self.seconds, self.counts

        def rate(items, stage):
            return c.get(items, 0) / s[stage] if s.get(stage) else 0.0

        mean = {k: float(np.mean(v)) for k, v in self.quality.items()}
        return {
            "pipeline_s": sum(s.values()),
            "map_at_100": mean["map_at_100"],
            "lookup_precision_r2": mean["lookup_precision_r2"],
            "search_queries_per_s": rate("queries", "search"),
            "code_bytes_per_item": c["code_bytes"] / c["code_items"],
            "train_s": s.get("train", 0.0),
            "encode_db_items_per_s": rate("db_items", "encode_db"),
            "encode_query_items_per_s": rate("query_items", "encode_query"),
            "path_bit_agreement": mean.get("path_bit_agreement", 0.0),
            "batch_bit_agreement": mean.get("batch_bit_agreement", 0.0),
            "model_bytes": mean.get("model_bytes", 0.0),
            "lowrank_alm.sweeps": c.get("alm_sweeps", 0),
            "hash_trainer.outer_iterations": c.get("outer_iterations", 0),
        }


def _write_codes(rm, codes, path):
    """Codes (n, P) as a (P, n) float32 MVH1 matrix, as `rmvhash encode` writes them."""
    rm.dataset.save_view(path, codes.T.astype(np.float32))


def _read_codes(rm, path):
    return rm.dataset.load_view(path).T.astype(np.int8)


def _check_retrieval(p, report, q_codes, d_codes, relevant):
    """evaluate() against the oracle; returns the oracle MAP."""
    want_map, want_lookup, want_curve = oracles.retrieval_metrics(
        q_codes, d_codes, relevant, TOP_K, RADIUS
    )
    p.check("MAP@100 matches the brute-force oracle", abs(report.map - want_map) <= 1e-9)
    p.check(
        "radius-2 lookup precision matches the brute-force oracle",
        abs(report.lookup_precision_mean - want_lookup) <= 1e-9,
    )
    p.check(
        "PR curve matches the brute-force oracle",
        np.allclose(np.asarray(report.pr_curve), want_curve, atol=1e-9, rtol=0),
    )
    return want_map


class Trained:
    """A workload that trains, saves and reloads a model, encodes a database
    and queries, and searches. Subclasses set the configuration."""

    dims = ()
    n_clusters = 0
    per_cluster = 0
    n_query = 0
    corrupt_fraction = 0.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.cases = []          # (data seed, db manifest, query manifest)
        self.data = []           # (data seed, db dataset, query dataset)

    def data_seeds(self):
        raise NotImplementedError

    def configs(self, rm):
        raise NotImplementedError

    def write_inputs(self, rm):
        for s in self.data_seeds():
            (dv, dl), (qv, ql) = inputs.multiview_split(
                self.n_clusters, self.per_cluster, self.dims, self.n_query, s,
                corrupt_fraction=self.corrupt_fraction,
            )
            db = rm.dataset.save_dataset(
                rm.dataset.MultiViewDataset(views=tuple(dv), labels=dl),
                self.workdir, name=f"db{s}",
            )
            q = rm.dataset.save_dataset(
                rm.dataset.MultiViewDataset(views=tuple(qv), labels=ql),
                self.workdir, name=f"q{s}",
            )
            self.cases.append((s, db, q))
        return [path for _, db, q in self.cases for path in (db, q)]

    def load(self, rm):
        self.data = [
            (s, rm.dataset.load_dataset(db), rm.dataset.load_dataset(q))
            for s, db, q in self.cases
        ]

    def run_pass(self, rm):
        p = Pass()
        for s, db, q in self.data:
            self.run_case(rm, p, s, db, q)
        return p

    def encode_db(self, rm, model, db, alm_cfg, khat_train):
        """Database codes; returns (codes, Khat used, ALM diagnostics or None)."""
        raise NotImplementedError

    def run_case(self, rm, p, s, db, q):
        hp, alm_cfg, graph_cfg, kernel_cfg, oos_cfg = self.configs(rm)
        model_path = self.workdir / f"model{s}.rmvm"
        codes_path = self.workdir / f"db{s}_codes.mvh"

        with p.timed("train"):
            trained, state, khat_train, diag = rm.hash_trainer.train(
                db, hp, alm_cfg=alm_cfg, graph_cfg=graph_cfg,
                kernel_cfg=kernel_cfg, oos_cfg=oos_cfg, seed=s,
            )
        with p.timed("model_io"):
            rm.model_io.save_model(trained, model_path)
            model, _ = rm.model_io.load_model(model_path)
        with p.timed("encode_db"):
            db_codes, khat_db, db_alm = self.encode_db(rm, model, db, alm_cfg, khat_train)
        with p.timed("write_codes"):
            _write_codes(rm, db_codes, codes_path)
        with p.timed("encode_query"):
            q_codes = rm.hash_trainer.encode_queries(model, q)
        with p.timed("encode_query"):
            path_codes = rm.hash_trainer.encode_queries(model, db)
        relevant = oracles.relevance(q.labels, db.labels)
        with p.timed("search"):
            report = rm.evaluation.evaluate(q_codes, db_codes, relevant, top_k=TOP_K, radius=RADIUS)

        if db_alm is not None:   # only the `rmvhash encode` path recovers Khat
            p.add("db_items", db.n_samples)
        p.add("query_items", q.n_samples + db.n_samples)
        p.add("queries", q.n_samples)
        p.add("code_bytes", codes_path.stat().st_size)
        p.add("code_items", db.n_samples)
        p.add("alm_sweeps", diag.alm.iterations + (db_alm.iterations if db_alm else 0))
        p.add("outer_iterations", diag.outer_iterations)
        p.note("model_bytes", model_path.stat().st_size)
        p.note("map_at_100", report.map)
        p.note("lookup_precision_r2", report.lookup_precision_mean)
        p.note("path_bit_agreement", oracles.bit_agreement(path_codes, db_codes))

        self.check_training(p, diag)
        p.check("Khat >= 0", bool(np.all(khat_train >= 0) and np.all(khat_db >= 0)))
        p.check("Y^T Y / N = I after orthogonalisation", oracles.is_orthonormal(state.Y))
        p.check(
            "database codes equal sign(Khat^T W + b)",
            np.array_equal(db_codes, oracles.sign_codes(khat_db, model.W, model.b)),
        )
        p.check(
            "codes are ±1",
            all(oracles.is_pm1(c) for c in (db_codes, q_codes, path_codes)),
        )
        p.check(
            "code file reads back as the same codes",
            np.array_equal(_read_codes(rm, codes_path), db_codes),
        )
        learned = _check_retrieval(p, report, q_codes, db_codes, relevant)
        random_map = oracles.random_code_map(
            relevant, q.n_samples, db.n_samples, BITS, TOP_K, seed=s
        )
        p.check("learned MAP far above random codes", learned > MAP_OVER_RANDOM * random_map)
        p.check(
            "model file round trip keeps W, b and query codes bit for bit",
            np.array_equal(model.W, trained.W)
            and np.array_equal(model.b, trained.b)
            and np.array_equal(rm.hash_trainer.encode_queries(trained, q), q_codes),
        )
        return model, db_codes, db_alm, alm_cfg

    def check_training(self, p, diag):
        raise NotImplementedError


class Robust1800(Trained):
    """Criterion 6: 10 clusters x 200 items, views 32 and 48, 20% of entries
    corrupted, 200 held out as queries; P=32, L=R=100, 30 outer iterations."""

    name = "robust-1800"
    dims = (32, 48)
    n_clusters = 10
    per_cluster = 200
    n_query = 200
    corrupt_fraction = 0.2

    def data_seeds(self):
        return [3 * self.seed + k for k in range(3)]

    def configs(self, rm):
        ht = rm.hash_trainer
        hp = ht.HyperParams(P=BITS, outer_iters=30)
        return (
            hp,
            rm.lowrank_alm.ALMConfig(alpha=hp.alpha, lam=hp.lam),
            ht.GraphConfig(L=100, k=3),
            ht.KernelSelectConfig(R=100),
            ht.OosConfig(Z=300, k_oos=25),
        )

    def encode_db(self, rm, model, db, alm_cfg, khat_train):
        """The `rmvhash encode` path: view kernels, ALM recovery on the
        database, then encode_database."""
        k_list = rm.kernel_sim.build_view_kernels(db, model.landmarks, model.kernel_config)
        khat, _, alm = rm.lowrank_alm.recover(k_list, alm_cfg)
        return rm.hash_trainer.encode_database(model, khat), khat, alm

    def run_case(self, rm, p, s, db, q):
        """The base case, then the first half of the database encoded alone."""
        model, db_codes, db_alm, alm_cfg = super().run_case(rm, p, s, db, q)
        p.check("ALM converged on the database", db_alm.converged)
        half = db.subset(np.arange(db.n_samples // 2))
        with p.timed("encode_db_half"):
            half_codes, _, half_alm = self.encode_db(rm, model, half, alm_cfg, None)
        p.add("alm_sweeps", half_alm.iterations)
        p.check("ALM converged on half the database", half_alm.converged)
        p.note("batch_bit_agreement", oracles.bit_agreement(half_codes, db_codes[: half.n_samples]))

    def check_training(self, p, diag):
        p.check("ALM converged in training", diag.alm.converged)


class Scale10k(Trained):
    """Criterion 7 at N=10,000: clean data, 10 clusters, views 16 and 16;
    P=32, L=R=200, exactly 20 ALM sweeps and 3 outer iterations. Database
    codes come from the training Khat; 500 held-out items are the queries."""

    name = "scale-10k"
    dims = (16, 16)
    n_clusters = 10
    per_cluster = 1050
    n_query = 500

    def data_seeds(self):
        return [self.seed]

    def configs(self, rm):
        ht = rm.hash_trainer
        return (
            ht.HyperParams(P=BITS, outer_iters=3, outer_tol=1e-12),
            rm.lowrank_alm.ALMConfig(max_iters=20, tol=1e-12),
            ht.GraphConfig(L=200, k=3),
            ht.KernelSelectConfig(R=200),
            ht.OosConfig(Z=300, k_oos=25),
        )

    def encode_db(self, rm, model, db, alm_cfg, khat_train):
        return rm.hash_trainer.encode_database(model, khat_train), khat_train, None

    def check_training(self, p, diag):
        p.check(
            "exactly 20 ALM sweeps and 3 outer iterations",
            diag.alm.iterations == 20 and diag.outer_iterations == 3,
        )


class Retrieval100k:
    """500 query codes against 100,000 database codes, P=32, planted around
    100 centres with 12% of bits flipped; evaluate with top_k=100, radius 2."""

    name = "retrieval-100k"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    def write_inputs(self, rm):
        db, self.db_labels, q, self.q_labels = inputs.planted_codes(
            100_000, 500, 100, BITS, 0.12, self.seed
        )
        self.db_path = self.workdir / "db_codes.mvh"
        self.q_path = self.workdir / "q_codes.mvh"
        _write_codes(rm, db, self.db_path)
        _write_codes(rm, q, self.q_path)
        return [self.db_path, self.q_path]

    def load(self, rm):
        self.db_codes = _read_codes(rm, self.db_path)
        self.q_codes = _read_codes(rm, self.q_path)
        self.relevant = oracles.relevance(self.q_labels, self.db_labels)

    def run_pass(self, rm):
        p = Pass()
        with p.timed("search"):
            report = rm.evaluation.evaluate(
                self.q_codes, self.db_codes, self.relevant, top_k=TOP_K, radius=RADIUS
            )
        p.add("queries", self.q_codes.shape[0])
        p.add("code_bytes", self.db_path.stat().st_size)
        p.add("code_items", self.db_codes.shape[0])
        p.note("map_at_100", report.map)
        p.note("lookup_precision_r2", report.lookup_precision_mean)
        p.check("codes are ±1", oracles.is_pm1(self.db_codes) and oracles.is_pm1(self.q_codes))
        _check_retrieval(p, report, self.q_codes, self.db_codes, self.relevant)
        return p


WORKLOADS = {w.name: w for w in (Robust1800, Scale10k, Retrieval100k)}
