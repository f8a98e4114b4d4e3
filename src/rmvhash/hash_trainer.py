"""Alternating optimization of kernel hash functions over multi-view data.

Couples the anchor-graph smoothness terms, the code-consensus terms, and the
ridge regression from the recovered consensus similarity onto relaxed codes.
Codes Y are held as (N, P). Every item, in the database or a query, is served
as sign(W^T k(x) + b), k(x) the mean over views of its kernel vectors, so a
code depends only on the model and the item.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import anchor_graph, kernel_sim, lowrank_alm, oos_encoder
from .core_math import NumericError, check_range
from .lowrank_alm import ALMConfig

# Columns per kernel block in embed: 1024 x R float64 stays a few MB.
_CHUNK = 1024

# train hands the ALM float32 kernels with every entry below sqrt(float32
# tiny) set to 0, as kernel_sim floors float64 kernels at sqrt(float64 tiny):
# no product of two kept entries is subnormal.
_FLOAT32_FLOOR = np.sqrt(np.finfo(np.float32).tiny)


@dataclass
class HyperParams:
    """Settings of the outer loop. The ALM's weights alpha and lam are set on
    ALMConfig alone; alpha and lam here are read-only and return ALMConfig's
    defaults."""
    P: int = 32
    gamma: float = 1e-4
    delta: float = 1e-6
    beta: float = 1.0
    outer_iters: int = 60
    outer_tol: float = 1e-4

    alpha = property(lambda self: ALMConfig.alpha)
    lam = property(lambda self: ALMConfig.lam)

    def __post_init__(self):
        check_range(self, 1, "P", "outer_iters")
        check_range(self, 0, "gamma", "delta")
        check_range(self, 0, "beta", "outer_tol", strict=True)


@dataclass
class GraphConfig:
    L: int = 300
    k: int = 3

    def __post_init__(self):
        check_range(self, 1, "L", "k")


@dataclass
class KernelSelectConfig:
    R: int = 0                  # 0: same as graph L
    self_tuning_k: int = 7

    def __post_init__(self):
        check_range(self, 0, "R")
        check_range(self, 1, "self_tuning_k")


@dataclass
class OosConfig:
    Z: int = 300
    k_oos: int = 25

    def __post_init__(self):
        check_range(self, 1, "Z", "k_oos")


@dataclass
class CodeState:
    Y: np.ndarray               # (N, P) relaxed consensus codes
    Y_view: list                # M arrays (N, P)


@dataclass
class HashModel:
    W: np.ndarray               # (R, P)
    b: np.ndarray               # (P,)
    landmarks: kernel_sim.KernelLandmarks
    kernel_config: kernel_sim.KernelConfig
    base_set: object = None     # oos_encoder.BaseSet
    meta: dict = field(default_factory=dict)

    @property
    def code_length(self):
        return self.W.shape[1]


@dataclass
class TrainDiagnostics:
    objective_trace: list = field(default_factory=list)
    outer_iter_seconds: list = field(default_factory=list)
    alm: lowrank_alm.ALMDiagnostics | None = None
    converged: bool = False
    outer_iterations: int = 0


def update_Wb(Khat, Y, delta):
    """Closed-form ridge solution of the regression from Khat columns to Y.

    W = (Khat Lc Khat^T + delta I)^{-1} Khat Lc Y with Lc the centering
    matrix; b makes the residual column means vanish.
    """
    Khat = np.asarray(Khat, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = Khat.shape[1]
    if Y.shape[0] != n:
        raise ValueError(f"Y has {Y.shape[0]} rows, expected {n}")
    Kc = Khat - Khat.mean(axis=1, keepdims=True)     # Khat @ Lc
    gram = Kc @ Kc.T
    gram.flat[::len(gram) + 1] += delta
    try:
        W = np.linalg.solve(gram, Kc @ Y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "singular normal equations in update_Wb; use delta > 0"
        ) from exc
    b = (Y.sum(axis=0) - W.T @ Khat.sum(axis=1)) / n
    return W, b


def _solve_view_codes(graph, Y, gamma):
    """Solve (2 L^(m) + gamma I) Y^(m) = gamma Y exactly. With S = H H^T and
    c = 2 + gamma, Woodbury gives (c I - 2 H H^T)^{-1} =
    (I + H V diag(2 / (c - 2 sigma)) V^T H^T) / c."""
    c = 2.0 + gamma
    coef = (graph.V.T @ (graph.H.T @ Y)) * (2.0 / (c - 2.0 * graph.sigma))[:, None]
    return (gamma / c) * (Y + graph.H @ (graph.V @ coef))


def _orthogonalize(Y):
    """Closest matrix with decorrelated, equal-energy columns, Y^T Y = N I: the
    polar factor sqrt(N) U V^T of the thin SVD Y = U S V^T. It keeps the
    constraint even when Y has lost rank, so the code step stays a minimiser."""
    u, _, vt = np.linalg.svd(Y, full_matrices=False)
    return (u @ vt) * np.sqrt(Y.shape[0])


def update_codes(state, graphs, Khat, W, b, hp):
    """One sweep over the code blocks: per-view smoothing solves, consensus
    averaging against the regression output, orthogonalization."""
    reg = Khat.T @ W + b
    if hp.gamma > 0:
        y_view = [_solve_view_codes(g, state.Y, hp.gamma) for g in graphs]
        m = len(graphs)
        Y = (hp.gamma * np.sum(y_view, axis=0) + hp.beta * reg) / (hp.gamma * m + hp.beta)
    else:
        y_view = [state.Y.copy() for _ in graphs]
        Y = reg
    return CodeState(Y=_orthogonalize(Y), Y_view=y_view)


def objective(state, graphs, Khat, W, b, hp):
    """Relaxed objective of the outer loop: graph smoothness + code consensus
    + regression fit with ridge. The ALM's terms alpha ||Khat||_* + lam
    sum_m ||E^(m)||_{2,1} are left out: Khat and E stay fixed while the codes
    change, so they would only add a constant."""
    total = 0.0
    for g, yv in zip(graphs, state.Y_view):
        lap = anchor_graph.laplacian_apply(g, yv)
        total += 2.0 * float(np.sum(yv * lap))
        total += hp.gamma * float(np.sum((state.Y - yv) ** 2))
    resid = Khat.T @ W + b - state.Y
    total += hp.beta * (float(np.sum(resid ** 2)) + hp.delta * float(np.sum(W ** 2)))
    return total


def spectral_code_init(graphs, p, seed=0):
    """Warm-start codes spanning the top eigenvectors of the averaged anchor
    adjacency, computed through the reduced L x L factor; falls back to a
    seeded random orthonormal basis when the spectrum is too flat. The top
    eigenvalues are degenerate, so the codes are rotated to the canonical basis
    Y Q_c of their span, Q_c the sign-fixed QR factor of Y^T G, G seeded."""
    import scipy.sparse as sp  # here, so that only training loads scipy
    m = len(graphs)
    n = graphs[0].n_samples
    H = sp.hstack([g.H / np.sqrt(m) for g in graphs], format="csr")
    evals, evecs = np.linalg.eigh((H.T @ H).toarray())
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    good = evals > 1e-10 * evals[0]
    if np.count_nonzero(good) < p:
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, p)))
        return q * np.sqrt(n)
    U = H @ evecs[:, :p]
    U /= np.sqrt(evals[:p])
    Y = U / np.linalg.norm(U, axis=0) * np.sqrt(n)
    q, r = np.linalg.qr(Y.T @ np.random.default_rng(seed).normal(size=(n, p)))
    return Y @ (q * np.where(np.diag(r) < 0, -1.0, 1.0))


def train(
    ds,
    hp=None,
    alm_cfg=None,
    graph_cfg=None,
    kernel_cfg=None,
    oos_cfg=None,
    seed=0,
    recovery=True,
):
    """Full training pipeline.

    Every landmark set is kernel_sim.select_kernel_landmarks(ds, count, seed),
    one k-means per distinct count: view m's anchor graph takes view m's block
    of the set at graph_cfg.L, the kernel similarities the set at R, and a
    base set of Z < N centers the set at Z when Z is L or R. It recovers the
    consensus Khat by inexact ALM on float32 copies of the view kernels (or
    the float64 view average when recovery is off), then alternates the
    closed-form (W, b) solve with the code sweep
    until the relative change of the outer objective (see objective) drops
    below hp.outer_tol. The ALM runs with alm_cfg, ALMConfig() by default,
    the one place its alpha and lam are set. With recovery, W is finally
    projected onto the column space U of the ALM's low-rank Q, W <- U U^T W,
    so the served map is the recovered latent kernel; a Q of rank 0, which
    would give every item the same code, raises ValueError.
    """
    hp = hp or HyperParams()
    graph_cfg = graph_cfg or GraphConfig()
    kernel_cfg = kernel_cfg or KernelSelectConfig()
    oos_cfg = oos_cfg or OosConfig()
    alm_cfg = alm_cfg or ALMConfig()

    n = ds.n_samples
    R = kernel_cfg.R or graph_cfg.L
    # settings the data cannot satisfy fail here, before any k-means runs
    for name, value, limit_name, limit in (
        ("GraphConfig.L", graph_cfg.L, "N", n),
        ("KernelSelectConfig.R", R, "N", n),
        ("HyperParams.P", hp.P, "N", n),
        ("GraphConfig.k", graph_cfg.k, "GraphConfig.L", graph_cfg.L),
        ("KernelSelectConfig.self_tuning_k", kernel_cfg.self_tuning_k, "R", R),
    ):
        if value > limit:
            raise ValueError(f"{name}={value} exceeds {limit_name}={limit}")

    joint = {c: kernel_sim.select_kernel_landmarks(ds, c, seed=seed) for c in {graph_cfg.L, R}}
    graphs = [
        anchor_graph.build_truncated_affinity(view, z, graph_cfg.k)
        for view, z in zip(ds.views, joint[graph_cfg.L].blocks)
    ]
    klm = joint[R]
    kcfg = kernel_sim.tune_config(ds, klm, kernel_cfg.self_tuning_k)
    K_list = kernel_sim.build_view_kernels(ds, klm, kcfg)

    diag = TrainDiagnostics()
    if recovery:
        # the ALM is bound by memory traffic over R x N arrays, so it sweeps in
        # float32; the float64 kernels are dropped before it runs
        K_list = [K.astype(np.float32) for K in K_list]
        for K in K_list:
            K *= K >= _FLOAT32_FLOOR
        Khat, _, alm_diag = lowrank_alm.recover(K_list, alm_cfg)
        diag.alm = alm_diag
        if alm_diag.U.shape[1] == 0:
            raise ValueError(
                f"recovered consensus kernel has rank 0 at alpha={alm_cfg.alpha}, "
                "so every item would get the same code; lower alpha"
            )
    else:
        # kernel entries lie in [0, 1], so the view average is already >= 0
        Khat = sum(K_list) / len(K_list)

    # update_codes reads only Y, not the view codes
    state = CodeState(Y=spectral_code_init(graphs, hp.P, seed=seed), Y_view=[])
    prev_obj = None
    for it in range(1, hp.outer_iters + 1):
        t0 = time.perf_counter()
        W, b = update_Wb(Khat, state.Y, hp.delta)
        state = update_codes(state, graphs, Khat, W, b, hp)
        obj = objective(state, graphs, Khat, W, b, hp)
        diag.outer_iter_seconds.append(time.perf_counter() - t0)
        diag.objective_trace.append(obj)
        diag.outer_iterations = it
        if prev_obj is not None and abs(prev_obj - obj) <= hp.outer_tol * abs(prev_obj):
            diag.converged = True
            break
        prev_obj = obj
    if recovery:
        W = alm_diag.U @ (alm_diag.U.T @ W)

    model = HashModel(
        W=W, b=b, landmarks=klm, kernel_config=kcfg,
        meta={"N": n, "seed": seed, "recovery": recovery},
    )
    Z = min(oos_cfg.Z, n)
    model.base_set = oos_encoder.build_base_set(
        ds, model, Z=Z, k_oos=oos_cfg.k_oos, seed=seed,
        centers=np.hstack(joint[Z].blocks) if Z in joint and Z < n else None,
    )
    return model, state, Khat, diag


def encode_database(model, Khat):
    """(N, P) codes: column i maps to sign(W^T Khat_i + b), sign(0) = +1."""
    Khat = np.asarray(Khat, dtype=float)
    if Khat.shape[0] != model.W.shape[0]:
        raise ValueError(
            f"Khat has {Khat.shape[0]} rows, expected {model.W.shape[0]}"
        )
    pre = Khat.T @ model.W + model.b
    return np.where(pre >= 0, 1, -1).astype(np.int8)


def embed(model, points):
    """(n, P) pre-sign projections W^T k(x) + b of the columns of a (d, n)
    block of concatenated points, k(x) the mean over views of the kernel vectors
    that Khat is recovered from, built _CHUNK columns at a time."""
    blocks = model.landmarks.blocks
    views = np.split(points, np.cumsum([z.shape[1] for z in blocks])[:-1])
    out = np.empty((points.shape[1], model.code_length))
    for start in range(0, points.shape[1], _CHUNK):
        K = sum(
            kernel_sim.build_kernel_matrix(v[:, start:start + _CHUNK], z, s)
            for v, z, s in zip(views, blocks, model.kernel_config.sigmas)
        ) / len(blocks)
        out[start:start + _CHUNK] = K.T @ model.W + model.b
    return out


def encode_queries(model, ds):
    """(n, P) codes sign(W^T k(x) + b), sign(0) = +1, of every sample of ds."""
    blocks = model.landmarks.blocks
    if ds.n_views != len(blocks):
        raise ValueError(f"dataset has {ds.n_views} views, expected {len(blocks)}")
    for m, (v, z) in enumerate(zip(ds.views, blocks)):
        if v.shape[0] != z.shape[1]:
            raise ValueError(
                f"view {m}: dimension mismatch: {v.shape[0]} != landmark dim {z.shape[1]}"
            )
    return np.where(embed(model, ds.concatenated()) >= 0, 1, -1).astype(np.int8)
