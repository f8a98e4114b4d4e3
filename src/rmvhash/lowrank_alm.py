"""Inexact-ALM recovery of a consensus low-rank kernelized similarity.

Solves  min  alpha*||Khat||_*  +  lam * sum_m ||E^(m)||_{2,1}
        s.t. K^(m) = Khat + E^(m),  Khat >= 0
by alternating closed-form block updates (Q via singular value thresholding,
E^(m) via columnwise shrinkage, Khat via averaging plus projection) with a
single multiplier/penalty update per sweep.
"""

from dataclasses import dataclass, field

import numpy as np

from . import core_math


@dataclass
class ALMConfig:
    alpha: float = 0.1
    lam: float = 1e-3
    rho: float = 1.3
    mu_max: float = 1e8
    tol: float = 1e-6
    max_iters: int = 300

    def __post_init__(self):
        if self.rho <= 1:
            raise ValueError(f"rho must exceed 1, got {self.rho}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.alpha <= 0 or self.lam < 0:
            raise ValueError("alpha must be positive and lam nonnegative")


@dataclass
class ALMState:
    K_list: list                  # M observed (R, N) matrices
    Khat: np.ndarray
    Q: np.ndarray
    E: list
    A: list                       # multipliers for K = Khat + E
    B: np.ndarray                 # multiplier for Khat = Q
    mu: float
    U: np.ndarray | None = None   # (R, rank Q), orthonormal basis of range(Q)


@dataclass
class ALMDiagnostics:
    fit_residuals: list = field(default_factory=list)   # max_m ||Khat+E-K||/||K||
    gap_residuals: list = field(default_factory=list)   # ||Khat-Q||/||Khat||
    objectives: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    U: np.ndarray | None = None   # basis of range(Q) at the last sweep

    def to_csv(self, path):
        lines = ["iteration,fit_residual,gap_residual,objective"]
        for i, (f, g, o) in enumerate(
            zip(self.fit_residuals, self.gap_residuals, self.objectives), start=1
        ):
            lines.append(f"{i},{f:.12g},{g:.12g},{o:.12g}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def init_state(K_list, cfg):
    K_list = [np.asarray(K, dtype=float) for K in K_list]
    shape = K_list[0].shape
    for m, K in enumerate(K_list):
        if K.shape != shape:
            raise ValueError(f"view {m} has shape {K.shape}, expected {shape}")
        if not np.all(np.isfinite(K)):
            raise ValueError(f"view {m} contains non-finite entries")
    Kbar = sum(K_list) / len(K_list)
    mu = 1.0 / max(np.linalg.norm(Kbar, 2), 1e-12)
    Khat = core_math.project_nonneg(Kbar)
    return ALMState(
        K_list=K_list,
        Khat=Khat,
        Q=Khat.copy(),
        E=[np.zeros(shape) for _ in K_list],
        A=[np.zeros(shape) for _ in K_list],
        B=np.zeros(shape),
        mu=float(mu),
    )


def update_Q(state, cfg):
    """Nuclear-norm prox step on the auxiliary variable: the Q-subproblem of
    the Lagrangian, Q = svt(Khat + B/mu, alpha/mu); state.U spans range(Q)."""
    Q, state.U = core_math.svt_with_basis(state.Khat + state.B / state.mu, cfg.alpha / state.mu)
    return Q


def update_E(state, cfg, m):
    """Columnwise shrinkage step on the view-m error: prox of
    (lam/mu) * ||.||_{2,1}."""
    resid = state.K_list[m] - state.Khat - state.A[m] / state.mu
    return core_math.col_l21_prox(resid, cfg.lam / state.mu)


def update_Khat(state, cfg):
    """Average the M+1 quadratic pulls and project onto Khat >= 0."""
    M = len(state.K_list)
    acc = state.Q - state.B / state.mu
    for m in range(M):
        acc = acc + state.K_list[m] - state.E[m] - state.A[m] / state.mu
    return core_math.project_nonneg(acc / (M + 1))


def update_multipliers(state, cfg):
    """Gradient-ascent multiplier step and penalty growth (in place)."""
    for m in range(len(state.K_list)):
        state.A[m] = state.A[m] + state.mu * (state.Khat + state.E[m] - state.K_list[m])
    state.B = state.B + state.mu * (state.Khat - state.Q)
    state.mu = min(cfg.rho * state.mu, cfg.mu_max)
    return state


def objective(Khat, E_list, cfg):
    """alpha*||Khat||_* + lam * sum_m ||E^(m)||_{2,1}."""
    nuc = float(np.sum(np.linalg.svd(Khat, compute_uv=False)))
    l21 = sum(float(np.sum(np.linalg.norm(E, axis=0))) for E in E_list)
    return cfg.alpha * nuc + cfg.lam * l21


def residuals(state):
    fit = max(
        np.linalg.norm(state.Khat + state.E[m] - state.K_list[m], "fro")
        / max(np.linalg.norm(state.K_list[m], "fro"), 1e-12)
        for m in range(len(state.K_list))
    )
    gap = np.linalg.norm(state.Khat - state.Q, "fro") / max(
        np.linalg.norm(state.Khat, "fro"), 1e-12
    )
    return float(fit), float(gap)


def recover(K_list, cfg=None):
    """Run the inexact-ALM sweep until both relative residuals fall below tol.

    Returns (Khat, E_list, diagnostics); non-convergence within max_iters is
    reported via diagnostics.converged, not raised; diagnostics.U spans the last Q.
    """
    cfg = cfg or ALMConfig()
    state = init_state(K_list, cfg)
    diag = ALMDiagnostics()
    for it in range(1, cfg.max_iters + 1):
        state.Q = update_Q(state, cfg)
        for m in range(len(state.K_list)):
            state.E[m] = update_E(state, cfg, m)
        state.Khat = update_Khat(state, cfg)
        fit, gap = residuals(state)
        update_multipliers(state, cfg)
        diag.fit_residuals.append(fit)
        diag.gap_residuals.append(gap)
        diag.objectives.append(objective(state.Khat, state.E, cfg))
        diag.iterations = it
        if fit < cfg.tol and gap < cfg.tol:
            diag.converged = True
            break
    diag.U = state.U
    return state.Khat, state.E, diag
