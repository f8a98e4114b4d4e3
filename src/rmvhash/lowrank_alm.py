"""Inexact-ALM recovery of a consensus low-rank kernelized similarity.

Solves  min  alpha*||Khat||_*  +  lam * sum_m ||E^(m)||_{2,1}
        s.t. K^(m) = Khat + E^(m),  Khat >= 0
by alternating closed-form block updates (Q via singular value thresholding,
E^(m) via columnwise shrinkage, Khat via averaging plus projection) with a
single multiplier/penalty update per sweep.

The thresholding takes its singular pairs from the R x R Gram matrix of
Khat + B/mu (see core_math.svt_with_basis); a sweep whose threshold alpha/mu
is too small for the Gram matrix to resolve takes the full SVD instead and is
counted in ALMDiagnostics.svd_fallbacks. E^(m), Khat and the violations of the
multiplier step are computed in place, in the state's own arrays and one
R x N scratch buffer, so a sweep allocates no R x N temporary besides Q and
the norms' squares.
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
        if self.max_iters < 1:
            raise ValueError(f"ALMConfig.max_iters must be at least 1, got {self.max_iters}")


@dataclass
class ALMState:
    K_list: list                  # M observed (R, N) matrices
    Khat: np.ndarray
    Q: np.ndarray
    E: list
    A: list                       # multipliers for K = Khat + E
    B: np.ndarray                 # multiplier for Khat = Q
    work: np.ndarray              # (R, N) scratch reused by every update
    mu: float
    U: np.ndarray | None = None   # (R, rank Q), orthonormal basis of range(Q)
    svd_fallbacks: int = 0        # update_Q calls whose SVT took the full SVD


@dataclass
class ALMDiagnostics:
    fit_residuals: list = field(default_factory=list)   # max_m ||Khat+E-K||/||K||
    gap_residuals: list = field(default_factory=list)   # ||Khat-Q||/||Khat||
    iterations: int = 0
    converged: bool = False
    U: np.ndarray | None = None   # basis of range(Q) at the last sweep
    svd_fallbacks: int = 0        # sweeps whose SVT took the full SVD


def init_state(K_list, cfg):
    K_list = [np.asarray(K, dtype=float) for K in K_list]
    shape = K_list[0].shape
    for m, K in enumerate(K_list):
        if K.shape != shape:
            raise ValueError(f"view {m} has shape {K.shape}, expected {shape}")
        if not np.all(np.isfinite(K)):
            raise ValueError(f"view {m} contains non-finite entries")
    Kbar = sum(K_list) / len(K_list)
    mu = 1.0 / max(core_math._singular_values(Kbar)[-1], 1e-12)
    Khat = core_math.project_nonneg(Kbar)
    return ALMState(
        K_list=K_list,
        Khat=Khat,
        Q=Khat.copy(),
        E=[np.zeros(shape) for _ in K_list],
        A=[np.zeros(shape) for _ in K_list],
        B=np.zeros(shape),
        work=np.empty(shape),
        mu=float(mu),
    )


def update_Q(state, cfg):
    """Nuclear-norm prox step on the auxiliary variable: the Q-subproblem of
    the Lagrangian, Q = svt(Khat + B/mu, alpha/mu); state.U spans range(Q),
    and a full-SVD fallback is counted in state.svd_fallbacks."""
    target = np.divide(state.B, state.mu, out=state.work)
    target += state.Khat
    Q, state.U, fallback = core_math.svt_with_basis(target, cfg.alpha / state.mu)
    state.svd_fallbacks += fallback
    return Q


def update_E(state, cfg, m):
    """Columnwise shrinkage step on the view-m error: prox of
    (lam/mu) * ||.||_{2,1} at K - Khat - A/mu, written into state.E[m]."""
    E = np.subtract(state.K_list[m], state.Khat, out=state.E[m])
    E -= np.divide(state.A[m], state.mu, out=state.work)
    return core_math.col_l21_prox(E, cfg.lam / state.mu, out=E)


def update_Khat(state, cfg):
    """Average the M+1 quadratic pulls and project onto Khat >= 0, written
    into state.Khat (which no pull reads)."""
    M = len(state.K_list)
    acc = np.subtract(state.Q, np.divide(state.B, state.mu, out=state.work), out=state.Khat)
    for m in range(M):
        acc += state.K_list[m]
        acc -= state.E[m]
        acc -= np.divide(state.A[m], state.mu, out=state.work)
    acc /= M + 1
    return core_math.project_nonneg(acc, out=acc)


def update_multipliers(state, cfg):
    """Gradient-ascent multiplier step and penalty growth (in place). Each
    constraint violation is formed once, measured, scaled by mu and added to
    its multiplier; returns the relative residuals (fit, gap), max_m
    ||Khat+E-K||/||K|| and ||Khat-Q||/||Khat||."""
    viol = state.work    # one R x N buffer holds each violation in turn
    fit = 0.0
    for m, K in enumerate(state.K_list):
        np.add(state.Khat, state.E[m], out=viol)
        viol -= K
        fit = max(fit, np.linalg.norm(viol, "fro") / max(np.linalg.norm(K, "fro"), 1e-12))
        viol *= state.mu
        state.A[m] += viol
    np.subtract(state.Khat, state.Q, out=viol)
    gap = np.linalg.norm(viol, "fro") / max(np.linalg.norm(state.Khat, "fro"), 1e-12)
    viol *= state.mu
    state.B += viol
    state.mu = min(cfg.rho * state.mu, cfg.mu_max)
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
        fit, gap = update_multipliers(state, cfg)
        diag.fit_residuals.append(fit)
        diag.gap_residuals.append(gap)
        diag.iterations = it
        if fit < cfg.tol and gap < cfg.tol:
            diag.converged = True
            break
    diag.U = state.U
    diag.svd_fallbacks = state.svd_fallbacks
    return state.Khat, state.E, diag
