"""Inexact-ALM recovery of a consensus low-rank kernelized similarity.

Solves  min  alpha*||Khat||_*  +  lam * sum_m ||E^(m)||_{2,1}
        s.t. K^(m) = Khat + E^(m),  Khat >= 0
by alternating closed-form block updates (Q via singular value thresholding,
E^(m) via columnwise shrinkage, Khat via averaging plus projection) with a
single multiplier/penalty update per sweep.

The multipliers are kept scaled (Boyd et al., ADMM, 2011, section 3.1.1):
ALMState.A[m] holds A^(m)/mu and ALMState.B holds B/mu, so no update divides
an R x N array by mu; the multiplier step rescales both by mu/mu_next.

The thresholding takes its singular pairs from the R x R Gram matrix of
Khat + B/mu (see core_math.svt_factors); a sweep whose threshold alpha/mu
is too small for the Gram matrix to resolve takes the full SVD instead and is
counted in ALMDiagnostics.svd_fallbacks. The low-rank iterate Q is held as its
rank-r factors (left (R, r), right (r, N)), as the inexact ALM of Lin, Chen &
Ma (2010) keeps its partial SVD; each update that reads Q multiplies them out
into the buffer it already fills. E^(m), Khat, the column norms' squares and
the violations of the multiplier step are computed in place, in the state's
own arrays and one R x N scratch buffer, so a sweep that takes no full SVD
allocates no R x N array.

The sweeps compute in the dtype of the kernels: float32 kernels give float32
state, which halves the memory traffic that bounds a sweep, and any other
kernels are taken as float64. The thresholding's Gram matrix and the initial
penalty come from a float64 Gram matrix either way (see core_math._gram).
"""

from dataclasses import dataclass, field

import numpy as np

from . import core_math


# The penalty mu grows by rho per sweep up to this cap.
_MU_MAX = 1e8


@dataclass
class ALMConfig:
    alpha: float = 0.1
    lam: float = 1e-3
    rho: float = 1.3
    tol: float = 1e-6
    max_iters: int = 300

    def __post_init__(self):
        core_math.check_range(self, 0, "lam")
        core_math.check_range(self, 0, "alpha", "tol", strict=True)
        core_math.check_range(self, 1, "rho", strict=True)
        core_math.check_range(self, 1, "max_iters")


@dataclass
class ALMState:
    K_list: list                  # M observed (R, N) matrices
    K_norms: list                 # max(||K^(m)||_F, 1e-12), fixed for the run
    Khat: np.ndarray
    Q: tuple                      # (left (R, r), right (r, N)): Q = left @ right
    E: list
    A: list                       # multipliers for K = Khat + E, divided by mu
    B: np.ndarray                 # multiplier for Khat = Q, divided by mu
    work: np.ndarray              # (R, N) scratch reused by every update
    mu: float                     # np.float32 in float32 state
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


def init_state(K_list):
    """The state before the first sweep. Every array has the dtype of the
    kernels when they are all float32, and is float64 otherwise; mu is a
    scalar of that dtype, so every step stays in it."""
    dtype = np.float32 if all(np.asarray(K).dtype == np.float32 for K in K_list) else float
    K_list = [np.asarray(K, dtype=dtype) for K in K_list]
    shape = K_list[0].shape
    for m, K in enumerate(K_list):
        if K.shape != shape:
            raise ValueError(f"view {m} has shape {K.shape}, expected {shape}")
        if not np.all(np.isfinite(K)):
            raise ValueError(f"view {m} contains non-finite entries")
    Khat = K_list[0].copy()   # the view average Kbar, projected in place below
    for K in K_list[1:]:
        Khat += K
    Khat /= len(K_list)
    mu = 1.0 / max(core_math._singular_values(Khat)[-1], 1e-12)
    core_math.project_nonneg(Khat, out=Khat)
    return ALMState(
        K_list=K_list,
        K_norms=[max(np.linalg.norm(K, "fro"), 1e-12) for K in K_list],
        Khat=Khat,
        Q=(np.zeros((shape[0], 0), dtype), np.zeros((0, shape[1]), dtype)),  # Q = 0 until update_Q
        E=[np.zeros(shape, dtype) for _ in K_list],
        A=[np.zeros(shape, dtype) for _ in K_list],
        B=np.zeros(shape, dtype),
        work=np.empty(shape, dtype),
        mu=dtype(mu),
    )


def update_Q(state, cfg):
    """Nuclear-norm prox step on the auxiliary variable: the Q-subproblem of
    the Lagrangian, Q = svt(Khat + B/mu, alpha/mu), returned as its factors
    (left, right); state.U spans range(Q), and a full-SVD fallback is counted
    in state.svd_fallbacks."""
    target = np.add(state.Khat, state.B, out=state.work)
    left, right, state.U, fallback = core_math.svt_factors(target, cfg.alpha / state.mu)
    state.svd_fallbacks += fallback
    return left, right


def update_E(state, cfg, m):
    """Columnwise shrinkage step on the view-m error: prox of
    (lam/mu) * ||.||_{2,1} at K - Khat - A/mu, written into state.E[m]."""
    E = np.subtract(state.K_list[m], state.Khat, out=state.E[m])
    E -= state.A[m]
    return core_math.col_l21_prox(E, cfg.lam / state.mu, out=E, work=state.work)


def update_Khat(state, cfg):
    """Average the M+1 quadratic pulls and project onto Khat >= 0, written
    into state.Khat (which no pull reads)."""
    M = len(state.K_list)
    acc = np.matmul(*state.Q, out=state.Khat)
    acc -= state.B
    for m in range(M):
        acc += state.K_list[m]
        acc -= state.E[m]
        acc -= state.A[m]
    acc /= M + 1
    return core_math.project_nonneg(acc, out=acc)


def update_multipliers(state, cfg):
    """Gradient-ascent multiplier step and penalty growth (in place). Each
    constraint violation is formed once, measured and added to its scaled
    multiplier, which is then rescaled by mu/mu_next: the unscaled step
    A += mu * viol. Returns the relative residuals (fit, gap), max_m
    ||Khat+E-K||/||K|| and ||Khat-Q||/||Khat||."""
    viol = state.work    # one R x N buffer holds each violation in turn
    mu_next = min(cfg.rho * state.mu, _MU_MAX)
    fit = 0.0
    for m, (K, K_norm) in enumerate(zip(state.K_list, state.K_norms)):
        np.add(state.Khat, state.E[m], out=viol)
        viol -= K
        fit = max(fit, np.linalg.norm(viol, "fro") / K_norm)
        state.A[m] += viol
        state.A[m] *= state.mu / mu_next
    np.matmul(*state.Q, out=viol)
    np.subtract(state.Khat, viol, out=viol)
    gap = np.linalg.norm(viol, "fro") / max(np.linalg.norm(state.Khat, "fro"), 1e-12)
    state.B += viol
    state.B *= state.mu / mu_next
    state.mu = mu_next
    return float(fit), float(gap)


def recover(K_list, cfg=None):
    """Run the inexact-ALM sweep until both relative residuals fall below tol.

    Returns (Khat, E_list, diagnostics); non-convergence within max_iters is
    reported via diagnostics.converged, not raised; diagnostics.U spans the last Q.
    The sweeps run in float32 when every kernel is float32 (see init_state)
    and in float64 otherwise; Khat is returned as float64 either way.
    A sweep holds 3M+3 R x N arrays: K, E and A per view, B, Khat and work;
    A, B and work are released before Khat's float64 copy is made.
    """
    cfg = cfg or ALMConfig()
    state = init_state(K_list)
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
    state.A = state.B = state.work = None   # released before Khat's float64 copy
    return state.Khat.astype(float, copy=False), state.E, diag
