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
into the buffer it already fills. E^(m), Khat and the multipliers are updated
in place, Khat + B/mu is formed in E^(1) (which the E step rebuilds next), and
the column norms' squares and the violations of the multiplier step are
formed in blocks (see core_math.blocks), so a sweep that takes no full SVD
allocates no R x N array, and the state holds 3M+2 of them.

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
        mu=dtype(mu),
    )


def update_Q(state, cfg):
    """Nuclear-norm prox step on the auxiliary variable: the Q-subproblem of
    the Lagrangian, Q = svt(Khat + B/mu, alpha/mu), returned as its factors
    (left, right); state.U spans range(Q), and a full-SVD fallback is counted
    in state.svd_fallbacks. Khat + B/mu is formed in state.E[0], which
    update_E rebuilds before anything reads it."""
    target = np.add(state.Khat, state.B, out=state.E[0])
    left, right, state.U, fallback = core_math.svt_factors(target, cfg.alpha / state.mu)
    state.svd_fallbacks += fallback
    return left, right


def update_E(state, cfg, m):
    """Columnwise shrinkage step on the view-m error: prox of
    (lam/mu) * ||.||_{2,1} at K - Khat - A/mu, written into state.E[m]."""
    E = np.subtract(state.K_list[m], state.Khat, out=state.E[m])
    E -= state.A[m]
    return core_math.col_l21_prox(E, cfg.lam / state.mu, out=E)


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
    constraint violation is formed once, a block of contiguous rows at a time
    (see core_math.blocks), measured and added to its scaled multiplier,
    which is then rescaled by mu/mu_next: the unscaled step A += mu * viol.
    Returns the relative residuals (fit, gap), max_m ||Khat+E-K||/||K|| and
    ||Khat-Q||/||Khat||, each squared norm summed in float64 over the blocks."""
    mu_next = min(cfg.rho * state.mu, _MU_MAX)
    scale = state.mu / mu_next
    left, right = state.Q
    sq = np.zeros(len(state.K_list) + 1)   # ||viol||^2 of each view, then of the gap
    parts = core_math.blocks(*state.Khat.shape)
    # one block of rows, reused; a block that took in a lone last row is longest
    buf = np.empty((max(r.stop - r.start for r in parts), state.Khat.shape[1]), state.Khat.dtype)
    for rows in parts:
        khat = state.Khat[rows]
        viol = buf[:len(khat)]
        for m, K in enumerate(state.K_list):
            np.add(khat, state.E[m][rows], out=viol)
            viol -= K[rows]
            sq[m] += np.vdot(viol, viol)
            A = state.A[m][rows]
            A += viol
            A *= scale
        np.matmul(left[rows], right, out=viol)
        np.subtract(khat, viol, out=viol)
        sq[-1] += np.vdot(viol, viol)
        B = state.B[rows]
        B += viol
        B *= scale
    fit = max(np.sqrt(s) / K_norm for s, K_norm in zip(sq, state.K_norms))
    gap = np.sqrt(sq[-1]) / max(np.linalg.norm(state.Khat, "fro"), 1e-12)
    state.mu = mu_next
    return float(fit), float(gap)


def recover(K_list, cfg=None):
    """Run the inexact-ALM sweep until both relative residuals fall below tol.

    Returns (Khat, E_list, diagnostics); non-convergence within max_iters is
    reported via diagnostics.converged, not raised; diagnostics.U spans the last Q.
    The sweeps run in float32 when every kernel is float32 (see init_state)
    and in float64 otherwise; Khat is returned as float64 either way.
    A sweep holds 3M+2 R x N arrays: K, E and A per view, B and Khat; A and B
    are released before Khat's float64 copy is made.
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
    state.A = state.B = None   # released before Khat's float64 copy
    return state.Khat.astype(float, copy=False), state.E, diag
