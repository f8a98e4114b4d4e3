import tracemalloc

import numpy as np
import pytest

from rmvhash import core_math, lowrank_alm
from rmvhash.lowrank_alm import ALMConfig


def planted_nonneg_lowrank(rng, rows, cols, rank, scale=1.0):
    u = rng.uniform(0.1, 1.0, (rows, rank))
    v = rng.uniform(0.1, 1.0, (rank, cols))
    return scale * u @ v / rank


def corrupt_columns(rng, mtx, idx):
    out = mtx.copy()
    out[:, idx] = rng.uniform(0.0, 1.0, (mtx.shape[0], len(idx)))
    return out


def make_state(seed=0, M=2, shape=(8, 20)):
    rng = np.random.default_rng(seed)
    K_list = [np.abs(rng.normal(size=shape)) for _ in range(M)]
    cfg = ALMConfig(alpha=0.5, lam=0.1)
    state = lowrank_alm.init_state(K_list)
    state.B = rng.normal(size=shape) * 0.1
    state.A = [rng.normal(size=shape) * 0.1 for _ in range(M)]
    state.E = [rng.normal(size=shape) * 0.05 for _ in range(M)]
    state.Q = (rng.normal(size=(shape[0], 2)), rng.normal(size=(2, shape[1])))
    return state, cfg


def as_factors(q):
    """A dense Q in the factor form ALMState.Q holds, (I, Q): the product
    I @ Q reproduces Q exactly."""
    return np.eye(q.shape[0]), q.copy()


class TestRecover:
    def test_identical_views_consensus(self):
        # all views equal a rank-1 nonneg matrix: Khat must reproduce it
        rng = np.random.default_rng(0)
        K = planted_nonneg_lowrank(rng, 12, 40, 1)
        cfg = ALMConfig(alpha=1e-3, lam=1.0)
        Khat, E_list, diag = lowrank_alm.recover([K.copy() for _ in range(3)], cfg)
        rel = np.linalg.norm(Khat - K) / np.linalg.norm(K)
        assert rel < 1e-3
        for K_m, E in zip([K] * 3, E_list):
            assert np.linalg.norm(E) / np.linalg.norm(K_m) < 1e-3

    def test_single_view_column_corruption(self):
        # outlier-pursuit setting: corrupted columns carry no clean
        # observation, so accuracy is asserted on the clean columns and
        # support identification on the E column norms
        rng = np.random.default_rng(1)
        Kstar = planted_nonneg_lowrank(rng, 40, 200, 3)
        idx = rng.choice(200, size=10, replace=False)
        K = corrupt_columns(rng, Kstar, idx)
        cfg = ALMConfig(alpha=1.0, lam=0.3, rho=1.05, max_iters=400)
        Khat, E_list, diag = lowrank_alm.recover([K], cfg)
        clean = np.setdiff1d(np.arange(200), idx)
        rel = np.linalg.norm(Khat[:, clean] - Kstar[:, clean]) / np.linalg.norm(
            Kstar[:, clean]
        )
        assert rel < 1e-2
        norms = np.linalg.norm(E_list[0], axis=0)
        found = set(np.nonzero(norms > 0.1 * norms.max())[0])
        assert len(found & set(idx)) >= 0.9 * len(idx)

    def test_last_fit_residual_matches_returned_state(self):
        rng = np.random.default_rng(26)
        K_list = [np.abs(rng.normal(size=(8, 20))) for _ in range(3)]
        Khat, E_list, diag = lowrank_alm.recover(K_list, ALMConfig(alpha=0.5, lam=0.1))
        fit = max(
            np.linalg.norm(Khat + E - K) / np.linalg.norm(K) for K, E in zip(K_list, E_list)
        )
        assert diag.fit_residuals[-1] == pytest.approx(fit, rel=1e-12)

    def test_stopping_contract(self):
        rng = np.random.default_rng(2)
        K_list = [np.abs(rng.normal(size=(10, 30))) for _ in range(2)]
        cfg = ALMConfig(alpha=0.5, lam=0.05, tol=1e-6)
        Khat, E_list, diag = lowrank_alm.recover(K_list, cfg)
        if diag.converged:
            assert diag.fit_residuals[-1] <= 1e-6
            assert diag.gap_residuals[-1] <= 1e-6

    def test_nonconvergence_reported_not_raised(self):
        rng = np.random.default_rng(3)
        K_list = [np.abs(rng.normal(size=(6, 15)))]
        cfg = ALMConfig(alpha=0.5, lam=0.05, max_iters=2)
        _, _, diag = lowrank_alm.recover(K_list, cfg)
        assert not diag.converged
        assert diag.iterations == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lowrank_alm.recover([np.ones((3, 4)), np.ones((3, 5))], ALMConfig())

    def test_view_order_invariance(self):
        rng = np.random.default_rng(4)
        K_list = [np.abs(rng.normal(size=(8, 25))) for _ in range(3)]
        cfg = ALMConfig(alpha=0.5, lam=0.1)
        Khat_a, E_a, _ = lowrank_alm.recover(K_list, cfg)
        Khat_b, E_b, _ = lowrank_alm.recover(K_list[::-1], cfg)
        np.testing.assert_allclose(Khat_a, Khat_b, atol=1e-8)
        for ea, eb in zip(E_a, E_b[::-1]):
            np.testing.assert_allclose(ea, eb, atol=1e-8)

    def test_huge_lambda_kills_errors(self):
        rng = np.random.default_rng(5)
        K = np.abs(rng.normal(size=(10, 30)))
        cfg = ALMConfig(alpha=0.5, lam=1e7)
        Khat, E_list, diag = lowrank_alm.recover([K.copy(), K.copy()], cfg)
        for E in E_list:
            assert np.linalg.norm(E) / np.linalg.norm(K) < 1e-6

    def test_rank_bound_on_planted_instance(self):
        rng = np.random.default_rng(6)
        Kstar = planted_nonneg_lowrank(rng, 30, 120, 4)
        K_list = [Kstar.copy() for _ in range(2)]
        cfg = ALMConfig(alpha=0.05, lam=1.0)
        Khat, _, diag = lowrank_alm.recover(K_list, cfg)
        s = np.linalg.svd(Khat, compute_uv=False)
        rank = int(np.sum(s > 1e-6 * s[0]))
        assert rank <= 4 + 2


def reference_recover(K_list, cfg):
    """The inexact-ALM sweep written out of place, with the multipliers scaled
    by 1/mu as lowrank_alm keeps them: every update builds fresh arrays, in
    the operation order of lowrank_alm. Returns (Khat, sweeps)."""
    M = len(K_list)
    Kbar = sum(K_list) / M
    mu = 1.0 / max(np.sqrt(np.linalg.eigvalsh(Kbar @ Kbar.T)[-1]), 1e-12)
    Khat = np.maximum(Kbar, 0.0)
    Q, b = Khat.copy(), np.zeros_like(Khat)
    a = [np.zeros_like(Khat) for _ in K_list]
    for it in range(1, cfg.max_iters + 1):
        Q = core_math.svt(Khat + b, cfg.alpha / mu)
        E = [core_math.col_l21_prox(K - Khat - a_m, cfg.lam / mu) for K, a_m in zip(K_list, a)]
        acc = Q - b
        for K, e, a_m in zip(K_list, E, a):
            acc = acc + K - e - a_m
        Khat = np.maximum(acc / (M + 1), 0.0)
        fit = max(
            np.linalg.norm(Khat + e - K, "fro") / max(np.linalg.norm(K, "fro"), 1e-12)
            for K, e in zip(K_list, E)
        )
        gap = np.linalg.norm(Khat - Q, "fro") / max(np.linalg.norm(Khat, "fro"), 1e-12)
        mu_next = min(cfg.rho * mu, lowrank_alm._MU_MAX)
        a = [(a_m + (Khat + e - K)) * (mu / mu_next) for K, e, a_m in zip(K_list, E, a)]
        b = (b + (Khat - Q)) * (mu / mu_next)
        mu = mu_next
        if fit < cfg.tol and gap < cfg.tol:
            break
    return Khat, it


def unscaled_reference_recover(K_list, cfg):
    """The same sweep with unscaled multipliers A and B, each divided by mu
    where the Lagrangian needs it: an independent oracle, equal to
    reference_recover in exact arithmetic. Returns (Khat, sweeps)."""
    M = len(K_list)
    Kbar = sum(K_list) / M
    mu = 1.0 / max(np.sqrt(np.linalg.eigvalsh(Kbar @ Kbar.T)[-1]), 1e-12)
    Khat = np.maximum(Kbar, 0.0)
    Q, B = Khat.copy(), np.zeros_like(Khat)
    A = [np.zeros_like(Khat) for _ in K_list]
    for it in range(1, cfg.max_iters + 1):
        Q = core_math.svt(Khat + B / mu, cfg.alpha / mu)
        E = [core_math.col_l21_prox(K - Khat - a / mu, cfg.lam / mu) for K, a in zip(K_list, A)]
        acc = Q - B / mu
        for K, e, a in zip(K_list, E, A):
            acc = acc + K - e - a / mu
        Khat = np.maximum(acc / (M + 1), 0.0)
        fit = max(
            np.linalg.norm(Khat + e - K, "fro") / max(np.linalg.norm(K, "fro"), 1e-12)
            for K, e in zip(K_list, E)
        )
        gap = np.linalg.norm(Khat - Q, "fro") / max(np.linalg.norm(Khat, "fro"), 1e-12)
        A = [a + (Khat + e - K) * mu for K, e, a in zip(K_list, E, A)]
        B = B + (Khat - Q) * mu
        mu = min(cfg.rho * mu, lowrank_alm._MU_MAX)
        if fit < cfg.tol and gap < cfg.tol:
            break
    return Khat, it


def planted_views(seed):
    """Three views of one planted rank-3 nonnegative 20 x 80 matrix, each
    with 4 corrupted columns."""
    rng = np.random.default_rng(seed)
    Kstar = planted_nonneg_lowrank(rng, 20, 80, 3)
    return [corrupt_columns(rng, Kstar, rng.choice(80, 4, replace=False)) for _ in range(3)]


class TestInPlaceSweep:
    def test_matches_out_of_place_reference(self):
        K_list = planted_views(27)
        cfg = ALMConfig(alpha=0.05, lam=0.3)
        Khat, _, diag = lowrank_alm.recover(K_list, cfg)
        want, sweeps = reference_recover(K_list, cfg)
        assert diag.converged
        assert diag.iterations == sweeps
        np.testing.assert_array_equal(Khat, want)

    @pytest.mark.parametrize("seed", [27, 31, 32])
    def test_matches_unscaled_reference(self, seed):
        # scaling the multipliers by 1/mu moves only the rounding
        K_list = planted_views(seed)
        cfg = ALMConfig(alpha=0.05, lam=0.3)
        Khat, _, diag = lowrank_alm.recover(K_list, cfg)
        want, sweeps = unscaled_reference_recover(K_list, cfg)
        assert diag.converged
        assert diag.iterations == sweeps
        assert np.linalg.norm(Khat - want) <= 1e-12 * np.linalg.norm(want)

    def test_updates_leave_inputs_and_multipliers(self):
        state, cfg = make_state(seed=28, M=3)
        before = [x.copy() for x in (*state.K_list, *state.A, state.B)]
        khat = state.Khat.copy()
        lowrank_alm.update_Q(state, cfg)
        np.testing.assert_array_equal(state.Khat, khat)
        for m in range(3):
            e = lowrank_alm.update_E(state, cfg, m)
            assert e is state.E[m]
        lowrank_alm.update_Khat(state, cfg)
        for x, x0 in zip((*state.K_list, *state.A, state.B), before):
            np.testing.assert_array_equal(x, x0)


class TestSweepMemory:
    def test_sweep_allocates_no_full_size_array(self):
        # Q is held as rank-r factors and the column norms' squares go to the
        # scratch buffer, so after the first sweep the peak of a sweep's
        # allocations stays below one R x N array
        rng = np.random.default_rng(33)
        Kstar = planted_nonneg_lowrank(rng, 40, 2000, 3)
        K_list = [corrupt_columns(rng, Kstar, rng.choice(2000, 40, replace=False))
                  for _ in range(3)]
        cfg = ALMConfig(alpha=0.05, lam=0.3)
        state = lowrank_alm.init_state(K_list)

        def sweep():
            state.Q = lowrank_alm.update_Q(state, cfg)
            for m in range(3):
                state.E[m] = lowrank_alm.update_E(state, cfg, m)
            state.Khat = lowrank_alm.update_Khat(state, cfg)
            lowrank_alm.update_multipliers(state, cfg)

        sweep()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.svd_fallbacks == 0
        r = state.U.shape[1]
        assert 0 < r < 40
        assert state.Q[0].shape == (40, r) and state.Q[1].shape == (r, 2000)
        assert (peak - base) / Kstar.nbytes < 1

    def test_recover_peak_is_the_sweep_state(self):
        # In units of one float32 R x N array, M = 2: the sweep holds E and A
        # per view, B and Khat, 6 units, and forms Khat + B/mu in E[0] and the
        # violations in row blocks. A and B are released before Khat's float64
        # copy (2 units) is made, so the peak stays near 6 (6.54 here); one
        # more R x N scratch buffer in the state would make it 7.5.
        rng = np.random.default_rng(33)
        Kstar = planted_nonneg_lowrank(rng, 40, 8000, 3)
        K_list = [
            corrupt_columns(rng, Kstar, rng.choice(8000, 40, replace=False)).astype(np.float32)
            for _ in range(2)
        ]
        tracemalloc.start()
        try:
            Khat, _, diag = lowrank_alm.recover(K_list, ALMConfig(alpha=0.05, lam=0.3, max_iters=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Khat.dtype == np.float64 and diag.svd_fallbacks == 0
        assert peak / K_list[0].nbytes < 7.0


class TestSvdFallback:
    def test_tiny_alpha_counts_fallbacks(self, monkeypatch):
        # alpha/mu falls below 1e3*sqrt(eps)*s_max as mu grows by rho each
        # sweep (from the fourth of seven on); those sweeps take the full SVD
        # and are counted
        rng = np.random.default_rng(29)
        K_list = [planted_nonneg_lowrank(rng, 10, 40, 2) + 0.01 * rng.random((10, 40))
                  for _ in range(2)]
        cfg = ALMConfig(alpha=3e-5, lam=0.3)
        svt = core_math.svt_factors
        ratios = []

        def recording(mtx, tau):
            ratios.append(tau / np.linalg.norm(mtx, 2))
            return svt(mtx, tau)

        monkeypatch.setattr(core_math, "svt_factors", recording)
        Khat, E_list, diag = lowrank_alm.recover(K_list, cfg)
        want = sum(r <= core_math._GRAM_MIN_TAU for r in ratios)
        assert 0 < diag.svd_fallbacks == want < diag.iterations
        assert diag.converged
        assert max(diag.fit_residuals[-1], diag.gap_residuals[-1]) < cfg.tol
        fit = max(np.linalg.norm(Khat + E - K) / np.linalg.norm(K) for K, E in zip(K_list, E_list))
        assert diag.fit_residuals[-1] == pytest.approx(fit, rel=1e-12)

    def test_no_fallback_at_default_settings(self):
        rng = np.random.default_rng(30)
        K_list = [np.abs(rng.normal(size=(8, 20))) for _ in range(2)]
        _, _, diag = lowrank_alm.recover(K_list, ALMConfig(alpha=0.5, lam=0.1))
        assert diag.svd_fallbacks == 0


class TestUpdateQ:
    def test_diagonal_svt(self):
        state, cfg = make_state(seed=7, M=1, shape=(2, 2))
        state.Khat = np.diag([3.0, 1.0])
        state.B = np.zeros((2, 2))
        state.mu = cfg.alpha  # threshold alpha / mu = 1
        q = np.matmul(*lowrank_alm.update_Q(state, cfg))
        np.testing.assert_allclose(
            np.linalg.svd(q, compute_uv=False), [2.0, 0.0], atol=1e-12
        )

    def test_vanishing_threshold(self):
        state, cfg = make_state(seed=8)
        state.mu = 1e12
        q = np.matmul(*lowrank_alm.update_Q(state, cfg))
        target = state.Khat + state.B  # state.B holds B/mu
        np.testing.assert_allclose(q, target, atol=1e-8)

    def test_perturbation_oracle(self):
        # exact mode minimizes alpha*||Q||_* + (mu/2)||Q - (Khat + B/mu)||^2
        state, cfg = make_state(seed=9, M=1)
        state.mu = 2.0
        q = np.matmul(*lowrank_alm.update_Q(state, cfg))
        target = state.Khat + state.B

        def obj(x):
            return cfg.alpha * np.sum(np.linalg.svd(x, compute_uv=False)) + (
                state.mu / 2
            ) * np.sum((x - target) ** 2)

        rng = np.random.default_rng(10)
        base = obj(q)
        for _ in range(300):
            pert = rng.normal(size=q.shape)
            pert *= 1e-3 / np.linalg.norm(pert)
            assert obj(q + pert) >= base - 1e-12


class TestUpdateE:
    def test_dead_zone_column(self):
        state, cfg = make_state(seed=11, M=1)
        state.mu = 1.0
        cfg.lam = 1e6  # every residual column norm is below lam/mu
        e = lowrank_alm.update_E(state, cfg, 0)
        np.testing.assert_array_equal(e, 0.0)

    def test_lambda_zero_returns_residual(self):
        state, cfg = make_state(seed=12, M=2)
        cfg.lam = 0.0
        e = lowrank_alm.update_E(state, cfg, 1)
        resid = state.K_list[1] - state.Khat - state.A[1]  # state.A[m] holds A/mu
        np.testing.assert_allclose(e, resid, atol=1e-14)

    def test_grid_oracle(self):
        state, cfg = make_state(seed=13, M=1)
        state.mu = 0.7
        cfg.lam = 0.2
        e = lowrank_alm.update_E(state, cfg, 0)
        resid = state.K_list[0] - state.Khat - state.A[0]
        kappa = cfg.lam / state.mu

        def obj(x):
            return kappa * np.sum(np.linalg.norm(x, axis=0)) + 0.5 * np.sum(
                (x - resid) ** 2
            )

        # columnwise brute force over the scaling factor
        e_grid = np.zeros_like(resid)
        for i in range(resid.shape[1]):
            col = resid[:, i]
            scales = np.linspace(0, 1, 4001)
            vals = [
                kappa * s * np.linalg.norm(col) + 0.5 * (1 - s) ** 2 * col @ col
                for s in scales
            ]
            e_grid[:, i] = scales[int(np.argmin(vals))] * col
        assert obj(e) <= obj(e_grid) + 1e-9


class TestUpdateKhat:
    def test_fixed_point(self):
        state, cfg = make_state(seed=15, M=2)
        target = np.abs(np.random.default_rng(16).normal(size=state.Khat.shape))
        state.Q = as_factors(target)
        state.B = np.zeros_like(target)
        for m in range(2):
            state.E[m] = state.K_list[m] - target
            state.A[m] = np.zeros_like(target)
        out = lowrank_alm.update_Khat(state, cfg)
        np.testing.assert_allclose(out, target, atol=1e-12)

    def test_negative_entries_zeroed(self):
        state, cfg = make_state(seed=17, M=1)
        state.Q = (np.full((state.Khat.shape[0], 1), -5.0), np.ones((1, state.Khat.shape[1])))
        state.B = np.zeros_like(state.Khat)
        state.E[0] = state.K_list[0].copy()  # K - E = 0
        state.A[0] = np.zeros_like(state.Khat)
        out = lowrank_alm.update_Khat(state, cfg)
        np.testing.assert_array_equal(out, 0.0)

    def test_perturbation_oracle(self):
        state, cfg = make_state(seed=18, M=2)
        out = lowrank_alm.update_Khat(state, cfg)
        M = len(state.K_list)
        c = (
            np.matmul(*state.Q)
            - state.B
            + sum(state.K_list[m] - state.E[m] - state.A[m] for m in range(M))
        ) / (M + 1)

        def obj(x):
            return 0.5 * np.sum((x - c) ** 2)

        rng = np.random.default_rng(19)
        base = obj(out)
        for _ in range(1000):
            pert = rng.normal(size=out.shape) * 1e-3
            cand = np.maximum(out + pert, 0.0)  # stay feasible
            assert obj(cand) >= base - 1e-12


class TestUpdateMultipliers:
    def test_feasible_state_leaves_multipliers(self):
        state, cfg = make_state(seed=21, M=2)
        state.Q = as_factors(state.Khat)
        for m in range(2):
            state.K_list[m] = state.Khat + state.E[m]
        a_before = [a.copy() for a in state.A]
        b_before = state.B.copy()
        mu_before = state.mu
        assert lowrank_alm.update_multipliers(state, cfg) == (0.0, 0.0)
        # the unscaled multipliers mu * A and mu * B stay put
        for a, a0 in zip(state.A, a_before):
            np.testing.assert_allclose(a * state.mu, a0 * mu_before, atol=1e-12)
        np.testing.assert_allclose(state.B * state.mu, b_before * mu_before, atol=1e-12)
        assert state.mu == pytest.approx(cfg.rho * mu_before)

    @pytest.mark.parametrize("mu", [0.7, lowrank_alm._MU_MAX])
    def test_step_is_unscaled_ascent(self, mu):
        # mu_next * A_next = mu * A + mu * (Khat + E - K), and likewise for B
        state, cfg = make_state(seed=25, M=2)
        state.mu = mu
        state.Q = as_factors(state.Khat + 0.01)
        a0, b0 = [a.copy() for a in state.A], state.B.copy()
        lowrank_alm.update_multipliers(state, cfg)
        assert state.mu == min(cfg.rho * mu, lowrank_alm._MU_MAX)
        for m in range(2):
            want = mu * a0[m] + mu * (state.Khat + state.E[m] - state.K_list[m])
            np.testing.assert_allclose(state.A[m] * state.mu, want, rtol=1e-13, atol=1e-15 * mu)
        want = mu * b0 + mu * (state.Khat - np.matmul(*state.Q))
        np.testing.assert_allclose(state.B * state.mu, want, rtol=1e-13, atol=1e-15 * mu)

    def test_row_blocks_match_one_block(self, monkeypatch):
        # at 3 rows a block the 7 rows of make_state are walked as 3 and 4:
        # the multipliers are the one-block step's, bit for bit, and only the
        # residuals' sums of squares are ordered differently
        whole, cfg = make_state(seed=26, M=2, shape=(7, 20))
        blocked, _ = make_state(seed=26, M=2, shape=(7, 20))
        want = lowrank_alm.update_multipliers(whole, cfg)
        monkeypatch.setattr(core_math, "_BLOCK", 3 * 20)
        assert [r.stop for r in core_math.blocks(7, 20)] == [3, 7]
        got = lowrank_alm.update_multipliers(blocked, cfg)
        np.testing.assert_allclose(got, want, rtol=1e-13)
        for x, x0 in zip((*blocked.A, blocked.B), (*whole.A, whole.B)):
            np.testing.assert_array_equal(x, x0)

    def test_mu_cap(self):
        state, cfg = make_state(seed=22)
        state.mu = lowrank_alm._MU_MAX / 1.01
        lowrank_alm.update_multipliers(state, cfg)
        assert state.mu == lowrank_alm._MU_MAX == 1e8
        lowrank_alm.update_multipliers(state, cfg)
        assert state.mu == lowrank_alm._MU_MAX

    def test_residual_decreases_across_sweeps(self):
        rng = np.random.default_rng(23)
        K_list = [np.abs(rng.normal(size=(8, 20))) for _ in range(2)]
        cfg = ALMConfig(alpha=0.5, lam=0.1, max_iters=40)
        _, _, diag = lowrank_alm.recover(K_list, cfg)
        # after burn-in the max primal residual trends down sweep over sweep,
        # allowing the small plateau jitter of inexact ALM
        fit = diag.fit_residuals
        assert len(fit) > 10
        for a, b in zip(fit[5:], fit[6:]):
            assert b <= a * 1.5
        # and every 5-sweep window achieves a strict decrease
        for i in range(5, len(fit) - 5):
            assert fit[i + 5] < fit[i]


class TestInvariants:
    def test_khat_constraint_after_every_update(self):
        rng = np.random.default_rng(24)
        K_list = [np.abs(rng.normal(size=(6, 18))) for _ in range(2)]
        cfg = ALMConfig(alpha=0.5, lam=0.1)
        state = lowrank_alm.init_state(K_list)
        for _ in range(10):
            state.Q = lowrank_alm.update_Q(state, cfg)
            for m in range(2):
                state.E[m] = lowrank_alm.update_E(state, cfg, m)
            state.Khat = lowrank_alm.update_Khat(state, cfg)
            assert state.Khat.min() >= 0
            lowrank_alm.update_multipliers(state, cfg)


class TestFloat32:
    """float32 kernels give float32 sweeps; every other input runs in float64."""

    @staticmethod
    def float32_views(seed):
        return [K.astype(np.float32) for K in planted_views(seed)]

    def test_matches_out_of_place_reference(self, monkeypatch):
        # the reference takes its starting mu from a float32 Gram matrix and
        # recover from a float64 one; given the reference's mu, every sweep
        # matches it bit for bit
        monkeypatch.setattr(
            core_math, "_singular_values",
            lambda m: np.sqrt(np.maximum(np.linalg.eigvalsh(m @ m.T), 0.0)),
        )
        K_list = self.float32_views(27)
        cfg = ALMConfig(alpha=0.05, lam=0.3)
        Khat, E_list, diag = lowrank_alm.recover(K_list, cfg)
        want, sweeps = reference_recover(K_list, cfg)
        assert want.dtype == np.float32 and Khat.dtype == np.float64
        assert all(E.dtype == np.float32 for E in E_list)
        assert diag.converged
        assert diag.iterations == sweeps
        np.testing.assert_array_equal(Khat, want)

    def test_float32_state_and_sweep_memory(self):
        # the float64 Gram matrix is formed in column blocks, so a float32
        # sweep still allocates less than one R x N float32 array
        rng = np.random.default_rng(33)
        Kstar = planted_nonneg_lowrank(rng, 40, 4000, 3).astype(np.float32)
        K_list = [corrupt_columns(rng, Kstar, rng.choice(4000, 80, replace=False))
                  for _ in range(3)]
        cfg = ALMConfig(alpha=0.05, lam=0.3)
        state = lowrank_alm.init_state(K_list)
        arrays = [*state.K_list, *state.E, *state.A, state.B, state.Khat]
        assert all(x.dtype == np.float32 for x in arrays)
        assert state.mu.dtype == np.float32
        assert all(K is K0 for K, K0 in zip(state.K_list, K_list))

        def sweep():
            state.Q = lowrank_alm.update_Q(state, cfg)
            for m in range(3):
                state.E[m] = lowrank_alm.update_E(state, cfg, m)
            state.Khat = lowrank_alm.update_Khat(state, cfg)
            lowrank_alm.update_multipliers(state, cfg)

        sweep()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.svd_fallbacks == 0
        assert 0 < state.U.shape[1] < 40
        assert all(x.dtype == np.float32 for x in (*state.Q, *state.E, state.Khat, state.B))
        assert (peak - base) / Kstar.nbytes < 1

    @pytest.mark.parametrize("K_list", [
        [np.ones((3, 4), np.float32), np.ones((3, 4))],
        [np.ones((3, 4), np.float16)],
        [[[1, 2], [3, 4]]],
    ])
    def test_other_input_runs_in_float64(self, K_list):
        state = lowrank_alm.init_state(K_list)
        assert all(x.dtype == np.float64 for x in (*state.K_list, state.Khat))

    def test_planted_recovery_in_float32(self):
        # criterion 2's planted settings, handed float32 kernels
        from test_acceptance import planted_instance
        Kstar, K_list, supports = planted_instance()
        cfg = ALMConfig(alpha=0.01, lam=1.0, rho=1.05, max_iters=300, tol=1e-6)
        Khat, E_list, diag = lowrank_alm.recover([K.astype(np.float32) for K in K_list], cfg)
        assert diag.converged and diag.fit_residuals[-1] < 1e-6
        assert np.linalg.norm(Khat - Kstar) <= 1e-2 * np.linalg.norm(Kstar)
        for E, support in zip(E_list, supports):
            top = np.argsort(np.linalg.norm(E, axis=0))[-len(support):]
            assert len(set(top.tolist()) & support) >= 0.9 * len(support)

    def test_matches_float64_on_criterion_6_kernels(self):
        # the view kernels train builds on criterion 6's recipe at seed 0
        from rmvhash import dataset, kernel_sim
        ds = dataset.synth_multiview(10, 200, (32, 48), seed=0)
        corrupted = dataset.corrupt(ds, dataset.CorruptionSpec("gaussian-fraction", 0.2, 0))
        db, _ = dataset.split(corrupted, 200, seed=0)
        klm = kernel_sim.select_kernel_landmarks(db, 100, seed=0)
        K_list = kernel_sim.build_view_kernels(db, klm, kernel_sim.tune_config(db, klm))
        want, _, diag64 = lowrank_alm.recover(K_list)
        got, _, diag32 = lowrank_alm.recover([K.astype(np.float32) for K in K_list])
        assert diag32.U.shape[1] == diag64.U.shape[1] > 0
        assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)
