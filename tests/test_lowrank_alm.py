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
    state = lowrank_alm.init_state(K_list, cfg)
    state.B = rng.normal(size=shape) * 0.1
    state.A = [rng.normal(size=shape) * 0.1 for _ in range(M)]
    state.E = [rng.normal(size=shape) * 0.05 for _ in range(M)]
    return state, cfg


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
    """The inexact-ALM sweep written out of place: every update builds fresh
    arrays, in the operation order of lowrank_alm. Returns (Khat, sweeps)."""
    M = len(K_list)
    Kbar = sum(K_list) / M
    mu = 1.0 / max(np.sqrt(np.linalg.eigvalsh(Kbar @ Kbar.T)[-1]), 1e-12)
    Khat = np.maximum(Kbar, 0.0)
    Q, B = Khat.copy(), np.zeros_like(Khat)
    A = [np.zeros_like(Khat) for _ in K_list]
    for it in range(1, cfg.max_iters + 1):
        Q = core_math.svt_with_basis(Khat + B / mu, cfg.alpha / mu)[0]
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
        mu = min(cfg.rho * mu, cfg.mu_max)
        if fit < cfg.tol and gap < cfg.tol:
            break
    return Khat, it


class TestInPlaceSweep:
    def test_matches_out_of_place_reference(self):
        rng = np.random.default_rng(27)
        Kstar = planted_nonneg_lowrank(rng, 20, 80, 3)
        K_list = [corrupt_columns(rng, Kstar, rng.choice(80, 4, replace=False)) for _ in range(3)]
        cfg = ALMConfig(alpha=0.05, lam=0.3)
        Khat, _, diag = lowrank_alm.recover(K_list, cfg)
        want, sweeps = reference_recover(K_list, cfg)
        assert diag.converged
        assert diag.iterations == sweeps
        np.testing.assert_array_equal(Khat, want)

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


class TestSvdFallback:
    def test_tiny_alpha_counts_fallbacks(self, monkeypatch):
        # alpha/mu falls below 1e3*sqrt(eps)*s_max as mu grows to mu_max (from
        # the fourth sweep on); those sweeps take the full SVD and are counted
        rng = np.random.default_rng(29)
        K_list = [planted_nonneg_lowrank(rng, 10, 40, 2) + 0.01 * rng.random((10, 40))
                  for _ in range(2)]
        cfg = ALMConfig(alpha=3e-5, lam=0.3, mu_max=0.5)
        svt = core_math.svt_with_basis
        ratios = []

        def recording(mtx, tau):
            ratios.append(tau / np.linalg.norm(mtx, 2))
            return svt(mtx, tau)

        monkeypatch.setattr(core_math, "svt_with_basis", recording)
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
        q = lowrank_alm.update_Q(state, cfg)
        np.testing.assert_allclose(
            np.linalg.svd(q, compute_uv=False), [2.0, 0.0], atol=1e-12
        )

    def test_vanishing_threshold(self):
        state, cfg = make_state(seed=8)
        state.mu = 1e12
        q = lowrank_alm.update_Q(state, cfg)
        target = state.Khat + state.B / state.mu
        np.testing.assert_allclose(q, target, atol=1e-8)

    def test_perturbation_oracle(self):
        # exact mode minimizes alpha*||Q||_* + (mu/2)||Q - (Khat + B/mu)||^2
        state, cfg = make_state(seed=9, M=1)
        state.mu = 2.0
        q = lowrank_alm.update_Q(state, cfg)
        target = state.Khat + state.B / state.mu

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
        resid = state.K_list[1] - state.Khat - state.A[1] / state.mu
        np.testing.assert_allclose(e, resid, atol=1e-14)

    def test_grid_oracle(self):
        state, cfg = make_state(seed=13, M=1)
        state.mu = 0.7
        cfg.lam = 0.2
        e = lowrank_alm.update_E(state, cfg, 0)
        resid = state.K_list[0] - state.Khat - state.A[0] / state.mu
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
        state.Q = target.copy()
        state.B = np.zeros_like(target)
        for m in range(2):
            state.E[m] = state.K_list[m] - target
            state.A[m] = np.zeros_like(target)
        out = lowrank_alm.update_Khat(state, cfg)
        np.testing.assert_allclose(out, target, atol=1e-12)

    def test_negative_entries_zeroed(self):
        state, cfg = make_state(seed=17, M=1)
        state.Q = np.full(state.Khat.shape, -5.0)
        state.B = np.zeros_like(state.Q)
        state.E[0] = state.K_list[0].copy()  # K - E = 0
        state.A[0] = np.zeros_like(state.Q)
        out = lowrank_alm.update_Khat(state, cfg)
        np.testing.assert_array_equal(out, 0.0)

    def test_perturbation_oracle(self):
        state, cfg = make_state(seed=18, M=2)
        out = lowrank_alm.update_Khat(state, cfg)
        M = len(state.K_list)
        c = (
            state.Q
            - state.B / state.mu
            + sum(
                state.K_list[m] - state.E[m] - state.A[m] / state.mu for m in range(M)
            )
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
        state.Q = state.Khat.copy()
        for m in range(2):
            state.K_list[m] = state.Khat + state.E[m]
        a_before = [a.copy() for a in state.A]
        b_before = state.B.copy()
        mu_before = state.mu
        assert lowrank_alm.update_multipliers(state, cfg) == (0.0, 0.0)
        for a, a0 in zip(state.A, a_before):
            np.testing.assert_allclose(a, a0, atol=1e-12)
        np.testing.assert_allclose(state.B, b_before, atol=1e-12)
        assert state.mu == pytest.approx(cfg.rho * mu_before)

    def test_mu_cap(self):
        state, cfg = make_state(seed=22)
        state.mu = cfg.mu_max
        lowrank_alm.update_multipliers(state, cfg)
        assert state.mu == cfg.mu_max

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
        state = lowrank_alm.init_state(K_list, cfg)
        for _ in range(10):
            state.Q = lowrank_alm.update_Q(state, cfg)
            for m in range(2):
                state.E[m] = lowrank_alm.update_E(state, cfg, m)
            state.Khat = lowrank_alm.update_Khat(state, cfg)
            assert state.Khat.min() >= 0
            lowrank_alm.update_multipliers(state, cfg)
