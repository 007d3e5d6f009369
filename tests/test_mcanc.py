"""Multichannel controller contracts and the MAC cost model."""

import numpy as np
import pytest

from ancsim.adaptation import FxlmsFilter, reference_matrix
from ancsim.errors import DataError, DivergenceError
from ancsim.filters import FirFilter
from ancsim.loops import run_adaptive
from ancsim.mcanc import ChannelConfig, MacCounter, McAncController, mac_count, mac_measure


def total_mac(i, j, k, L, m):
    return (i * j * k + i * j) * L + i * j * k * m + k


class TestMacCount:
    def test_single_channel_32_taps(self):
        m = mac_count(ChannelConfig(1, 1, 1, 32, 32))
        assert m.total == 97
        assert (m.output, m.filtered_x, m.update) == (32, 32, 33)

    def test_two_by_two(self):
        m = mac_count(ChannelConfig(2, 2, 2, 4, 4))
        assert m.total == 82
        assert (m.output, m.filtered_x, m.update) == (16, 32, 34)

    def test_standard_form_identity(self):
        # N = I = J = K with L = M collapses to 2 L N^3 + L N^2 + N
        for n in range(1, 17):
            for L in range(1, 17):
                std = 2 * L * n**3 + L * n**2 + n
                assert mac_count(ChannelConfig(n, n, n, L, L)).total == std

    def test_exhaustive_grid_against_closed_form(self):
        for i in range(1, 5):
            for j in range(1, 5):
                for k in range(1, 5):
                    for L in (4, 8, 16):
                        for m in (4, 8, 16):
                            got = mac_count(ChannelConfig(i, j, k, L, m))
                            assert got.total == total_mac(i, j, k, L, m)
                            assert got.total == got.output + got.filtered_x + got.update


class TestMacMeasure:
    def test_counter_is_definitional(self):
        cfg = ChannelConfig(1, 2, 1, 4, 4)
        rng = np.random.default_rng(0)
        ctrl = McAncController(cfg, 1e-4, rng.standard_normal((2, 1, 4)) * 0.1)
        counter = MacCounter()
        for _ in range(100):
            ctrl.step(rng.standard_normal(1), rng.standard_normal(1) * 0.1,
                      counter=counter)
        assert counter.total == 100 * mac_count(cfg).total

    def test_counter_follows_the_step_not_the_table(self):
        # a step that skips the update (mu = 0) multiplies only e.e there,
        # which a counter fed from the closed form would miss
        cfg = ChannelConfig(1, 2, 3, 4, 5)
        rng = np.random.default_rng(1)
        ctrl = McAncController(cfg, 0.0, rng.standard_normal((2, 3, 5)))
        counter = MacCounter()
        for _ in range(10):
            ctrl.step(rng.standard_normal(1), rng.standard_normal(3), counter=counter)
        table = mac_count(cfg)
        assert (counter.output, counter.filtered_x) == (10 * table.output,
                                                        10 * table.filtered_x)
        assert counter.update == 10 * cfg.n_mics

    def test_matches_closed_form_2222(self):
        assert mac_measure(ChannelConfig(2, 2, 2, 4, 4), 10) == 82

    @pytest.mark.parametrize("i", [1, 3])
    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("k", [2, 4])
    def test_matches_closed_form_grid(self, i, j, k):
        cfg = ChannelConfig(i, j, k, 8, 4)
        assert mac_measure(cfg, 5) == mac_count(cfg).total

    def test_cubic_fit_oracle(self):
        # least squares over N in 1..4 at L = M = 8 must return (2L, L, 1)
        L = 8
        ns = np.arange(1, 5)
        measured = np.array([mac_measure(ChannelConfig(n, n, n, L, L), 3)
                             for n in ns], dtype=float)
        design = np.stack([ns**3, ns**2, ns], axis=1).astype(float)
        coeffs, *_ = np.linalg.lstsq(design, measured, rcond=None)
        np.testing.assert_allclose(coeffs, [2 * L, L, 1.0], atol=1e-8)


class TestReductionToSingleChannel:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_bit_identical_over_1000_steps(self, seed):
        rng = np.random.default_rng(seed)
        n_taps, m_taps = 8, 5
        mu_sc = 0.004
        s_hat = rng.standard_normal(m_taps) * 0.5
        single = FxlmsFilter(n_taps, mu_sc, s_hat)
        multi = McAncController(ChannelConfig(1, 1, 1, n_taps, m_taps),
                                2.0 * mu_sc, s_hat.reshape(1, 1, m_taps))
        for n in range(1000):
            x = rng.standard_normal()
            e = rng.standard_normal() * 0.3
            u_s = single.step(x, e)
            u_m = multi.step([x], [e])
            assert u_m.shape == (1,)
            assert u_s == u_m[0]
            assert np.array_equal(single.weights, multi.weights[0, 0])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_tap_outputs_keep_their_signed_zeros(self, seed):
        # with one tap, zero weights make u = 0 * x, which is -0.0 for
        # negative x; the multichannel output must not add it to +0.0.
        # The first ten errors are zero, so the weights start at zero.
        rng = np.random.default_rng(seed)
        mu_sc = 0.01
        s_hat = rng.standard_normal(3) * 0.5
        single = FxlmsFilter(1, mu_sc, s_hat)
        multi = McAncController(ChannelConfig(1, 1, 1, 1, 3), 2.0 * mu_sc,
                                s_hat.reshape(1, 1, 3))
        negative_zeros = 0
        for n in range(200):
            x = rng.standard_normal()
            e = 0.0 if n < 10 or n % 3 else rng.standard_normal() * 0.3
            u_s = single.step(x, e)
            u_m = multi.step([x], [e])[0]
            assert u_s == u_m
            assert np.signbit(u_s) == np.signbit(u_m)
            negative_zeros += u_s == 0.0 and np.signbit(u_s)
            assert np.array_equal(np.signbit(single.weights), np.signbit(multi.weights[0, 0]))
        assert negative_zeros > 0

    def test_zero_mu_zero_weights_passthrough(self):
        rng = np.random.default_rng(5)
        ctrl = McAncController(ChannelConfig(2, 2, 2, 4, 3), 0.0,
                               rng.standard_normal((2, 2, 3)))
        for _ in range(50):
            u = ctrl.step(rng.standard_normal(2), rng.standard_normal(2))
            assert np.all(u == 0.0)
        assert np.all(ctrl.weights == 0.0)


class TestDecoupling:
    def test_diagonal_paths_decouple_into_independent_loops(self):
        """I=1, J=K=2 with identity diagonal path estimates behaves as two
        independent single-channel FxLMS loops, trajectory-exact."""
        rng = np.random.default_rng(6)
        n_taps = 6
        mu_sc = 0.003
        est = np.zeros((2, 2, 1))
        est[0, 0, 0] = 1.0
        est[1, 1, 0] = 1.0
        multi = McAncController(ChannelConfig(1, 2, 2, n_taps, 1), 2.0 * mu_sc, est)
        singles = [FxlmsFilter(n_taps, mu_sc, [1.0]) for _ in range(2)]
        for n in range(500):
            x = rng.standard_normal()
            e = rng.standard_normal(2) * 0.5
            u_m = multi.step([x], e)
            for j in (0, 1):
                u_s = singles[j].step(x, e[j])
                assert u_s == u_m[j]
        for j in (0, 1):
            assert np.array_equal(singles[j].weights, multi.weights[0, j])


class TestPermutationEquivariance:
    def test_swapping_microphones_preserves_outputs(self):
        rng = np.random.default_rng(7)
        cfg = ChannelConfig(2, 2, 3, 5, 4)
        est = rng.standard_normal((2, 3, 4)) * 0.3
        perm = [2, 0, 1]
        a = McAncController(cfg, 0.002, est)
        b = McAncController(cfg, 0.002, est[:, perm, :])
        outs_a, outs_b = [], []
        for _ in range(300):
            x = rng.standard_normal(2)
            e = rng.standard_normal(3) * 0.4
            outs_a.append(a.step(x, e))
            outs_b.append(b.step(x, e[perm]))
        np.testing.assert_allclose(outs_a, outs_b, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-10, atol=1e-12)


class TestErrors:
    def test_dimension_mismatch(self):
        ctrl = McAncController(ChannelConfig(2, 1, 1, 4, 2), 0.01,
                               np.zeros((1, 1, 2)))
        with pytest.raises(DataError):
            ctrl.step([1.0], [0.0])
        with pytest.raises(DataError):
            ctrl.step([1.0, 2.0], [0.0, 0.0])

    def test_divergence_carries_coordinates(self):
        est = np.ones((2, 1, 1))
        ctrl = McAncController(ChannelConfig(1, 2, 1, 2, 1), 50.0, est)
        with pytest.raises(DivergenceError) as exc_info:
            for _ in range(10_000):
                ctrl.step([1.0], [100.0])
        assert exc_info.value.coords in [(0, 0), (0, 1)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_guard_catches_non_finite_weights(self, bad):
        rng = np.random.default_rng(4)
        ctrl = McAncController(ChannelConfig(1, 2, 2, 4, 3), 0.01,
                               rng.standard_normal((2, 2, 3)) * 0.1)
        for _ in range(5):
            ctrl.step([rng.standard_normal()], rng.standard_normal(2) * 0.1)
        w = ctrl.weights
        w[0, 1, 2] = bad
        ctrl.weights = w
        with pytest.raises(DivergenceError) as exc_info:
            ctrl.step([0.3], [0.1, -0.2])
        assert exc_info.value.index == 5
        assert exc_info.value.coords == (0, 1)

    def test_estimate_shape_enforced(self):
        with pytest.raises(DataError):
            McAncController(ChannelConfig(1, 2, 2, 4, 3), 0.01, np.zeros((2, 2, 4)))


class TestMultichannelConvergence:
    def test_1x2x2_two_tone_reduction_vs_wiener_oracle(self):
        """Exact path knowledge, two-tone disturbance: steady-state summed
        error power must sit at least 15 dB below the uncontrolled power,
        and close to the multichannel Wiener residual computed by block
        normal equations."""
        rng = np.random.default_rng(42)
        rate = 8000.0
        T = 24_000
        t = np.arange(T) / rate
        x = (np.sin(2 * np.pi * 180.0 * t) + 0.7 * np.sin(2 * np.pi * 440.0 * t)
             + 0.02 * rng.standard_normal(T))

        p_taps = [np.r_[np.zeros(6), 0.8 * 0.5**np.arange(8)],
                  np.r_[np.zeros(7), 0.7 * 0.45**np.arange(8)]]
        s_taps = np.empty((2, 2), dtype=object)
        s_taps[0, 0] = np.r_[np.zeros(3), 0.55 * 0.5**np.arange(5)]
        s_taps[0, 1] = np.r_[np.zeros(4), 0.30 * 0.4**np.arange(5)]
        s_taps[1, 0] = np.r_[np.zeros(4), 0.25 * 0.4**np.arange(5)]
        s_taps[1, 1] = np.r_[np.zeros(3), 0.60 * 0.5**np.arange(5)]

        def build_plant():
            from ancsim.acoustics import Plant
            return Plant(p_taps, [[s_taps[j, k] for k in range(2)] for j in range(2)])

        d = build_plant().run_uncontrolled(x)

        m_taps = 10
        est = np.zeros((2, 2, m_taps))
        for j in range(2):
            for k in range(2):
                est[j, k, 1:1 + s_taps[j, k].size] = s_taps[j, k]  # loop aligned

        L = 24
        ctrl = McAncController(ChannelConfig(1, 2, 2, L, m_taps), 2e-3, est)
        res = run_adaptive(build_plant(), ctrl, x)
        assert res.diverged_at is None

        tail = slice(T // 2, None)
        p_unc = float(np.sum(d[tail] ** 2))
        p_ctl = float(np.sum(res.error[tail] ** 2))
        reduction_db = 10 * np.log10(p_unc / p_ctl)
        assert reduction_db >= 15.0

        # multichannel Wiener oracle: stack per-source filtered references
        # (through the loop-aligned true paths) and solve the block normal
        # equations for the summed-microphone cost
        F = []  # per source: (T, L) filtered-reference windows per mic
        for j in range(2):
            F.append([reference_matrix(FirFilter(est[j, k]).process(x), L)
                      for k in range(2)])
        A = np.zeros((2 * L, 2 * L))
        b = np.zeros(2 * L)
        for k in range(2):
            Fk = np.hstack([F[0][k], F[1][k]])
            A += Fk.T @ Fk
            b += Fk.T @ d[:, k]
        w_opt = np.linalg.solve(A, -b)
        resid = np.zeros_like(d)
        for k in range(2):
            Fk = np.hstack([F[0][k], F[1][k]])
            resid[:, k] = d[:, k] + Fk @ w_opt
        p_oracle = float(np.sum(resid[tail] ** 2))
        oracle_db = 10 * np.log10(p_unc / p_oracle)
        # the oracle certifies the threshold is attainable with margin; the
        # noiseless optimum itself is near-perfect (far beyond the controller)
        assert oracle_db >= 15.0
        assert reduction_db >= 15.0
