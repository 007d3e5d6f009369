"""Adaptive algorithm contracts: oracles, gradients, bounds, divergence."""

import numpy as np
import pytest

from ancsim.adaptation import (
    FxlmsFilter,
    LmsFilter,
    convergence_trace,
    fxlms_mu_bound,
    lms_mu_bound,
    wiener_solve,
)
from ancsim.errors import (
    ConditioningError,
    DataError,
    DivergenceError,
    UndefinedBoundError,
)
from ancsim.filters import FirFilter


class TestLmsStep:
    def test_frozen_at_zero_mu(self):
        rng = np.random.default_rng(0)
        lms = LmsFilter(4, 0.0)
        lms.weights = np.array([0.1, 0.2, 0.3, 0.4])
        w0 = lms.weights
        for _ in range(100):
            x, d = rng.standard_normal(2)
            y, e = lms.step(x, d)
            assert e == d - y
        assert np.array_equal(lms.weights, w0)

    def test_single_substitution(self):
        lms = LmsFilter(1, 0.25)
        y, e = lms.step(1.0, 1.0)
        assert (y, e) == (0.0, 1.0)
        assert lms.weights.tolist() == [0.5]

    def test_two_tap_identification_against_wiener(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(10_000)
        d = FirFilter([0.3, -0.1]).process(x)
        lms = LmsFilter(2, 0.01)
        run = lms.run(x, d)
        assert run.diverged_at is None
        w_opt = wiener_solve(x, d, 2)
        np.testing.assert_allclose(run.final_weights, [0.3, -0.1], atol=1e-3)
        np.testing.assert_allclose(run.final_weights, w_opt, atol=1e-3)

    def test_update_order_matches_hand_recursion(self):
        # W(n+1) = W(n) + 2 mu e(n) X(n), with X(n) including x(n)
        rng = np.random.default_rng(5)
        mu = 0.05
        lms = LmsFilter(3, mu)
        w = np.zeros(3)
        hist = np.zeros(3)  # [x(n), x(n-1), x(n-2)]
        for _ in range(50):
            x, d = rng.standard_normal(2)
            hist = np.concatenate([[x], hist[:2]])
            y_ref = float(w @ hist)
            e_ref = d - y_ref
            w = w + 2 * mu * e_ref * hist
            y, e = lms.step(x, d)
            assert y == pytest.approx(y_ref, rel=1e-12, abs=1e-15)
            assert e == pytest.approx(e_ref, rel=1e-12, abs=1e-15)
            np.testing.assert_allclose(lms.weights, w, rtol=1e-12, atol=1e-15)

    def test_divergence_raises_with_index(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100_000)
        bound = lms_mu_bound(x, 4)
        lms = LmsFilter(4, 10.0 * bound)
        with pytest.raises(DivergenceError) as exc_info:
            for n in range(x.size):
                lms.step(x[n], x[n] * 0.5)
        assert 0 <= exc_info.value.index < 100_000


class TestWienerSolve:
    def test_identity_system(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5000)
        w = wiener_solve(x, x, 2)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-6)

    def test_pure_delay(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5000)
        d = np.concatenate([[0.0], x[:-1]])
        np.testing.assert_allclose(wiener_solve(x, d, 2), [0.0, 1.0], atol=1e-6)

    def test_fir_construction_is_its_own_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(5000)
        d = FirFilter([0.5, -0.25]).process(x)
        np.testing.assert_allclose(wiener_solve(x, d, 2), [0.5, -0.25], atol=1e-6)

    def test_singular_matrix_rejected(self):
        # the zero signal gives an exactly singular sample matrix (a pure
        # tone is only near-singular here: the zero-padded edge windows
        # regularize the sample estimate)
        with pytest.raises(ConditioningError):
            wiener_solve(np.zeros(4000), np.ones(4000), 16)

    def test_short_record_rejected(self):
        with pytest.raises(DataError):
            wiener_solve(np.ones(19), np.ones(19), 2)


class TestLmsMuBound:
    def test_constant_signal(self):
        assert lms_mu_bound(np.ones(100), 4) == 0.25

    def test_alternating_signal(self):
        x = np.array([1.0, -1.0] * 50)
        assert lms_mu_bound(x, 2) == 0.5

    def test_white_noise_matches_power_oracle(self):
        rng = np.random.default_rng(6)
        x = 0.7 * rng.standard_normal(50_000)
        expected = 1.0 / (8 * np.mean(x**2))
        assert lms_mu_bound(x, 8) == pytest.approx(expected, rel=1e-12)
        assert lms_mu_bound(x, 8) == pytest.approx(1.0 / (8 * 0.49), rel=2e-2)

    def test_zero_signal_undefined(self):
        with pytest.raises(UndefinedBoundError):
            lms_mu_bound(np.zeros(10), 4)


class TestFxlmsMuBound:
    def test_constant_traces(self):
        e = np.ones(100)
        xf_sq = np.full(100, 4.0)
        assert fxlms_mu_bound(e, xf_sq) == 0.5

    def test_white_filtered_reference(self):
        rng = np.random.default_rng(7)
        n_taps = 8
        xf = rng.standard_normal((20_000, n_taps))
        norms = np.einsum("ij,ij->i", xf, xf)
        e = rng.standard_normal(20_000)
        # psi = e independent of X_f: bound -> 2 E{e^2} / (E{e^2} E{||Xf||^2})
        bound = fxlms_mu_bound(e, norms)
        assert bound == pytest.approx(2.0 / n_taps, rel=0.1)

    def test_scaling_law(self):
        rng = np.random.default_rng(8)
        e = rng.standard_normal(1000)
        xf_sq = rng.uniform(0.5, 2.0, 1000)
        assert fxlms_mu_bound(e, 4.0 * xf_sq) == pytest.approx(
            fxlms_mu_bound(e, xf_sq) / 4.0, rel=1e-12)

    def test_explicit_psi(self):
        e = np.ones(10)
        xf_sq = np.ones(10)
        assert fxlms_mu_bound(e, xf_sq, psi=2 * e) == pytest.approx(
            2.0 * 2.0 / 4.0, rel=1e-12)

    def test_empty_or_zero_rejected(self):
        with pytest.raises(UndefinedBoundError):
            fxlms_mu_bound(np.zeros(0), np.zeros(0))
        with pytest.raises(UndefinedBoundError):
            fxlms_mu_bound(np.ones(5), np.zeros(5))


class TestFxlmsStep:
    def test_zero_mu_is_fixed_fir(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal(6)
        fx = FxlmsFilter(6, 0.0, [1.0])
        fx.weights = w
        ref = FirFilter(w)
        for _ in range(200):
            x = rng.standard_normal()
            assert fx.step(x, rng.standard_normal()) == ref.process_sample(x)

    def test_identity_path_maps_to_lms_with_sign_flip(self):
        """With s_hat = [1] and an instantaneous unit secondary path, the
        FxLMS trajectory is the exact negation of the LMS trajectory on the
        same data, bit for bit."""
        rng = np.random.default_rng(10)
        n_taps, mu = 8, 0.005
        lms = LmsFilter(n_taps, mu)
        fx = FxlmsFilter(n_taps, mu, [1.0])
        for n in range(1000):
            x = rng.standard_normal()
            d = rng.standard_normal()
            y, e_lms = lms.step(x, d)
            # algebraic loop resolved externally: u depends only on pre-update
            # weights, so e = d + u is computable before the step; build the
            # dot product in the same chronological orientation the filter
            # uses internally so the comparison is bit-exact
            chrono = np.concatenate([fx.reference_window[:-1][::-1], [x]])
            u_pred = float(np.dot(fx.weights[::-1], chrono))
            e_plant = d + u_pred
            u = fx.step(x, e_plant)
            assert u == u_pred
            assert e_plant == e_lms or abs(e_plant - e_lms) == 0.0
            assert np.array_equal(fx.weights, -lms.weights)

    def test_filtered_history_consistent_with_replay(self):
        rng = np.random.default_rng(11)
        s_hat = rng.standard_normal(5)
        fx = FxlmsFilter(4, 1e-3, s_hat)
        xs = rng.standard_normal(100)
        for x in xs:
            fx.step(x, rng.standard_normal() * 0.1)
        replay = FirFilter(s_hat).process(xs)
        np.testing.assert_array_equal(fx.filtered_reference_window, replay[-4:][::-1])

    def test_update_sign_and_magnitude(self):
        # single tap, known values: W(n+1) = W(n) - 2 mu e x_f
        fx = FxlmsFilter(1, 0.1, [2.0])
        u = fx.step(1.0, 3.0)  # x_f = 2, e = 3: w <- 0 - 2*0.1*3*2 = -1.2
        assert u == 0.0
        assert fx.weights.tolist() == [pytest.approx(-1.2, rel=1e-12)]

    def test_divergence_guard(self):
        fx = FxlmsFilter(2, 100.0, [1.0])
        with pytest.raises(DivergenceError):
            for n in range(10_000):
                fx.step(1.0, 1e3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_guard_catches_non_finite_weights(self, bad):
        fx = FxlmsFilter(4, 0.01, [0.0, 0.5])
        for _ in range(3):
            fx.step(0.1, 0.2)
        w = fx.weights
        w[2] = bad
        fx.weights = w
        with pytest.raises(DivergenceError) as exc_info:
            fx.step(0.1, 0.2)
        assert exc_info.value.index == 3
        assert exc_info.value.coords is None

    def test_freeze_matches_zero_mu_run(self):
        rng = np.random.default_rng(12)
        fx = FxlmsFilter(8, 0.01, [0.0, 0.5])
        for _ in range(500):
            fx.step(rng.standard_normal(), rng.standard_normal() * 0.2)
        frozen = fx.freeze()
        fx.mu = 0.0
        xs = rng.standard_normal(300)
        out_frozen = frozen.process(xs)
        # frozen filter starts from clean state; compare a fresh zero-mu clone
        fx2 = FxlmsFilter(8, 0.0, [0.0, 0.5])
        fx2.weights = frozen.weights
        out_mu0 = np.array([fx2.step(x, 0.0) for x in xs])
        assert np.array_equal(out_frozen, out_mu0)

    def test_freeze_zero_weights_gives_zero_output(self):
        frozen = FxlmsFilter(4, 0.01, [1.0]).freeze()
        assert np.all(frozen.process(np.random.default_rng(0).standard_normal(64)) == 0.0)


def lms_gradient_check(seed):
    """Analytic -2 e X against central differences of e^2; central
    differences are exact for quadratics, so only rounding remains."""
    rng = np.random.default_rng(seed)
    n_taps = rng.integers(1, 9)
    w = rng.standard_normal(n_taps)
    x_hist = rng.standard_normal(n_taps)  # X(n), newest first
    d = rng.standard_normal()

    e = d - float(w @ x_hist)
    analytic = -2.0 * e * x_hist

    h = 1e-4
    fd = np.empty(n_taps)
    for i in range(n_taps):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        ep = d - float(wp @ x_hist)
        em = d - float(wm @ x_hist)
        fd[i] = (ep**2 - em**2) / (2 * h)
    return analytic, fd


def fxlms_gradient_check(seed):
    """Analytic 2 e X_f against central differences of e^2 through the true
    loop (exact secondary-path knowledge, only W perturbed)."""
    rng = np.random.default_rng(seed)
    n_taps = int(rng.integers(1, 8))
    m_taps = int(rng.integers(1, 6))
    T = n_taps + m_taps + int(rng.integers(5, 20))
    w = rng.standard_normal(n_taps)
    s = rng.standard_normal(m_taps)
    x = rng.standard_normal(T)
    d = rng.standard_normal(T)

    def error_at_end(weights):
        u = FirFilter(weights).process(x)
        v = FirFilter(s).process(u)
        return d[-1] + v[-1]

    e = error_at_end(w)
    xf = FirFilter(s).process(x)
    xf_window = xf[-1:-n_taps - 1:-1]  # [xf(T-1), ..., xf(T-n_taps)]
    if xf_window.size < n_taps:
        xf_window = np.concatenate([xf_window, np.zeros(n_taps - xf_window.size)])
    analytic = 2.0 * e * xf_window

    h = 1e-4
    fd = np.empty(n_taps)
    for i in range(n_taps):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        fd[i] = (error_at_end(wp)**2 - error_at_end(wm)**2) / (2 * h)
    return analytic, fd


@pytest.mark.parametrize("seed", range(0, 100, 10))
def test_lms_gradient_matches_finite_differences(seed):
    analytic, fd = lms_gradient_check(seed)
    scale = np.maximum(np.abs(fd), 1e-6)
    assert np.max(np.abs(analytic - fd) / scale) < 1e-6


@pytest.mark.parametrize("seed", range(0, 100, 10))
def test_fxlms_gradient_matches_finite_differences(seed):
    analytic, fd = fxlms_gradient_check(seed)
    scale = np.maximum(np.abs(fd), 1e-6)
    assert np.max(np.abs(analytic - fd) / scale) < 1e-6


def test_fxlms_state_window_matches_gradient_construction():
    """The state machine's X_f window equals the directly filtered reference,
    so the update direction is the analytic gradient."""
    rng = np.random.default_rng(77)
    n_taps, s = 6, np.array([0.3, -0.4, 0.2])
    fx = FxlmsFilter(n_taps, 0.0, s)
    xs = rng.standard_normal(50)
    for x in xs:
        fx.step(x, 0.0)
    xf_direct = FirFilter(s).process(xs)
    np.testing.assert_array_equal(fx.filtered_reference_window, xf_direct[:-7:-1])


class TestConvergenceTrace:
    def test_msd_zero_at_optimum(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(2000)
        d = FirFilter([0.5]).process(x)
        lms = LmsFilter(1, 0.0)
        lms.weights = np.array([0.5])
        run = lms.run(x, d, weight_stride=100)
        trace = convergence_trace(run, [0.5])
        assert np.all(trace.msd == 0.0)
        np.testing.assert_allclose(trace.mse, 0.0, atol=1e-20)

    def test_msd_constant_for_frozen_zero_weights(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(1000)
        lms = LmsFilter(2, 0.0)
        run = lms.run(x, x, weight_stride=50)
        w_opt = np.array([1.0, 0.0])
        trace = convergence_trace(run, w_opt)
        assert np.allclose(trace.msd, float(w_opt @ w_opt))

    def test_msd_decreases_for_stable_run(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(20_000)
        d = FirFilter([0.4, -0.2, 0.1]).process(x)
        lms = LmsFilter(3, 0.1 * lms_mu_bound(x, 3))
        run = lms.run(x, d, weight_stride=100)
        trace = convergence_trace(run, wiener_solve(x, d, 3))
        n = trace.msd.size
        assert np.mean(trace.msd[-n // 10:]) < np.mean(trace.msd[:n // 10])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(16)
        run = LmsFilter(2, 0.0).run(rng.standard_normal(100),
                                    rng.standard_normal(100), weight_stride=10)
        with pytest.raises(DataError):
            convergence_trace(run, np.zeros(3))


class TestDeterminism:
    def test_identical_seeds_identical_trajectories(self):
        def trajectory(seed):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(2000)
            d = FirFilter([0.2, 0.1]).process(x)
            lms = LmsFilter(2, 0.02)
            run = lms.run(x, d, weight_stride=10)
            return run.weight_snapshots

        assert np.array_equal(trajectory(123), trajectory(123))
        assert not np.array_equal(trajectory(123), trajectory(124))
