"""Adaptive algorithm contracts: oracles, gradients, bounds, divergence."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ancsim.adaptation import (
    FxlmsFilter,
    LmsFilter,
    lms_fit,
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
from ancsim.mcanc import GUARD_SCREEN, WEIGHT_GUARD, check_weights


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


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)     # NaN equals NaN here
    assert np.array_equal(np.signbit(got), np.signbit(want))


def step_loop(lms, x, d):
    """(y, e, tripping step or None) of one `step` call per sample; a step
    that trips the guard still reports its y and e."""
    y, e = [], []
    for xn, dn in zip(x, d):
        window = np.concatenate([lms._x[1:], [xn]])
        y_n = float(np.dot(lms._v, window))
        y.append(y_n)
        e.append(dn - y_n)
        try:
            assert lms.step(xn, dn) == (y[-1], e[-1])
        except DivergenceError as err:
            return np.array(y), np.array(e), err.index
    return np.array(y), np.array(e), None


def fit_case(rng, P, N, T, mu, scale, w_scale):
    x = np.concatenate([np.zeros((P, N - 1)), scale * rng.standard_normal((P, T))], axis=1)
    d = rng.standard_normal((P, T))
    d[rng.random((P, T)) < 0.1] = -0.0
    w0 = rng.standard_normal((P, N)) * w_scale
    return x, d, w0, mu


@st.composite
def fit_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    P, N, T = draw(st.integers(1, 5)), draw(st.integers(1, 12)), draw(st.integers(0, 60))
    mu = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.3, 1.5]))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    w_scale = draw(st.sampled_from([0.0, -0.0, 0.5]))
    return fit_case(np.random.default_rng(seed), P, N, T, mu, scale, w_scale)


def bare_step_loop(w0, x, d, mu):
    """(y, e, weights, tripping step or None) of `LmsFilter.step`'s
    arithmetic, one sample at a time, without its finite-input check."""
    v, window = w0[::-1].copy(), np.zeros(w0.size)
    y, e = [], []
    for n, (xn, dn) in enumerate(zip(x, d)):
        window[:-1] = window[1:]
        window[-1] = xn
        y.append(float(np.dot(v, window)))
        e.append(dn - y[-1])
        v += (2.0 * mu * e[-1]) * window
        try:
            check_weights(v, n)
        except DivergenceError:
            return np.array(y), np.array(e), v[::-1], n
    return np.array(y), np.array(e), v[::-1], None


class TestLmsFit:
    # one row and several take different bodies: draw both every time
    @settings(max_examples=150, deadline=None)
    @given(fit_cases())
    @example(fit_case(np.random.default_rng(1), 1, 5, 60, 0.05, 1.0, 0.5))
    @example(fit_case(np.random.default_rng(2), 3, 5, 60, 1.5, 30.0, 0.5))
    def test_rows_equal_per_path_step_loops(self, case):
        x, d, w0, mu = case
        P, N = w0.shape
        v = w0[:, ::-1].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            y, e, diverged = lms_fit(v, x, d, mu)
            loops = []
            for p in range(P):
                lms = LmsFilter(N, mu)
                lms.weights = w0[p]
                loops.append((lms, *step_loop(lms, x[p, N - 1:], d[p])))
        tripped = [p for p, (*_, trip) in enumerate(loops) if trip is not None]
        assert diverged == (None if not tripped else (tripped[0], loops[tripped[0]][3]))
        first = min([trip + 1 for *_, trip in loops if trip is not None], default=d.shape[1])
        for p, (lms, y_ref, e_ref, trip) in enumerate(loops):
            # every row runs until the first trip; past it, rows after the
            # reported one are no longer fitted
            n = y_ref.size if diverged is None or p <= diverged[0] else first
            assert_same_bits(y[p, :n], y_ref[:n])
            assert_same_bits(e[p, :n], e_ref[:n])
            if diverged is None or p <= diverged[0]:
                assert_same_bits(v[p, ::-1], lms.weights)

    @settings(max_examples=100, deadline=None)
    @given(fit_cases(), st.data())
    def test_run_continues_where_steps_left_off(self, case, data):
        x, d, w0, mu = case
        N = w0.shape[1]
        xs, ds = x[0, N - 1:], d[0]
        k = data.draw(st.integers(0, xs.size))
        a, b = LmsFilter(N, mu), LmsFilter(N, mu)
        a.weights = b.weights = w0[0]
        with np.errstate(over="ignore", invalid="ignore"):
            y_ref, e_ref, trip = step_loop(b, xs, ds)
            try:
                for n in range(k):
                    a.step(xs[n], ds[n])
            except DivergenceError:
                return
            run = a.run(xs[k:], ds[k:])
        steps = xs.size if trip is None else trip
        assert run.diverged_at == trip
        assert_same_bits(run.y, y_ref[k:steps])
        assert_same_bits(run.e, e_ref[k:steps])
        assert_same_bits(run.final_weights, b.weights)
        assert_same_bits(a._x, b._x)
        assert a._step_count == b._step_count

    @pytest.mark.parametrize("P", [1, 4])
    def test_no_samples_give_empty_results(self, P):
        v = np.full((P, 3), 0.5)
        y, e, diverged = lms_fit(v, np.ones((P, 2)), np.empty((P, 0)), 0.1)
        assert y.shape == e.shape == (P, 0) and diverged is None
        assert_same_bits(v, np.full((P, 3), 0.5))

    def test_weights_between_half_and_full_guard_are_not_a_trip(self):
        # both rows sit above half the guard, where only the exact check
        # decides: row 0 stays at 0.8e6, row 1 climbs past 1e6
        T = 40
        x = np.ones((2, T))
        d = np.array([0.8e6, 2e6])[:, None] * x
        w0 = np.array([[0.8e6], [0.9e6]])
        v = w0.copy()
        y, e, diverged = lms_fit(v, x, d, 0.01)
        loops = []
        for p in (0, 1):
            lms = LmsFilter(1, 0.01)
            lms.weights = w0[p]
            loops.append((lms, *step_loop(lms, x[p], d[p])))
        assert loops[0][3] is None and loops[1][3] is not None
        assert diverged == (1, loops[1][3])
        assert_same_bits(v[:, 0], [loops[0][0].weights[0], loops[1][0].weights[0]])
        assert_same_bits(e[0], loops[0][2])

    def test_earliest_row_wins_over_an_earlier_trip(self):
        # row 1 sees a larger desired signal, so its weights pass the guard
        # first; the fit still reports row 0, at the step its own loop trips
        rng = np.random.default_rng(3)
        T, N = 400, 4
        x = np.concatenate([np.zeros((2, N - 1)), rng.standard_normal((2, T))], axis=1)
        d = np.array([1e-3, 1e3])[:, None] * rng.standard_normal((2, T))
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, diverged = lms_fit(np.zeros((2, N)), x, d, 1.0)
            trips = [step_loop(LmsFilter(N, 1.0), x[p, N - 1:], d[p])[2] for p in (0, 1)]
        assert None not in trips and trips[1] < trips[0]
        assert diverged == (0, trips[0])


class TestLmsFitOneRow:
    """`lms_fit` on one row, the body `LmsFilter.run` and every 1x1
    identification take, against one `step` call per sample."""

    @staticmethod
    def fit_and_step(w0, x, d, mu):
        N = w0.size
        v = w0[::-1].copy()[None]
        y, e, diverged = lms_fit(v, np.concatenate([np.zeros(N - 1), x])[None], d[None], mu)
        lms = LmsFilter(N, mu)
        lms.weights = w0
        y_ref, e_ref, trip = step_loop(lms, x, d)
        return (y[0], e[0], v[0, ::-1], diverged), (y_ref, e_ref, lms.weights, trip)

    @pytest.mark.parametrize("w0", [[0.8e6], [0.4e6, -0.4e6, 0.1e6]],
                             ids=["weight_past_half", "norm_past_half"])
    def test_weights_between_half_and_full_guard_are_not_a_trip(self, w0):
        # the screen fails at every step; only the exact check decides
        w0 = np.array(w0)
        rng = np.random.default_rng(7)
        x, d = rng.standard_normal(50), rng.standard_normal(50)
        (y, e, w, diverged), (y_ref, e_ref, w_ref, trip) = self.fit_and_step(w0, x, d, 1e-3)
        assert trip is None and diverged is None
        for weights in (w0, w):
            assert not (weights.dot(weights) <= 0.25 * WEIGHT_GUARD**2)
        assert_same_bits(y, y_ref)
        assert_same_bits(e, e_ref)
        assert_same_bits(w, w_ref)

    @pytest.mark.parametrize("N", [1, 3])
    def test_trip_at_the_step_that_step_raises(self, N):
        # weights start just inside the guard and climb past it
        rng = np.random.default_rng(N)
        T = 60
        x = 1.0 + 0.1 * rng.standard_normal(T)
        d = 3e6 * np.ones(T)
        w0 = np.full(N, 0.9e6 / N)
        (y, e, w, diverged), (y_ref, e_ref, w_ref, trip) = self.fit_and_step(w0, x, d, 0.01)
        assert trip is not None and 0 < trip < T - 1
        assert diverged == (0, trip)
        assert_same_bits(y[:trip + 1], y_ref)
        assert_same_bits(e[:trip + 1], e_ref)
        assert_same_bits(w, w_ref)
        # samples past the trip are never fitted
        assert_same_bits(y[trip + 1:], np.zeros(T - trip - 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("N", [1, 4])
    def test_non_finite_desired_sample_trips_where_step_arithmetic_does(self, bad, N):
        rng = np.random.default_rng(11)
        T, at = 40, 17
        x, d = rng.standard_normal(T), rng.standard_normal(T)
        d[at] = bad
        w0 = 0.1 * rng.standard_normal(N)
        v = w0[::-1].copy()[None]
        with np.errstate(invalid="ignore", over="ignore"):
            y, e, diverged = lms_fit(
                v, np.concatenate([np.zeros(N - 1), x])[None], d[None], 0.05)
            y_ref, e_ref, w_ref, trip = bare_step_loop(w0, x, d, 0.05)
        assert trip == at and diverged == (0, at)
        assert_same_bits(y[0, :at + 1], y_ref)
        assert_same_bits(e[0, :at + 1], e_ref)
        assert_same_bits(v[0, ::-1], w_ref)

    @pytest.mark.parametrize("mu", [0.0, 0.05], ids=["mu0", "mu"])
    @pytest.mark.parametrize("N", [1, 4])
    def test_signed_zeros_and_frozen_weights(self, N, mu):
        # one tap is a plain product, which keeps -0.0; mu = 0 leaves the
        # weights, sign bits included, where they started
        rng = np.random.default_rng(N)
        T = 64
        x = rng.standard_normal(T)
        x[rng.random(T) < 0.3] = -0.0
        x[rng.random(T) < 0.2] = 0.0
        d = rng.standard_normal(T)
        d[rng.random(T) < 0.3] = -0.0
        w0 = np.where(rng.random(N) < 0.5, -0.0, 0.0) if N == 1 else rng.standard_normal(N)
        (y, e, w, diverged), (y_ref, e_ref, w_ref, trip) = self.fit_and_step(w0, x, d, mu)
        assert diverged is None and trip is None
        assert_same_bits(y, y_ref)
        assert_same_bits(e, e_ref)
        assert_same_bits(w, w_ref)
        if mu == 0.0:
            assert_same_bits(w, w0)
        if N == 1:
            assert np.signbit(y).any() and np.signbit(e).any()


def screen_fails(w0, x, d, mu):
    """The steps of a `step` loop after which the weights' squared norm
    fails GUARD_SCREEN, up to the step that trips the guard."""
    lms = LmsFilter(w0.size, mu)
    lms.weights = w0
    fails = []
    for n, (xn, dn) in enumerate(zip(x, d)):
        try:
            lms.step(xn, dn)
        except DivergenceError:
            return fails + [n]
        if not (lms._v.dot(lms._v) <= GUARD_SCREEN):
            fails.append(n)
    return fails


class TestLmsFitRunningBound:
    """The one-row fit guards its weights with `mcanc`'s running norm
    bound; the squared norm and the exact check take over at the steps
    where a `step` loop's weights fail the screen, sign bits compared."""

    @pytest.mark.parametrize("w0, x, d, mu", [
        # a squared norm within a few ulps of the screen, which the second
        # update moves across: a bound with no margin stays at BOUND_LIMIT
        # and skips the check there
        ([74582.33468946455, 494406.18458133057],
         [0.00016042391628254423, -0.0010047220783476836, 0.0005670409674108897,
          0.0010713843452727077],
         [-1.2242638539343398, -2.8315332276538756, -1.7460238995625001,
          -0.1534797928696211], 6.053773201568723e-10),
        # parked 0.03 under half the guard; each update adds about 4e-4
        ([0.3e6, -0.4e6 * (1.0 - 1e-7), 0.0], [1e-3] * 200, [-1e4] * 200, 1e-4),
        # parked 0.03 past half the guard; each update takes about 4e-4 off
        ([0.3e6, -0.4e6 * (1.0 + 1e-7), 0.0], [1e-3] * 200, [1e4] * 200, 1e-4),
    ], ids=["ulps_from_screen", "just_under_half", "just_past_half"])
    def test_exact_check_runs_where_the_screen_fails(self, guard_spy, w0, x, d, mu):
        w0, x, d = np.array(w0), np.array(x), np.array(d)
        fails = screen_fails(w0, x, d, mu)
        with guard_spy.watching():
            (y, e, w, diverged), (y_ref, e_ref, w_ref, trip) = \
                TestLmsFitOneRow.fit_and_step(w0, x, d, mu)
        assert trip is None and diverged is None
        assert 0 < len(fails) < x.size and guard_spy.checks == fails
        assert_same_bits(y, y_ref)
        assert_same_bits(e, e_ref)
        assert_same_bits(w, w_ref)

    def test_several_rows_check_where_the_stack_fails_the_screen(self, guard_spy):
        # row 1 is parked about 1 under half the guard and climbs 0.04 a
        # step, row 0 stays small: the stack's squared norm, one dot over
        # both rows, crosses the screen, and every row is checked from there
        rng = np.random.default_rng(4)
        T, N, mu = 200, 3, 1e-4
        w0 = np.array([0.1 * rng.standard_normal(N), [0.3e6, -0.4e6 * (1.0 - 2.5e-6), 0.0]])
        x = np.concatenate([np.zeros((2, N - 1)),
                            [rng.standard_normal(T), np.full(T, 1e-3)]], axis=1)
        d = np.array([rng.standard_normal(T), np.full(T, -1e6)])
        v = w0[:, ::-1].copy()
        with guard_spy.watching():
            y, e, diverged = lms_fit(v, x, d, mu)
        rows, fails = [LmsFilter(N, mu) for _ in w0], []
        for lms, w in zip(rows, w0):
            lms.weights = w
        for n in range(T):
            for p, lms in enumerate(rows):
                lms.step(x[p, N - 1 + n], d[p, n])
            stack = np.concatenate([lms._v for lms in rows])
            if not (stack.dot(stack) <= GUARD_SCREEN):
                fails.append(n)
        assert diverged is None and 0 < len(fails) < T
        assert guard_spy.checks == [n for n in fails for _ in rows]
        assert guard_spy.checked == [(0, p) for _ in fails for p in range(2)]
        assert_same_bits(v[:, ::-1], [lms.weights for lms in rows])

    def test_two_rows_climbing_together_check_and_trip_where_their_steps_do(self, guard_spy):
        # both rows parked with the stack's norm 10 under half the guard,
        # weights along their constant windows, each weight climbing 0.2 a
        # step: the stack's norm grows 0.4 a step, more than either row's
        # |c| N of 0.28, so only a bound that adds every row's |c| reaches
        # BOUND_LIMIT by the step the stack fails the screen. At step 60 row
        # 1's desired sample jumps and its weights pass the guard.
        T, N, mu, trip = 80, 2, 1e-4, 60
        w0 = np.full((2, N), 0.5 * (0.5 * WEIGHT_GUARD - 10.0))
        x = np.concatenate([np.zeros((2, N - 1)), np.full((2, T), 1e-3)], axis=1)
        d = np.full((2, T), 1e6)
        d[1, trip] = 1e13
        v = w0[:, ::-1].copy()
        with guard_spy.watching():
            y, e, diverged = lms_fit(v, x, d, mu)
        rows, fails, y_ref = [LmsFilter(N, mu) for _ in w0], [], [[], []]
        for lms, w in zip(rows, w0):
            lms.weights = w
        for n in range(T):
            y_ref[0].append(rows[0].step(x[0, N - 1 + n], d[0, n])[0])
            if n < trip:
                y_ref[1].append(rows[1].step(x[1, N - 1 + n], d[1, n])[0])
                stack = np.concatenate([lms._v for lms in rows])
                if not (stack.dot(stack) <= GUARD_SCREEN):
                    fails.append(n)
        with pytest.raises(DivergenceError) as err:
            rows[1].step(x[1, N - 1 + trip], d[1, trip])
        assert err.value.index == trip and diverged == (1, trip)
        assert 10 < fails[0] and fails == list(range(fails[0], trip))
        assert guard_spy.checks == [n for n in fails for _ in rows] + [trip, trip]
        assert guard_spy.checked == [(0, p) for _ in range(len(fails) + 1) for p in (0, 1)]
        assert_same_bits(y[0], y_ref[0])
        assert_same_bits(y[1, :trip], y_ref[1])
        assert_same_bits(v[0, ::-1], rows[0].weights)

    def test_bound_resets_from_the_norm_and_runs_on(self, guard_spy):
        # w follows d = +-1e4: every |c| is about 2e4 while |w| stays near
        # 1e4, so the bound passes BOUND_LIMIT every ~25 steps and each
        # reset brings it back to the norm
        rng = np.random.default_rng(5)
        T = 500
        x = 1.0 + 0.1 * rng.standard_normal(T)
        d = 1e4 * np.where(np.arange(T) % 2, 1.0, -1.0) + rng.standard_normal(T)
        w0 = np.zeros(1)
        with guard_spy.watching():
            (y, e, w, diverged), (y_ref, e_ref, w_ref, trip) = \
                TestLmsFitOneRow.fit_and_step(w0, x, d, 0.5)
        assert trip is None and diverged is None
        assert 3 < len(guard_spy.resets) < T / 10
        assert guard_spy.checks == []
        assert_same_bits(y, y_ref)
        assert_same_bits(e, e_ref)
        assert_same_bits(w, w_ref)

    def test_trip_from_the_bound_near_the_subnormal_range(self, guard_spy):
        # windows of about 1e-304, whose squares underflow to 0, meet an
        # update coefficient of about 1.4e308: the weights climb by about
        # 1.4e4 a step from zero and trip the guard on the way
        rng = np.random.default_rng(2)
        T, N = 200, 3
        x = 1e-304 * (1.0 + 0.1 * rng.random(T))
        assert not (x * x).any()
        d = np.ones(T)
        with guard_spy.watching():
            (y, e, w, diverged), (y_ref, e_ref, w_ref, trip) = \
                TestLmsFitOneRow.fit_and_step(np.zeros(N), x, d, 7e307)
        assert trip is not None and 20 < trip < T - 1
        assert diverged == (0, trip)
        # the bound, not the squared norm, guarded the first steps
        assert guard_spy.resets[:2] == [0, guard_spy.resets[1]] and guard_spy.resets[1] > 5
        assert_same_bits(y[:trip + 1], y_ref)
        assert_same_bits(e[:trip + 1], e_ref)
        assert_same_bits(w, w_ref)


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
            chrono = np.concatenate([fx.controller._x[0, 1 - n_taps:], [x]])
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
        np.testing.assert_array_equal(fx.controller._fx[0, 0, 0], replay[-4:])

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
    np.testing.assert_array_equal(fx.controller._fx[0, 0, 0], xf_direct[-6:])


class TestDeterminism:
    def test_identical_seeds_identical_trajectories(self):
        def trajectory(seed):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(2000)
            d = FirFilter([0.2, 0.1]).process(x)
            run = LmsFilter(2, 0.02).run(x, d)
            return np.concatenate([run.e, run.final_weights])

        assert np.array_equal(trajectory(123), trajectory(123))
        assert not np.array_equal(trajectory(123), trajectory(124))
