"""Filter operations against hand and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ancsim.errors import DataError
from ancsim.filters import FirFilter, fir


def direct_convolution(weights, x):
    """Independent O(N*L) oracle: output n is the dot of the reversed
    weights with an explicitly indexed, zero-padded window."""
    w_rev = np.asarray(weights, dtype=np.float64)[::-1].copy()
    n_taps = w_rev.size
    xpad = np.concatenate([np.zeros(n_taps - 1), np.asarray(x, dtype=np.float64)])
    return np.array([np.dot(w_rev, xpad[n:n + n_taps]) for n in range(len(x))])


class TestFirProcess:
    def test_identity_filter(self):
        assert FirFilter([1.0]).process([3.0, -2.0, 5.0]).tolist() == [3.0, -2.0, 5.0]

    def test_unit_delay(self):
        assert FirFilter([0.0, 1.0]).process([1.0, 2.0, 3.0]).tolist() == [0.0, 1.0, 2.0]

    def test_hand_convolution(self):
        assert FirFilter([0.5, 0.5]).process([2.0, 4.0, 6.0]).tolist() == [1.0, 3.0, 5.0]

    def test_impulse_response_equals_weights(self):
        w = [0.3, -0.2, 0.7, 0.05]
        impulse = np.zeros(8)
        impulse[0] = 1.0
        out = FirFilter(w).process(impulse)
        assert out[:4].tolist() == w
        assert np.all(out[4:] == 0.0)

    def test_zero_filter_outputs_zero(self):
        rng = np.random.default_rng(0)
        out = FirFilter(np.zeros(5)).process(rng.standard_normal(64))
        assert np.all(out == 0.0)

    def test_matches_direct_convolution_exactly(self):
        rng = np.random.default_rng(42)
        for n_taps, length in [(1, 100), (7, 331), (64, 1024)]:
            w = rng.standard_normal(n_taps)
            x = rng.standard_normal(length)
            assert np.array_equal(FirFilter(w).process(x), direct_convolution(w, x))

    @settings(max_examples=30, deadline=None)
    @given(
        n_taps=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_convolution_oracle_property(self, n_taps, seed):
        # signed zeros in taps and input: the sign of a zero output must
        # match the oracle's too
        rng = np.random.default_rng(seed)
        w = rng.uniform(-2, 2, n_taps)
        x = rng.uniform(-2, 2, 400)
        for a in (w, x):
            a[rng.random(a.size) < 0.2] = 0.0
            a[rng.random(a.size) < 0.2] = -0.0
        want = direct_convolution(w, x)
        for got in (fir(w, x), FirFilter(w).process(x)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("case", [
        "negative_zero_taps", "signed_zero_taps", "signed_zero_input",
        "zeros_and_finite", "zeros_and_finite_with_history"])
    @pytest.mark.parametrize("n_taps", [1, 2, 15, 16, 17, 33])
    def test_signed_zero_sums_at_the_ddot_block_edges(self, n_taps, case):
        # the tap counts sit on both sides of OpenBLAS ddot's 16-wide block
        # and its scalar tail; every product is a signed zero, or a zero
        # sits among finite products, so an output's sign bit shows whether
        # it was summed from +0.0 (ddot) or formed as one product (one tap)
        rng = np.random.default_rng(1000 + n_taps)
        w = rng.uniform(0.5, 2.0, n_taps) * rng.choice([-1.0, 1.0], n_taps)
        x = rng.uniform(0.5, 2.0, 200) * rng.choice([-1.0, 1.0], 200)
        past = np.zeros(0)
        if case == "negative_zero_taps":
            w[:] = -0.0
            x = np.abs(x)
        elif case == "signed_zero_taps":
            w *= 0.0
        elif case == "signed_zero_input":
            x *= 0.0
        else:
            for a in (w, x):
                a[rng.random(a.size) < 0.3] *= 0.0
            if case == "zeros_and_finite_with_history":
                past, x = x[:2 * n_taps + 3], x[2 * n_taps + 3:]
        want = direct_convolution(w, np.concatenate([past, x]))[past.size:]
        f = FirFilter(w)
        f.process(past)
        for got in (fir(w, x, past), f.process(x)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=30, deadline=None)
    @given(
        n_taps=st.integers(min_value=1, max_value=40),
        split=st.integers(min_value=0, max_value=120),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_split_history_equals_one_pass(self, n_taps, split, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(n_taps)
        x = rng.standard_normal(120)
        got, want = fir(w, x[split:], x[:split]), fir(w, x)[split:]
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_empty_block(self):
        assert fir([0.5, 0.5], np.zeros(0), [1.0]).shape == (0,)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal(12)
        x, y = rng.standard_normal(256), rng.standard_normal(256)
        a, b = 1.7, -0.4
        lhs = FirFilter(w).process(a * x + b * y)
        rhs = a * FirFilter(w).process(x) + b * FirFilter(w).process(y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_block_processing_bit_identical_to_whole(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(9)
        x = rng.standard_normal(500)
        whole = FirFilter(w).process(x)
        f = FirFilter(w)
        pieces = [f.process(x[s:s + 83]) for s in range(0, 500, 83)]
        assert np.array_equal(np.concatenate(pieces), whole)

    def test_causality(self):
        # changing future samples cannot change past outputs
        rng = np.random.default_rng(11)
        w = rng.standard_normal(6)
        x = rng.standard_normal(100)
        x2 = x.copy()
        x2[50:] += 10.0
        a = FirFilter(w).process(x)
        b = FirFilter(w).process(x2)
        assert np.array_equal(a[:50], b[:50])

    def test_reset_restores_initial_state(self):
        f = FirFilter([1.0, 1.0])
        f.process([5.0, 5.0])
        f.reset()
        assert f.process([1.0])[0] == 1.0

    def test_non_finite_input_rejected(self):
        with pytest.raises(DataError):
            FirFilter([1.0]).process(np.array([1.0, np.nan]))
        with pytest.raises(DataError):
            FirFilter([1.0]).process_sample(np.inf)

    def test_non_finite_weights_rejected(self):
        with pytest.raises(DataError):
            FirFilter([1.0, np.inf])


class TestFirStack:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(1,), (3,), (2, 2), (4, 4), (2, 1, 3)]),
        n_taps=st.sampled_from([1, 2, 15, 16, 17, 65]),
        n_past=st.sampled_from([0, 5, 80]),
        length=st.sampled_from([0, 1, 40]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @example(shape=(2, 2), n_taps=1, n_past=5, length=40, seed=0)     # one-tap rows
    @example(shape=(2, 2), n_taps=17, n_past=80, length=0, seed=1)    # an empty block
    def test_each_row_of_a_stack_is_its_own_pass(self, shape, n_taps, n_past, length, seed):
        # signed zeros in taps, history and input: a row's zero outputs
        # must carry the oracle's signs too
        rng = np.random.default_rng(seed)
        w = rng.uniform(-2, 2, shape + (n_taps,))
        xs = rng.uniform(-2, 2, n_past + length)
        for a in (w, xs):
            a[rng.random(a.shape) < 0.2] = 0.0
            a[rng.random(a.shape) < 0.2] = -0.0
        past, x = xs[:n_past], xs[n_past:]
        got = fir(w, x, past if n_past else None)
        assert got.shape == shape + (length,)
        for idx in np.ndindex(shape):
            want = direct_convolution(w[idx], xs)[n_past:]
            assert np.array_equal(got[idx], want)
            assert np.array_equal(np.signbit(got[idx]), np.signbit(want))

    @pytest.mark.parametrize("weights", [[], np.zeros((2, 0)), np.zeros((0, 0))])
    def test_no_taps_is_a_data_error(self, weights):
        with pytest.raises(DataError, match="at least one tap"):
            fir(weights, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_taps_are_a_data_error(self, bad):
        w = np.ones((2, 2, 3))
        w[1, 0, 2] = bad
        for weights in (w[1, 0], w):
            with pytest.raises(DataError, match="finite"):
                fir(weights, [1.0, 2.0])
