"""Multichannel filtered-x LMS controller and its MAC-cost accounting.

Geometry: I reference sensors, J secondary sources, K error microphones.
The controller holds an I x J grid of length-L adaptive filters and a
J x K grid of length-M secondary-path estimates. Each source output is

    y_j(n) = sum_i w_(i,j)^T x_i(n)

and each (i, j) filter updates with the error summed over microphones,

    w_(i,j)(n+1) = w_(i,j)(n) - mu sum_k e_k(n) fx_(i,j,k)(n),

where fx_(i,j,k) is reference i filtered through the (j, k) path
estimate: the multiple-error LMS of Elliott, Stothers & Nelson (IEEE
TASSP 35(10), 1987). Note the update carries a bare mu where the
single-channel derivation carries 2 mu: `adaptation.FxlmsFilter` is the
1x1x1 controller with update coefficient 2*mu_sc.

This is the library's one FxLMS recursion. `McAncController.step` runs it
one sample at a time and `loops.run_adaptive` inlines it over flat
histories, in the same operand order, for every 1xJxK geometry. Each
output and each filtered reference is its own `filters.dot`, the dot the
loop forms a pass at a time, and each (i, j) filter adds its K update
terms to its weights one at a time in microphone order. The loop makes
that same sequence of adds elementwise: a pass of B samples holds the
weights and then every sample's K update terms, in microphone order, in
one (B*K + 1, J, L) stack, and adds each row in place into the next,
B*K adds.

The filtered-reference sum runs over all M estimate taps (m = 0..M-1);
the complexity table's per-step charge of I*J*K*M multiply-accumulates
corresponds to exactly that many terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DivergenceError
from .filters import dot

# Any adapted weight beyond this magnitude flags the run as diverged.
WEIGHT_GUARD = 1e6
# The guard rule of the loops, cheapest test first; each test passes only
# weights that the next one would pass too, so no tier hides a trip.
#
# 1. Running bound (`loops.run_adaptive` and `adaptation.lms_fit`).
#    B >= ||w||_2 over the n weights a step updates is carried from step
#    to step as
#        B <- (B + (|c_0| + ... + |c_{K-1}|) * N) * BOUND_GROWTH,
#    where c_k is the step's update coefficient for mic k (K = 1 for one
#    mic and for a one-row `lms_fit`) or for row k of a P-row `lms_fit`
#    (K = P), and N >= the 2-norm of every window of the call that
#    multiplies a c_k, sqrt(m) * max|x| over the call for windows of m
#    samples: m = L for one filter, a row's taps in a fit, J * L for a
#    grid's (J, L) stack of filters, whose K windows are each a (J, L)
#    block of filtered references. While B <= BOUND_LIMIT no weight can
#    be past the guard, and the step costs a few float operations.
# 2. Squared norm. Past the bound (`guard_reset`), one dot s over the n
#    weights: squares summing within GUARD_SCREEN = (WEIGHT_GUARD / 2)^2
#    put every |w| within the guard. The bound resets to
#    sqrt(s) * BOUND_GROWTH.
# 3. `check_weights`, the exact test, filter by filter in `step`'s order,
#    only where s fails the screen: at the steps the screen alone would
#    send there, so a trip happens at the same step, with the same
#    coordinates, as a check at every step.
#
# Why B >= ||w||_2 (u = 2^-53): a step adds each weight's K terms
# fl(c_k x_k) to it one at a time, so a weight takes K rounded adds of
# terms rounded once each, |w'_i| <= (1 + u)^(K+1) (|w_i| + sum_k |c_k|
# |x_k,i|), and over the n weights ||w'|| <= (1 + u)^(K+1) (||w|| +
# sum_k |c_k| N). In a P-row fit a weight takes one rounded add of its
# own row's term, rounded once: 2 of the K + 1 roundings with K = P, and
# the stack's update, c_p x_p row by row, has 2-norm at most
# sum_p |c_p| N.
# Computing N (a square root and a product), the K - 1 adds of
# sum_k |c_k|, its product with N, the sum with B and the product with
# BOUND_GROWTH rounds down by at most (1 - u) each, K + 4 roundings, and
# (1 + 2^-30)(1 - u)^(K+4) > (1 + u)^(K+1) for every K below 2^21.
# For any summation order s >= (1 - n u) ||w||^2, so the reset holds below
# n = 2^23 weights and B then exceeds ||w|| by about 2^-31 relative,
# enough to send every step whose s fails the screen to tier 3 (past 2^23
# weights B may fall short by n u / 2 relative, which still hides no
# trip). Below the normal range a rounding is off by up to 2^-1075
# absolute instead: N's, times sum_k |c_k| < 2^1024, costs B at most
# 2^-51 a step, and those of the weights, of sum_k |c_k| and of B far
# less, under 2^-50 a step in all for any finite c_k; hiding a trip takes
# a shortfall of BOUND_LIMIT, more than 2^68 steps of it. A NaN or inf in
# a c_k or in x makes B NaN or inf, which fails `B <= BOUND_LIMIT`, so
# that step takes tiers 2 and 3.
GUARD_SCREEN = 0.25 * WEIGHT_GUARD**2
BOUND_LIMIT = 0.5 * WEIGHT_GUARD
BOUND_GROWTH = 1.0 + 2.0**-30


def check_weights(weights: np.ndarray, step: int, coords=None) -> None:
    """Raise DivergenceError unless every weight is finite and within the
    guard. NaN compares false, so the one reduction catches it too."""
    if not (np.abs(weights).max() <= WEIGHT_GUARD):
        what = ("adaptive weights exceeded guard" if coords is None
                else f"filter {coords} exceeded weight guard")
        raise DivergenceError(f"{what} at step {step}", index=step, coords=coords)


def window_norm_bound(x: np.ndarray, taps: int) -> float:
    """N of the running bound: sqrt(taps) * max|x| is at least the 2-norm
    of every length-`taps` window of x; NaN or inf if x holds either."""
    return math.sqrt(taps) * max(float(x.max()), -float(x.min()))


def guard_reset(weights: np.ndarray, step: int) -> float:
    """Tiers 2 and 3 of the guard rule, for weights the running bound no
    longer clears: the squared-norm screen over every weight, then
    `check_weights` where it fails. `weights` is a (J, L) stack of
    filters (a fit's (P, N) rows), checked filter by filter as (0, j) in
    `step`'s order. Returns the bound reset from the squared norm."""
    flat = weights.reshape(-1)
    sq = dot(flat, flat)
    if not (sq <= GUARD_SCREEN):
        for j, w in enumerate(weights):
            check_weights(w, step, (0, j))
    return math.sqrt(sq) * BOUND_GROWTH


@dataclass(frozen=True)
class ChannelConfig:
    """Controller geometry: I references, J sources, K mics, L control taps,
    M secondary-estimate taps."""

    n_refs: int
    n_sources: int
    n_mics: int
    control_taps: int
    estimate_taps: int

    def __post_init__(self):
        for name in ("n_refs", "n_sources", "n_mics", "control_taps", "estimate_taps"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")


@dataclass(frozen=True)
class MacCount:
    """Multiply-accumulate operations per sampling period, by algorithm step."""

    output: int        # source outputs y_j:          I*J*L
    filtered_x: int    # filtered references fx_ijk:  I*J*K*M
    update: int        # weight updates + cost:       I*J*K*L + K
    total: int


def mac_count(cfg: ChannelConfig) -> MacCount:
    """Closed-form MAC cost (I*J*K + I*J)*L + I*J*K*M + K, with the
    three per-step terms of the complexity table."""
    i, j, k = cfg.n_refs, cfg.n_sources, cfg.n_mics
    el, m = cfg.control_taps, cfg.estimate_taps
    output = i * j * el
    filtered_x = i * j * k * m
    update = i * j * k * el + k
    return MacCount(output=output, filtered_x=filtered_x, update=update,
                    total=output + filtered_x + update)


class MacCounter:
    """Tallies the multiply-accumulate operations `McAncController.step`
    performs, from the sizes of the operands it multiplies."""

    def __init__(self):
        self.output = 0
        self.filtered_x = 0
        self.update = 0

    @property
    def total(self) -> int:
        return self.output + self.filtered_x + self.update


@dataclass(slots=True)
class RecursionState:
    """What an FxLMS recursion carries from one sample to the next, shared
    by `McAncController.step` and `loops.run_lanes`: weights `v` (I, J, L),
    each filter reversed to align with its window; windows, newest sample
    last, of the references `x` (I, max(L, M)), long enough for the
    control filters and the estimates, and of the filtered references `fx`
    (I, J, K, L); the path estimates `est` (J, K, M); the steps taken."""

    v: np.ndarray
    x: np.ndarray
    fx: np.ndarray
    est: np.ndarray
    steps: int = 0


class McAncController:
    """Multichannel FxLMS state machine.

    `step(x, e)` consumes one sample from every reference sensor plus the
    current error-microphone vector, returns the J source outputs, and
    updates every adaptive filter. Its recursion state is `state`, the
    record `loops.run_lanes` advances too.
    """

    def __init__(self, cfg: ChannelConfig, mu: float, sec_estimates):
        if not (mu >= 0 and math.isfinite(mu)):
            raise DataError(f"mu must be finite and non-negative, got {mu}")
        self.cfg = cfg
        self.mu = float(mu)
        I, J, K = cfg.n_refs, cfg.n_sources, cfg.n_mics
        L, M = cfg.control_taps, cfg.estimate_taps
        est = np.asarray(sec_estimates, dtype=np.float64)
        if est.shape != (J, K, M):
            raise DataError(
                f"secondary estimates must have shape ({J}, {K}, {M}), got {est.shape}")
        if not np.all(np.isfinite(est)):
            raise DataError("secondary estimates must be finite")
        self._est_rev = est[:, :, ::-1].copy()
        self.state = RecursionState(np.zeros((I, J, L)), np.zeros((I, max(L, M))),
                                    np.zeros((I, J, K, L)), est.copy())
        self.last_cost = 0.0

    @property
    def n_refs(self) -> int:
        return self.cfg.n_refs

    @property
    def n_sources(self) -> int:
        return self.cfg.n_sources

    @property
    def n_mics(self) -> int:
        return self.cfg.n_mics

    @property
    def weights(self) -> np.ndarray:
        """Weight grid with shape (I, J, L) in [w_0, ..., w_{L-1}] order."""
        return self.state.v[:, :, ::-1].copy()

    @weights.setter
    def weights(self, w) -> None:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != self.state.v.shape:
            raise DataError(f"expected weight shape {self.state.v.shape}, got {w.shape}")
        self.state.v = w[:, :, ::-1].copy()

    @property
    def sec_estimates(self) -> np.ndarray:
        return self.state.est.copy()

    def step(self, x_samples, e_samples, counter: MacCounter | None = None) -> np.ndarray:
        I, K = self.cfg.n_refs, self.cfg.n_mics
        x = np.atleast_1d(np.asarray(x_samples, dtype=np.float64))
        e = np.atleast_1d(np.asarray(e_samples, dtype=np.float64))
        if x.size != I:
            raise DataError(f"expected {I} reference samples, got {x.size}")
        if e.size != K:
            raise DataError(f"expected {K} error samples, got {e.size}")
        if not (np.isfinite(x).all() and np.isfinite(e).all()):
            raise DataError("non-finite input to multichannel step")
        return self._advance(x, e, counter)

    def _advance(self, x, e, counter: MacCounter | None = None) -> np.ndarray:
        """`step` on checked inputs: I finite samples and an array of K."""
        cfg = self.cfg
        I, J, K = cfg.n_refs, cfg.n_sources, cfg.n_mics
        L, M = cfg.control_taps, cfg.estimate_taps
        state, est_rev = self.state, self._est_rev
        v, xh, fx = state.v, state.x, state.fx
        xh[:, :-1] = xh[:, 1:]
        xh[:, -1] = x
        fx[..., :-1] = fx[..., 1:]
        n_output = n_filtered_x = n_update = 0

        u = np.empty(J)
        for j in range(J):
            for i in range(I):
                w = v[i, j]
                y = float(dot(w, xh[i, -L:]))
                # no leading 0.0: it would turn a -0.0 output into +0.0
                u[j] = y if i == 0 else u[j] + y
                n_output += w.size

        for i in range(I):
            x_win_m = xh[i, -M:]
            for j in range(J):
                for k in range(K):
                    s = est_rev[j, k]
                    fx[i, j, k, -1] = float(dot(s, x_win_m))
                    n_filtered_x += s.size

        if self.mu != 0.0:
            mu = self.mu
            for i in range(I):
                for j in range(J):
                    v_ij = v[i, j]
                    for k in range(K):
                        fx_ijk = fx[i, j, k]
                        v_ij += (-mu * e[k]) * fx_ijk
                        n_update += fx_ijk.size
                    check_weights(v_ij, state.steps, coords=(i, j))
        self.last_cost = float(dot(e, e))
        n_update += len(e)
        if counter is not None:
            counter.output += n_output
            counter.filtered_x += n_filtered_x
            counter.update += n_update
        state.steps += 1
        return u

    def reset(self) -> None:
        s = self.state
        self.state = RecursionState(np.zeros_like(s.v), np.zeros_like(s.x), np.zeros_like(s.fx),
                                    s.est)
        self.last_cost = 0.0


def mac_measure(cfg: ChannelConfig, n_samples: int, seed: int = 0) -> int:
    """Measured MACs per sample from an instrumented run on synthetic data.

    The counter tallies the operands `step` multiplies, so it reproduces
    `mac_count` only while the step does the work the complexity table
    charges; white-noise inputs and a small nonzero mu keep every step on
    its normal path.
    """
    if n_samples < 1:
        raise DataError("need at least one sample")
    rng = np.random.default_rng(seed)
    est = rng.standard_normal((cfg.n_sources, cfg.n_mics, cfg.estimate_taps)) * 0.1
    ctrl = McAncController(cfg, mu=1e-4, sec_estimates=est)
    counter = MacCounter()
    for _ in range(n_samples):
        x = rng.standard_normal(cfg.n_refs)
        e = rng.standard_normal(cfg.n_mics) * 0.1
        ctrl.step(x, e, counter=counter)
    total = counter.total
    if total % n_samples:
        raise DataError("instrumented count is not an integer per sample")
    return total // n_samples
