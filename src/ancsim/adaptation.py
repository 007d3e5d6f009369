"""Single-channel adaptive algorithms: LMS, filtered-x LMS, the Wiener
(optimal filter) oracle and step-size bounds.

LMS minimizes the squared error e(n) = d(n) - W^T(n) X(n) by the
instantaneous-gradient update

    W(n+1) = W(n) + 2 mu e(n) X(n).

Filtered-x LMS drives an error that the acoustic plant forms as
disturbance PLUS secondary-path-filtered output, so its update descends
with the opposite sign and replaces X(n) by the reference filtered
through the secondary-path estimate:

    W(n+1) = W(n) - 2 mu e(n) X_f(n),   x_f(n) = sum_i s_hat_i x(n-i).

`lms_fit` runs `LmsFilter.step`'s arithmetic for P independent filters at
once: `LmsFilter.run` is its P = 1 case; identification fits whole grids.
Its two per-sample bodies, one for one row and one for several, carry
`mcanc`'s running norm bound and give the same bits.

`FxlmsFilter` has no recursion of its own: it is the 1x1x1 case of the
multichannel controller in `mcanc`, whose bare-mu update with coefficient
2 mu is this one exactly (doubling is exact). The weight guard lives in
`mcanc` beside that recursion; `LmsFilter` imports it from there. Every
dot is `filters`', except in `wiener_solve`, which no export reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConditioningError,
    DataError,
    DivergenceError,
    UndefinedBoundError,
)
from .filters import FirFilter, dot, row_reduction
from .mcanc import (
    BOUND_GROWTH,
    BOUND_LIMIT,
    ChannelConfig,
    McAncController,
    check_weights,
    guard_reset,
    window_norm_bound,
)
from .signals import as_samples

CONDITION_LIMIT = 1e12


def check_lms_args(n_taps: int, mu: float) -> None:
    if n_taps < 1:
        raise DataError("need at least one tap")
    if not (mu >= 0 and math.isfinite(mu)):
        raise DataError(f"mu must be finite and non-negative, got {mu}")


class LmsFilter:
    """Least-mean-square adaptive FIR filter.

    Weights start at zero. Each `step` consumes one reference sample x and
    one desired sample d, returns (y, e), and updates the weights in place.
    Internally the weight vector is stored aligned with the chronological
    reference window; the `weights` property exposes the conventional
    [w_0, ..., w_{N-1}] order.
    """

    def __init__(self, n_taps: int, mu: float):
        check_lms_args(n_taps, mu)
        self.n_taps = n_taps
        self.mu = float(mu)
        self._v = np.zeros(n_taps)  # chronologically aligned weights
        self._x = np.zeros(n_taps)  # chronological window, newest last
        self._step_count = 0

    @property
    def weights(self) -> np.ndarray:
        return self._v[::-1].copy()

    @weights.setter
    def weights(self, w) -> None:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.n_taps,):
            raise DataError(f"expected {self.n_taps} weights, got shape {w.shape}")
        self._v = w[::-1].copy()

    def step(self, x: float, d: float) -> tuple[float, float]:
        if not (math.isfinite(x) and math.isfinite(d)):
            raise DataError("non-finite input to LMS step")
        window, v = self._x, self._v
        window[:-1] = window[1:]
        window[-1] = x
        y = float(dot(v, window))
        e = d - y
        if self.mu != 0.0:
            v += (2.0 * self.mu * e) * window
            check_weights(v, self._step_count)
        self._step_count += 1
        return y, e

    def run(self, x, d):
        """`lms_fit` with one row, from and to the state repeated `step`
        calls would pass through; returns an AdaptationRun. Divergence
        truncates the run before the failing step and records that step."""
        xs, ds = as_samples(x), as_samples(d)
        if xs.size != ds.size:
            raise DataError("reference and desired signals differ in length")
        # the stored window, then the new samples: X(n) is hist[n+1:n+1+N]
        hist = np.concatenate([self._x, xs])
        y, e, diverged = lms_fit(self._v[None], hist[None, 1:], ds[None], self.mu)
        steps = xs.size if diverged is None else diverged[1]
        # a step that trips the guard has taken its sample but does not count
        self._x = hist[xs.size if diverged is None else steps + 1:][:self.n_taps].copy()
        diverged_at = None if diverged is None else self._step_count + steps
        self._step_count += steps
        return AdaptationRun(y[0, :steps], e[0, :steps], self.weights, diverged_at)

    def reset(self) -> None:
        self._v[:] = 0.0
        self._x[:] = 0.0
        self._step_count = 0


class FxlmsFilter:
    """Filtered-x LMS controller for one reference / one source / one mic.

    The 1x1x1 `McAncController` with update coefficient 2 mu, behind a
    scalar interface. `step(x, e)` implements one pass of the algorithm's
    execution order: push x, emit u = W^T X for the loudspeaker, push the
    filtered reference x_f = s_hat * x, then update W by -2 mu e X_f. The
    error sample must come from the plant for the current instant, i.e. it
    was produced by control output emitted on earlier steps.

    The reference history is sized max(n_taps, len(s_hat)) so the
    filtered-reference generation stays correct when the path estimate is
    longer than the control filter.
    It is the public scalar API and the oracle the 1x1x1 grid is tested
    against; the loops take its `controller`, not the filter.
    """

    def __init__(self, n_taps: int, mu: float, sec_path_estimate):
        check_lms_args(n_taps, mu)
        s = np.atleast_1d(np.asarray(sec_path_estimate, dtype=np.float64))
        if not np.all(np.isfinite(s)):
            raise DataError("secondary path estimate must be finite")
        self.n_taps = n_taps
        # the 1x1x1 controller this filter is, which the loops run
        self.controller = McAncController(
            ChannelConfig(1, 1, 1, n_taps, s.size), 2.0 * float(mu), s.reshape(1, 1, -1))

    @property
    def mu(self) -> float:
        """Single-channel step size: half the controller's coefficient."""
        return self.controller.mu / 2.0

    @mu.setter
    def mu(self, mu: float) -> None:
        self.controller.mu = 2.0 * float(mu)

    @property
    def weights(self) -> np.ndarray:
        return self.controller.weights[0, 0]

    @weights.setter
    def weights(self, w) -> None:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.n_taps,):
            raise DataError(f"expected {self.n_taps} weights, got shape {w.shape}")
        self.controller.weights = w.reshape(1, 1, -1)

    @property
    def sec_path_estimate(self) -> np.ndarray:
        return self.controller.sec_estimates[0, 0]

    def step(self, x: float, e_measured: float) -> float:
        if not (math.isfinite(x) and math.isfinite(e_measured)):
            raise DataError("non-finite input to FxLMS step")
        try:
            return float(self.controller._advance((x,), np.array((e_measured,)))[0])
        except DivergenceError as err:
            # one filter: no grid coordinates to report
            raise DivergenceError(f"adaptive weights exceeded guard at step {err.index}",
                                  index=err.index) from None

    def freeze(self) -> FirFilter:
        """Immutable FIR snapshot of the current weights.

        Running the snapshot over a reference stream reproduces this
        controller's output with adaptation disabled (mu = 0 semantics).
        """
        return FirFilter(self.weights)

    def reset(self) -> None:
        self.controller.reset()


@dataclass
class AdaptationRun:
    """Per-sample artifacts of an adaptive run."""

    y: np.ndarray
    e: np.ndarray
    final_weights: np.ndarray
    diverged_at: int | None = None


def lms_fit(v: np.ndarray, x: np.ndarray, d: np.ndarray, mu: float):
    """Fit P independent LMS filters in one pass; returns (y, e, diverged).

    `v` (P, N) holds weights aligned with chronological windows, as in
    `LmsFilter`, and is updated in place; row p of `x` (P, N - 1 + T) is
    filter p's N - 1 history samples, then its T new ones, and row p of
    `d` (P, T) its desired samples. Each sample takes `step`'s arithmetic,
    so each row equals its own `step` loop bit for bit: y(n) is the
    `filters.dot` of the weights with the window, then V += (2 mu e(n))
    X(n). y and e are (P, T); `diverged` is None or (p, n), the first row
    whose guard ever tripped and the sample where it did. Rows before p finish; the others
    stop at sample n or earlier.

    The row count picks the per-sample body; both carry the guard rule's
    running norm bound in place of a guard dot. One row (`LmsFilter.run`,
    every 1x1 identification) runs `_fit_row`: per sample one dot, one
    product into a scratch buffer and one in-place add, the fewest calls.
    Several rows run `_fit_rows`: six calls a sample whatever P is, on
    rows drawn from zipped views, operands positional: one row dot for
    every row's output, two calls for the coefficients, one product and
    one in-place add for the weights, and one `tolist` of the coefficients
    for the bound's sum_p |c_p|. Each body is the faster one for its row
    count; neither changes a bit.
    """
    P = v.shape[0]
    T = d.shape[1]
    y = np.zeros((P, T))
    diverged, start = None, 0
    while P and start < T:
        fit = _fit_row if P == 1 else _fit_rows
        tripped = fit(v[:P], x[:P], d[:P], y[:P], 2.0 * mu, start)
        if tripped is None:
            break
        diverged = tripped
        P, start = tripped[0], tripped[1] + 1
    # the same subtraction each step made, in one pass
    return y, d - y, diverged


def _fit_row(v, x, d, y, step, start):
    """`lms_fit` on one row from sample `start`, writing y; returns (0, n)
    for the sample n whose update tripped the guard, else None. Each
    sample is a dot, a scaled copy of the window and its in-place add to
    the weights, and the running bound of `mcanc`'s guard rule. The
    desired samples are read, and the outputs written, through memoryviews
    of their rows, one Python float at a time."""
    rows, v = v, v[0]
    N, v_dot = v.size, dot.__get__(v)
    x = x[0, start:]
    wins = sliding_window_view(x, N)
    norm = window_norm_bound(x, N)
    term = np.empty(N)
    multiply, add, fabs = np.multiply, np.add, math.fabs
    ys = memoryview(y[0])
    # infinite until the first update resets it from the weights' norm
    bound = math.inf
    for n, (d_n, x_n) in enumerate(zip(memoryview(d[0, start:]), wins), start):
        y_n = ys[n] = v_dot(x_n)
        if step != 0.0:
            c = step * (d_n - y_n)
            add(v, multiply(x_n, c, out=term), out=v)
            bound = (bound + fabs(c) * norm) * BOUND_GROWTH
            if not (bound <= BOUND_LIMIT):
                try:
                    bound = guard_reset(rows, n)
                except DivergenceError:
                    return 0, n
    return None


def _fit_rows(v, x, d, y, step, start):
    """`lms_fit` on every row from sample `start`, writing y; returns
    (p, n) for the first row whose update at sample n tripped the guard,
    else None. Each sample is one row dot for every row's output, the
    coefficients in two calls, one product of their column with the
    windows, one in-place add to the weights and one `tolist` of the
    coefficients for the running bound of `mcanc`'s guard rule, over the
    (P, N) stack; `guard_reset` names the first tripping row as (0, p)."""
    P, N = v.shape
    dot, index = row_reduction(N)
    multiply, subtract, add, fabs = np.multiply, np.subtract, np.add, math.fabs
    # row n: the rows' windows X(n), from sample `start` on
    x = x[:, start:]
    wins = sliding_window_view(x, N, axis=1).transpose(1, 0, 2)
    norm = window_norm_bound(x, N)
    c_col, update = np.empty((P, 1)), np.empty((P, N))
    # the outputs, desired samples and coefficients shaped as `dot` writes
    c, c_out = c_col[:, 0], c_col[:, 0][index]
    # infinite until the first update resets it from the weights' norm
    bound = math.inf
    rows = zip(wins, d.T[start:][index], y.T[start:][index])
    for n, (x_n, d_n, y_n) in enumerate(rows, start):
        dot(v, x_n, y_n)
        if step != 0.0:
            subtract(d_n, y_n, c_out)
            multiply(step, c_out, c_out)
            multiply(c_col, x_n, update)
            add(v, update, v)
            bound = (bound + sum(map(fabs, c.tolist())) * norm) * BOUND_GROWTH
            if not (bound <= BOUND_LIMIT):
                try:
                    bound = guard_reset(v, n)
                except DivergenceError as exc:
                    return exc.coords[1], n
    return None


def reference_matrix(x: np.ndarray, n_taps: int) -> np.ndarray:
    """Rows are X(n) = [x(n), ..., x(n-N+1)] with zero history before n=0."""
    xpad = np.concatenate([np.zeros(n_taps - 1), x])
    return sliding_window_view(xpad, n_taps)[:, ::-1]


def wiener_solve(x, d, n_taps: int):
    """Optimal weights W = R^-1 P from sample moment estimates.

    R_hat is the mean of X(n) X^T(n), P_hat the mean of d(n) X(n), both over
    the whole record with zeroed pre-history, matching the convolution
    convention used everywhere else. Raises ConditioningError when R_hat's
    condition number exceeds 1e12.
    """
    xs, ds = as_samples(x), as_samples(d)
    if xs.size != ds.size:
        raise DataError("signals differ in length")
    if xs.size < 10 * n_taps:
        raise DataError(f"need at least {10 * n_taps} samples for {n_taps} taps")
    X = reference_matrix(xs, n_taps)
    R = (X.T @ X) / xs.size
    P = (X.T @ ds) / xs.size
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.linalg.cond(R)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise ConditioningError(
            f"autocorrelation matrix condition number {cond:.3e} exceeds 1e12")
    return np.linalg.solve(R, P)


def lms_mu_bound(x, n_taps: int) -> float:
    """Step-size stability limit 1 / (N * P_x), the reciprocal of the input
    autocorrelation trace estimated as taps times mean squared sample."""
    xs = as_samples(x)
    if xs.size == 0:
        raise UndefinedBoundError("empty signal")
    if n_taps < 1:
        raise DataError("need at least one tap")
    power = float(np.mean(xs**2))
    if power == 0.0:
        raise UndefinedBoundError("all-zero signal has no step-size bound")
    return 1.0 / (n_taps * power)
