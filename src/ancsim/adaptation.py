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
It has two per-sample bodies, and the row count picks one. One row takes
`loops.run_adaptive`'s form: a dot for y(n), one scaled update and a
one-dot guard screen, with no array call beyond those. Several rows take one
`filters.rowdots` over the stacked windows for every output, so the calls a
sample stay fixed as P grows. The stacked body's fixed array calls cost
more than the one-row body's whole sample, and per-row dots cost more
than one `np.vecdot` once P > 1, so neither body is the faster at both.
Both form each output with the same `cblas_ddot` and each update with
the same elementwise operations, bit for bit.

`FxlmsFilter` has no recursion of its own: it is the 1x1x1 case of the
multichannel controller in `mcanc`, whose bare-mu update with coefficient
2 mu is this one exactly (doubling is exact). The weight guard lives in
`mcanc` beside that recursion; `LmsFilter` imports it from there.
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
from .filters import FirFilter, rowdots
from .mcanc import GUARD_SCREEN, WEIGHT_GUARD, ChannelConfig, McAncController, check_weights
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
        y = float(np.dot(v, window))
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
    """

    def __init__(self, n_taps: int, mu: float, sec_path_estimate):
        check_lms_args(n_taps, mu)
        s = np.atleast_1d(np.asarray(sec_path_estimate, dtype=np.float64))
        if not np.all(np.isfinite(s)):
            raise DataError("secondary path estimate must be finite")
        self.n_taps = n_taps
        # the 1x1x1 controller this filter is; `loops.run_adaptive` runs it
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

    @property
    def filtered_reference_window(self) -> np.ndarray:
        """X_f(n) = [x_f(n), ..., x_f(n-N+1)] as of the last step."""
        return self.controller._fx[0, 0, 0, ::-1].copy()

    @property
    def reference_window(self) -> np.ndarray:
        return self.controller._x[0, -self.n_taps:][::-1].copy()

    def step(self, x: float, e_measured: float) -> float:
        if not (math.isfinite(x) and math.isfinite(e_measured)):
            raise DataError("non-finite input to FxLMS step")
        try:
            return float(self.controller._advance((x,), (e_measured,))[0])
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
    `ndarray.dot` of the weights with the window (never a matrix product,
    which sums in another order), then V += (2 mu e(n)) X(n). y and e are
    (P, T); `diverged` is None or (p, n), the first row whose guard ever
    tripped and the sample where it did. Rows before p finish; the others
    stop at sample n or earlier.

    The row count picks the per-sample body. One row (`LmsFilter.run`,
    every 1x1 identification) runs `_fit_row`: one dot, one scaled update
    and one guard dot per sample, the fewest calls. Several rows run
    `_fit_rows`: one `np.vecdot` forms every row's output, the same
    `cblas_ddot` per row, so the call count does not grow with P. Each
    body is the faster one for its row count; neither changes a bit.
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
    for the sample n whose update tripped the guard, else None."""
    v, x, y = v[0], x[0], y[0]
    N, v_dot = v.size, v.dot
    ys = []
    for n, d_n in enumerate(d[0, start:].tolist(), start):
        x_n = x[n:n + N]
        y_n = v_dot(x_n)
        ys.append(y_n)
        if step != 0.0:
            v += (step * (d_n - y_n)) * x_n
            # the one-dot screen, then the exact `check_weights` test
            if not (v_dot(v) <= GUARD_SCREEN) and not (np.abs(v).max() <= WEIGHT_GUARD):
                y[start:n + 1] = ys
                return 0, n
    y[start:] = ys
    return None


def _fit_rows(v, x, d, y, step, start):
    """`lms_fit` on every row from sample `start`, writing y; returns
    (p, n) for the first row whose update at sample n tripped the guard,
    else None."""
    P, N = v.shape
    # w_at[n] stacks the rows' windows X(n)
    w_at = sliding_window_view(x, N, axis=1).transpose(1, 0, 2)
    y_at, d_at = y.T, d.T
    c_col, update = np.empty((P, 1)), np.empty((P, N))
    c = c_col[:, 0]
    for n in range(start, d.shape[1]):
        y_n = rowdots(v, w_at[n], out=y_at[n])
        if step != 0.0:
            np.subtract(d_at[n], y_n, c)
            np.multiply(step, c, c)
            np.multiply(c_col, w_at[n], update)
            v += update
            if not (np.vdot(v, v) <= GUARD_SCREEN):
                tripped = np.flatnonzero(~(np.abs(v).max(axis=1) <= WEIGHT_GUARD))
                if tripped.size:
                    return int(tripped[0]), n
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


def fxlms_mu_bound(e, xf_norm_sq, psi=None) -> float:
    """Convergence bound 2 E{psi e} / E{psi^2 ||X_f||^2} from run traces.

    psi defaults to the error trace itself, reducing the bound to the
    classical 2 / E{||X_f||^2} form. Pass an explicit psi trace to study
    other weightings of the deviation recursion.
    """
    e = np.asarray(e, dtype=np.float64)
    xf_norm_sq = np.asarray(xf_norm_sq, dtype=np.float64)
    if e.size == 0 or xf_norm_sq.size == 0:
        raise UndefinedBoundError("empty trace")
    if e.shape != xf_norm_sq.shape:
        raise DataError("trace lengths differ")
    psi = e if psi is None else np.asarray(psi, dtype=np.float64)
    if psi.shape != e.shape:
        raise DataError("psi trace length differs")
    denom = float(np.mean(psi**2 * xf_norm_sq))
    if denom == 0.0:
        raise UndefinedBoundError("zero-power filtered reference trace")
    return 2.0 * float(np.mean(psi * e)) / denom
