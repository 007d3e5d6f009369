"""Single-channel adaptive algorithms: LMS, filtered-x LMS, the Wiener
(optimal filter) oracle, step-size bounds, and convergence diagnostics.

LMS minimizes the squared error e(n) = d(n) - W^T(n) X(n) by the
instantaneous-gradient update

    W(n+1) = W(n) + 2 mu e(n) X(n).

Filtered-x LMS drives an error that the acoustic plant forms as
disturbance PLUS secondary-path-filtered output, so its update descends
with the opposite sign and replaces X(n) by the reference filtered
through the secondary-path estimate:

    W(n+1) = W(n) - 2 mu e(n) X_f(n),   x_f(n) = sum_i s_hat_i x(n-i).

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
from .filters import DelayLine, FirFilter
from .mcanc import ChannelConfig, McAncController, check_weights
from .signals import as_samples

CONDITION_LIMIT = 1e12


class LmsFilter:
    """Least-mean-square adaptive FIR filter.

    Weights start at zero. Each `step` consumes one reference sample x and
    one desired sample d, returns (y, e), and updates the weights in place.
    Internally the weight vector is stored aligned with the chronological
    delay-line window; the `weights` property exposes the conventional
    [w_0, ..., w_{N-1}] order.
    """

    def __init__(self, n_taps: int, mu: float):
        if n_taps < 1:
            raise DataError("need at least one tap")
        if not (mu >= 0 and math.isfinite(mu)):
            raise DataError(f"mu must be finite and non-negative, got {mu}")
        self.n_taps = n_taps
        self.mu = float(mu)
        self._v = np.zeros(n_taps)  # chronologically aligned weights
        self._line = DelayLine(n_taps)
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

    @property
    def reference_window(self) -> np.ndarray:
        """X(n) = [x(n), ..., x(n-N+1)] as of the last step."""
        return self._line.window()[::-1].copy()

    def step(self, x: float, d: float) -> tuple[float, float]:
        if not (math.isfinite(x) and math.isfinite(d)):
            raise DataError("non-finite input to LMS step")
        line, v = self._line, self._v
        line.push(x)
        window = line.window()
        y = float(np.dot(v, window))
        e = d - y
        if self.mu != 0.0:
            v += (2.0 * self.mu * e) * window
            check_weights(v, self._step_count)
        self._step_count += 1
        return y, e

    def run(self, x, d, weight_stride: int = 0):
        """Drive the filter over whole arrays; returns an AdaptationRun.

        On divergence the run is truncated at the failing step and the
        raised DivergenceError is recorded instead of propagated.
        """
        xs, ds = as_samples(x), as_samples(d)
        if xs.size != ds.size:
            raise DataError("reference and desired signals differ in length")
        y = np.empty(xs.size)
        e = np.empty(xs.size)
        snaps, snap_steps = [], []
        diverged_at = None
        for n in range(xs.size):
            try:
                y[n], e[n] = self.step(xs[n], ds[n])
            except DivergenceError as err:
                diverged_at = err.index
                y, e = y[:n], e[:n]
                break
            if weight_stride and (n + 1) % weight_stride == 0:
                snaps.append(self.weights)
                snap_steps.append(n)
        return AdaptationRun(
            y=y, e=e,
            weight_snapshots=np.array(snaps) if snaps else None,
            snapshot_steps=np.array(snap_steps, dtype=int) if snaps else None,
            final_weights=self.weights,
            diverged_at=diverged_at,
        )

    def reset(self) -> None:
        self._v[:] = 0.0
        self._line.reset()
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
        if n_taps < 1:
            raise DataError("need at least one tap")
        if not (mu >= 0 and math.isfinite(mu)):
            raise DataError(f"mu must be finite and non-negative, got {mu}")
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
    weight_snapshots: np.ndarray | None
    snapshot_steps: np.ndarray | None
    final_weights: np.ndarray
    diverged_at: int | None = None
    xf_norm_sq: np.ndarray | None = None

    @property
    def mse(self) -> np.ndarray:
        return self.e**2


@dataclass
class ConvergenceTrace:
    """Mean-square deviation from a target weight vector plus squared error.

    msd[i] = ||w_opt - W(step i)||^2 at the retained snapshots, mse is the
    per-sample squared error, and mu_bound is the estimated admissible
    step-size upper limit for the run (None when not estimable).
    """

    msd: np.ndarray
    mse: np.ndarray
    snapshot_steps: np.ndarray
    mu_bound: float | None = None


def convergence_trace(run: AdaptationRun, w_opt) -> ConvergenceTrace:
    """Deviation diagnostics of a run against a known optimum."""
    if run.weight_snapshots is None:
        raise DataError("run was recorded without weight snapshots")
    w_opt = np.asarray(w_opt, dtype=np.float64)
    if w_opt.shape != run.weight_snapshots.shape[1:]:
        raise DataError(
            f"optimum shape {w_opt.shape} does not match snapshots "
            f"{run.weight_snapshots.shape[1:]}")
    dev = run.weight_snapshots - w_opt
    msd = np.einsum("ij,ij->i", dev, dev)
    mu_bound = None
    if run.xf_norm_sq is not None and run.e.size:
        try:
            mu_bound = fxlms_mu_bound(run.e, run.xf_norm_sq[:run.e.size])
        except UndefinedBoundError:
            mu_bound = None
    return ConvergenceTrace(msd=msd, mse=run.mse,
                            snapshot_steps=run.snapshot_steps, mu_bound=mu_bound)


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
