"""Multichannel filtered-x LMS controller and its MAC-cost accounting.

Geometry: I reference sensors, J secondary sources, K error microphones.
The controller holds an I x J grid of length-L adaptive filters and a
J x K grid of length-M secondary-path estimates. Each source output is

    y_j(n) = sum_i w_(i,j)^T x_i(n)

and each (i, j) filter updates with the error summed over microphones,

    w_(i,j)(n+1) = w_(i,j)(n) - mu sum_k e_k(n) fx_(i,j,k)(n),

where fx_(i,j,k) is reference i filtered through the (j, k) path
estimate. Note the update carries a bare mu where the single-channel
derivation carries 2 mu: a 1x1x1 controller with step size 2*mu_sc is
update-for-update identical to a single-channel FxlmsFilter with mu_sc.

The filtered-reference sum runs over all M estimate taps (m = 0..M-1);
the complexity table's per-step charge of I*J*K*M multiply-accumulates
corresponds to exactly that many terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptation import check_weights
from .errors import DataError
from .filters import DelayLine


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
    """Tallies multiply-accumulate operations reported by an instrumented run."""

    def __init__(self):
        self.output = 0
        self.filtered_x = 0
        self.update = 0

    @property
    def total(self) -> int:
        return self.output + self.filtered_x + self.update


class McAncController:
    """Multichannel FxLMS state machine.

    `step(x, e)` consumes one sample from every reference sensor plus the
    current error-microphone vector, returns the J source outputs, and
    updates every adaptive filter. Reference histories are shared per
    sensor and sized max(L, M) so both the control filters and the
    filtered-reference generation see enough past samples.
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
        self._est = est.copy()
        self._est_rev = est[:, :, ::-1].copy()
        # chronologically aligned weights, one vector per (i, j)
        self._v = np.zeros((I, J, L))
        hist = max(L, M)
        self._x_lines = [DelayLine(hist) for _ in range(I)]
        self._fx_lines = [[[DelayLine(L) for _ in range(K)] for _ in range(J)]
                          for _ in range(I)]
        self.last_cost = 0.0
        self._step_count = 0

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
        return self._v[:, :, ::-1].copy()

    @weights.setter
    def weights(self, w) -> None:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != self._v.shape:
            raise DataError(f"expected weight shape {self._v.shape}, got {w.shape}")
        self._v = w[:, :, ::-1].copy()

    @property
    def sec_estimates(self) -> np.ndarray:
        return self._est.copy()

    def step(self, x_samples, e_samples, counter: MacCounter | None = None) -> np.ndarray:
        cfg = self.cfg
        I, J, K, L, M = (cfg.n_refs, cfg.n_sources, cfg.n_mics,
                         cfg.control_taps, cfg.estimate_taps)
        x = np.atleast_1d(np.asarray(x_samples, dtype=np.float64))
        e = np.atleast_1d(np.asarray(e_samples, dtype=np.float64))
        if x.size != I:
            raise DataError(f"expected {I} reference samples, got {x.size}")
        if e.size != K:
            raise DataError(f"expected {K} error samples, got {e.size}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(e))):
            raise DataError("non-finite input to multichannel step")

        for i in range(I):
            self._x_lines[i].push(x[i])

        u = np.zeros(J)
        for j in range(J):
            acc = 0.0
            for i in range(I):
                acc += float(np.dot(self._v[i, j], self._x_lines[i].last(L)))
            u[j] = acc
        if counter is not None:
            counter.output += I * J * L

        for i in range(I):
            x_win_m = self._x_lines[i].last(M)
            fx_i = self._fx_lines[i]
            for j in range(J):
                fx_ij = fx_i[j]
                est_rev_j = self._est_rev[j]
                for k in range(K):
                    fx_ij[k].push(float(np.dot(est_rev_j[k], x_win_m)))
        if counter is not None:
            counter.filtered_x += I * J * K * M

        if self.mu != 0.0:
            mu = self.mu
            for i in range(I):
                fx_i = self._fx_lines[i]
                for j in range(J):
                    v_ij = self._v[i, j]
                    fx_ij = fx_i[j]
                    for k in range(K):
                        v_ij += (-mu * e[k]) * fx_ij[k].window()
                    check_weights(v_ij, self._step_count, coords=(i, j))
        self.last_cost = float(np.dot(e, e))
        if counter is not None:
            counter.update += I * J * K * L + K
        self._step_count += 1
        return u

    def reset(self) -> None:
        self._v[:] = 0.0
        for line in self._x_lines:
            line.reset()
        for plane in self._fx_lines:
            for row in plane:
                for line in row:
                    line.reset()
        self.last_cost = 0.0
        self._step_count = 0


def mac_measure(cfg: ChannelConfig, n_samples: int, seed: int = 0) -> int:
    """Measured MACs per sample from an instrumented run on synthetic data.

    The counter must reproduce `mac_count` exactly; white-noise inputs and
    a small nonzero mu keep every step on its normal path.
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
