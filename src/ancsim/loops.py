"""Closed-loop execution of controllers against a simulated plant.

Per-sample ordering, identical for every controller kind: read x(n),
obtain e(n) from the plant, compute u(n), adapt, and only then does u(n)
reach the plant, affecting e(n+1) onward. The loop therefore inserts one
sample of latency between controller output and microphone response, so
the path a controller actually drives is the true secondary path behind
one extra delay. `loop_aligned_path` applies that shift to an estimate
before it is installed in a controller.

The loops do not step a `Plant`; they split it. The primary-path outputs,
the outputs of silent secondary paths and the measurement noise do not
depend on the control, so `PlantSplit.disturbance` computes them in one
pass (a `Disturbance`) that every arm over the same reference can share.
Only the secondary paths stay inside the per-sample loop, and only where
a controller adapts. Every term is the same `np.dot` over the same window
that `Plant.step` forms, added in the order `Plant.step` adds it, so each
loop reproduces a per-sample `Plant.step` run bit for bit. Do not replace
these dots by a matrix product or an FFT convolution: those sum in another
order and change the last bits.

There is one adaptive loop, `run_adaptive`, for the single-channel
`FxlmsFilter` and every 1xJxK `McAncController` alike: it inlines
`McAncController.step` over flat histories in its operand order.
`run_fixed` runs frozen weights, for which the loop is LTI end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acoustics import Plant
from .adaptation import FxlmsFilter
from .errors import DataError, DivergenceError
from .filters import FirFilter
from .mcanc import McAncController, check_weights
from .signals import as_samples


def loop_aligned_path(taps) -> np.ndarray:
    """Prepend the loop's one-sample latency to a path impulse response."""
    taps = np.atleast_1d(np.asarray(taps, dtype=np.float64))
    return np.concatenate([[0.0], taps])


@dataclass
class Disturbance:
    """The control-independent terms of the microphone signals over one
    stretch of reference: primary-path outputs (T, K), the output of each
    secondary path while its loudspeaker is silent (J, K), and the scaled
    measurement noise (T, K), or None for a noiseless plant."""

    primary: np.ndarray
    silent: np.ndarray
    noise: np.ndarray | None

    def uncontrolled(self) -> np.ndarray:
        """Microphone signals with every loudspeaker silent, (T, K), summed
        in the order Plant.step adds them: source by source, then noise."""
        d = self.primary.copy()
        for row in self.silent:
            d += row
        if self.noise is not None:
            d += self.noise
        return d


class PlantSplit:
    """A plant split into its control-independent terms and its secondary
    paths, each carrying its state from one block of samples to the next.

    Built from a plant's paths and seed: the plant's own state is neither
    read nor advanced, so the split starts where a freshly built (or
    reset) plant starts.
    """

    def __init__(self, plant: Plant):
        self.n_sources = plant.n_sources
        self.n_mics = plant.n_mics
        self._primaries = [f.clone() for f in plant.primaries]
        self._noise_std = plant.measurement_noise_std
        self._rng = np.random.default_rng(plant.seed)
        self.sec_taps = [[f.weights for f in row] for row in plant.secondaries]
        # reversed taps pair with chronological windows, as in FirFilter
        self.sec_rev = [[w[::-1].copy() for w in row] for row in self.sec_taps]
        self.silent = np.array([[f.clone().process_sample(0.0) for f in row]
                                for row in plant.secondaries])
        self.hist = max(w.size for row in self.sec_taps for w in row)
        # newest `hist` samples that reached each loudspeaker's paths
        self.u_hist = np.zeros((self.n_sources, self.hist))

    def disturbance(self, x) -> Disturbance:
        """Advance the primary paths and the noise generator over x."""
        xs = as_samples(x)
        if not np.all(np.isfinite(xs)):
            raise DataError("non-finite reference sample")
        primary = np.empty((xs.size, self.n_mics))
        for k, f in enumerate(self._primaries):
            primary[:, k] = f.process(xs)
        noise = None
        if self._noise_std > 0.0:
            noise = self._noise_std * self._rng.standard_normal((xs.size, self.n_mics))
        return Disturbance(primary, self.silent, noise)

    def drive(self, dist: Disturbance, u: np.ndarray) -> np.ndarray:
        """Microphone signals (T, K) for known controller outputs u (T, J).

        u(n) reaches the paths at step n+1; as in every loop here, the
        first sample of a call hears silent loudspeakers.
        """
        H = self.hist
        e = dist.primary.copy()
        for j in range(self.n_sources):
            u_in = np.concatenate([self.u_hist[j], [0.0], u[:-1, j]])[:H + len(u)]
            for k in range(self.n_mics):
                e[:, k] += FirFilter(self.sec_taps[j][k]).process(u_in)[H:]
            self.u_hist[j] = u_in[-H:]
        if dist.noise is not None:
            e += dist.noise
        return e


def _as_split(plant) -> PlantSplit:
    return plant if isinstance(plant, PlantSplit) else PlantSplit(plant)


def _split_and_disturbance(plant, xs: np.ndarray, disturbance):
    split = _as_split(plant)
    if disturbance is None:
        disturbance = split.disturbance(xs)
    elif disturbance.primary.shape[0] != xs.size:
        raise DataError(
            f"disturbance covers {disturbance.primary.shape[0]} samples, "
            f"reference has {xs.size}")
    return split, disturbance


def run_uncontrolled_signal(plant, x) -> Disturbance:
    """The uncontrolled run: the plant's control-independent terms over x.

    Its `uncontrolled()` signal is the uncontrolled arm; the controlled
    arms over the same reference take it as their `disturbance`.
    """
    return _as_split(plant).disturbance(x)


@dataclass
class LoopResult:
    """Artifacts of one control-loop run: error (T,) for an `FxlmsFilter`
    or a frozen (L,) filter, else (T, K), and the matching controller
    outputs. A diverged run ends at the step whose update tripped the
    guard: its error includes that sample, its output does not."""

    error: np.ndarray
    output: np.ndarray
    final_weights: np.ndarray | None = None
    diverged_at: int | None = None
    diverged_coords: tuple | None = None


def run_adaptive(plant, controller: FxlmsFilter | McAncController, x,
                 disturbance: Disturbance | None = None) -> LoopResult:
    """Adaptive FxLMS run over a reference signal.

    `controller` is an `FxlmsFilter` on a 1x1 plant, giving (T,) error and
    output, or a `McAncController` with one reference on a plant with its
    J sources and K mics, giving (T, K) errors and (T, J) outputs. `plant`
    is a `Plant`, split afresh, or a `PlantSplit` whose state carries over
    from earlier calls. `disturbance`, when given, holds the plant's
    control-independent terms over x. The controller's state advances
    exactly as repeated `step` calls would advance it.

    Divergence truncates the run at the failing step instead of
    propagating, so partial traces remain available for diagnostics.
    """
    xs = as_samples(x)
    single = isinstance(controller, FxlmsFilter)
    ctl = controller.controller if single else controller
    if ctl.n_refs != 1:
        raise DataError("plant accepts a single reference input; use I=1 here")
    split, dist = _split_and_disturbance(plant, xs, disturbance)
    if (split.n_sources, split.n_mics) != (ctl.n_sources, ctl.n_mics):
        raise DataError(
            f"plant has {split.n_sources} sources and {split.n_mics} mics, "
            f"controller drives {ctl.n_sources} and listens to {ctl.n_mics}")
    T, J, K, H = xs.size, split.n_sources, split.n_mics, split.hist
    v, est_rev, mu = ctl._v[0], ctl._est_rev, ctl.mu
    L, M, hx = v.shape[1], est_rev.shape[2], ctl._x.shape[1]
    step0 = ctl._step_count

    # flat histories: the controller's stored windows, then this call's
    # samples; x(n) sits at index hx+n and x_f(n) at L+n
    x_buf = np.concatenate([ctl._x[0], xs])
    fx_buf = np.empty((J, K, L + T))
    fx_buf[:, :, :L] = ctl._fx[0]
    # loudspeaker history, then u_j(n-1) at column H+n; the first sample of
    # every call reaches the paths as silence
    u_buf = np.zeros((J, H + T + 1))
    u_buf[:, :H] = split.u_hist

    # Python floats: the same IEEE arithmetic as the plant's, less overhead.
    # Flat, row after row: err[n*K + k] becomes e_k(n) in place.
    err = dist.primary.ravel().tolist()
    noise = None if dist.noise is None else dist.noise.ravel().tolist()
    # flattened in Plant.step's (j, k) order: mic, loudspeaker row, lag
    paths = [(k, u_buf[j], H - s.size, s.dot)
             for j, paths_j in enumerate(split.sec_rev) for k, s in enumerate(paths_j)]
    controls = [(u_buf[j], v[j].dot) for j in range(J)]
    filters = [(fx_buf[j, k], est_rev[j, k].dot) for j in range(J) for k in range(K)]
    # each filter's update terms in mic order; the guard checks the filter
    # right after its last term, so it carries coordinates only there
    updates = [(v[j], k, fx_buf[j, k], (0, j) if k == K - 1 else None)
               for j in range(J) for k in range(K)]
    diverged_at = diverged_coords = None
    steps = T
    for n in range(T):
        at, n1 = n * K, n + 1
        for k, u_row, lag, path_dot in paths:
            err[at + k] += path_dot(u_row[n1 + lag:n1 + H])
        if noise is not None:
            for i in range(at, at + K):
                err[i] += noise[i]
        end = n1 + hx
        x_win = x_buf[end - L:end]
        for u_row, control_dot in controls:
            u_row[H + n1] = control_dot(x_win)
        x_win_m = x_buf[end - M:end]
        for fx_row, filter_dot in filters:
            fx_row[L + n] = filter_dot(x_win_m)
        if mu != 0.0:
            try:
                for v_j, k, fx_row, coords in updates:
                    v_j += (-mu * err[at + k]) * fx_row[n1:n1 + L]
                    if coords is not None:
                        check_weights(v_j, step0 + n, coords)
            except DivergenceError as exc:
                diverged_at, diverged_coords, steps = n, exc.coords, n
                break

    done = T if diverged_at is None else steps + 1
    err = np.array(err[:done * K], dtype=np.float64).reshape(done, K)
    out = u_buf[:, H + 1:H + 1 + steps].T.copy()
    split.u_hist[:] = u_buf[:, done:done + H]
    ctl._x[0] = x_buf[done:done + hx]
    ctl._fx[0] = fx_buf[:, :, done:done + L]
    # a step that trips the guard does not count, as in McAncController.step
    ctl._step_count = step0 + steps
    if steps:
        ctl.last_cost = float(np.dot(err[steps - 1], err[steps - 1]))
    if single:
        err, out, diverged_coords = err[:, 0], out[:, 0], None
    return LoopResult(error=err, output=out, final_weights=controller.weights,
                      diverged_at=diverged_at, diverged_coords=diverged_coords)


def run_fixed(plant, weights, x, disturbance: Disturbance | None = None) -> LoopResult:
    """Run frozen FIR controllers through the same loop ordering.

    `weights` has controller shape: (L,) drives the single loudspeaker of
    a 1x1 plant; (1, J, L) is a frozen multichannel grid. With nothing
    adapting the loop is LTI end to end, so it runs as FIR passes: the
    controller over x, then the secondary paths over its delayed output.
    """
    xs = as_samples(x)
    split, dist = _split_and_disturbance(plant, xs, disturbance)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim == 1:
        if split.n_sources != 1 or split.n_mics != 1:
            raise DataError("single-channel loop needs a 1x1 plant")
        out = FirFilter(w).process(xs)
        err = split.drive(dist, out[:, None])[:, 0]
    else:
        if w.ndim != 3 or w.shape[:2] != (1, split.n_sources):
            raise DataError(
                f"frozen weights must have shape (1, {split.n_sources}, taps), "
                f"got {w.shape}")
        out = np.empty((xs.size, split.n_sources))
        for j in range(split.n_sources):
            out[:, j] = FirFilter(w[0, j]).process(xs)
        err = split.drive(dist, out)
    return LoopResult(error=err, output=out, final_weights=w.copy())
