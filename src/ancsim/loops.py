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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acoustics import Plant
from .adaptation import FxlmsFilter, check_weights
from .errors import DataError, DivergenceError
from .filters import FirFilter
from .mcanc import McAncController
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
    """Artifacts of one control-loop run: error (T,) for one microphone,
    else (T, K), and the matching controller outputs."""

    error: np.ndarray
    output: np.ndarray
    weight_snapshots: np.ndarray | None = None
    snapshot_steps: np.ndarray | None = None
    final_weights: np.ndarray | None = None
    xf_norm_sq: np.ndarray | None = None
    diverged_at: int | None = None


@dataclass
class McLoopResult:
    """Artifacts of one multichannel run: errors (T, K), outputs (T, J),
    per-sample cost sum_k e_k^2."""

    error: np.ndarray
    output: np.ndarray
    cost: np.ndarray
    final_weights: np.ndarray | None = None
    diverged_at: int | None = None
    diverged_coords: tuple | None = None


def run_adaptive(plant, controller: FxlmsFilter, x, weight_stride: int = 0,
                 record_xf_norm: bool = False,
                 disturbance: Disturbance | None = None) -> LoopResult:
    """Adaptive FxLMS run over a reference signal (plant must be 1x1).

    `plant` is a `Plant`, split afresh, or a `PlantSplit` whose state
    carries over from earlier calls. `disturbance`, when given, holds the
    plant's control-independent terms over x. The controller's state
    advances exactly as repeated `controller.step` calls would advance it.

    Divergence truncates the run at the failing step instead of
    propagating, so partial traces remain available for diagnostics.
    """
    xs = as_samples(x)
    split, dist = _split_and_disturbance(plant, xs, disturbance)
    if split.n_sources != 1 or split.n_mics != 1:
        raise DataError("single-channel loop needs a 1x1 plant")
    T = xs.size
    err = np.empty(T)
    out = np.empty(T)
    xf_norm = np.empty(T) if record_xf_norm else None
    snaps, snap_steps = [], []
    diverged_at = None

    # Python floats: the same IEEE arithmetic as the plant's, less overhead
    p = dist.primary[:, 0].tolist()
    noise = None if dist.noise is None else dist.noise[:, 0].tolist()
    H = split.hist
    plant_dot = split.sec_rev[0][0].dot
    # loudspeaker history, then u(n-1) at index H+n; the first sample of
    # every call reaches the paths as silence
    u_buf = np.zeros(H + T + 1)
    u_buf[:H] = split.u_hist[0]

    # FxlmsFilter.step, inlined over flat histories in its operand order
    N, hx, mu = controller.n_taps, controller._hist, controller.mu
    v = controller._v
    control_dot, filter_dot = v.dot, controller._s_rev.dot
    M = controller._s_rev.size
    x_buf = np.concatenate([controller._x_line.window(), xs])
    xf_buf = np.empty(N + T)
    xf_buf[:N] = controller._xf_line.window()
    step0 = controller._step_count
    done = T
    for n in range(T):
        e = p[n] + plant_dot(u_buf[n + 1:n + 1 + H])
        if noise is not None:
            e += noise[n]
        err[n] = e
        end = n + 1 + hx
        u = control_dot(x_buf[end - N:end])
        xf_buf[N + n] = filter_dot(x_buf[end - M:end])
        if mu != 0.0:
            v += (-2.0 * mu * e) * xf_buf[n + 1:n + 1 + N]
            try:
                check_weights(v, step0 + n)
            except DivergenceError:
                diverged_at, done = n, n + 1
                err, out = err[:n + 1], out[:n]
                if xf_norm is not None:
                    xf_norm = xf_norm[:n]
                break
        out[n] = u
        u_buf[H + n + 1] = u
        if xf_norm is not None:
            w = xf_buf[n + 1:n + 1 + N]
            xf_norm[n] = float(w.dot(w))
        if weight_stride and (n + 1) % weight_stride == 0:
            snaps.append(controller.weights)
            snap_steps.append(n)

    split.u_hist[0] = u_buf[done:done + H]
    for sample in xs[max(done - hx, 0):done]:
        controller._x_line.push(sample)
    for sample in xf_buf[N + max(done - N, 0):N + done]:
        controller._xf_line.push(sample)
    # a step that trips the guard does not count, as in FxlmsFilter.step
    controller._step_count = step0 + (done if diverged_at is None else diverged_at)
    return LoopResult(
        error=err, output=out,
        weight_snapshots=np.array(snaps) if snaps else None,
        snapshot_steps=np.array(snap_steps, dtype=int) if snaps else None,
        final_weights=controller.weights,
        xf_norm_sq=xf_norm,
        diverged_at=diverged_at,
    )


def run_fixed(plant, weights, x, disturbance: Disturbance | None = None) -> LoopResult:
    """Run frozen FIR controllers through the same loop ordering.

    `weights` has controller shape: (L,) drives the single loudspeaker of
    a 1x1 plant; (1, J, L) is a frozen multichannel grid, whose outputs
    start from the 0.0 that McAncController sums references onto. With
    nothing adapting the loop is LTI end to end, so it runs as FIR passes:
    the controller over x, then the secondary paths over its delayed
    output.
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
            out[:, j] = 0.0 + FirFilter(w[0, j]).process(xs)
        err = split.drive(dist, out)
    return LoopResult(error=err, output=out, final_weights=w.copy())


def run_multichannel(plant, controller: McAncController, x_refs,
                     disturbance: Disturbance | None = None) -> McLoopResult:
    """Adaptive multichannel run. `x_refs` is (T,) for one reference sensor
    or (T, I); plant geometry must match the controller's J and K.
    `plant` and `disturbance` are as for `run_adaptive`."""
    xr = np.asarray(x_refs, dtype=np.float64)
    if xr.ndim == 1:
        xr = xr[:, None]
    if xr.shape[1] != controller.n_refs:
        raise DataError(
            f"reference stream has {xr.shape[1]} channels, controller expects "
            f"{controller.n_refs}")
    if xr.shape[1] != 1:
        raise DataError("plant accepts a single reference input; use I=1 here")
    split, dist = _split_and_disturbance(plant, xr[:, 0], disturbance)
    if split.n_sources != controller.n_sources or split.n_mics != controller.n_mics:
        raise DataError("plant geometry does not match controller")
    T, J, K, H = xr.shape[0], split.n_sources, split.n_mics, split.hist
    err = np.empty((T, K))
    out = np.empty((T, J))
    cost = np.empty(T)
    diverged_at = None
    diverged_coords = None
    p, noise = dist.primary, dist.noise
    paths = [[(H - s.size, s.dot) for s in row] for row in split.sec_rev]
    u_buf = np.zeros((J, H + T + 1))
    u_buf[:, :H] = split.u_hist
    done = T
    for n in range(T):
        e = p[n].copy()
        for j in range(J):
            win = u_buf[j, n + 1:n + 1 + H]
            for k, (lag, path_dot) in enumerate(paths[j]):
                e[k] += path_dot(win[lag:])
        if noise is not None:
            e += noise[n]
        err[n] = e
        try:
            u = controller.step(xr[n], e)
        except DivergenceError as exc:
            diverged_at, done = n, n + 1
            diverged_coords = exc.coords
            err, out, cost = err[:n + 1], out[:n], cost[:n]
            break
        out[n] = u
        u_buf[:, H + n + 1] = u
        cost[n] = controller.last_cost
    split.u_hist[:] = u_buf[:, done:done + H]
    return McLoopResult(
        error=err, output=out, cost=cost,
        final_weights=controller.weights,
        diverged_at=diverged_at, diverged_coords=diverged_coords,
    )
