"""Closed-loop execution of controllers against a simulated plant.

Per-sample ordering, identical for every geometry: read x(n),
obtain e(n) from the plant, compute u(n), adapt, and only then does u(n)
reach the plant, affecting e(n+1) onward. The loop therefore inserts one
sample of latency between controller output and microphone response, so
the path a controller actually drives is the true secondary path behind
one extra delay. `loop_aligned_path` applies that shift to an estimate
before it is installed in a controller.

The loops do not step a `Plant`; they read its tap arrays. The
primary-path outputs, the outputs of silent secondary paths and the
measurement noise do not depend on the control, so
`PlantSplit.disturbance` computes them, the K primary paths in one
`filters.fir` call, as a `Disturbance` that every arm over the same
reference can share. Every dot here is `filters`' (its `dot`, or
`row_reduction`'s reduction for a whole pass), the one `Plant.step`
forms over the same window, and every term is added in the order
`Plant.step` adds it, so each loop reproduces a per-sample `Plant.step`
run bit for bit.

There is one adaptive loop, `run_lanes`, for every 1xJxK
`McAncController`, the single-channel FxLMS being its 1x1x1 case; every
loop gives (T, K) errors and (T, J) outputs. `run_adaptive` is its
one-lane call. It inlines `McAncController.step` over flat histories in
its operand order, on the public record `step` advances too (`state`).
The filtered references do not depend on the control either, so one
`fir` call a lane forms them over the J x K estimates, into the buffer
the windows read; only the secondary paths, the outputs and the weight
updates depend on the recursion. The weight guard follows `mcanc`'s
guard rule, as `adaptation.lms_fit` does.

`run_lanes` runs G recursions that never read each other (pre-training
and the adaptive arm are two) on one geometry: the same J, K, path
length, L, M and number of samples. Every buffer has a leading lane
axis, so each array operation of a pass is made once for all G lanes;
only the Python float arithmetic of the errors and the guard runs lane
by lane, each lane with its own step size, running bound, norm, step
count and trip. A lane's first sample hears silence, as every
`run_adaptive` call's does, or the outputs that ended its previous call
(`Lane.u_prev`). A `SeamlessRun` takes one recursion a stretch at a
time, each stretch a lane that its caller packs beside others: seamed,
each stretch is its own `run_adaptive` call from silence; seamless, the
stretches are one call. A lane leaves a call where its update trips the
guard: its result ends there, as `run_adaptive`'s would, and it rides
out the call parked at zero weights while the others run on. A lane
leaves a run between calls by not being passed to the next one.

The plant's own delay sets how many samples the loop runs a pass. When
every true secondary path starts with d zero taps, u(n) reaches no mic
before step n + d + 1, so the errors, update coefficients and update
terms of B = d + 1 consecutive samples do not depend on those samples'
outputs (`_block_width` gives the rule and when it holds; lanes take the
least of theirs). The block body forms them a pass at a time: one row
dot over every lane's secondary paths, one `tolist` of the terms, the
errors and coefficients as Python floats (the plant's IEEE arithmetic,
with less overhead than array scalars, read and written through
`memoryview`s of the noise and of each lane's (T, K) error array), a
coefficient store and one product writing every update term c x_f
behind the weights in a (B*K + 1, G, J, L) stack. What stays per sample
is the weight recursion, B*K in-place adds of each row into the next,
the adds `step` makes in mic order; one row dot then forms the B
outputs of every lane from the rows that hold each sample's weights.
With the windows of the paths, x, x_f and the output slots, a pass makes
9 + B*K array operations, whatever G is: 14 for 5 samples of the
workloads' 1x1x1 plant (d = 4), 10 for one sample of an undelayed 1x1x1
plant and 11 for one of an undelayed 1x2x2 grid;
`tests/test_call_counts.py` holds the body to that count. Each pass draws
its windows, and the slots its outputs go to, as the rows of
`sliding_window_view`s zipped together, so no pass indexes an array to
find them, and passes ufunc operands positionally (numpy parses keywords
on every call). On a 2-vCPU Xeon VM two lanes of 40,000 samples take
about 0.10 s at 1x1x1 and 0.20 s at 1x2x2, against 0.15 and 0.27 s one
call at a time (`scripts/adaptive_speed.py`'s lanes case).

The outputs go to the loudspeaker buffer the secondary paths read, and
the (T, J) outputs returned are a view of it. So a call holds its
results, the reference and filtered-reference histories its windows
read, and the buffers of one pass: four arrays of its samples a lane at
one filter and one mic.

Each lane's guard bounds its whole (J, L) stack with `mcanc`'s running
norm bound. A pass adds all its coefficients at once, with one more
BOUND_GROWTH as the margin for that sum's roundings; where the bound
fails, the pass's samples take it one at a time, on their weight rows.

`run_fixed` runs frozen weights, for which the loop is LTI end to end:
one `fir` call forms the J outputs, in `run_adaptive`'s buffer layout,
and `PlantSplit.drive` one call a loudspeaker its K paths' terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .acoustics import Plant
from .errors import DataError, DivergenceError
from .filters import dot, fir, row_reduction
from .mcanc import (
    BOUND_GROWTH,
    BOUND_LIMIT,
    WEIGHT_GUARD,
    McAncController,
    guard_reset,
    window_norm_bound,
)
from .signals import as_samples


def loop_aligned_path(taps) -> np.ndarray:
    """Prepend the loop's one-sample latency to a path impulse response,
    or to every path of a (J, K, M) grid: one leading +0.0 tap along the
    last axis."""
    taps = np.atleast_1d(np.asarray(taps, dtype=np.float64))
    out = np.zeros(taps.shape[:-1] + (taps.shape[-1] + 1,))
    out[..., 1:] = taps
    return out


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
    paths, each carrying its history from one block of samples to the next.

    Built from a plant's tap arrays and seed: the plant's own state is
    neither read nor advanced, so the split starts where a freshly built
    (or reset) plant starts. A diverged `run_adaptive` call spends it
    (`_spent_at`, that call's tripping step): its primary paths and noise
    generator have advanced past that step, so every later use raises.
    """

    def __init__(self, plant: Plant):
        self.n_sources = plant.n_sources
        self.n_mics = plant.n_mics
        self._primaries = plant.primaries
        self._noise_std = plant.measurement_noise_std
        self._rng = np.random.default_rng(plant.seed)
        self.sec_taps = plant.secondaries
        _, self.silent = plant.silent_outputs()
        self.hist = self.sec_taps.shape[2]
        # newest samples that reached the primary paths and each
        # loudspeaker's paths
        self.x_hist = np.zeros(self._primaries.shape[1])
        self.u_hist = np.zeros((self.n_sources, self.hist))
        self._spent_at = None

    def _require_unspent(self) -> None:
        if self._spent_at is not None:
            raise DataError(
                f"plant split is spent: a run_adaptive call diverged at its step "
                f"{self._spent_at}, and its primary paths and noise had advanced over "
                f"the whole call; build a new split")

    def disturbance(self, x) -> Disturbance:
        """Advance the primary paths and the noise generator over x."""
        self._require_unspent()
        xs = as_samples(x)
        primary = fir(self._primaries, xs, self.x_hist).T
        self.x_hist = np.concatenate([self.x_hist, xs])[xs.size:]
        noise = None
        if self._noise_std > 0.0:
            noise = self._noise_std * self._rng.standard_normal((xs.size, self.n_mics))
        return Disturbance(primary, self.silent, noise)

    def drive(self, dist: Disturbance, u_buf: np.ndarray) -> np.ndarray:
        """Microphone signals (T, K) for known controller outputs, laid out
        in a (J, H + 1 + T) buffer as `run_adaptive` lays them out: each
        loudspeaker's history `u_hist`, one silent sample, then u(0..T-1).

        u(n) reaches the paths at step n+1; as in every loop here, the
        first sample of a call hears silent loudspeakers. Each loudspeaker's
        K paths take one `fir` call over the history and those samples.
        """
        H = self.hist
        T = u_buf.shape[1] - H - 1
        e = dist.primary.copy()
        for row, paths_j in zip(u_buf, self.sec_taps):
            # output n's window is the plant's at step n, row[n+1:n+1+H]
            e += fir(paths_j, row[H:H + T], row[:H]).T
        self.u_hist[:] = u_buf[:, T:T + H]
        if dist.noise is not None:
            e += dist.noise
        return e


def _as_split(plant) -> PlantSplit:
    return plant if isinstance(plant, PlantSplit) else PlantSplit(plant)


def _split_and_disturbance(plant, xs: np.ndarray, disturbance):
    split = _as_split(plant)
    split._require_unspent()
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
    """Artifacts of one control-loop run: errors (T, K), outputs (T, J) and
    the final (1, J, L) weights. A diverged run ends at the step whose
    update tripped the guard: its error includes that sample, its output
    does not; `diverged_coords` is the (i, j) of the filter that tripped."""

    error: np.ndarray
    output: np.ndarray
    final_weights: np.ndarray | None = None
    diverged_at: int | None = None
    diverged_coords: tuple | None = None


def run_adaptive(plant, controller: McAncController, x,
                 disturbance: Disturbance | None = None) -> LoopResult:
    """Adaptive FxLMS run over a reference signal.

    `controller` is a `McAncController` with one reference on a plant with
    its J sources and K mics; the run gives (T, K) errors and (T, J)
    outputs. `plant` is a `Plant`, split afresh, or a `PlantSplit` whose
    state carries over from earlier calls. `disturbance`, when given,
    holds the plant's control-independent terms over x. The controller's
    state advances exactly as repeated `step` calls would advance it.

    Divergence truncates the run at the failing step instead of
    propagating, so partial traces remain available for diagnostics. It
    also spends a `PlantSplit`: its primary paths and noise generator
    have advanced over the whole of x, past the step that tripped, so a
    later call on it raises DataError.

    It is the one-lane `run_lanes` call; the module docstring gives the
    calls of its passes.
    """
    return run_lanes([Lane(plant, controller, x, disturbance)])[0]


@dataclass
class Lane:
    """One recursion of a `run_lanes` call: `run_adaptive`'s arguments,
    and `u_prev`, the (J,) outputs u(-1) that the call's first sample
    hears. None is silence, as in every `run_adaptive` call; the outputs
    that ended the lane's previous call continue that call with no seam
    (`SeamlessRun`)."""

    plant: object
    controller: McAncController
    x: object
    disturbance: Disturbance | None = None
    u_prev: np.ndarray | None = None


class _LaneRun:
    """A lane's checked inputs and errors, and the state its passes keep:
    its step size, guard bound and, once its update trips the guard,
    `trip`, the (step, coords) where it did."""

    def __init__(self, lane: Lane):
        xs, ctl = as_samples(lane.x), lane.controller
        if ctl.n_refs != 1:
            raise DataError("plant accepts a single reference input; use I=1 here")
        split = _as_split(lane.plant)
        if (split.n_sources, split.n_mics) != (ctl.n_sources, ctl.n_mics):
            raise DataError(
                f"plant has {split.n_sources} sources and {split.n_mics} mics, "
                f"controller drives {ctl.n_sources} and listens to {ctl.n_mics}")
        self.xs, self.ctl, self.split, self.u_prev = xs, ctl, split, lane.u_prev
        self.state, self.disturbance = ctl.state, lane.disturbance
        self.geometry = (xs.size, split.n_sources, split.n_mics, split.hist,
                         ctl.state.v.shape[2], ctl.state.est.shape[2])
        self.step0 = ctl.state.steps
        self.neg_mu = -ctl.mu
        self.trip = None

    def start(self) -> None:
        """Take the lane's disturbance, advancing its plant split where
        none was given, once every lane of the call has been checked."""
        _, dist = _split_and_disturbance(self.split, self.xs, self.disturbance)
        # The passes read and write e(n) through a memoryview of the (T, K)
        # error array, the primary-path outputs to start with. Flat, row
        # after row: err[n*K + k] is e_k(n).
        self.error = dist.primary.copy()
        self.err = memoryview(self.error.reshape(-1))
        self.noise = None if dist.noise is None else memoryview(dist.noise.reshape(-1))

    def result(self, g, x_buf, fx_buf, u_buf) -> LoopResult:
        """Store lane g's state back and return its result."""
        split, ctl, state = self.split, self.ctl, self.state
        T, H = self.xs.size, split.hist
        L, hx = state.v.shape[2], state.x.shape[1]
        diverged_at, coords = self.trip or (None, None)
        if diverged_at is not None:
            split._spent_at = diverged_at
        steps = T if diverged_at is None else diverged_at
        done = T if diverged_at is None else steps + 1
        error = self.error[:done]
        split.u_hist[:] = u_buf[g, :, done:done + H]
        state.x[0] = x_buf[g, done:done + hx]
        state.fx[0] = fx_buf[g, :, :, done:done + L]
        # a step that trips the guard does not count, as in McAncController.step
        state.steps = self.step0 + steps
        if steps:
            ctl.last_cost = float(dot(error[steps - 1], error[steps - 1]))
        return LoopResult(error=error, output=u_buf[g, :, H + 1:H + 1 + steps].T,
                          final_weights=ctl.weights, diverged_at=diverged_at,
                          diverged_coords=coords)


def run_lanes(lanes) -> list[LoopResult]:
    """G adaptive runs, `run_adaptive`'s each, in one pass loop.

    The lanes share a plant geometry: J, K, the secondary paths' length,
    the control filters' length L, the estimates' length M and the
    reference's length T. Their plants, controllers, references and step
    sizes are their own, and each lane's result is the `run_adaptive`
    call its `Lane` describes, bit for bit: none reads another's numbers.
    Every array operation of a pass is made once for all G lanes.
    """
    runs = [_LaneRun(lane) for lane in lanes]
    if not runs:
        return []
    geometry = runs[0].geometry
    for run in runs[1:]:
        if run.geometry != geometry:
            raise DataError(
                "lanes need one geometry (T, J, K, paths' taps, L, M): "
                f"{geometry} and {run.geometry}")
    for run in runs:
        run.start()
    G = len(runs)
    T, J, K, H, L, _ = geometry
    hx = runs[0].state.x.shape[1]
    # flat histories, lane by lane: the controller's stored windows, then
    # this call's samples; x(n) sits at index hx+n and x_f(n) at L+n
    x_buf = np.empty((G, hx + T))
    fx_buf = np.empty((G, J, K, L + T))
    for g, run in enumerate(runs):
        state = run.state
        x_buf[g, :hx] = state.x[0]
        x_buf[g, hx:] = run.xs
        fx_buf[g, :, :, :L] = state.fx[0]
        # the filtered references do not depend on the control: `fir` forms
        # the dot `step` forms, over the same window of the stored history
        fir(state.est, run.xs, state.x[0], fx_buf[g, :, :, L:])
    # loudspeaker history, then u_j(n-1) at column H+n; the first sample
    # hears u_prev there, silence unless the lane continues a call
    u_buf = np.zeros((G, J, H + 1 + T))
    for g, run in enumerate(runs):
        u_buf[g, :, :H] = run.split.u_hist
        if run.u_prev is not None:
            u_buf[g, :, H] = run.u_prev
    width = min(_block_width(run.split, run.ctl, x_buf[g]) for g, run in enumerate(runs))
    _block_body(runs, x_buf, fx_buf, u_buf, width)
    return [run.result(g, x_buf, fx_buf, u_buf) for g, run in enumerate(runs)]


class SeamlessRun:
    """A recursion over x a stretch at a time: `stretch(n)` is the `Lane`
    of its next n samples, to pack into a `run_lanes` call; `take` records
    its result. With `seam`, each stretch starts from a silent loudspeaker
    and is its own `run_adaptive` call on the split and controller they
    carry; the run keeps none of their results. Without it, together they
    give one call's bits, which `finish` returns (each stretch's fresh
    guard bound moves when the guard takes a norm, never a trip). With no
    `disturbance` over x, each stretch takes its own from the split."""

    __slots__ = ("_xs", "_split", "_dist", "controller", "seam", "_error", "_output",
                 "_done", "_trip")

    def __init__(self, plant, controller: McAncController, x,
                 disturbance: Disturbance | None = None, seam: bool = False):
        self._xs = as_samples(x)
        self._split = _as_split(plant)
        if disturbance is not None:     # its length, checked as every loop checks it
            _split_and_disturbance(self._split, self._xs, disturbance)
        self._dist, self.controller, self.seam = disturbance, controller, seam
        if not seam:
            T = self._xs.size
            self._error = np.empty((T, self._split.n_mics))
            self._output = np.empty((T, self._split.n_sources))
        self._done = 0          # samples whose errors are in
        self._trip = None       # (diverged_at, coords)

    @property
    def left(self) -> int:
        """Samples still to run: none once the run has diverged."""
        return 0 if self._trip else self._xs.size - self._done

    def stretch(self, n: int) -> Lane:
        """The lane of the next n samples, at most `left`."""
        a, b, d = self._done, self._done + n, self._dist
        xs = self._xs[a:b]
        if d is None:
            dist = self._split.disturbance(xs)
        else:
            dist = Disturbance(d.primary[a:b], d.silent,
                               None if d.noise is None else d.noise[a:b])
        return Lane(self._split, self.controller, xs, dist,
                    None if self.seam or not a else self._output[a - 1])

    def take(self, res: LoopResult) -> None:
        """Record the result of the lane `stretch` last gave."""
        a, n, steps = self._done, len(res.error), len(res.output)
        if not self.seam:
            self._error[a:a + n] = res.error
            self._output[a:a + steps] = res.output
        self._done = a + n
        if res.diverged_at is not None:
            self._trip = (a + res.diverged_at, res.diverged_coords)
            self._split._spent_at = a + res.diverged_at

    def finish(self) -> LoopResult:
        """A seamless run's result, its rest run in one call of its own."""
        if self.left:
            self.take(run_lanes([self.stretch(self.left)])[0])
        at, coords = self._trip or (None, None)
        steps = self._done if at is None else at
        return LoopResult(error=self._error[:self._done], output=self._output[:steps],
                          final_weights=self.controller.weights, diverged_at=at,
                          diverged_coords=coords)


def _block_width(split, ctl, x_buf) -> int:
    """B = d + 1, d the leading taps that compare equal to 0.0 (-0.0
    included) on every true secondary path: u(n) reaches no mic before
    step n + d + 1, so B consecutive errors need no output of their own
    pass. An output slot not yet written holds +0.0 and meets only those
    zero taps. Its product, like a finite output's, is a signed zero, which
    changes no `ddot` sum (the accumulators start at +0.0). So B = 1 where
    the paths have one tap, H = 1 (the one-element rule of
    `filters.row_reduction`: a plain product keeps a zero's sign), or where
    the reference could make an output overflow, from weights within the
    guard or from the starting weights."""
    H, v = split.hist, ctl.state.v[0]
    # |u| <= L max|w| max|x|; NaN fails the compare
    top = v.shape[1] * (WEIGHT_GUARD + float(np.abs(v).max())) * max(
        float(x_buf.max()), -float(x_buf.min()))
    if H == 1 or not (top <= 2.0**1000):
        return 1
    # the first tap column that some path does not hold at zero
    return 1 + int(next(iter(np.flatnonzero(split.sec_taps.any(axis=(0, 1)))), H))


def _block_body(runs, x_buf, fx_buf, u_buf, width):
    """`run_lanes`' loop, `width` samples a pass (the last pass takes what
    is left), each lane guarded by `mcanc`'s running norm bound over its
    whole (J, L) stack of filters. A lane whose update trips the guard
    keeps its `trip` and rides out the call parked: zero weights, zero
    coefficients and silent outputs from that step on, no errors and no
    guard, so that no later pass reads a weight past the guard."""
    G, J, _ = u_buf.shape
    T, _, K, H, L, _ = runs[0].geometry
    if not T:
        return
    hx = x_buf.shape[1] - T
    multiply, add, fabs = np.multiply, np.add, math.fabs
    # row n of each: x(n)'s windows (G, 1, L), x_f(n)'s (K, G, J, L)
    # windows, mic-major, and u(n)'s slots (G, J), column H+1+n of u_buf,
    # shaped for `out_dot`
    x_wins = sliding_window_view(x_buf[:, hx - L + 1:], L, axis=1).transpose(1, 0, 2)[:, :, None]
    fx = fx_buf[..., 1:]
    fx_wins = sliding_window_view(fx, L, axis=3).transpose(3, 2, 0, 1, 4)
    out_dot, index = row_reduction(L)
    u_rows = u_buf.transpose(2, 0, 1)[H + 1:][index]
    # the secondary paths, one dot: row n of the windows is every lane's
    # and loudspeaker's plant window at step n, u_buf[g, j, n+1:n+1+H],
    # against each lane's reversed taps (G, J, K, H)
    path_dot, path_index = row_reduction(H)
    path_taps = np.stack([run.split.sec_taps[..., ::-1] for run in runs])
    p_wins = sliding_window_view(u_buf, H, axis=2)[:, :, 1:].transpose(2, 0, 1, 3)[:, :, :, None]
    # a lane that does not adapt adds -0.0, which changes no weight, where
    # another lane's terms are added
    frozen = [g for g, run in enumerate(runs) if run.neg_mu == 0.0]
    update = len(frozen) < G
    # the lanes the guard watches, each with its own bound over its norm
    guarded = [g for g in range(G) if g not in frozen]
    norms = [window_norm_bound(fx[g], J * L) for g in range(G)]
    # infinite until the first step resets it from the weights' norm
    bounds = [math.inf] * G
    w = np.stack([run.state.v[0] for run in runs])
    full = T - T % width
    for start, stop, B in ((0, full, width), (full, T, T - full)):
        if stop == start:
            continue
        # A pass's (B*K + 1, G, J, L) stack holds the weights, then the
        # update terms, sample by sample in mic order. Adding each row
        # into the next makes the adds `step` makes, the last one into
        # the other stack's first row; rows 0, K, ... are the weights
        # the outputs read, row (i+1)*K those after sample i.
        stacks = [np.empty((B * K + 1, G, J, L)) for _ in range(2)]
        stacks[0][:] = w
        sides = []
        for s, other in (stacks, stacks[::-1]):
            rows = list(s[:B * K]) + [other[0]]
            t_rows = s[1:].reshape(B, K, G, J, L)
            # the adds take each row flat: numpy sets up a 1-D loop faster
            flat = [row.reshape(-1) for row in rows]
            sides.append((s[:B * K:K], t_rows,
                          [(flat[r], s[r + 1].reshape(-1), flat[r + 1]) for r in range(B * K)],
                          rows[K::K], [t_rows[:, :, g] for g in frozen]))
        cur, nxt = sides
        # the path terms of the pass, (B, G, J, K), stored lane by lane: each
        # sample's and mic's of lane g in terms.ravel() from g*B*J*K on,
        # loudspeaker by loudspeaker
        terms = np.empty((G, B, J, K))
        path_out = terms.transpose(1, 0, 2, 3)[path_index]
        t_flat = terms.reshape(-1)
        # what each lane's errors read, None once it is parked
        lanes = [None if run.trip else
                 (run.err, run.noise, run.neg_mu,
                  [[((g * B + i) * J + j) * K + k for j in range(J)]
                   for i in range(B) for k in range(K)])
                 for g, run in enumerate(runs)]
        # the coefficients, stored lane by lane, read as (B, K, G, 1, 1)
        c = np.empty((G, B, K))
        c_flat = c.reshape(-1)
        c_terms = c.transpose(1, 2, 0)[..., None, None]
        idle = [0.0] * (B * K)
        growth = BOUND_GROWTH ** (B + 1)

        def blocks(a):
            return a[start:stop].reshape(((stop - start) // B, B) + a.shape[1:])

        passes = zip(range(start, stop, B), blocks(p_wins), blocks(x_wins),
                     blocks(fx_wins), blocks(u_rows))
        for n0, p_win, x_win, fx_win, u_out in passes:
            path_dot(p_win, path_taps, path_out)
            # e(n) in `Plant.step`'s order: source by source, then noise
            vals = t_flat.tolist()
            coefs = []
            sums = []
            for lane in lanes:
                if lane is None:
                    coefs += idle
                    sums.append(0.0)
                    continue
                err, noise, neg_mu, mic_terms = lane
                c_sum = 0.0
                for i, terms_i in enumerate(mic_terms, n0 * K):
                    e = err[i]
                    for t in terms_i:
                        e += vals[t]
                    if noise is not None:
                        e += noise[i]
                    err[i] = e
                    coef = neg_mu * e
                    coefs.append(coef)
                    c_sum += fabs(coef)
                sums.append(c_sum)
            weights, t_rows, chain, after, still = cur
            if update:
                c_flat[:] = coefs
                multiply(c_terms, fx_win, t_rows)
                for t in still:
                    t[...] = -0.0
                for a, t, out in chain:
                    add(a, t, out)
            out_dot(weights, x_win, u_out)
            if not update:
                continue
            # the bound over a whole pass, one more BOUND_GROWTH covering
            # the sum's B*K - 1 further roundings; where it fails, the
            # pass's samples take it one at a time
            for g in guarded:
                passed, norm = bounds[g], norms[g]
                bound = (passed + sums[g] * norm) * growth
                if not (bound <= BOUND_LIMIT):
                    bound = passed
                    for i in range(g * B, g * B + B):
                        bound = (bound + sum(map(fabs, coefs[i * K:i * K + K])) * norm) \
                            * BOUND_GROWTH
                        if not (bound <= BOUND_LIMIT):
                            try:
                                bound = guard_reset(after[i - g * B][g],
                                                    runs[g].step0 + n0 + i - g * B)
                            except DivergenceError as exc:
                                _park(runs[g], g, exc, n0, weights, after, u_buf)
                                lanes[g] = None
                                guarded = [h for h in guarded if h != g]
                                break
                bounds[g] = bound
            if not (guarded or frozen):
                return
            cur, nxt = nxt, cur
        w = cur[0][0]
    for g, run in enumerate(runs):
        if run.trip is None:
            run.state.v[0] = w[g]


def _park(run, g, exc, n0, weights, after, u_buf):
    """Lane g tripped the guard at `exc.index`: filters up to the one that
    tripped hold their update, as in `step`; then the lane's next weights
    and its outputs from that step on go to zero."""
    n, j = exc.index - run.step0, exc.coords[1]
    v = run.state.v[0]
    v[:] = after[n - n0][g]
    v[j + 1:] = weights[n - n0][g][j + 1:]
    run.trip = (n, exc.coords)
    after[-1][g] = 0.0
    u_buf[g, :, u_buf.shape[2] - run.xs.size + n:] = 0.0


def run_fixed(plant, weights, x, disturbance: Disturbance | None = None) -> LoopResult:
    """Run frozen FIR controllers through the same loop ordering.

    `weights` is a frozen (1, J, L) grid, one filter per loudspeaker; the
    run gives (T, K) errors and (T, J) outputs. With nothing adapting the
    loop is LTI end to end, so it runs as FIR passes: the controller over
    x, then the secondary paths over its delayed output.
    """
    xs = as_samples(x)
    split, dist = _split_and_disturbance(plant, xs, disturbance)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 3 or w.shape[:2] != (1, split.n_sources):
        raise DataError(
            f"frozen weights must have shape (1, {split.n_sources}, taps), "
            f"got {w.shape}")
    H = split.hist
    u_buf = np.zeros((split.n_sources, H + 1 + xs.size))
    u_buf[:, :H] = split.u_hist
    u_buf[:, H + 1:] = fir(w[0], xs)
    err = split.drive(dist, u_buf)
    return LoopResult(error=err, output=u_buf[:, H + 1:].T, final_weights=w.copy())
