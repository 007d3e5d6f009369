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
`PlantSplit.disturbance` computes them in one `filters.fir` pass per
microphone (a `Disturbance`) that every arm over the same reference can
share. Every dot here is `filters`' (its `dot`, or `row_reduction`'s
reduction for a whole pass), the one `Plant.step` forms over the same
window, and every term is added in the order `Plant.step` adds it, so
each loop reproduces a per-sample `Plant.step` run bit for bit.

There is one adaptive loop, `run_adaptive`, for every 1xJxK
`McAncController`, the single-channel FxLMS being its 1x1x1 case; every
loop gives (T, K) errors and (T, J) outputs. It inlines
`McAncController.step` over flat histories in its operand order. The
filtered references do not depend on the control either, so they come
from one `fir` pass per path; only the secondary paths, the controller
outputs and the weight updates depend on the recursion. The weight guard
follows `mcanc`'s guard rule, as `adaptation.lms_fit` does.

The plant's own delay sets how many samples the loop runs a pass. When
every true secondary path starts with d zero taps, u(n) reaches no mic
before step n + d + 1, so the errors, update coefficients and update
terms of B = d + 1 consecutive samples do not depend on those samples'
outputs (`_block_width` gives the rule and when it holds). The block body
forms them a pass at a time: one row dot over every secondary path, one
`tolist` of the terms, the errors and coefficients as Python floats
(the plant's IEEE arithmetic, with less overhead than array scalars,
read and written through `memoryview`s of the noise and of the (T, K)
error array the loop returns), a coefficient store and one product
writing every update term c x_f behind the weights in a (B*K + 1, J, L)
stack. What stays per sample is the weight recursion, B*K in-place adds
of each row into the next, the adds `step` makes in mic order; one row
dot then forms the B outputs from the rows that hold each sample's
weights. With the windows of the paths, x, x_f and the output slots, a
pass makes 9 + B*K array operations: 14 for 5 samples of the workloads'
1x1x1 plant (d = 4), 10 for one sample of an undelayed 1x1x1 plant and
11 for one of an undelayed 1x2x2 grid; `tests/test_call_counts.py` holds
the body to that count. Each pass draws its windows, and the slots its
outputs go to, as the rows of `sliding_window_view`s zipped together, so
no pass indexes an array to find them, and passes ufunc operands
positionally (numpy parses keywords on every call).

The outputs go to the loudspeaker buffer the secondary paths read, and
the (T, J) outputs returned are a view of it. So a run holds its
result, the reference and filtered-reference histories its windows read,
and the buffers of one pass.

The body guards the whole (J, L) stack with `mcanc`'s running norm
bound. A pass adds all its coefficients at once, with one more
BOUND_GROWTH as the margin for that sum's roundings; where the bound
fails, the pass's samples take it one at a time, on their weight rows.

`run_fixed` runs frozen weights, for which the loop is LTI end to end:
each of its passes, controller and path, is one `fir` pass, into the
same loudspeaker buffer layout as `run_adaptive`'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .acoustics import Plant
from .errors import DataError, DivergenceError
from .filters import as_taps, dot, fir, row_reduction, rowdots
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
        # reversed taps pair with chronological windows, as in `fir`
        self.sec_rev = self.sec_taps[..., ::-1].copy()
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
        primary = np.empty((xs.size, self.n_mics))
        for k, p in enumerate(self._primaries):
            primary[:, k] = fir(p, xs, self.x_hist)
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
        first sample of a call hears silent loudspeakers. Each path's
        terms are the `fir` pass over the history and those samples.
        """
        H = self.hist
        T = u_buf.shape[1] - H - 1
        e = dist.primary.copy()
        for row, paths_j in zip(u_buf, self.sec_rev):
            for k, s in enumerate(paths_j):
                # row n is the plant's window at step n, u_buf[j, n+1:n+1+H]
                e[:, k] += rowdots(sliding_window_view(row[1:], H)[:T], s)
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

    `_block_body` runs d + 1 samples a pass (`_block_width`); the module
    docstring gives its calls.
    """
    xs, ctl = as_samples(x), controller
    if ctl.n_refs != 1:
        raise DataError("plant accepts a single reference input; use I=1 here")
    split, dist = _split_and_disturbance(plant, xs, disturbance)
    if (split.n_sources, split.n_mics) != (ctl.n_sources, ctl.n_mics):
        raise DataError(
            f"plant has {split.n_sources} sources and {split.n_mics} mics, "
            f"controller drives {ctl.n_sources} and listens to {ctl.n_mics}")
    T, J, K, H = xs.size, split.n_sources, split.n_mics, split.hist
    L, hx = ctl._v.shape[2], ctl._x.shape[1]
    step0 = ctl._step_count

    # flat histories: the controller's stored windows, then this call's
    # samples; x(n) sits at index hx+n and x_f(n) at L+n
    x_buf = np.concatenate([ctl._x[0], xs])
    fx_buf = np.empty((J, K, L + T))
    fx_buf[:, :, :L] = ctl._fx[0]
    # the filtered references do not depend on the control: `fir` forms the
    # dot `step` forms, over the same window of the stored reference history
    for j in range(J):
        for k in range(K):
            fx_buf[j, k, L:] = fir(ctl._est[j, k], xs, ctl._x[0])
    # loudspeaker history, then u_j(n-1) at column H+n; the first sample of
    # every call reaches the paths as silence
    u_buf = np.zeros((J, H + T + 1))
    u_buf[:, :H] = split.u_hist

    # The bodies read and write e(n) through a memoryview of the (T, K)
    # error array, the primary-path outputs to start with. Flat, row after
    # row: err[n*K + k] is e_k(n).
    error = dist.primary.copy()
    err = memoryview(error.reshape(-1))
    noise = None if dist.noise is None else memoryview(dist.noise.reshape(-1))
    diverged_at, diverged_coords, steps = _block_body(
        split, ctl, x_buf, fx_buf, u_buf, err, noise, _block_width(split, ctl, x_buf))

    if diverged_at is not None:
        split._spent_at = diverged_at
    done = T if diverged_at is None else steps + 1
    error = error[:done]
    out = u_buf[:, H + 1:H + 1 + steps].T
    split.u_hist[:] = u_buf[:, done:done + H]
    ctl._x[0] = x_buf[done:done + hx]
    ctl._fx[0] = fx_buf[:, :, done:done + L]
    # a step that trips the guard does not count, as in McAncController.step
    ctl._step_count = step0 + steps
    if steps:
        ctl.last_cost = float(dot(error[steps - 1], error[steps - 1]))
    return LoopResult(error=error, output=out, final_weights=ctl.weights,
                      diverged_at=diverged_at, diverged_coords=diverged_coords)


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
    H, v = split.hist, ctl._v[0]
    # |u| <= L max|w| max|x|; NaN fails the compare
    top = v.shape[1] * (WEIGHT_GUARD + float(np.abs(v).max())) * max(
        float(x_buf.max()), -float(x_buf.min()))
    if H == 1 or not (top <= 2.0**1000):
        return 1
    # the first tap column that some path does not hold at zero
    return 1 + int(next(iter(np.flatnonzero(split.sec_taps.any(axis=(0, 1)))), H))


def _block_body(split, ctl, x_buf, fx_buf, u_buf, err, noise, width):
    """`run_adaptive`'s loop, `width` samples a pass (the last pass takes
    what is left), guarded by `mcanc`'s running norm bound over the whole
    (J, L) stack of filters. Returns (diverged_at, coords, steps)."""
    J, K, H = split.n_sources, split.n_mics, split.hist
    T = len(err) // K
    if not T:
        return None, None, 0
    v, neg_mu = ctl._v[0], -ctl.mu
    L, hx = v.shape[1], ctl._x.shape[1]
    step0 = ctl._step_count
    multiply, add, fabs = np.multiply, np.add, math.fabs
    # row n of each: x(n)'s window, x_f(n)'s (K, J, L) windows, mic-major,
    # and u(n)'s slot, column H+1+n of u_buf, shaped for `out_dot`
    x_wins = sliding_window_view(x_buf[hx - L + 1:], L)[:, None]
    fx = fx_buf[:, :, 1:]
    fx_wins = sliding_window_view(fx, L, axis=2).transpose(2, 1, 0, 3)
    out_dot, index = row_reduction(L)
    u_rows = u_buf.T[H + 1:][index]
    # the secondary paths, one dot: row n of the windows is every
    # loudspeaker's plant window at step n, u_buf[j, n+1:n+1+H], against
    # the reversed taps (J, K, H)
    path_dot, path_index = row_reduction(H)
    path_taps = split.sec_rev
    p_wins = sliding_window_view(u_buf, H, axis=1)[:, 1:].transpose(1, 0, 2)[:, :, None]
    update = neg_mu != 0.0
    norm = window_norm_bound(fx, J * L)
    # infinite until the first step resets it from the weights' norm
    bound = math.inf
    w = v
    full = T - T % width
    try:
        for start, stop, B in ((0, full, width), (full, T, T - full)):
            if stop == start:
                continue
            # A pass's (B*K + 1, J, L) stack holds the weights, then the
            # update terms, sample by sample in mic order. Adding each row
            # into the next makes the adds `step` makes, the last one into
            # the other stack's first row; rows 0, K, ... are the weights
            # the outputs read, row (i+1)*K those after sample i.
            stacks = [np.empty((B * K + 1, J, L)) for _ in range(2)]
            stacks[0][:] = w
            sides = []
            for s, other in (stacks, stacks[::-1]):
                rows = list(s[:B * K]) + [other[0]]
                sides.append((s[:B * K:K], s[1:].reshape(B, K, J, L),
                              [(rows[r], s[r + 1], rows[r + 1]) for r in range(B * K)],
                              rows[K::K]))
            cur, nxt = sides
            # the path terms of the pass, (B, J, K); each sample's and
            # mic's in terms.ravel(), loudspeaker by loudspeaker
            terms = np.empty((B, J, K))
            path_out = terms[path_index]
            t_flat = terms.reshape(-1)
            mic_terms = [[(i * J + j) * K + k for j in range(J)]
                         for i in range(B) for k in range(K)]
            c = np.empty((B, K, 1, 1))
            c_flat = c.reshape(-1)
            growth = BOUND_GROWTH ** (B + 1)

            def blocks(a):
                return a[start:stop].reshape(((stop - start) // B, B) + a.shape[1:])

            rows = zip(range(start, stop, B), blocks(p_wins), blocks(x_wins),
                       blocks(fx_wins), blocks(u_rows))
            for n0, p_win, x_win, fx_win, u_out in rows:
                path_dot(p_win, path_taps, path_out)
                # e(n) in `Plant.step`'s order: source by source, then noise
                vals = t_flat.tolist()
                coefs = []
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
                weights, t_rows, chain, after = cur
                if update:
                    c_flat[:] = coefs
                    multiply(c, fx_win, t_rows)
                    for a, t, out in chain:
                        add(a, t, out)
                out_dot(weights, x_win, u_out)
                if not update:
                    continue
                # the bound over a whole pass, one more BOUND_GROWTH covering
                # the sum's B*K - 1 further roundings; where it fails, the
                # pass's samples take it one at a time
                passed = bound
                bound = (passed + c_sum * norm) * growth
                if not (bound <= BOUND_LIMIT):
                    bound = passed
                    for i in range(B):
                        bound = (bound + sum(map(fabs, coefs[i * K:i * K + K])) * norm) \
                            * BOUND_GROWTH
                        if not (bound <= BOUND_LIMIT):
                            bound = guard_reset(after[i], step0 + n0 + i)
                cur, nxt = nxt, cur
            w = cur[0][0]
    except DivergenceError as exc:
        # filters up to the one that tripped hold their update, as in `step`
        n, j = exc.index - step0, exc.coords[1]
        v[:] = after[n - n0]
        v[j + 1:] = weights[n - n0][j + 1:]
        return n, exc.coords, n
    v[:] = w
    return None, None, T


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
    for j, row in enumerate(u_buf):
        row[H + 1:] = fir(as_taps(w[0, j]), xs)
    err = split.drive(dist, u_buf)
    return LoopResult(error=err, output=u_buf[:, H + 1:].T, final_weights=w.copy())
