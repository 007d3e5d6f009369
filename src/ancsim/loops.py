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
share; each such pass is one `np.vecdot` call, with no Python-level call
per sample. Every term is the same `np.dot` over the same window that
`Plant.step` forms, added in the order `Plant.step` adds it, so each loop
reproduces a per-sample `Plant.step` run bit for bit.

There is one adaptive loop, `run_adaptive`, for every 1xJxK
`McAncController`, the single-channel FxLMS being its 1x1x1 case; every
loop gives (T, K) errors and (T, J) outputs. It inlines
`McAncController.step` over flat histories in its operand order. The
filtered references do not depend on the control either, so they come
from one `fir` pass per path, the dot `step` forms over the same window;
only the secondary paths, the controller outputs and the weight updates
stay per-sample. The weight guard follows `mcanc`'s guard rule, as
`adaptation.lms_fit` does.

The geometry picks the per-sample body; both give the same bits. Each
draws its windows, and the slots its outputs go to, as the rows of
`sliding_window_view`s zipped together, so no sample indexes an array to
find them, and each passes ufunc operands positionally (numpy parses
keywords on every call). One filter and one mic (J = K = 1) run the
scalar body, in straight lines: a window and a dot for the path, a
window, a dot and a store for the output, a window, a product into a
scratch buffer and an in-place add for the update: 8 array operations a
sample, with no temporary and no inner loop. Every other geometry runs
the stacked body, 10 operations whatever J and K are (two more per
further distinct secondary-path length): a window and one `np.vecdot`
for every path of one length, one `tolist` of their outputs, a window, a
slot and one `np.vecdot` for every output, a coefficient store, a window
and one product writing the K update terms behind the weights in a
(K+1, J, L) stack, and one `np.add.reduce` over its outer axis
(elementwise, the adds `step` makes term by term). Rows of one element
take `filters.rowdots`'s plain product instead of a `vecdot`.
`tests/test_call_counts.py` holds both bodies to these counts.

Both guard the weights with the rule's running norm bound, a few float
operations and a compare a sample while the weights stay within half the
guard; the stacked body's bound covers the whole (J, L) stack and adds
the magnitudes of the K update coefficients. The squared norm and the
exact check take over only past it. Each stacked call carries more
overhead, so at 1x1x1 the scalar body is the faster one. numpy sums a
reduction pairwise once it has 8 or more slots of one element each, so
one loudspeaker of one-tap filters (J*L = 1) gets a stack with a second
lane, held at zero, which numpy adds slot by slot.

`run_fixed` runs frozen weights, for which the loop is LTI end to end:
each of its passes, controller and path, is one `fir` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .acoustics import Plant
from .errors import DataError, DivergenceError
from .filters import as_taps, fir
from .mcanc import (
    BOUND_GROWTH,
    BOUND_LIMIT,
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
    (or reset) plant starts.
    """

    def __init__(self, plant: Plant):
        self.n_sources = plant.n_sources
        self.n_mics = plant.n_mics
        self._primaries = plant.primaries
        self._noise_std = plant.measurement_noise_std
        self._rng = np.random.default_rng(plant.seed)
        self.sec_taps = plant.secondaries
        # reversed taps pair with chronological windows, as in `fir`
        self.sec_rev = [[w[::-1].copy() for w in row] for row in self.sec_taps]
        _, self.silent = plant.silent_outputs()
        self.hist = max(w.size for row in self.sec_taps for w in row)
        # newest samples that reached the primary paths and each
        # loudspeaker's paths
        self.x_hist = np.zeros(max(p.size for p in self._primaries))
        self.u_hist = np.zeros((self.n_sources, self.hist))

    def disturbance(self, x) -> Disturbance:
        """Advance the primary paths and the noise generator over x."""
        xs = as_samples(x)
        primary = np.empty((xs.size, self.n_mics))
        for k, p in enumerate(self._primaries):
            primary[:, k] = fir(p, xs, self.x_hist)
        self.x_hist = np.concatenate([self.x_hist, xs])[xs.size:]
        noise = None
        if self._noise_std > 0.0:
            noise = self._noise_std * self._rng.standard_normal((xs.size, self.n_mics))
        return Disturbance(primary, self.silent, noise)

    def drive(self, dist: Disturbance, u: np.ndarray) -> np.ndarray:
        """Microphone signals (T, K) for known controller outputs u (T, J).

        u(n) reaches the paths at step n+1; as in every loop here, the
        first sample of a call hears silent loudspeakers.
        """
        T = len(u)
        e = dist.primary.copy()
        for j, paths_j in enumerate(self.sec_taps):
            u_in = np.concatenate([[0.0], u[:-1, j]])[:T]
            for k, s in enumerate(paths_j):
                e[:, k] += fir(s, u_in, self.u_hist[j])
            self.u_hist[j] = np.concatenate([self.u_hist[j], u_in])[T:]
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
    propagating, so partial traces remain available for diagnostics.

    One filter and one mic run `_scalar_body`, every other geometry
    `_stacked_body`; the module docstring gives each one's calls a sample
    and why the count of filters and mics picks one.
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

    # Python floats: the same IEEE arithmetic as the plant's, less overhead.
    # Flat, row after row: err[n*K + k] becomes e_k(n) in place.
    err = dist.primary.ravel().tolist()
    noise = None if dist.noise is None else dist.noise.ravel().tolist()
    body = _scalar_body if J * K == 1 else _stacked_body
    diverged_at, diverged_coords, steps = body(split, ctl, x_buf, fx_buf, u_buf, err, noise)

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
    return LoopResult(error=err, output=out, final_weights=ctl.weights,
                      diverged_at=diverged_at, diverged_coords=diverged_coords)


def _scalar_body(split, ctl, x_buf, fx_buf, u_buf, err, noise):
    """`run_adaptive`'s per-sample loop for one filter and one mic, in
    straight lines: a path dot, a control dot and its store, a scaled copy
    of the filtered-reference window and its in-place add to the weights
    (`v += c * x_f` in two calls, without a temporary), and the running
    bound of `mcanc`'s guard rule. Returns (diverged_at, coords, steps)."""
    H, T = split.hist, len(err)
    if not T:
        return None, None, 0
    v, neg_mu = ctl._v[0, 0], -ctl.mu
    L, hx = v.size, ctl._x.shape[1]
    step0 = ctl._step_count
    s = split.sec_rev[0][0]
    path_dot, control_dot = s.dot, v.dot
    u_row = u_buf[0]
    # row n of each is the window step n reads: the loudspeaker's newest
    # s.size samples, x(n) and x_f(n) back L samples; u(n) goes to H+1+n
    u_wins = sliding_window_view(u_row[H - s.size + 1:], s.size)
    x_wins = sliding_window_view(x_buf[hx - L + 1:], L)
    fx = fx_buf[0, 0, 1:]
    fx_wins = sliding_window_view(fx, L)
    u_at = H + 1
    norm = window_norm_bound(fx, L)
    term = np.empty(L)
    multiply, add, fabs = np.multiply, np.add, math.fabs
    # infinite until the first step resets it from the weights' norm
    bound = math.inf
    for n, (u_win, x_win, fx_win) in enumerate(zip(u_wins, x_wins, fx_wins)):
        e = err[n] + path_dot(u_win)
        if noise is not None:
            e += noise[n]
        err[n] = e
        u_row[u_at + n] = control_dot(x_win)
        if neg_mu != 0.0:
            c = neg_mu * e
            add(v, multiply(fx_win, c, out=term), out=v)
            bound = (bound + fabs(c) * norm) * BOUND_GROWTH
            if not (bound <= BOUND_LIMIT):
                try:
                    bound = guard_reset(v, step0 + n, (0, 0))
                except DivergenceError as exc:
                    return n, exc.coords, n
    return None, None, T


def _stacked_body(split, ctl, x_buf, fx_buf, u_buf, err, noise):
    """`run_adaptive`'s per-sample loop as a fixed handful of calls over
    stacked operands, whatever J and K are, guarded by `mcanc`'s running
    norm bound over the whole (J, L) stack of filters. Returns
    (diverged_at, coords, steps)."""
    J, K, H = split.n_sources, split.n_mics, split.hist
    T = len(err) // K
    if not T:
        return None, None, 0
    v, neg_mu = ctl._v[0], -ctl.mu
    L, hx = v.shape[1], ctl._x.shape[1]
    step0 = ctl._step_count
    vecdot, multiply, add_reduce, fabs = np.vecdot, np.multiply, np.add.reduce, math.fabs

    # Secondary paths: one dot per distinct path length m, of every
    # loudspeaker's newest m samples, (J, 1, m), against that length's
    # reversed taps, (J, K, m). Paths of another length hold zeros there
    # and their dots go unread: padding a path's taps would regroup its
    # `ddot` blocks. Outputs land in pout[g] as (K, J). One-tap paths take
    # the plain product `rowdots` takes, into a trailing axis of pout[g].
    lengths = sorted({s.size for row in split.sec_rev for s in row})
    pout = np.empty((len(lengths), K, J))
    paths, path_wins = [], []
    for g, m in enumerate(lengths):
        taps = np.zeros((J, K, m))
        for j, row in enumerate(split.sec_rev):
            for k, s in enumerate(row):
                if s.size == m:
                    taps[j, k] = s
        out = pout[g].T
        paths.append((vecdot, taps, out) if m > 1 else (multiply, taps, out[:, :, None]))
        # row n is u_buf[j, n+1+H-m:n+1+H], the plant's window at step n
        wins = sliding_window_view(u_buf, m, axis=1)[:, H - m + 1:].transpose(1, 0, 2)
        path_wins.append(wins[:, :, None, :])
    # each mic's path terms in pout.ravel(), loudspeaker by loudspeaker
    g_of = {m: g for g, m in enumerate(lengths)}
    mic_terms = [[(g_of[split.sec_rev[j][k].size] * K + k) * J + j for j in range(J)]
                 for k in range(K)]
    p_flat = pout.reshape(-1)

    # row n of each: x(n)'s window, x_f(n)'s (K, J, L) windows, mic-major
    # like the terms, and u(n)'s slot, column H+1+n of u_buf; one-tap
    # filters take the plain product into a trailing axis of that slot
    x_wins = sliding_window_view(x_buf[hx - L + 1:], L)
    fx = fx_buf[:, :, 1:]
    fx_wins = sliding_window_view(fx, L, axis=2).transpose(2, 1, 0, 3)
    u_rows = u_buf.T[H + 1:]
    out_dot = vecdot
    if L == 1:
        out_dot, u_rows = multiply, u_rows[:, :, None]
    # Two (K+1, J, L) stacks: the weights, then the K update terms. One
    # outer-axis reduction of one stack into the other's weight slot adds
    # ((w + t_0) + t_1) + ... elementwise, the adds `step` makes in mic
    # order; the initial -0.0 adds nothing, where numpy's default +0.0
    # would turn an all -0.0 sum into +0.0. With one weight a slot (one
    # loudspeaker of one-tap filters) numpy would sum the slots pairwise
    # once there are 8 or more, so that stack gets a second lane, held at
    # zero, and adds slot by slot as every wider stack does.
    lanes = L + (J * L == 1)
    stacks = [np.zeros((K + 1, J, lanes)) for _ in range(2)]
    stacks[0][0, :, :L] = v
    cur, nxt = [(S, S[0, :, :L], S[1:, :, :L], S[0]) for S in stacks]
    c = np.empty((K, 1, 1))
    c_flat = c.reshape(-1)
    norm = window_norm_bound(fx, J * L)
    # infinite until the first step resets it from the weights' norm
    bound = math.inf
    # the first path length in straight lines, any further ones in a loop
    (path_dot, path_taps, path_out), *more = paths
    more_wins = zip(*path_wins[1:]) if more else repeat(())
    rows = zip(path_wins[0], x_wins, fx_wins, u_rows, more_wins)
    try:
        for n, (p_win, x_win, fx_win, u_row, p_wins) in enumerate(rows):
            path_dot(p_win, path_taps, path_out)
            if more:
                for (dot, taps, out), win in zip(more, p_wins):
                    dot(win, taps, out)
            vals = p_flat.tolist()
            at = n * K
            coefs = []
            c_sum = 0.0
            for k, terms in enumerate(mic_terms):
                i = at + k
                e = err[i]
                for t in terms:
                    e += vals[t]
                if noise is not None:
                    e += noise[i]
                err[i] = e
                coef = neg_mu * e
                coefs.append(coef)
                c_sum += fabs(coef)
            S, w, t_slots, _ = cur
            out_dot(w, x_win, u_row)
            if neg_mu != 0.0:
                c_flat[:] = coefs
                multiply(c, fx_win, t_slots)
                _, w_next, _, w_lanes = nxt
                add_reduce(S, 0, None, w_lanes, False, -0.0)
                bound = (bound + c_sum * norm) * BOUND_GROWTH
                if not (bound <= BOUND_LIMIT):
                    bound = guard_reset(w_next, step0 + n)
                cur, nxt = nxt, cur
    except DivergenceError as exc:
        # filters up to the one that tripped hold their update, as in `step`
        j = exc.coords[1]
        w_next[j + 1:] = cur[1][j + 1:]
        v[:] = w_next
        return n, exc.coords, n
    v[:] = cur[1]
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
    out = np.empty((xs.size, split.n_sources))
    for j in range(split.n_sources):
        out[:, j] = fir(as_taps(w[0, j]), xs)
    err = split.drive(dist, out)
    return LoopResult(error=err, output=out, final_weights=w.copy())
