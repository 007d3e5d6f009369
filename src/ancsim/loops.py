"""Closed-loop execution of controllers against a simulated plant.

Per-sample ordering, identical for every controller kind: read x(n),
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

There is one adaptive loop, `run_adaptive`, for the single-channel
`FxlmsFilter` and every 1xJxK `McAncController` alike: it inlines
`McAncController.step` over flat histories in its operand order. The
filtered references do not depend on the control either, so they come
from one `fir` pass per path, the dot `step` forms over the same window;
only the secondary paths, the controller outputs and the weight updates
stay per-sample. The weight guard is one dot, a squared norm, with the
exact `check_weights` behind it, the rule `adaptation.lms_fit` uses.

The geometry picks the per-sample body; both give the same bits. One
filter and one mic run the scalar body: per path a window slice and a
dot, per output a dot, per update term a slice, a scaled product and an
in-place add, per filter a guard dot, so 5JK + 2J + 1 array operations
a sample: 8 at 1x1x1, 25 at 1x2x2, 89 at 1x4x4. A grid runs the stacked
body, 11 operations whatever J and K are (two more per further distinct
secondary-path length): a window index and one `rowdots` for every
path of one length, one `tolist` of their outputs, one `rowdots` for
every output, one product writing the K update terms behind the
weights in a (K+1, J, L) stack, one `np.add.reduce` over its outer axis
(elementwise, the adds `step` makes term by term) and one guard dot over
every filter, plus the indexing and coefficient store these need. Each
stacked call carries more overhead, so at 1x1x1 the scalar body is the
faster one. One loudspeaker of one-tap filters (J*L = 1) stays scalar
too: there the reduction has one element per slot, and numpy sums such
a reduction pairwise once it has 8 or more slots.

`run_fixed` runs frozen weights, for which the loop is LTI end to end:
each of its passes, controller and path, is one `fir` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .acoustics import Plant
from .adaptation import FxlmsFilter
from .errors import DataError, DivergenceError
from .filters import as_taps, fir, rowdots
from .mcanc import GUARD_SCREEN, McAncController, check_weights
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

    One filter and one mic (or one loudspeaker of one-tap filters) run
    `_scalar_body`, every other geometry `_stacked_body`; the module
    docstring gives each one's calls a sample and why the count of
    filters and mics picks one.
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
    body = _stacked_body if J * K > 1 and J * L > 1 else _scalar_body
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
    if single:
        err, out, diverged_coords = err[:, 0], out[:, 0], None
    return LoopResult(error=err, output=out, final_weights=controller.weights,
                      diverged_at=diverged_at, diverged_coords=diverged_coords)


def _scalar_body(split, ctl, x_buf, fx_buf, u_buf, err, noise):
    """`run_adaptive`'s per-sample loop with one call per path, output and
    update term: the fewest calls for one filter and one mic. Returns
    (diverged_at, coords, steps)."""
    J, K, H = split.n_sources, split.n_mics, split.hist
    T = len(err) // K
    v, mu = ctl._v[0], ctl.mu
    L, hx = v.shape[1], ctl._x.shape[1]
    step0 = ctl._step_count
    # flattened in Plant.step's (j, k) order: mic, loudspeaker row, lag
    paths = [(k, u_buf[j], H - s.size, s.dot)
             for j, paths_j in enumerate(split.sec_rev) for k, s in enumerate(paths_j)]
    controls = [(u_buf[j], v[j].dot) for j in range(J)]
    # each filter's update terms in mic order; the guard screens the filter
    # right after its last term, so only that term carries its squared norm
    updates = [(v[j], k, fx_buf[j, k], v[j].dot if k == K - 1 else None, (0, j))
               for j in range(J) for k in range(K)]
    screen = GUARD_SCREEN
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
        if mu != 0.0:
            try:
                for v_j, k, fx_row, v_sq, coords in updates:
                    v_j += (-mu * err[at + k]) * fx_row[n1:n1 + L]
                    if v_sq is not None and not (v_sq(v_j) <= screen):
                        check_weights(v_j, step0 + n, coords)
            except DivergenceError as exc:
                return n, exc.coords, n
    return None, None, T


def _stacked_body(split, ctl, x_buf, fx_buf, u_buf, err, noise):
    """`run_adaptive`'s per-sample loop as a fixed handful of calls over
    stacked operands, whatever J and K are. Returns (diverged_at, coords,
    steps)."""
    J, K, H = split.n_sources, split.n_mics, split.hist
    T = len(err) // K
    v, neg_mu = ctl._v[0], -ctl.mu
    L, hx = v.shape[1], ctl._x.shape[1]
    step0 = ctl._step_count

    # Secondary paths: one `rowdots` per distinct path length m, of every
    # loudspeaker's newest m samples, (J, 1, m), against that length's
    # reversed taps, (J, K, m). Paths of another length hold zeros there
    # and their dots go unread: padding a path's taps would regroup its
    # `ddot` blocks. Outputs land in pout[g] as (K, J).
    lengths = sorted({s.size for row in split.sec_rev for s in row})
    pout = np.empty((len(lengths), K, J))
    groups = []
    for g, m in enumerate(lengths):
        taps = np.zeros((J, K, m))
        for j, row in enumerate(split.sec_rev):
            for k, s in enumerate(row):
                if s.size == m:
                    taps[j, k] = s
        # window n1 is u_buf[j, n1+H-m:n1+H], the plant's window at step n
        wins = sliding_window_view(u_buf, m, axis=1)[:, H - m:].transpose(1, 0, 2)
        groups.append((wins[:, :, None, :], taps, pout[g].T))
    # each mic's path terms in pout.ravel(), loudspeaker by loudspeaker
    g_of = {m: g for g, m in enumerate(lengths)}
    mic_terms = [[(g_of[split.sec_rev[j][k].size] * K + k) * J + j for j in range(J)]
                 for k in range(K)]
    p_flat = pout.reshape(-1)

    u_cols = u_buf.T
    # fx_w[n1] is x_f(n)'s (K, J, L) windows, mic-major like the terms
    fx_w = sliding_window_view(fx_buf, L, axis=2).transpose(2, 1, 0, 3)
    # Two (K+1, J, L) stacks: the weights, then the K update terms. One
    # outer-axis reduction of one stack into the other's weight slot adds
    # ((w + t_0) + t_1) + ... elementwise, the adds `step` makes in mic
    # order; the initial -0.0 adds nothing, where numpy's default +0.0
    # would turn an all -0.0 sum into +0.0.
    stacks = [np.empty((K + 1, J, L)) for _ in range(2)]
    stacks[0][0] = v
    cur, nxt = [(S, S[0], S[1:], S[0].reshape(-1)) for S in stacks]
    c = np.empty((K, 1, 1))
    c_flat = c.reshape(-1)
    screen = GUARD_SCREEN
    try:
        for n in range(T):
            at, n1 = n * K, n + 1
            for wins, taps, out in groups:
                rowdots(wins[n1], taps, out=out)
            vals = p_flat.tolist()
            coefs = []
            for k, terms in enumerate(mic_terms):
                i = at + k
                e = err[i]
                for t in terms:
                    e += vals[t]
                if noise is not None:
                    e += noise[i]
                err[i] = e
                coefs.append(neg_mu * e)
            S, w, t_slots, _ = cur
            end = n1 + hx
            rowdots(w, x_buf[end - L:end], out=u_cols[H + n1])
            if neg_mu != 0.0:
                c_flat[:] = coefs
                np.multiply(c, fx_w[n1], out=t_slots)
                _, w_next, _, flat = nxt
                np.add.reduce(S, axis=0, out=w_next, initial=-0.0)
                # one screen over every filter, then the exact check filter
                # by filter, in the order `step` checks them
                if not (flat.dot(flat) <= screen):
                    for j in range(J):
                        check_weights(w_next[j], step0 + n, (0, j))
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
        out = fir(as_taps(w), xs)
        err = split.drive(dist, out[:, None])[:, 0]
    else:
        if w.ndim != 3 or w.shape[:2] != (1, split.n_sources):
            raise DataError(
                f"frozen weights must have shape (1, {split.n_sources}, taps), "
                f"got {w.shape}")
        out = np.empty((xs.size, split.n_sources))
        for j in range(split.n_sources):
            out[:, j] = fir(as_taps(w[0, j]), xs)
        err = split.drive(dist, out)
    return LoopResult(error=err, output=out, final_weights=w.copy())
