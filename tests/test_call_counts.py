"""Array operations per sample of the adaptive recursions' bodies.

numpy time follows calls, not multiplies, so each per-sample body has a
closed-form count of array operations, given in its module docstring.
Counts are deterministic: a change that adds an operation a sample fails
here instead of hiding in host noise. Three kinds are counted, each as
the difference between a short run and a longer one over the extra
samples, so set-up work cancels:

- calls of the numpy callables a body looks up through its module's
  `np`, which the test wraps (`sys.setprofile` does not report a ufunc's
  own call, such as `np.multiply` or `np.vecdot`);
- ndarray methods such as `ndarray.dot`, from `sys.setprofile`'s
  `c_call` events;
- rows the body draws from arrays through `zip`: its windows, output
  slots and desired-sample rows.

Item stores into arrays have no hook; each body makes the one its
docstring names.

Float text (`floatfmt`) runs whole-array passes through operators, which
no wrapped callable sees, so its inputs, tables and new arrays are an
ndarray subclass, `Lanes`, that counts every ufunc and array-function
call made on it.
"""

import builtins
import sys
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from ancsim import adaptation, floatfmt, loops
from ancsim.acoustics import Plant, synthetic_plant
from ancsim.adaptation import lms_fit
from ancsim.floatfmt import CHUNK
from ancsim.loops import loop_aligned_path, run_adaptive
from ancsim.mcanc import ChannelConfig, McAncController


class Counted:
    """A numpy callable that counts its calls, and those of its ufunc
    methods such as `reduce`, under `name`."""

    def __init__(self, fn, name, counts):
        self.fn, self.name, self.counts = fn, name, counts

    def __call__(self, *args, **kwargs):
        self.counts[self.name] += 1
        return self.fn(*args, **kwargs)

    def __getattr__(self, attr):
        return counted(getattr(self.fn, attr), f"{self.name}.{attr}", self.counts)


def counted(obj, name, counts):
    return Counted(obj, name, counts) if callable(obj) and not isinstance(obj, type) else obj


class CountingNumpy:
    """Stands in for `np` in a module: every callable it hands out counts."""

    def __init__(self, counts):
        self._counts = counts

    def __getattr__(self, name):
        return counted(getattr(np, name), name, self._counts)


@contextmanager
def counting(module, counts):
    """Count, into `counts`, the numpy calls `module` makes through `np`,
    every ndarray method called and every row `module` draws from an
    array through `zip`."""

    def rows(a):
        for row in a:
            counts["row"] += 1
            yield row

    def counting_zip(*iterables):
        return builtins.zip(*(rows(it) if isinstance(it, np.ndarray) else it
                              for it in iterables))

    def profile(frame, event, arg):
        if event == "c_call" and isinstance(getattr(arg, "__self__", None), np.ndarray):
            counts["ndarray." + arg.__name__] += 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "np", CountingNumpy(counts))
        patch.setattr(module, "zip", counting_zip, raising=False)
        sys.setprofile(profile)
        try:
            yield counts
        finally:
            sys.setprofile(None)


def per_sample(module, run, short=20, long=60):
    """Operations per sample of `run(T)`: the counts of a `long` run less
    those of a `short` one, over the extra samples."""
    counts = []
    for T in (short, long):
        with counting(module, Counter()) as c:
            run(T)
        counts.append(c)
    extra = counts[1] - counts[0]
    assert not counts[0] - counts[1], "a shorter run made more calls"
    per = {}
    for name, n in extra.items():
        assert n % (long - short) == 0, (name, n)
        per[name] = n // (long - short)
    return per


def adaptive_run(plant, taps):
    """`run_adaptive(T)` of a fresh McAncController with loop-aligned true
    paths as estimates (zero-padded to the longest), over white noise."""
    J, K = plant.n_sources, plant.n_mics
    M = max(s.size for row in plant.secondaries for s in row)
    est = loop_aligned_path(np.array([[np.pad(s, (0, M - s.size)) for s in row]
                                      for row in plant.secondaries]))

    def run(T):
        ctl = McAncController(ChannelConfig(1, J, K, taps, est.shape[2]), 1e-4, est)
        x = np.random.default_rng(1).standard_normal(T)
        res = run_adaptive(plant, ctl, x)
        assert res.diverged_at is None

    return run


def two_length_plant():
    """A 1x2x2 plant whose secondary paths have 3 and 5 taps."""
    s3, s5 = np.array([0.0, 0.5, 0.2]), np.array([0.0, 0.0, 0.4, -0.1, 0.05])
    return Plant([np.array([0.0, 0.8, -0.3])] * 2, [[s3, s5], [s5, 0.7 * s3]],
                 measurement_noise_std=0.01, seed=3)


@pytest.mark.parametrize("plant, taps, lengths", [
    (synthetic_plant(n_sources=2, n_mics=2, seed=77, measurement_noise_std=0.01), 16, 1),
    (synthetic_plant(n_sources=3, n_mics=2, seed=77, measurement_noise_std=0.01), 16, 1),
    (two_length_plant(), 8, 2),
    (synthetic_plant(n_sources=2, n_mics=2, seed=77, measurement_noise_std=0.01), 1, 1),
], ids=["1x2x2", "1x3x2", "1x2x2_two_lengths", "1x2x2L1"])
def test_stacked_body_runs_a_fixed_handful_of_operations(plant, taps, lengths):
    # one path dot per distinct path length, then the outputs' tolist,
    # the output dot, the update product and the outer-axis reduction;
    # one window per path length, x(n)'s and x_f(n)'s windows and u(n)'s
    # slot; and no guard dot while the running bound holds. One-tap
    # filters take the output as a plain product instead of a `vecdot`.
    # With the coefficient store that makes 8 + 2 * lengths.
    per = per_sample(loops, adaptive_run(plant, taps))
    out_dot = "vecdot" if taps > 1 else "multiply"
    want = Counter({"vecdot": lengths, "ndarray.tolist": 1, "multiply": 1,
                    "add.reduce": 1, "row": 3 + lengths})
    want[out_dot] += 1
    assert per == dict(want)
    assert sum(per.values()) + 1 == 8 + 2 * lengths


def test_scalar_body_runs_eight_operations():
    # the path's window and dot, x(n)'s window, dot and store, x_f(n)'s
    # window, the scaled copy and the in-place add
    plant = synthetic_plant(seed=77, measurement_noise_std=0.01)
    per = per_sample(loops, adaptive_run(plant, 16))
    assert per == {"ndarray.dot": 2, "multiply": 1, "add": 1, "row": 3}
    assert sum(per.values()) + 1 == 8


def fit_run(P, N):
    rng = np.random.default_rng(2)

    def run(T):
        x = rng.standard_normal((P, N - 1 + T))
        d = 0.1 * rng.standard_normal((P, T))
        _, _, diverged = lms_fit(np.zeros((P, N)), x, d, 0.01)
        assert diverged is None

    return run


@pytest.mark.parametrize("P", [2, 4])
def test_fit_rows_runs_a_fixed_handful_of_calls(P):
    # whatever P is: the outputs' vecdot, the coefficients' subtract and
    # scale, the update product, the in-place add and the one screen dot,
    # over rows of windows, desired samples and outputs
    per = per_sample(adaptation, fit_run(P, 8))
    assert per == {"vecdot": 1, "subtract": 1, "multiply": 2, "add": 1, "vdot": 1, "row": 3}


def test_fit_row_runs_a_dot_a_product_and_an_add():
    per = per_sample(adaptation, fit_run(1, 8))
    assert per == {"ndarray.dot": 1, "multiply": 1, "add": 1, "row": 1}


def plain(obj):
    """`obj` with every `Lanes` array in it (nested in tuples, lists and
    dicts) viewed as a plain ndarray."""
    if isinstance(obj, Lanes):
        return obj.view(np.ndarray)
    if isinstance(obj, (tuple, list)):
        return type(obj)(plain(o) for o in obj)
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return obj


def lanes(obj):
    """`obj`'s arrays, tuple items included, viewed as `Lanes`."""
    if isinstance(obj, tuple):
        return tuple(lanes(o) for o in obj)
    return obj.view(Lanes) if type(obj) is np.ndarray else obj


class Lanes(np.ndarray):
    """An array whose ufunc calls (operators and in-place operators
    included) and array-function calls count into `Lanes.calls`. What
    they return is again `Lanes`, so every pass over a chunk counts."""

    calls = Counter()

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        Lanes.calls[ufunc.__name__ + ("" if method == "__call__" else "." + method)] += 1
        return lanes(getattr(ufunc, method)(*plain(inputs), **plain(kwargs)))

    def __array_function__(self, func, types, args, kwargs):
        Lanes.calls[func.__name__] += 1
        return lanes(func(*plain(args), **plain(kwargs)))


class LanesNumpy:
    """Stands in for `np` in `floatfmt`: the arrays it makes are `Lanes`."""

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name in ("empty", "zeros", "ascontiguousarray"):
            return lambda *args, **kwargs: lanes(attr(*args, **kwargs))
        return attr


def format_calls(values):
    """The counted calls of `floatfmt.format_floats(values)`, its tables
    and every array it makes counted as `Lanes`."""
    tables = {name: getattr(floatfmt, name)() for name in ("_g_table", "_layout_tables")}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(floatfmt, "np", LanesNumpy())
        for name, table in tables.items():
            patch.setattr(floatfmt, name, lambda table=table: lanes(table))
        Lanes.calls = Counter()
        floatfmt.format_floats(np.asarray(values, np.float64).view(Lanes))
        return Lanes.calls


def wide_values(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)


def test_float_text_makes_a_fixed_number_of_passes_per_chunk():
    # float text is numpy time: every pass over a chunk's lanes costs about
    # the same, whatever it computes. Decode, exponent and table gather,
    # the interval's limb products and rounding (about 60), digit choice,
    # D and its digit bytes, the last digit's position, the mask gather
    # and the store: 174 calls a chunk. A chunk holding a zero, a
    # subnormal, an infinity or nan adds the passes that fix those lanes.
    two, three = format_calls(wide_values(2 * CHUNK, 1)), format_calls(wide_values(3 * CHUNK, 2))
    per_chunk = three - two
    assert not two - three, "three chunks made fewer calls of some kind than two"
    assert sum(per_chunk.values()) == 174, per_chunk
    assert per_chunk["where"] == 2 and per_chunk["searchsorted"] == 0
    rare = wide_values(3 * CHUNK, 3)
    rare[[5, CHUNK + 5]] = [0.0, np.nan]
    rare[[6, CHUNK + 6]] = [5e-324, -np.inf]
    extra = format_calls(rare) - three
    assert sum(extra.values()) == 2 * 15, extra
