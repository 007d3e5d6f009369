"""Array operations per sample of the adaptive recursions' bodies.

numpy time follows calls, not multiplies, so each body has a closed-form
count of array operations a sample, or a pass of several samples, given
in its module docstring. Counts are deterministic: a change that adds an
operation fails here instead of hiding in host noise. Three kinds are
counted, each as the difference between a short run and a longer one
over the extra samples or passes, so set-up work cancels:

- calls of the numpy callables a body looks up through its module's
  `np`, or takes from `filters` (its `vecdot`, or the `np.multiply` of
  its one-element rule), which the test wraps (`sys.setprofile` does not
  report a ufunc's own call, such as `np.multiply` or `np.vecdot`);
- ndarray methods such as `ndarray.dot` (`filters.dot` bound to an
  array), from `sys.setprofile`'s `c_call` events;
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

from ancsim import adaptation, filters, floatfmt, loops
from ancsim.acoustics import DEFAULT_SECONDARY, PathSpec, Plant, synthetic_plant
from ancsim.adaptation import lms_fit
from ancsim.floatfmt import CHUNK
from ancsim.loops import Lane, loop_aligned_path, run_adaptive
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
    """Count, into `counts`, the numpy calls `module` makes through `np`
    or through the row reductions of `filters`, every ndarray method
    called and every row `module` draws from an array through `zip`."""

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
        for mod in {module, filters}:
            patch.setattr(mod, "np", CountingNumpy(counts))
        patch.setattr(filters, "vecdot", counted(filters.vecdot, "vecdot", counts))
        patch.setattr(module, "zip", counting_zip, raising=False)
        sys.setprofile(profile)
        try:
            yield counts
        finally:
            sys.setprofile(None)


def per_sample(module, run, short=20, long=60):
    """Operations per sample of `run(T)`: the counts of a `long` run less
    those of a `short` one, over the extra samples."""
    return per_block(module, run, 1, short, long)


def per_block(module, run, width, short=4, long=12):
    """Operations per pass of `width` samples of `run(T)`: the counts of a
    run of `long` passes less those of one of `short`, over the extra
    passes."""
    short, long = short * width, long * width
    counts = []
    for T in (short, long):
        with counting(module, Counter()) as c:
            run(T)
        counts.append(c)
    extra = counts[1] - counts[0]
    assert not counts[0] - counts[1], "a shorter run made more calls"
    per = {}
    passes = (long - short) // width
    for name, n in extra.items():
        assert n % passes == 0, (name, n)
        per[name] = n // passes
    return per


def adaptive_run(plant, taps):
    """`run_adaptive(T)` of a fresh McAncController with loop-aligned true
    paths as estimates, over white noise."""
    J, K = plant.n_sources, plant.n_mics
    est = loop_aligned_path(plant.secondaries)

    def run(T):
        ctl = McAncController(ChannelConfig(1, J, K, taps, est.shape[2]), 1e-4, est)
        x = np.random.default_rng(1).standard_normal(T)
        res = run_adaptive(plant, ctl, x)
        assert res.diverged_at is None

    return run


def two_length_plant(delay=0):
    """A 1x2x2 plant whose secondary paths are given with 3 and 5 taps,
    all of them with `delay` more leading zero taps; the plant pads them
    to one length."""
    s3 = np.r_[np.zeros(delay), 0.3, 0.5, 0.2]
    s5 = np.r_[np.zeros(delay), 0.1, 0.0, 0.4, -0.1, 0.05]
    return Plant([np.array([0.0, 0.8, -0.3])] * 2, [[s3, s5], [s5, 0.7 * s3]],
                 measurement_noise_std=0.01, seed=3)


# no leading zero tap: every output reaches the mics at the next step
UNDELAYED = PathSpec(delay=0, decay=0.5, taps=16, gain=0.5)


def grid_plant(J, K, secondary=UNDELAYED):
    return synthetic_plant(n_sources=J, n_mics=K, seed=77, measurement_noise_std=0.01,
                           secondary=secondary)


@pytest.mark.parametrize("plant, taps, width", [
    (synthetic_plant(seed=77), 16, 5),
    (grid_plant(1, 1, DEFAULT_SECONDARY), 16, 5),
    (grid_plant(2, 2, DEFAULT_SECONDARY), 16, 5),
    (grid_plant(3, 2, DEFAULT_SECONDARY), 16, 5),
    (two_length_plant(delay=1), 8, 2),
    (grid_plant(2, 2, DEFAULT_SECONDARY), 1, 5),
    (grid_plant(1, 1), 16, 1),
    (grid_plant(2, 2), 16, 1),
    (grid_plant(3, 2), 16, 1),
    (two_length_plant(), 8, 1),
    (grid_plant(2, 2), 1, 1),
], ids=["1x1x1", "1x1x1_noisy", "1x2x2", "1x3x2", "1x2x2_two_lengths", "1x2x2L1",
        "undelayed_1x1x1", "undelayed_1x2x2", "undelayed_1x3x2", "undelayed_1x2x2_two_lengths",
        "undelayed_1x2x2L1"])
def test_block_body_runs_a_fixed_handful_of_operations_a_pass(plant, taps, width):
    # paths that start with width - 1 zero taps run width samples a pass,
    # a grid of undelayed paths one: the paths' window and dot (one for
    # paths given at two lengths too, which the plant pads to one), the
    # terms' tolist, x's and x_f's windows and the output slots, the
    # update terms' product, one in-place add per term (width * K), the
    # outputs' dot (a plain product for one-tap filters) and no guard dot
    # while the running bound holds. With the coefficients' store that
    # makes 9 + width * K
    K = plant.n_mics
    per = per_block(loops, adaptive_run(plant, taps), width)
    want = Counter({"vecdot": 1, "ndarray.tolist": 1, "multiply": 1,
                    "add": width * K, "row": 4})
    want["vecdot" if taps > 1 else "multiply"] += 1
    assert per == dict(want)
    assert sum(per.values()) + 1 == 9 + width * K


def lanes_run(plant, taps, G):
    """`run_lanes(T)` of G fresh McAncControllers, each with its own
    reference and step size, on the plant's geometry."""
    J, K = plant.n_sources, plant.n_mics
    est = loop_aligned_path(plant.secondaries)

    def run(T):
        rng = np.random.default_rng(1)
        lanes = [Lane(plant, McAncController(ChannelConfig(1, J, K, taps, est.shape[2]),
                                             1e-4 * (g + 1), est), rng.standard_normal(T))
                 for g in range(G)]
        assert all(res.diverged_at is None for res in loops.run_lanes(lanes))

    return run


@pytest.mark.parametrize("G", [2, 3])
@pytest.mark.parametrize("plant, taps, width", [
    (grid_plant(1, 1, DEFAULT_SECONDARY), 16, 5),
    (grid_plant(2, 2, DEFAULT_SECONDARY), 16, 5),
    (grid_plant(2, 2), 16, 1),
    (grid_plant(2, 2), 1, 1),
], ids=["1x1x1", "1x2x2", "undelayed_1x2x2", "undelayed_1x2x2L1"])
def test_lanes_make_each_operation_of_a_pass_once_for_all_of_them(plant, taps, width, G):
    # G lanes of one geometry make the one lane's 9 + width * K operations
    # a pass, whatever G is: every array of a pass has a lane axis
    one = per_block(loops, lanes_run(plant, taps, 1), width)
    assert sum(one.values()) + 1 == 9 + width * plant.n_mics
    assert per_block(loops, lanes_run(plant, taps, G), width) == one


def vecdots_in_fir(run):
    """The `vecdot` calls made inside `loops`' calls of `fir` while run()
    runs."""
    counts = Counter()
    fir = loops.fir

    def counted_fir(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(filters, "vecdot", counted(filters.vecdot, "vecdot", counts))
            return fir(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(loops, "fir", counted_fir)
        run()
    return counts["vecdot"]


def test_a_grid_filters_its_references_and_its_primaries_in_one_vecdot_each():
    # a 1x2x2 run: two primary paths and four filtered references, each
    # stack one `fir` call, whose one `vecdot` forms every row
    plant = grid_plant(2, 2, DEFAULT_SECONDARY)
    x = np.random.default_rng(1).standard_normal(40)
    dist = loops.PlantSplit(plant).disturbance(x)
    assert vecdots_in_fir(lambda: loops.PlantSplit(plant).disturbance(x)) == 1
    est = loop_aligned_path(plant.secondaries)
    ctl = McAncController(ChannelConfig(1, 2, 2, 16, est.shape[2]), 1e-4, est)
    assert vecdots_in_fir(lambda: run_adaptive(plant, ctl, x, disturbance=dist)) == 1


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
    # scale, the update product, the in-place add and the coefficients'
    # tolist for the running bound, over rows of windows, desired samples
    # and outputs
    per = per_sample(adaptation, fit_run(P, 8))
    assert per == {"vecdot": 1, "subtract": 1, "multiply": 2, "add": 1, "ndarray.tolist": 1,
                   "row": 3}


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
