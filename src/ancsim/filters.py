"""The package's one home for dots, and FIR filtering as one pass.

Every dot an export or an oracle depends on is one of two names bound
here: `dot` for one pair of vectors and `vecdot` for every pair of rows
along the last axis, the same `cblas_ddot` per pair. `row_reduction`
states the one-element rule once. No other module spells a reduction
(`tests/test_reductions.py` parses the sources), so rebinding these
names changes every export's arithmetic at once; the one exception is
`adaptation.wiener_solve`, library API that no export reads.

`fir` filters a whole block given the samples that preceded it: the
plant's paths, frozen controllers and filtered references. Output n is
the dot of the reversed weights with the window ending at x(n), all of
them in one `rowdots` call, so a pass split anywhere equals one whole
pass, and per-sample filtering, bit for bit. Samples before the first
one given are zeros, the x(k) = 0 for k < 0 of the convolution sums.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .signals import as_samples


def as_taps(weights) -> np.ndarray:
    """Validated float64 copy of an FIR impulse response."""
    w = np.atleast_1d(np.asarray(weights, dtype=np.float64))
    if w.ndim != 1 or w.size < 1:
        raise DataError("FIR filter needs at least one tap")
    if not np.all(np.isfinite(w)):
        raise DataError("FIR weights must be finite")
    return w.copy()


# the method, 0.2 us a call cheaper than `np.dot`; `dot.__get__(v)` is `v.dot`
dot = np.ndarray.dot
vecdot = np.vecdot


def row_reduction(n: int):
    """(reduction, index) for rows of n elements: `reduction(a, b,
    out[index])` writes the dots of a's and b's rows into `out`, their
    broadcast shape less the last axis. The one-element rule: a dot of
    one-element rows is their plain product, as `dot` forms it, which
    keeps a -0.0 that a `ddot` sum would add to +0.0; `np.multiply` keeps
    the rows' trailing axis, so `out` takes one too."""
    if n == 1:
        return np.multiply, (..., None)
    return vecdot, ...


def fir(weights, x, history=None) -> np.ndarray:
    """y(n) = sum_i w_i x(n-i) for every sample of x.

    `history` holds the samples before x, oldest first; the window reads
    zeros beyond it. Each output is the dot `FirFilter.process_sample`
    forms over its window; `rowdots` forms all of them in one call.
    """
    w_rev = np.asarray(weights, dtype=np.float64)[::-1].copy()
    x = np.asarray(x, dtype=np.float64)
    if not x.size:
        return np.empty(0)
    past = () if history is None else history
    h = np.concatenate([np.zeros(w_rev.size - 1), past, x])[len(past):]
    return rowdots(sliding_window_view(h, w_rev.size), w_rev)


def rowdots(a, b) -> np.ndarray:
    """The dot of every pair of rows of a and b (broadcast), along the
    last axis, in one call of `row_reduction`'s reduction."""
    reduction, index = row_reduction(a.shape[-1])
    out = np.empty(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    reduction(a, b, out[index])
    return out


class FirFilter:
    """Transversal FIR filter: y(n) = sum_i w_i * x(n-i).

    Weights are fixed after construction; adaptive weights live in the
    adaptation module. The filter keeps its last N input samples, so block
    processing across calls is bit-identical to one whole-signal call;
    reset it between independent runs.
    """

    def __init__(self, weights):
        self._weights = as_taps(weights)
        self._w_rev = self._weights[::-1].copy()  # aligned with the window
        self._x = np.zeros(self._weights.size)    # chronological, newest last

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    @property
    def n_taps(self) -> int:
        return self._weights.size

    def process_sample(self, x: float) -> float:
        if not math.isfinite(x):
            raise DataError(f"non-finite input sample {x!r}")
        window = self._x
        window[:-1] = window[1:]
        window[-1] = x
        return float(dot(self._w_rev, window))

    def process(self, samples) -> np.ndarray:
        """Filter an array of samples, advancing state."""
        x = as_samples(samples)
        out = fir(self._weights, x, self._x)
        self._x = np.concatenate([self._x, x])[x.size:]
        return out

    def reset(self) -> None:
        self._x[:] = 0.0
