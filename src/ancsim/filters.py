"""FIR filtering as one stateless pass.

`fir` filters a whole block given the samples that preceded it; every
linear time-invariant pass in the library (the plant's paths, frozen
controllers, filtered references) goes through it, and band-noise
synthesis through its `rowdots`. Output n is the dot of the reversed
weights with the chronological window ending at x(n): the `cblas_ddot`
that `ndarray.dot` forms on two vectors, reached for every window at
once through `rowdots`, one `np.vecdot` call. A one-tap filter is a
plain product instead: `ndarray.dot` forms a one-element dot that way,
which keeps a -0.0 that `ddot` would add to +0.0. So a pass split
anywhere equals one whole pass, and equals per-sample filtering, bit for
bit. Samples before the first one given are zeros, matching the
x(k) = 0 for k < 0 convention of the convolution sums. The adaptive
loops' per-sample bodies follow the same rule: they call `np.vecdot`
directly, and `np.multiply` for rows of one element, to save
`rowdots`'s own call.
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


def fir(weights, x, history=None) -> np.ndarray:
    """y(n) = sum_i w_i x(n-i) for every sample of x.

    `history` holds the samples before x, oldest first; the window reads
    zeros beyond it. Each output is the `cblas_ddot` of `w_rev` with its
    own window, the dot `FirFilter.process_sample` forms; `rowdots` forms
    all of them in one call. Do not replace these dots by a matrix
    product, `einsum` or an FFT convolution: those add the terms in
    another order and change the last bits.
    """
    w_rev = np.asarray(weights, dtype=np.float64)[::-1].copy()
    x = np.asarray(x, dtype=np.float64)
    if not x.size:
        return np.empty(0)
    past = () if history is None else history
    h = np.concatenate([np.zeros(w_rev.size - 1), past, x])[len(past):]
    return rowdots(sliding_window_view(h, w_rev.size), w_rev)


def rowdots(a, b, out=None):
    """The dot of every pair of rows of a and b (broadcast), along the
    last axis: one `np.vecdot` call, the `cblas_ddot` `ndarray.dot` forms
    for each pair. Rows of one element are a plain product instead, as
    `ndarray.dot` forms them: a `ddot` sum would turn -0.0 into +0.0."""
    if a.shape[-1] == 1:
        return np.multiply(a[..., 0], b[..., 0], out=out)
    return np.vecdot(a, b, out=out)


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
        return float(np.dot(self._w_rev, window))

    def process(self, samples) -> np.ndarray:
        """Filter an array of samples, advancing state."""
        x = as_samples(samples)
        out = fir(self._weights, x, self._x)
        self._x = np.concatenate([self._x, x])[x.size:]
        return out

    def reset(self) -> None:
        self._x[:] = 0.0
