"""FIR filters with explicit, streamable state.

Processing is sample-by-sample against a ring-buffer delay line, so block
processing across calls is bit-identical to one whole-signal call. Delay
lines start zeroed, matching the x(k) = 0 for k < 0 convention of the
convolution sums.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, DomainError
from .signals import as_samples


class DelayLine:
    """Fixed-length history of the most recent samples.

    Writes each sample at two mirrored positions so the chronological
    window (oldest to newest) is always one contiguous view; pairing it
    with reversed coefficient vectors keeps every dot product in a single
    canonical order, which the bit-exactness contracts rely on.
    """

    __slots__ = ("size", "_buf", "_pos")

    def __init__(self, size: int):
        if size < 1:
            raise DataError(f"delay line size must be >= 1, got {size}")
        self.size = size
        self._buf = np.zeros(2 * size)
        self._pos = size - 1

    def push(self, x: float) -> None:
        pos = self._pos + 1
        if pos == self.size:
            pos = 0
        buf = self._buf
        buf[pos] = x
        buf[pos + self.size] = x
        self._pos = pos

    def window(self) -> np.ndarray:
        """Chronological view [x(n-size+1), ..., x(n)]. Do not mutate."""
        start = self._pos + 1
        return self._buf[start:start + self.size]

    def reset(self) -> None:
        self._buf[:] = 0.0
        self._pos = self.size - 1


class FirFilter:
    """Transversal FIR filter: y(n) = sum_i w_i * x(n-i).

    Weights are fixed after construction; adaptive weights live in the
    adaptation module. The internal delay line makes the filter stateful:
    clone or reset between independent runs.
    """

    def __init__(self, weights):
        w = np.atleast_1d(np.asarray(weights, dtype=np.float64))
        if w.ndim != 1 or w.size < 1:
            raise DataError("FIR filter needs at least one tap")
        if not np.all(np.isfinite(w)):
            raise DataError("FIR weights must be finite")
        self._weights = w.copy()
        self._w_rev = w[::-1].copy()  # aligned with chronological windows
        self._line = DelayLine(w.size)

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    @property
    def n_taps(self) -> int:
        return self._weights.size

    def process_sample(self, x: float) -> float:
        if not math.isfinite(x):
            raise DataError(f"non-finite input sample {x!r}")
        self._line.push(x)
        return float(np.dot(self._w_rev, self._line.window()))

    def process(self, samples) -> np.ndarray:
        """Filter an array of samples, advancing state.

        Each output is the same dot product `process_sample` forms, taken
        over a flat copy of the history instead of the ring buffer.
        """
        x = as_samples(samples)
        size = self._w_rev.size
        history = np.concatenate([self._line.window(), x])
        out = np.empty_like(x)
        fir_dot = self._w_rev.dot
        for n in range(x.size):
            out[n] = fir_dot(history[n + 1:n + 1 + size])
        for sample in x[-size:]:
            self._line.push(sample)
        return out

    def frequency_response(self, freq_hz: float, sample_rate_hz: float) -> complex:
        """Evaluate H(e^{j*omega}) = sum_i w_i e^{-j*omega*i} at one frequency.

        Valid for 0 <= freq_hz <= sample_rate_hz / 2. The response is that
        of the current weight snapshot; for a filter whose weights are being
        adapted it describes the frozen coefficients only.
        """
        if sample_rate_hz <= 0:
            raise DomainError(f"sample rate must be positive, got {sample_rate_hz}")
        if not (0.0 <= freq_hz <= sample_rate_hz / 2):
            raise DomainError(
                f"frequency {freq_hz} Hz outside [0, {sample_rate_hz / 2}] Hz")
        omega = 2.0 * np.pi * freq_hz / sample_rate_hz
        phases = np.exp(-1j * omega * np.arange(self._weights.size))
        return complex(np.dot(self._weights, phases))

    def reset(self) -> None:
        self._line.reset()

    def clone(self) -> "FirFilter":
        """Fresh filter with the same weights and zeroed state."""
        return FirFilter(self._weights)
