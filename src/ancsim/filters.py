"""FIR and IIR filters with explicit, streamable state.

Processing is sample-by-sample against a ring-buffer delay line, so block
processing across calls is bit-identical to one whole-signal call. Delay
lines start zeroed, matching the x(k) = 0 for k < 0 convention of the
convolution sums.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, DomainError, InstabilityError
from .signals import Signal, as_samples

# Any intermediate sample beyond this magnitude is treated as divergence,
# failing deterministically before floating-point overflow to Inf.
MAGNITUDE_GUARD = 1e12


class DelayLine:
    """Fixed-length history of the most recent samples.

    Writes each sample at two mirrored positions so the chronological
    window (oldest to newest) is always one contiguous view. `last(k)`
    returns the newest k samples; pairing it with reversed coefficient
    vectors keeps every dot product in a single canonical order, which the
    bit-exactness contracts rely on.
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

    def last(self, k: int) -> np.ndarray:
        """Chronological view of the newest k samples."""
        end = self._pos + 1 + self.size
        return self._buf[end - k:end]

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

    def process_signal(self, sig: Signal) -> Signal:
        return sig.with_samples(self.process(sig.samples))

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


class IirFilter:
    """Recursive filter: y(n) = sum_i a_i x(n-i) + sum_{i>=1} b_i y(n-i).

    Stability is not guaranteed by construction; `is_stable` checks the
    poles, and processing aborts with InstabilityError once any output
    sample exceeds the finite-magnitude guard.
    """

    def __init__(self, feedforward, feedback=()):
        a = np.atleast_1d(np.asarray(feedforward, dtype=np.float64))
        b = np.atleast_1d(np.asarray(feedback, dtype=np.float64)) if len(feedback) else np.zeros(0)
        if a.size < 1:
            raise DataError("IIR filter needs at least one feedforward tap")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise DataError("IIR coefficients must be finite")
        self._a = a.copy()
        self._b = b.copy()
        self._a_rev = a[::-1].copy()
        self._b_rev = b[::-1].copy()
        self._x_line = DelayLine(a.size)
        self._y_line = DelayLine(max(b.size, 1))
        self._count = 0

    @property
    def feedforward(self) -> np.ndarray:
        return self._a.copy()

    @property
    def feedback(self) -> np.ndarray:
        return self._b.copy()

    def process_sample(self, x: float) -> float:
        if not math.isfinite(x):
            raise DataError(f"non-finite input sample {x!r}")
        self._x_line.push(x)
        y = float(np.dot(self._a_rev, self._x_line.window()))
        if self._b.size:
            # y history window holds [y(n-b), ..., y(n-1)] before this push
            y += float(np.dot(self._b_rev, self._y_line.window()))
            self._y_line.push(y)
        n = self._count
        self._count = n + 1
        if not (abs(y) <= MAGNITUDE_GUARD):
            raise InstabilityError(
                f"IIR output magnitude {y!r} exceeds guard at sample {n}", index=n)
        return y

    def process(self, samples) -> np.ndarray:
        x = as_samples(samples)
        out = np.empty_like(x)
        for n in range(x.size):
            out[n] = self.process_sample(x[n])
        return out

    def process_signal(self, sig: Signal) -> Signal:
        return sig.with_samples(self.process(sig.samples))

    def is_stable(self) -> bool:
        """True iff all roots of 1 - sum_i b_i z^-i lie inside the unit circle."""
        if self._b.size == 0:
            return True
        poly = np.concatenate(([1.0], -self._b))
        roots = np.roots(poly)
        return bool(np.all(np.abs(roots) < 1.0))

    def reset(self) -> None:
        self._x_line.reset()
        self._y_line.reset()
        self._count = 0
