"""Signal container: a uniformly sampled real-valued sequence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class Signal:
    """Real-valued samples at a fixed sample rate.

    Samples are dimensionless amplitudes, nominally in [-1, 1]. All
    time series in the library (reference, disturbance, error, control
    output) travel in this container.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.samples = as_samples(self.samples)
        self.sample_rate_hz = float(self.sample_rate_hz)
        if not (self.sample_rate_hz > 0):
            raise DataError(f"sample rate must be positive, got {self.sample_rate_hz}")

    def __len__(self) -> int:
        return len(self.samples)


def require_same_rate(*signals: Signal) -> float:
    """Return the common sample rate or raise DataError on mismatch."""
    rates = {s.sample_rate_hz for s in signals}
    if len(rates) > 1:
        raise DataError(f"sample rates differ: {sorted(rates)}")
    return signals[0].sample_rate_hz


def require_same_length(*signals: Signal) -> int:
    lengths = {len(s) for s in signals}
    if len(lengths) > 1:
        raise DataError(f"signal lengths differ: {sorted(lengths)}")
    return len(signals[0])


def as_samples(x) -> np.ndarray:
    """Accept a Signal or array-like; return validated float64 samples."""
    if isinstance(x, Signal):
        return x.samples
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DataError(f"expected 1-D samples, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise DataError(f"non-finite sample at index {bad}")
    return arr
