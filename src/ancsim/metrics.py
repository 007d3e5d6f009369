"""Evaluation arithmetic: per-interval noise reduction, overall SNR,
averaged power spectrum, and spectrogram.

Noise reduction over an interval is 10 log10(sum d^2 / sum e^2) between
the uncontrolled disturbance d and the controlled error e; positive dB
means attenuation. An interval with zero error power but nonzero
disturbance power yields +inf (unbounded attenuation); zero power on both
sides yields NaN (undefined). Spectral estimates use Hann-windowed,
overlap-averaged periodograms normalized so the one-sided bins sum to the
signal's mean square value (dB re unit variance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError
from .signals import Signal, require_same_length, require_same_rate

DB_FLOOR = -120.0


def _power_ratio_db(p_num: float, p_den: float) -> float:
    if p_den == 0.0:
        return np.nan if p_num == 0.0 else np.inf
    if p_num == 0.0:
        return -np.inf
    return 10.0 * np.log10(p_num / p_den)


def interval_length(sample_rate_hz: float, interval_s: float) -> int:
    n = int(round(interval_s * sample_rate_hz))
    if n < 1:
        raise DomainError(f"interval {interval_s} s is shorter than one sample")
    return n


def noise_reduction_per_interval(d: Signal, e: Signal, interval_s: float) -> np.ndarray:
    """dB reduction per analysis interval; trailing partial interval dropped."""
    require_same_rate(d, e)
    n_total = require_same_length(d, e)
    step = interval_length(d.sample_rate_hz, interval_s)
    n_intervals = n_total // step
    out = np.empty(n_intervals)
    for i in range(n_intervals):
        sl = slice(i * step, (i + 1) * step)
        out[i] = _power_ratio_db(float(np.sum(d.samples[sl] ** 2)),
                                 float(np.sum(e.samples[sl] ** 2)))
    return out


def snr_overall(d: Signal, e: Signal) -> float:
    """dB ratio of uncontrolled to controlled power over the whole run."""
    require_same_rate(d, e)
    require_same_length(d, e)
    return _power_ratio_db(float(np.sum(d.samples ** 2)),
                           float(np.sum(e.samples ** 2)))


@dataclass
class PowerSpectrum:
    freq_hz: np.ndarray
    power_db: np.ndarray       # clamped at DB_FLOOR
    power_linear: np.ndarray   # unclamped, sums to the mean square value

    def peak_freq_hz(self) -> float:
        return float(self.freq_hz[int(np.argmax(self.power_linear))])


@dataclass
class Spectrogram:
    """STFT power in dB only: the linear powers it was computed from are
    converted in place, so a report holds one (frames, bins) matrix."""

    times_s: np.ndarray        # frame start times
    freq_hz: np.ndarray
    power_db: np.ndarray       # (frames, bins), clamped at DB_FLOOR


def _to_db(linear: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """10 log10 of the powers, clamped at DB_FLOOR; `out=linear` converts
    them in place, with the same bits."""
    with np.errstate(divide="ignore"):
        db = np.log10(linear, out=out)
    db *= 10.0
    return np.maximum(db, DB_FLOOR, out=db)


def _segment_power(segment: np.ndarray, window: np.ndarray, win_norm: float) -> np.ndarray:
    spec = np.fft.rfft(segment * window)
    power = (spec.real**2 + spec.imag**2) / win_norm
    power[1:] *= 2.0
    if segment.size % 2 == 0:
        power[-1] /= 2.0  # Nyquist bin is not mirrored
    return power


def power_spectrum(x: Signal, segment_len: int = 1024, overlap: float = 0.5) -> PowerSpectrum:
    """Averaged one-sided periodogram (Hann window, fractional overlap)."""
    if segment_len < 2 or segment_len & (segment_len - 1):
        raise DomainError(f"segment length must be a power of two, got {segment_len}")
    if segment_len > len(x):
        raise DataError(
            f"signal of {len(x)} samples is shorter than segment length {segment_len}")
    if not (0.0 <= overlap < 1.0):
        raise DomainError(f"overlap fraction must be in [0, 1), got {overlap}")
    hop = max(int(round(segment_len * (1.0 - overlap))), 1)
    window = np.hanning(segment_len)
    win_norm = segment_len * float(np.sum(window**2))
    acc = np.zeros(segment_len // 2 + 1)
    count = 0
    for start in range(0, len(x) - segment_len + 1, hop):
        acc += _segment_power(x.samples[start:start + segment_len], window, win_norm)
        count += 1
    linear = acc / count
    freq = np.fft.rfftfreq(segment_len, d=1.0 / x.sample_rate_hz)
    return PowerSpectrum(freq_hz=freq, power_db=_to_db(linear), power_linear=linear)


def spectrogram(x: Signal, frame_len: int = 1024, hop: int = 512) -> Spectrogram:
    """Hann-windowed STFT power in dB, frames x one-sided bins. The linear
    powers are converted in place and not kept."""
    if frame_len < 2 or frame_len & (frame_len - 1):
        raise DomainError(f"frame length must be a power of two, got {frame_len}")
    if frame_len > len(x):
        raise DataError(
            f"signal of {len(x)} samples is shorter than frame length {frame_len}")
    if not (0 < hop <= frame_len):
        raise DomainError(f"hop must be in (0, frame_len], got {hop}")
    window = np.hanning(frame_len)
    win_norm = frame_len * float(np.sum(window**2))
    starts = np.arange(0, len(x) - frame_len + 1, hop)
    linear = np.empty((starts.size, frame_len // 2 + 1))
    for fi, start in enumerate(starts):
        linear[fi] = _segment_power(x.samples[start:start + frame_len], window, win_norm)
    freq = np.fft.rfftfreq(frame_len, d=1.0 / x.sample_rate_hz)
    return Spectrogram(times_s=starts / x.sample_rate_hz, freq_hz=freq,
                       power_db=_to_db(linear, out=linear))


@dataclass
class RunReport:
    """Metrics bundle for one control arm against the shared disturbance."""

    reference: Signal
    error: Signal
    interval_s: float
    nr_per_interval_db: np.ndarray
    snr_db: float
    psd: PowerSpectrum | None
    spectro: Spectrogram | None

    @property
    def final_nr_db(self) -> float:
        return float(self.nr_per_interval_db[-1]) if self.nr_per_interval_db.size else np.nan


def build_run_report(d: Signal, e: Signal, interval_s: float = 1.0,
                     segment_len: int = 1024, overlap: float = 0.5,
                     hop: int = 512) -> RunReport:
    """Full metrics for one arm. Spectral estimates are skipped (None) when
    the error record is shorter than one segment, e.g. after an early
    divergence."""
    require_same_rate(d, e)
    require_same_length(d, e)
    psd = spectro = None
    if len(e) >= segment_len:
        psd = power_spectrum(e, segment_len, overlap)
        spectro = spectrogram(e, segment_len, hop)
    return RunReport(
        reference=d, error=e, interval_s=interval_s,
        nr_per_interval_db=noise_reduction_per_interval(d, e, interval_s),
        snr_db=snr_overall(d, e),
        psd=psd, spectro=spectro,
    )
