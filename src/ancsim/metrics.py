"""Evaluation arithmetic: per-interval noise reduction, overall SNR,
averaged power spectrum, and spectrogram.

Noise reduction over an interval is 10 log10(sum d^2 / sum e^2) between
the uncontrolled disturbance d and the controlled error e; positive dB
means attenuation. An interval with zero error power but nonzero
disturbance power yields +inf (unbounded attenuation); zero power on both
sides yields NaN (undefined). Spectral estimates use Hann-windowed,
overlap-averaged periodograms normalized so the one-sided bins sum to the
signal's mean square value (dB re unit variance). One routine draws the
periodograms one frame at a time: the spectrogram writes them into the rows
of a (frames, bins) matrix, the PSD is their mean, summed in order as they
are drawn, and a report whose two hops agree takes it from the matrix.
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
    """dB reduction per analysis interval; trailing partial interval dropped.
    Each interval's power is its row's sum, as `np.sum` sums it alone."""
    require_same_rate(d, e)
    n_total = require_same_length(d, e)
    step = interval_length(d.sample_rate_hz, interval_s)
    n = n_total // step
    p_d, p_e = (np.sum(np.square(s.samples[:n * step]).reshape(n, step), axis=1).tolist()
                for s in (d, e))
    return np.array([_power_ratio_db(a, b) for a, b in zip(p_d, p_e)], dtype=float)


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


def _check_frame_len(x: Signal, frame_len: int, what: str) -> None:
    if frame_len < 2 or frame_len & (frame_len - 1):
        raise DomainError(f"{what} length must be a power of two, got {frame_len}")
    if frame_len > len(x):
        raise DataError(
            f"signal of {len(x)} samples is shorter than {what} length {frame_len}")


def _welch_hop(segment_len: int, overlap: float) -> int:
    """The hop between the segments `power_spectrum` averages."""
    if not (0.0 <= overlap < 1.0):
        raise DomainError(f"overlap fraction must be in [0, 1), got {overlap}")
    return max(int(round(segment_len * (1.0 - overlap))), 1)


def _periodograms(x: Signal, frame_len: int, hop: int):
    """The one framing routine: the starts of the frames every `hop` samples
    (`frame_len` a power of two), the bin frequencies and, one `rfft` a
    frame as it is drawn, each Hann-windowed frame's one-sided periodogram."""
    if not (0 < hop <= frame_len):
        raise DomainError(f"hop must be in (0, frame_len], got {hop}")
    window = np.hanning(frame_len)
    win_norm = frame_len * float(np.sum(window**2))
    starts = np.arange(0, len(x) - frame_len + 1, hop)

    def rows():
        for start in starts:
            spec = np.fft.rfft(x.samples[start:start + frame_len] * window)
            power = (spec.real**2 + spec.imag**2) / win_norm
            power[1:] *= 2.0
            power[-1] /= 2.0  # Nyquist bin is not mirrored
            yield power
    return starts, np.fft.rfftfreq(frame_len, d=1.0 / x.sample_rate_hz), rows()


def _spectrogram(x: Signal, starts: np.ndarray, freq: np.ndarray, linear: np.ndarray):
    return Spectrogram(times_s=starts / x.sample_rate_hz, freq_hz=freq,
                       power_db=_to_db(linear, out=linear))


def power_spectrum(x: Signal, segment_len: int = 1024, overlap: float = 0.5) -> PowerSpectrum:
    """Averaged one-sided periodogram (Hann window, fractional overlap), the
    frames summed in order as they are drawn, in one row's memory."""
    _check_frame_len(x, segment_len, "segment")
    starts, freq, rows = _periodograms(x, segment_len, _welch_hop(segment_len, overlap))
    mean = sum(rows, np.zeros(freq.size)) / starts.size
    return PowerSpectrum(freq_hz=freq, power_db=_to_db(mean), power_linear=mean)


def spectrogram(x: Signal, frame_len: int = 1024, hop: int = 512) -> Spectrogram:
    """Hann-windowed STFT power in dB, frames x one-sided bins, each frame
    written into its row; the linear powers are converted in place."""
    _check_frame_len(x, frame_len, "frame")
    starts, freq, rows = _periodograms(x, frame_len, hop)
    return _spectrogram(x, starts, freq, np.fromiter(rows, (float, freq.size), starts.size))


@dataclass
class RunReport:
    """Metrics for one control arm against the shared disturbance; it
    keeps neither signal."""

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
    divergence. The powers come first, so their squared signals are gone
    before the error is framed into a matrix at `hop`; the PSD is its row
    mean, or `power_spectrum`'s if its own hop (`_welch_hop`) differs."""
    require_same_rate(d, e)
    require_same_length(d, e)
    nr, snr = noise_reduction_per_interval(d, e, interval_s), snr_overall(d, e)
    psd = spectro = None
    if len(e) >= segment_len:
        _check_frame_len(e, segment_len, "segment")
        starts, freq, rows = _periodograms(e, segment_len, hop)
        linear = np.fromiter(rows, (float, freq.size), starts.size)
        if _welch_hop(segment_len, overlap) == hop:  # rows added in order, as in power_spectrum
            mean = np.add.reduce(linear, axis=0) / starts.size
            psd = PowerSpectrum(freq_hz=freq, power_db=_to_db(mean), power_linear=mean)
        else:
            psd = power_spectrum(e, segment_len, overlap)
        spectro = _spectrogram(e, starts, psd.freq_hz, linear)  # both share one bins array
    return RunReport(interval_s=interval_s, nr_per_interval_db=nr, snr_db=snr,
                     psd=psd, spectro=spectro)
