"""Noise synthesis and composition for experiment references.

Band-limited sources are seeded white noise shaped by an FIR band-pass,
the dots `filters.fir` forms, and normalized to unit power; recordings
come in through WAV files. The two composition modes mirror the evaluation
scenarios: `concatenate` abuts sources at switch times, `mix` sums them
with per-source gains and renormalizes to unit power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .filters import rowdots
from .ranges import Scale
from .signals import Signal, require_same_rate

BANDPASS_TAPS = 511


@dataclass(frozen=True)
class ToneSpec:
    freq_hz: float
    amplitude: Scale = 1.0
    phase_rad: float = 0.0


@dataclass(frozen=True)
class BandNoiseSpec:
    """Flat-ish noise between low_hz and high_hz, optional added tones."""

    low_hz: float
    high_hz: float
    tones: tuple[ToneSpec, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class WavFileSpec:
    path: str


def synthesize_noise(spec, seed, duration_s: float, sample_rate_hz: float) -> Signal:
    """Render one noise source. Same spec and seed give bit-identical output.

    Band noise holds two arrays of about the source's length at its peak:
    the white noise and its filtered copy, which the returned signal is.
    The squares that normalize the power go into the spent white noise,
    and the time axis is made only for added tones."""
    n = int(round(duration_s * sample_rate_hz))
    if duration_s <= 0 or n < 1:
        raise ConfigError(f"duration {duration_s} s at {sample_rate_hz} Hz holds no sample")

    if isinstance(spec, ToneSpec):
        _check_band_edge(spec.freq_hz, sample_rate_hz)
        t = np.arange(n) / sample_rate_hz
        return Signal(spec.amplitude * np.sin(2 * np.pi * spec.freq_hz * t + spec.phase_rad),
                      sample_rate_hz)

    if isinstance(spec, BandNoiseSpec):
        _check_band_edge(spec.low_hz, sample_rate_hz)
        _check_band_edge(spec.high_hz, sample_rate_hz)
        if not (0 < spec.low_hz < spec.high_hz):
            raise ConfigError(
                f"band edges must satisfy 0 < low < high, got [{spec.low_hz}, {spec.high_hz}]")
        rng = np.random.default_rng(seed)
        white = rng.standard_normal(n + BANDPASS_TAPS)
        bp = _bandpass(spec.low_hz, spec.high_hz, sample_rate_hz)
        # the full convolution past the band-pass's start-up: `fir`'s dot of
        # the reversed taps with every window, without the zero-padded copy
        # of the noise that only the start-up would read
        shaped = rowdots(sliding_window_view(white[1:], BANDPASS_TAPS), bp[::-1].copy())
        # the white noise is spent: the squares go into it
        shaped /= np.sqrt(np.mean(np.square(shaped, out=white[:n])))
        t = np.arange(n) / sample_rate_hz if spec.tones else None
        for tone in spec.tones:
            _check_band_edge(tone.freq_hz, sample_rate_hz)
            shaped += tone.amplitude * np.sin(2 * np.pi * tone.freq_hz * t + tone.phase_rad)
        return Signal(shaped, sample_rate_hz)

    if isinstance(spec, WavFileSpec):
        from .wavio import read_wav
        sig = read_wav(spec.path)
        if sig.sample_rate_hz != sample_rate_hz:
            raise ConfigError(
                f"{spec.path} is sampled at {sig.sample_rate_hz} Hz but the run uses "
                f"{sample_rate_hz} Hz; resampling is out of scope")
        if len(sig) < n:
            raise ConfigError(
                f"{spec.path} holds {len(sig) / sample_rate_hz:.3f} s, need {duration_s} s")
        return Signal(sig.samples[:n], sample_rate_hz)

    raise ConfigError(f"unknown noise source spec {type(spec).__name__}")


def _bandpass(low_hz: float, high_hz: float, fs: float) -> np.ndarray:
    """Hann-windowed linear-phase band-pass, unit gain at the band centre.

    The window method of `scipy.signal.firwin(BANDPASS_TAPS, [low_hz, high_hz],
    pass_zero=False, window="hann", fs=fs)`, written with its operations in
    its order so the taps come out bit for bit the same.
    """
    left, right = np.asarray([low_hz, high_hz], dtype=np.float64) / float(0.5 * fs)
    m = np.arange(BANDPASS_TAPS, dtype=np.float64) - 0.5 * (BANDPASS_TAPS - 1)
    h = 0                       # as scipy: 0 + x maps a -0.0 tap to +0.0
    h += right * np.sinc(right * m)
    h -= left * np.sinc(left * m)
    # scipy accumulates the Hann window as 0 + 0.5*cos(0) + 0.5*cos(fac);
    # the first two terms sum to exactly 0.5
    h *= 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, BANDPASS_TAPS))
    h /= np.sum(h * np.cos(np.pi * m * (0.5 * (left + right))))
    return h


def _check_band_edge(freq_hz: float, sample_rate_hz: float) -> None:
    if not (0 <= freq_hz < sample_rate_hz / 2):
        raise ConfigError(
            f"frequency {freq_hz} Hz is not below the Nyquist frequency "
            f"{sample_rate_hz / 2} Hz")


def compose(sources: list[Signal], mode: str, switch_times_s=None, gains=None) -> Signal:
    if not sources:
        raise ConfigError("need at least one noise source")
    rate = require_same_rate(*sources)
    if mode == "concatenate":
        return _concatenate(sources, rate, switch_times_s)
    if mode == "mix":
        return _mix(sources, gains)
    raise ConfigError(f"unknown composition mode {mode!r}")


def _concatenate(sources, rate, switch_times_s) -> Signal:
    """Abut the sources. When switch times are given they must match the
    cumulative source boundaries; each source is rendered at its own
    segment length upstream."""
    if switch_times_s is not None:
        switch_times_s = list(switch_times_s)
        if len(switch_times_s) != len(sources) - 1:
            raise ConfigError(
                f"{len(sources)} sources need {len(sources) - 1} switch times, "
                f"got {len(switch_times_s)}")
        boundary = 0
        for i, t in enumerate(switch_times_s):
            boundary += len(sources[i])
            expected = int(round(t * rate))
            if boundary != expected:
                raise ConfigError(
                    f"switch time {t} s expects a boundary at sample {expected}, "
                    f"but source {i} ends at sample {boundary}")
    return Signal(np.concatenate([s.samples for s in sources]), rate)


def _mix(sources, gains) -> Signal:
    gains = list(gains) if gains is not None else [1.0] * len(sources)
    if len(gains) != len(sources):
        raise ConfigError(f"{len(sources)} sources but {len(gains)} gains")
    n = min(len(s) for s in sources)
    acc = np.zeros(n)
    for g, src in zip(gains, sources):
        acc += g * src.samples[:n]
    power = float(np.mean(acc**2))
    if power == 0.0:
        raise DataError("mixed signal has zero power; cannot renormalize")
    return Signal(acc / np.sqrt(power), sources[0].sample_rate_hz)
