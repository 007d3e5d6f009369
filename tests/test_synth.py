"""Noise synthesis and composition."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from ancsim.errors import ConfigError, DataError
from ancsim.metrics import power_spectrum
from ancsim.signals import Signal
from ancsim.synth import (
    BANDPASS_TAPS,
    BandNoiseSpec,
    ToneSpec,
    _bandpass,
    compose,
    synthesize_noise,
)

RATE = 8000.0


class TestTone:
    def test_unit_amplitude_sinusoid(self):
        out = synthesize_noise(ToneSpec(200.0), seed=0, duration_s=1.0,
                               sample_rate_hz=RATE)
        assert len(out) == 8000
        t = np.arange(8000) / RATE
        np.testing.assert_allclose(out.samples, np.sin(2 * np.pi * 200.0 * t))

    def test_seed_irrelevant_for_tones(self):
        a = synthesize_noise(ToneSpec(440.0), 1, 0.5, RATE)
        b = synthesize_noise(ToneSpec(440.0), 2, 0.5, RATE)
        assert np.array_equal(a.samples, b.samples)


class TestBandNoise:
    def test_unit_power(self):
        out = synthesize_noise(BandNoiseSpec(40.0, 1400.0), 3, 2.0, RATE)
        assert float(np.mean(out.samples**2)) == pytest.approx(1.0, rel=1e-9)

    def test_out_of_band_rejection(self):
        out = synthesize_noise(BandNoiseSpec(40.0, 1400.0), 4, 8.0, RATE)
        ps = power_spectrum(out, 1024, 0.5)
        in_band = (ps.freq_hz >= 40.0) & (ps.freq_hz <= 1400.0)
        out_band = (ps.freq_hz > 1400.0 + 150.0) | (
            (ps.freq_hz < 40.0 - 20.0) & (ps.freq_hz > 0.0))
        p_in = float(np.sum(ps.power_linear[in_band]))
        p_out = float(np.sum(ps.power_linear[out_band]))
        assert 10 * np.log10(p_out / p_in) < -30.0

    def test_determinism(self):
        a = synthesize_noise(BandNoiseSpec(50.0, 3000.0), 9, 1.0, RATE)
        b = synthesize_noise(BandNoiseSpec(50.0, 3000.0), 9, 1.0, RATE)
        assert np.array_equal(a.samples, b.samples)
        c = synthesize_noise(BandNoiseSpec(50.0, 3000.0), 10, 1.0, RATE)
        assert not np.array_equal(a.samples, c.samples)

    def test_added_tone_component(self):
        spec = BandNoiseSpec(1000.0, 2000.0, tones=(ToneSpec(200.0, amplitude=3.0),))
        out = synthesize_noise(spec, 5, 4.0, RATE)
        ps = power_spectrum(out, 2048, 0.5)
        assert ps.freq_hz[np.argmax(ps.power_linear)] == pytest.approx(200.0, abs=RATE / 2048)

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            synthesize_noise(BandNoiseSpec(40.0, 4000.0), 0, 1.0, RATE)
        with pytest.raises(ConfigError):
            synthesize_noise(ToneSpec(5000.0), 0, 1.0, RATE)

    def test_inverted_band_rejected(self):
        with pytest.raises(ConfigError):
            synthesize_noise(BandNoiseSpec(1400.0, 40.0), 0, 1.0, RATE)


def scipy_band_noise(low_hz, high_hz, seed, n, rate):
    """The band-noise recipe as written against scipy.signal."""
    white = np.random.default_rng(seed).standard_normal(n + BANDPASS_TAPS)
    bp = sp_signal.firwin(BANDPASS_TAPS, [low_hz, high_hz], pass_zero=False,
                          window="hann", fs=rate)
    shaped = sp_signal.lfilter(bp, 1.0, white)[BANDPASS_TAPS:]
    shaped /= np.sqrt(np.mean(shaped**2))
    return bp, shaped


class TestScipyFree:
    """scipy is only a test oracle: the runtime band-pass and its filtering
    must reproduce scipy's bytes."""

    @settings(max_examples=150)
    @given(rate=st.floats(100.0, 96000.0), a=st.floats(1e-4, 1.0 - 1e-4),
           b=st.floats(1e-4, 1.0 - 1e-4), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 700))
    def test_band_noise_matches_scipy_bytes(self, rate, a, b, seed, n):
        low_hz, high_hz = sorted((a * rate / 2, b * rate / 2))
        assume(0 < low_hz < high_hz < rate / 2)
        bp, expected = scipy_band_noise(low_hz, high_hz, seed, n, rate)
        assert _bandpass(low_hz, high_hz, rate).tobytes() == bp.tobytes()
        out = synthesize_noise(BandNoiseSpec(low_hz, high_hz), seed, n / rate, rate)
        assert out.samples.tobytes() == expected.tobytes()

    def test_default_bands_match_scipy_bytes(self):
        for low_hz, high_hz in ((40.0, 1400.0), (50.0, 3800.0)):
            _, expected = scipy_band_noise(low_hz, high_hz, 2024, 16000, RATE)
            out = synthesize_noise(BandNoiseSpec(low_hz, high_hz), 2024, 2.0, RATE)
            assert out.samples.tobytes() == expected.tobytes()

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, ancsim.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert proc.stdout.strip() == "[]"


def convolve_band_noise(spec, seed, n, rate):
    """The band-noise recipe with `np.convolve` as its FIR pass."""
    white = np.random.default_rng(seed).standard_normal(n + BANDPASS_TAPS)
    bp = _bandpass(spec.low_hz, spec.high_hz, rate)
    shaped = np.convolve(bp, white)[BANDPASS_TAPS:len(white)]
    shaped = shaped / np.sqrt(np.mean(shaped**2))
    t = np.arange(n) / rate
    for tone in spec.tones:
        shaped = shaped + tone.amplitude * np.sin(2 * np.pi * tone.freq_hz * t + tone.phase_rad)
    return shaped


@settings(max_examples=100)
@given(rate=st.sampled_from([8000.0, 16000.0, 44100.0, 1000.0]),
       edges=st.tuples(st.floats(1e-4, 1.0 - 1e-4), st.floats(1e-4, 1.0 - 1e-4)),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000),
       tones=st.lists(st.tuples(st.floats(0.0, 1.0 - 1e-4), st.floats(-4.0, 4.0),
                                st.floats(-np.pi, np.pi)), max_size=2))
def test_band_noise_equals_direct_convolution(rate, edges, seed, n, tones):
    # bit for bit, sign bits included, against full convolution sliced
    # past the band-pass's start-up
    low_hz, high_hz = sorted(e * rate / 2 for e in edges)
    assume(low_hz < high_hz)
    spec = BandNoiseSpec(low_hz, high_hz,
                         tuple(ToneSpec(f * rate / 2, a, ph) for f, a, ph in tones))
    out = synthesize_noise(spec, seed, n / rate, rate).samples
    expected = convolve_band_noise(spec, seed, n, rate)
    assert np.array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))


class TestCompose:
    def test_concatenate_abuts(self):
        a = synthesize_noise(ToneSpec(100.0), 0, 1.0, RATE)
        b = synthesize_noise(ToneSpec(300.0), 0, 1.0, RATE)
        out = compose([a, b], "concatenate", switch_times_s=[1.0])
        assert len(out) == 16000
        assert np.array_equal(out.samples[:8000], a.samples)
        assert np.array_equal(out.samples[8000:], b.samples)

    def test_concatenate_validates_switch_times(self):
        a = synthesize_noise(ToneSpec(100.0), 0, 1.0, RATE)
        b = synthesize_noise(ToneSpec(300.0), 0, 1.0, RATE)
        with pytest.raises(ConfigError):
            compose([a, b], "concatenate", switch_times_s=[0.5])

    def test_mix_of_identical_sources_is_identity(self):
        a = synthesize_noise(BandNoiseSpec(100.0, 1000.0), 7, 1.0, RATE)
        out = compose([a, a], "mix", gains=[0.5, 0.5])
        np.testing.assert_allclose(out.samples, a.samples, rtol=1e-9, atol=1e-12)

    def test_mix_renormalizes_to_unit_power(self):
        a = synthesize_noise(BandNoiseSpec(100.0, 1000.0), 1, 1.0, RATE)
        b = synthesize_noise(BandNoiseSpec(1500.0, 3000.0), 2, 1.0, RATE)
        out = compose([a, b], "mix", gains=[2.0, 0.5])
        assert float(np.mean(out.samples**2)) == pytest.approx(1.0, rel=1e-12)

    def test_mix_orthogonal_tones_minus_3db_peaks(self):
        # amplitude sqrt(2) makes each tone unit power, so the renormalized
        # equal-gain mix carries each at half power
        a = synthesize_noise(ToneSpec(500.0, amplitude=np.sqrt(2.0)), 0, 4.0, RATE)
        b = synthesize_noise(ToneSpec(1500.0, amplitude=np.sqrt(2.0)), 0, 4.0, RATE)
        mixed = compose([a, b], "mix", gains=[1.0, 1.0])
        ps_mixed = power_spectrum(mixed, 2048, 0.5)
        ps_single = power_spectrum(a, 2048, 0.5)
        bin_500 = int(np.argmin(np.abs(ps_mixed.freq_hz - 500.0)))
        bin_1500 = int(np.argmin(np.abs(ps_mixed.freq_hz - 1500.0)))
        ref = ps_single.power_db[bin_500]
        assert ps_mixed.power_db[bin_500] == pytest.approx(ref - 3.01, abs=0.1)
        assert ps_mixed.power_db[bin_1500] == pytest.approx(ref - 3.01, abs=0.1)

    def test_rate_mismatch_rejected(self):
        a = Signal(np.ones(100), 8000.0)
        b = Signal(np.ones(100), 16000.0)
        with pytest.raises(DataError):
            compose([a, b], "mix")

    def test_unknown_mode(self):
        a = Signal(np.ones(100), 8000.0)
        with pytest.raises(ConfigError):
            compose([a], "overlay")
