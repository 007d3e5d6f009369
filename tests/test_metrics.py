"""Metric arithmetic against constructions and independent estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from ancsim.errors import DataError, DomainError
from ancsim.metrics import (
    DB_FLOOR,
    build_run_report,
    noise_reduction_per_interval,
    power_spectrum,
    snr_overall,
    spectrogram,
)
from ancsim.signals import Signal

RATE = 8000.0


def sig(x):
    return Signal(np.asarray(x, dtype=np.float64), RATE)


class TestNoiseReduction:
    def test_equal_signals_zero_db(self):
        d = sig(np.random.default_rng(0).standard_normal(16000))
        nr = noise_reduction_per_interval(d, d, 1.0)
        assert nr.tolist() == [0.0, 0.0]

    def test_tenth_amplitude_is_twenty_db(self):
        rng = np.random.default_rng(1)
        d = sig(rng.standard_normal(8000))
        e = sig(d.samples / 10.0)
        nr = noise_reduction_per_interval(d, e, 1.0)
        np.testing.assert_allclose(nr, [20.0], rtol=1e-12)

    def test_staged_halves(self):
        rng = np.random.default_rng(2)
        d_samples = rng.standard_normal(8000)
        e_samples = d_samples.copy()
        e_samples[4000:] /= np.sqrt(10.0)
        nr = noise_reduction_per_interval(sig(d_samples), sig(e_samples), 0.5)
        np.testing.assert_allclose(nr, [0.0, 10.0], rtol=1e-12, atol=1e-12)

    def test_zero_error_interval_unbounded(self):
        d = sig(np.ones(8000))
        e = sig(np.zeros(8000))
        nr = noise_reduction_per_interval(d, e, 1.0)
        assert nr.tolist() == [np.inf]

    def test_both_silent_undefined(self):
        nr = noise_reduction_per_interval(sig(np.zeros(8000)), sig(np.zeros(8000)), 1.0)
        assert np.isnan(nr[0])

    def test_trailing_partial_interval_dropped(self):
        d = sig(np.ones(12000))
        assert noise_reduction_per_interval(d, d, 1.0).size == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            noise_reduction_per_interval(sig(np.ones(16)), sig(np.ones(8)), 1.0)


class TestSnr:
    def test_equal_is_zero(self):
        d = sig(np.random.default_rng(3).standard_normal(4000))
        assert snr_overall(d, d) == 0.0

    def test_tenth_amplitude(self):
        d = sig(np.random.default_rng(4).standard_normal(4000))
        e = sig(d.samples / 10.0)
        assert snr_overall(d, e) == pytest.approx(20.0, rel=1e-12)

    def test_nr_over_full_duration_equals_snr_exactly(self):
        rng = np.random.default_rng(5)
        d = sig(rng.standard_normal(8000))
        e = sig(d.samples * rng.uniform(0.1, 0.9, 8000))
        nr = noise_reduction_per_interval(d, e, 1.0)
        assert nr.size == 1
        assert nr[0] == snr_overall(d, e)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        d_samples = rng.standard_normal(8000)
        e_samples = rng.standard_normal(8000) * 0.3
        base_snr = snr_overall(sig(d_samples), sig(e_samples))
        base_nr = noise_reduction_per_interval(sig(d_samples), sig(e_samples), 0.25)
        for c in (1e-3, 7.0, 1e4):
            assert snr_overall(sig(c * d_samples), sig(c * e_samples)) == pytest.approx(
                base_snr, rel=1e-12)
            np.testing.assert_allclose(
                noise_reduction_per_interval(sig(c * d_samples), sig(c * e_samples), 0.25),
                base_nr, rtol=1e-12)


class TestPowerSpectrum:
    def test_tone_peak_bin(self):
        t = np.arange(16000) / RATE
        ps = power_spectrum(sig(np.sin(2 * np.pi * 1000.0 * t)), 1024, 0.5)
        assert ps.freq_hz[np.argmax(ps.power_linear)] == pytest.approx(1000.0, abs=RATE / 1024)

    def test_two_tone_peaks(self):
        t = np.arange(32000) / RATE
        x = np.sin(2 * np.pi * 200.0 * t) + np.sin(2 * np.pi * 2000.0 * t)
        ps = power_spectrum(sig(x), 1024, 0.5)
        order = np.argsort(ps.power_linear)[::-1]
        top = sorted(ps.freq_hz[order[:2]])
        assert top[0] == pytest.approx(200.0, abs=RATE / 1024)
        assert top[1] == pytest.approx(2000.0, abs=RATE / 1024)

    def test_white_noise_flat_within_3db(self):
        # about 100 averaged segments; interior bins only (DC and Nyquist
        # carry half weight by construction)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1024 * 51)
        ps = power_spectrum(sig(x), 1024, 0.5)
        interior = ps.power_db[1:-1]
        assert np.max(interior) - np.min(interior) < 6.0
        assert np.max(np.abs(interior - np.median(interior))) < 3.0

    def test_parseval_within_one_percent(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(1024 * 60)
        ps = power_spectrum(sig(x), 1024, 0.5)
        time_power = float(np.mean(x**2))
        spectral_power = float(np.sum(ps.power_linear))
        assert spectral_power == pytest.approx(time_power, rel=0.01)

    def test_matches_scipy_welch_shape(self):
        # same segments, same symmetric Hann window: the two estimators must
        # agree up to a single constant scale (scipy normalizes by the
        # window's coherent gain, this library by total power)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(8192)
        seg = 512
        ps = power_spectrum(sig(x), seg, 0.5)
        win = np.hanning(seg)
        f, pxx = sp_signal.welch(x, fs=RATE, window=win, noverlap=seg // 2,
                                 scaling="spectrum", detrend=False)
        np.testing.assert_allclose(ps.freq_hz, f)
        expected_ratio = (np.sum(win) ** 2) / (seg * np.sum(win**2))
        mask = pxx > 1e-12
        ratios = ps.power_linear[mask] / pxx[mask]
        np.testing.assert_allclose(ratios, expected_ratio, rtol=1e-9)

    def test_too_short_signal_rejected(self):
        with pytest.raises(DataError):
            power_spectrum(sig(np.ones(100)), 1024, 0.5)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DomainError):
            power_spectrum(sig(np.ones(4000)), 1000, 0.5)


class TestSpectrogram:
    def test_tone_switch_moves_dominant_bin(self):
        t = np.arange(16000) / RATE
        x = np.where(t < 1.0, np.sin(2 * np.pi * 500.0 * t),
                     np.sin(2 * np.pi * 1500.0 * t))
        sp = spectrogram(sig(x), 1024, 512)
        for fi, t0 in enumerate(sp.times_s):
            peak = sp.freq_hz[np.argmax(sp.power_db[fi])]
            if t0 + 1024 / RATE <= 1.0:
                assert peak == pytest.approx(500.0, abs=RATE / 1024)
            elif t0 >= 1.0:
                assert peak == pytest.approx(1500.0, abs=RATE / 1024)

    def test_silence_clamps_to_floor(self):
        sp = spectrogram(sig(np.zeros(4096)), 1024, 512)
        assert np.all(sp.power_db == DB_FLOOR)

    def test_chirp_peak_bin_non_decreasing(self):
        # analytic oracle: instantaneous frequency of a linear chirp rises,
        # so the per-frame dominant bin must never move down
        duration = 4.0
        t = np.arange(int(duration * RATE)) / RATE
        x = sp_signal.chirp(t, f0=100.0, f1=1000.0, t1=duration, method="linear")
        sp = spectrogram(sig(x), 1024, 512)
        peaks = np.argmax(sp.power_db, axis=1)
        assert np.all(np.diff(peaks) >= 0)
        # and tracks the analytic instantaneous frequency at frame centers
        centers = sp.times_s + 512 / RATE
        inst = 100.0 + (1000.0 - 100.0) * centers / duration
        np.testing.assert_allclose(sp.freq_hz[peaks], inst, atol=3 * RATE / 1024)

    def test_frame_timestamps(self):
        sp = spectrogram(sig(np.zeros(4096)), 1024, 512)
        np.testing.assert_allclose(sp.times_s, np.arange(7) * 512 / RATE)

    def test_bad_hop_rejected(self):
        with pytest.raises(DomainError):
            spectrogram(sig(np.zeros(4096)), 1024, 0)
        with pytest.raises(DomainError):
            spectrogram(sig(np.zeros(4096)), 1024, 2048)


class TestRunReport:
    def test_bundles_all_metrics(self):
        rng = np.random.default_rng(10)
        d = sig(rng.standard_normal(16000))
        e = sig(d.samples * 0.1)
        report = build_run_report(d, e, interval_s=1.0)
        assert report.snr_db == pytest.approx(20.0, rel=1e-12)
        np.testing.assert_allclose(report.nr_per_interval_db, [20.0, 20.0], rtol=1e-12)
        assert report.final_nr_db == pytest.approx(20.0, rel=1e-12)
        assert report.psd is not None and report.spectro is not None

    def test_short_record_skips_spectral(self):
        d = sig(np.ones(100))
        report = build_run_report(d, d, interval_s=0.005)
        assert report.psd is None and report.spectro is None
        assert report.nr_per_interval_db.size == 2

    def test_rate_mismatch_rejected(self):
        with pytest.raises(DataError):
            build_run_report(Signal(np.ones(100), 8000.0), Signal(np.ones(100), 16000.0))


def oracle_psd(x, segment_len, overlap):
    """The averaged periodogram as one running sum, frame after frame."""
    hop = max(int(round(segment_len * (1.0 - overlap))), 1)
    window = np.hanning(segment_len)
    win_norm = segment_len * float(np.sum(window**2))
    acc = np.zeros(segment_len // 2 + 1)
    count = 0
    for start in range(0, len(x) - segment_len + 1, hop):
        spec = np.fft.rfft(x[start:start + segment_len] * window)
        power = (spec.real**2 + spec.imag**2) / win_norm
        power[1:] *= 2.0
        power[-1] /= 2.0
        acc += power
        count += 1
    return acc / count


def assert_same_bits(got, want):
    # NaN payloads and signed zeros included: a 2-sample Hann window is all
    # zeros, so a 2-sample segment's powers are 0/0
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestOneFramingPass:
    @pytest.mark.parametrize("segment_len, overlap, hop", [
        (1024, 0.5, 512),    # the default metrics: the hops agree
        (512, 0.5, 256),
        (512, 0.5, 128),     # the PSD frames at 256 on its own
        (256, 0.0, 128),     # and at 256 here
    ])
    def test_frames_transformed_per_report(self, monkeypatch, segment_len, overlap, hop):
        x = sig(np.random.default_rng(11).standard_normal(5000))
        rfft, calls = np.fft.rfft, []
        monkeypatch.setattr(np.fft, "rfft", lambda a: calls.append(1) or rfft(a))
        report = build_run_report(x, x, segment_len=segment_len, overlap=overlap, hop=hop)
        monkeypatch.undo()
        psd_hop = max(int(round(segment_len * (1.0 - overlap))), 1)
        frames = (len(x) - segment_len) // hop + 1
        psd_frames = (len(x) - segment_len) // psd_hop + 1
        assert report.spectro.power_db.shape[0] == frames
        assert len(calls) == (frames if psd_hop == hop else frames + psd_frames)

    @settings(max_examples=150)
    @given(st.data())
    def test_psd_is_the_running_sum_of_its_frames(self, data):
        # both branches of build_run_report, and power_spectrum, give the
        # bits of one `acc +=` per frame; the spectrogram is unchanged
        segment_len = 2 ** data.draw(st.integers(1, 9), label="log2 segment_len")
        overlap = data.draw(st.floats(0.0, 0.999), label="overlap")
        psd_hop = max(int(round(segment_len * (1.0 - overlap))), 1)
        hop = data.draw(st.one_of(st.just(psd_hop), st.integers(1, segment_len)), label="hop")
        n = data.draw(st.integers(segment_len, segment_len + 700), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6)
        x[rng.random(n) < 0.2] = 0.0
        e = sig(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            report = build_run_report(e, e, interval_s=n / RATE, segment_len=segment_len,
                                      overlap=overlap, hop=hop)
            psds = (report.psd, power_spectrum(e, segment_len, overlap))
            alone = spectrogram(e, segment_len, hop)
            want = oracle_psd(x, segment_len, overlap)
            want_db = np.maximum(10.0 * np.log10(want), DB_FLOOR)
        for psd in psds:
            assert_same_bits(psd.power_linear, want)
            assert_same_bits(psd.power_db, want_db)
        assert_same_bits(report.spectro.power_db, alone.power_db)
        assert_same_bits(report.spectro.times_s, alone.times_s)
