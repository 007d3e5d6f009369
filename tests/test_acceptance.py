"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Thresholds involving scenario dynamics were pinned from pilot runs
at the default configs and seeds used here.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ancsim.acoustics import spl_delta, synthetic_plant
from ancsim.adaptation import (
    FxlmsFilter,
    LmsFilter,
    lms_mu_bound,
    reference_matrix,
    wiener_solve,
)
from ancsim.config import default_config, save_config
from ancsim.errors import DivergenceError
from ancsim.filters import FirFilter
from ancsim.loops import loop_aligned_path, run_adaptive
from ancsim.mcanc import ChannelConfig, McAncController, mac_count, mac_measure
from ancsim.metrics import noise_reduction_per_interval, power_spectrum, snr_overall
from ancsim.scenario import run_scenario
from ancsim.signals import Signal
from ancsim.sysid import identify_path

RATE = 8000.0


@contextmanager
def criterion(cid, description):
    try:
        yield
    except BaseException:
        print(f"{cid}: FAIL - {description}")
        raise
    print(f"{cid}: PASS - {description}")


def test_c01_lms_wiener_equivalence():
    with criterion("C1", "LMS at 0.1x bound reaches the optimal 4-tap solution"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        x = rng.standard_normal(30_000)
        d = FirFilter([0.5, -0.3, 0.2, 0.1]).process(x) + 1e-3 * rng.standard_normal(30_000)
        mu = 0.1 * lms_mu_bound(x, 4)
        run = LmsFilter(4, mu).run(x, d)
        assert run.diverged_at is None
        w_opt = wiener_solve(x, d, 4)
        rel_err = np.linalg.norm(run.final_weights - w_opt) / np.linalg.norm(w_opt)
        assert rel_err < 1e-2, f"relative weight error {rel_err:.2e}"
        assert time.perf_counter() - start < 5.0


def test_c02_gradient_checks():
    with criterion("C2", "LMS and FxLMS gradients match central differences"):
        h = 1e-4
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(10_000 + seed)
            n_taps = int(rng.integers(1, 9))
            w = rng.standard_normal(n_taps)
            x_hist = rng.standard_normal(n_taps)
            d = rng.standard_normal()
            e = d - float(w @ x_hist)
            analytic = -2.0 * e * x_hist
            for i in range(n_taps):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = ((d - float(wp @ x_hist))**2 - (d - float(wm @ x_hist))**2) / (2 * h)
                if fd != 0 or analytic[i] != 0:
                    worst = max(worst, abs(analytic[i] - fd) / max(abs(fd), 1e-9))
        assert worst < 1e-6, f"LMS worst relative error {worst:.2e}"

        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(20_000 + seed)
            n_taps = int(rng.integers(1, 8))
            m_taps = int(rng.integers(1, 6))
            horizon = n_taps + m_taps + int(rng.integers(5, 20))
            w = rng.standard_normal(n_taps)
            s = rng.standard_normal(m_taps)
            x = rng.standard_normal(horizon)
            d = rng.standard_normal(horizon)

            def e_end(weights):
                u = FirFilter(weights).process(x)
                return d[-1] + FirFilter(s).process(u)[-1]

            e = e_end(w)
            xf = FirFilter(s).process(x)
            window = xf[-1:-n_taps - 1:-1]
            analytic = 2.0 * e * window
            for i in range(n_taps):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = (e_end(wp)**2 - e_end(wm)**2) / (2 * h)
                if fd != 0 or analytic[i] != 0:
                    worst = max(worst, abs(analytic[i] - fd) / max(abs(fd), 1e-9))
        assert worst < 1e-6, f"FxLMS worst relative error {worst:.2e}"


def test_c03_step_size_bound():
    with criterion("C3", "0.1x bound converges and 10x bound diverges, 20/20 each"):
        converged = diverged = 0
        for trial in range(20):
            rng = np.random.default_rng(5000 + trial)
            x = rng.standard_normal(20_000)
            d = (FirFilter([0.4, -0.2, 0.1, 0.05]).process(x)
                 + 1e-3 * rng.standard_normal(20_000))
            bound = lms_mu_bound(x, 4)

            run = LmsFilter(4, 0.1 * bound).run(x, d)
            decile = 2000
            if (run.diverged_at is None
                    and np.mean(run.e[-decile:]**2) < np.mean(run.e[:decile]**2)):
                converged += 1

            x2 = rng.standard_normal(100_000)
            hot = LmsFilter(4, 10.0 * bound)
            try:
                for n in range(100_000):
                    hot.step(x2[n], 0.5 * x2[n])
            except DivergenceError:
                diverged += 1
        assert converged == 20, f"only {converged}/20 converged"
        assert diverged == 20, f"only {diverged}/20 diverged"


def test_c04_fxlms_tone_cancellation():
    with criterion("C4", "200 Hz tone: >= 20 dB reduction, within 3 dB of the "
                         "Wiener-oracle residual"):
        start = time.perf_counter()
        T = int(5 * RATE)
        rng = np.random.default_rng(2024)
        t = np.arange(T) / RATE
        # dither keeps the oracle's autocorrelation matrix well-conditioned;
        # microphone noise gives both loops a common floor to converge to
        x = np.sin(2 * np.pi * 200.0 * t) + math.sqrt(1e-3) * rng.standard_normal(T)
        noise_std = 0.085

        d = synthetic_plant(seed=0, perturbation=0.0,
                            measurement_noise_std=noise_std).run_uncontrolled(x)[:, 0]
        s_true = synthetic_plant(seed=0, perturbation=0.0).true_secondary(0, 0)
        s_loop = loop_aligned_path(s_true)

        plant = synthetic_plant(seed=0, perturbation=0.0,
                                measurement_noise_std=noise_std)
        res = run_adaptive(plant, FxlmsFilter(64, 0.002, s_loop).controller, x)
        assert res.diverged_at is None

        last = slice(T - int(RATE), None)
        p_dist = float(np.mean(d[last]**2))
        p_resid = float(np.mean(res.error[last, 0]**2))
        reduction = 10 * np.log10(p_dist / p_resid)
        assert reduction >= 20.0, f"reduction {reduction:.2f} dB"

        xf = FirFilter(s_loop).process(x)
        w_opt = wiener_solve(xf, d, 64)
        oracle = d - reference_matrix(xf, 64) @ w_opt
        p_oracle = float(np.mean(oracle[last]**2))
        gap = 10 * np.log10(p_resid / p_oracle)
        assert gap <= 3.0, f"gap to oracle {gap:.2f} dB"
        assert time.perf_counter() - start < 10.0


def test_c05_multichannel_reduction():
    with criterion("C5", "1x1x1 multichannel run bit-identical to single channel"):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n_taps, m_taps = 12, 6
            mu_sc = 0.003
            s_hat = rng.standard_normal(m_taps) * 0.4
            single = FxlmsFilter(n_taps, mu_sc, s_hat)
            multi = McAncController(ChannelConfig(1, 1, 1, n_taps, m_taps),
                                    2.0 * mu_sc, s_hat.reshape(1, 1, m_taps))
            for _ in range(1000):
                x = rng.standard_normal()
                e = rng.standard_normal() * 0.3
                u_s, u_m = single.step(x, e), multi.step([x], [e])[0]
                assert u_s == u_m and np.signbit(u_s) == np.signbit(u_m)
                assert np.array_equal(single.weights, multi.weights[0, 0])
                assert np.array_equal(np.signbit(single.weights),
                                      np.signbit(multi.weights[0, 0]))


def test_c06_mac_formulas():
    with criterion("C6", "MAC closed form, instrumented counts, standard-form identity"):
        for i in range(1, 5):
            for j in range(1, 5):
                for k in range(1, 5):
                    for L in (4, 8, 16):
                        for m in (4, 8, 16):
                            cfg = ChannelConfig(i, j, k, L, m)
                            expected = (i * j * k + i * j) * L + i * j * k * m + k
                            assert mac_count(cfg).total == expected
        # instrumented runs on a sub-grid (every step path exercised)
        for i, j, k in [(1, 1, 1), (2, 1, 3), (4, 2, 1), (2, 2, 2), (3, 4, 2)]:
            for L, m in [(4, 16), (8, 8), (16, 4)]:
                cfg = ChannelConfig(i, j, k, L, m)
                assert mac_measure(cfg, 4) == mac_count(cfg).total
        for n in range(1, 17):
            for L in (4, 8, 16):
                assert (mac_count(ChannelConfig(n, n, n, L, L)).total
                        == 2 * L * n**3 + L * n**2 + n)


def test_c07_secondary_path_identification():
    with criterion("C7", "16-tap path identified below -40 dB, matching the "
                         "optimal solution per tap"):
        plant = synthetic_plant(seed=3)
        res = identify_path(plant, 0, 0, n_taps=16, mu=0.01,
                            n_samples=50_000, seed=1)
        assert res.misalignment_db < -40.0, f"misalignment {res.misalignment_db:.1f} dB"
        w = wiener_solve(res.excitation, res.response, 16)
        assert np.max(np.abs(res.estimate.weights - w)) < 1e-3


def test_c08_combined_scenario_ordering():
    with criterion("C8", "combined noise: fixed wins interval 1, adaptive wins "
                         "overall SNR and recovers after the switch"):
        start = time.perf_counter()
        cfg = default_config("combined", duration_s=20.0, seed=2024)
        result = run_scenario(cfg)
        assert not result.any_diverged
        adaptive = result.arms["adaptive"].reports[0]
        fixed = result.arms["fixed"].reports[0]
        nr_a = adaptive.nr_per_interval_db
        nr_f = fixed.nr_per_interval_db

        # (a) the filter pre-trained on segment-1 noise starts ahead
        assert nr_f[0] > nr_a[0], f"fixed {nr_f[0]:.1f} vs adaptive {nr_a[0]:.1f}"
        # (b) adaptive wins overall SNR by at least 3 dB
        margin = adaptive.snr_db - fixed.snr_db
        assert margin >= 3.0, f"SNR margin {margin:.2f} dB"
        # (c) recovery within 3 intervals of the mid-run switch; the
        # mismatched fixed filter stays at least 5 dB under adaptive steady
        switch = 10
        steady = float(np.mean(nr_a[switch - 3:switch]))
        assert max(nr_a[switch:switch + 3]) >= steady - 3.0, (
            f"post-switch best {max(nr_a[switch:switch + 3]):.1f} dB vs "
            f"steady {steady:.1f} dB")
        fixed_post = float(np.mean(nr_f[switch:]))
        assert fixed_post <= steady - 5.0, (
            f"fixed post-switch {fixed_post:.1f} dB vs steady {steady:.1f} dB")
        assert time.perf_counter() - start < 60.0


def test_c09_mixed_scenario_ordering():
    with criterion("C9", "mixed noise: adaptive wins overall SNR by >= 3 dB, "
                         "fixed wins interval 1"):
        cfg = default_config("mixed", duration_s=20.0, seed=2024)
        result = run_scenario(cfg)
        assert not result.any_diverged
        adaptive = result.arms["adaptive"].reports[0]
        fixed = result.arms["fixed"].reports[0]
        margin = adaptive.snr_db - fixed.snr_db
        assert margin >= 3.0, f"SNR margin {margin:.2f} dB"
        assert fixed.nr_per_interval_db[0] > adaptive.nr_per_interval_db[0], (
            f"fixed {fixed.nr_per_interval_db[0]:.1f} vs adaptive "
            f"{adaptive.nr_per_interval_db[0]:.1f}")


def test_c10_metrics_integrity():
    with criterion("C10", "Parseval within 1%, NR equals SNR over the full "
                          "duration, interference dB identities"):
        rng = np.random.default_rng(77)
        x = rng.standard_normal(1024 * 60)
        ps = power_spectrum(Signal(x, RATE), 1024, 0.5)
        rel = abs(float(np.sum(ps.power_linear)) - float(np.mean(x**2))) / float(np.mean(x**2))
        assert rel < 0.01, f"Parseval deviation {rel:.4f}"

        d = Signal(rng.standard_normal(8000), RATE)
        e = Signal(d.samples * rng.uniform(0.05, 0.5, 8000), RATE)
        nr = noise_reduction_per_interval(d, e, 1.0)
        assert nr.size == 1 and nr[0] == snr_overall(d, e)

        assert abs(spl_delta(1.0, 0.0) - (-10.0 * math.log10(4.0))) < 1e-9
        assert abs(spl_delta(1.0, 0.0) + 6.020599913) < 1e-9
        for beta, alpha in [(0.5, 0.3), (1.0, 2.0), (2.0, 1.1)]:
            assert spl_delta(beta, alpha) == spl_delta(beta, -alpha)


def test_c11_run_determinism(tmp_path):
    with criterion("C11", "two CLI runs with one config produce byte-identical "
                          "exports"):
        cfg = default_config("combined", duration_s=2.0, seed=7)
        cfg.composition.switch_times_s = [1.0]
        cfg.controller.taps = 48
        cfg.sysid.taps = 24
        cfg.sysid.n_samples = 6000
        cfg.fixed_filter.max_train_s = 3.0
        cfg.metrics.segment_len = 512
        cfg.metrics.hop = 256
        cfg_path = tmp_path / "config.yaml"
        save_config(cfg_path, cfg.validate())
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "ancsim.cli", "run",
                 "--config", str(cfg_path), "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert "summary.json" in names
        for name in names:
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs between runs"
        # sanity: the summary parses and carries provenance
        summary = json.loads((outs[0] / "summary.json").read_text())
        assert summary["provenance"]["seed"] == 7
