"""Kernel sweep: per-sample cost of the program's public kernels on
generated inputs, with the paper's multiply-accumulate model beside it.

    python3 perfbench/kernels.py --seed N --sources J --mics K

Prints one JSON object of per-layer metrics. Each kernel runs one
discarded warm-up chunk and then CHUNKS timed chunks; the reported cost is
the median chunk time divided by the samples in a chunk. Back-to-back
timings of these kernels swing by up to 2x on a shared machine, so they
are per-layer diagnostics only. A kernel whose API no longer exists is
left out of the output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

CHUNKS = 5
RATE_HZ = 8000.0
CONTROL_TAPS = 128      # controller.taps of the workloads
ESTIMATE_TAPS = 65      # sysid.taps plus the loop's one-sample latency
SYSID_TAPS = 64


def per_sample_us(run_chunk, samples: int) -> float:
    """Median over CHUNKS timed calls of run_chunk(), in us per sample."""
    run_chunk()
    times = []
    for _ in range(CHUNKS):
        t0 = time.perf_counter()
        run_chunk()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / samples * 1e6


def plant_step(ancsim, rng, n_sources: int, n_mics: int) -> float:
    plant = ancsim.synthetic_plant(n_sources=n_sources, n_mics=n_mics, seed=77)
    n = 2000
    x = rng.standard_normal(n)
    u = rng.standard_normal((n, n_sources)) * 0.1

    def chunk():
        for i in range(n):
            plant.step(x[i], u[i])
    return per_sample_us(chunk, n)


def fxlms_step(ancsim, rng) -> float:
    est = rng.standard_normal(ESTIMATE_TAPS) * 0.1
    ctl = ancsim.FxlmsFilter(CONTROL_TAPS, 1e-5, est)
    n = 2000
    x = rng.standard_normal(n)
    e = rng.standard_normal(n) * 0.1

    def chunk():
        for i in range(n):
            ctl.step(x[i], e[i])
    return per_sample_us(chunk, n)


def lms_run(ancsim, rng) -> float:
    n = 4000
    x = rng.standard_normal(n)
    d = np.convolve(x, rng.standard_normal(SYSID_TAPS) * 0.1)[:n]
    lms = ancsim.LmsFilter(SYSID_TAPS, 0.01)

    def chunk():
        lms.reset()
        lms.run(x, d)
    return per_sample_us(chunk, n)


def fir_process(ancsim, rng) -> float:
    n = 16000
    x = rng.standard_normal(n)
    fir = ancsim.FirFilter(rng.standard_normal(ESTIMATE_TAPS) * 0.1)

    def chunk():
        fir.reset()
        fir.process(x)
    return per_sample_us(chunk, n)


def mcanc_step(ancsim, rng, n_sources: int, n_mics: int) -> tuple[float, int]:
    """(us per McAncController.step, mac_count total) at 1 x J x K."""
    geo = ancsim.ChannelConfig(1, n_sources, n_mics, CONTROL_TAPS, ESTIMATE_TAPS)
    est = rng.standard_normal((n_sources, n_mics, ESTIMATE_TAPS)) * 0.1
    ctl = ancsim.McAncController(geo, 1e-5, est)
    n = max(500, 4000 // (n_sources * n_mics))
    x = rng.standard_normal((n, 1))
    e = rng.standard_normal((n, n_mics)) * 0.1

    def chunk():
        for i in range(n):
            ctl.step(x[i], e[i])
    return per_sample_us(chunk, n), ancsim.mac_count(geo).total


def sweep(seed: int, n_sources: int, n_mics: int) -> dict:
    import ancsim

    rng = np.random.default_rng(seed)
    metrics: dict = {}

    def record(name, unit, fn, *args):
        try:
            metrics[name] = {"value": fn(ancsim, rng, *args), "unit": unit}
        except AttributeError as exc:     # API removed by a later change
            print(f"kernels: {name} absent ({exc})", file=sys.stderr)

    record("acoustics.plant_step_us", "us", plant_step, n_sources, n_mics)
    record("adaptation.fxlms_step_us", "us", fxlms_step)
    record("adaptation.lms_step_us", "us", lms_run)
    record("filters.fir_us_per_sample", "us", fir_process)

    period_us = 1e6 / RATE_HZ
    steps = {}
    for j, k in ((1, 1), (2, 2), (4, 4)):
        try:
            steps[(j, k)] = mcanc_step(ancsim, rng, j, k)
        except AttributeError as exc:
            print(f"kernels: mcanc 1x{j}x{k} absent ({exc})", file=sys.stderr)
            continue
        metrics[f"mcanc.step_us.1x{j}x{k}"] = {"value": steps[(j, k)][0], "unit": "us"}
    if (4, 4) in steps:
        metrics["mcanc.realtime_x.1x4x4"] = {
            "value": period_us / steps[(4, 4)][0], "unit": "x"}
    geometry = (n_sources, n_mics)
    if geometry not in steps:
        try:
            steps[geometry] = mcanc_step(ancsim, rng, n_sources, n_mics)
        except AttributeError:
            pass
    if geometry in steps:
        us, macs = steps[geometry]
        metrics["mcanc.step_us"] = {"value": us, "unit": "us"}
        # MACs per microsecond is millions of MACs per second
        metrics["mcanc.mmac_per_s"] = {"value": macs / us, "unit": "MMAC/s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sources", type=int, required=True)
    parser.add_argument("--mics", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(sweep(args.seed, args.sources, args.mics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
