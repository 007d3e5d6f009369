"""Cost per value of float text and of `reporting.export_report`, for the
tree whose `src/` is given.

    python scripts/export_speed.py SRC_DIR [n_values] [reps]

Formats `n_values` seeded floats over a wide range of magnitudes, with
signed zeros, infinities and NaN mixed in, in blocks of 8192 into
newline-separated text, with `ancsim.floatfmt`. Then exports a seeded hand-built result
of three arms shaped like `combined`'s (a 513-bin spectrogram per arm,
error rows decimated by 8) whose spectrograms hold about `n_values`
powers. Prints the minimum over `reps` repetitions of the microseconds
per formatted value and per float cell of the exported CSVs (the minimum
discounts slowdowns from other tenants of a shared machine), then one
short sha256 of the formatted text and every exported file. Two trees
that print the same hash wrote the same bytes.

Before that line it prints the export's split by phase, in microseconds
per float cell, from `reps` more exports with the phases timed (the one
with the least total): `format` in `format_floats` and `format_ints`,
`nul_deletion` in the blocks' `tobytes` and `translate`, `write` in
`atomic_write` given the finished blocks, and `assembly`, the rest. The
timers wrap what `reporting` looks up (`format_floats`, `format_ints`,
`_cells`, `atomic_write`), so the split reads any tree that has them.

Run it on two trees in alternation to compare them on one machine.
"""

import hashlib
import os
import sys
import tempfile
import time

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402

from ancsim.config import default_config  # noqa: E402
from ancsim.floatfmt import format_floats  # noqa: E402
from ancsim.metrics import PowerSpectrum, RunReport, Spectrogram  # noqa: E402
from ancsim import reporting  # noqa: E402
from ancsim.reporting import export_report  # noqa: E402
from ancsim.scenario import ArmResult, PretrainInfo, ScenarioResult  # noqa: E402

N = int(sys.argv[2]) if len(sys.argv) > 2 else 480_000
REPS = int(sys.argv[3]) if len(sys.argv) > 3 else 5
BLOCK, BINS = 8192, 513


def text(values):
    rows = format_floats(values)
    rows = np.concatenate([rows, np.full((len(rows), 1), 10, np.uint8)], axis=1)
    return rows.tobytes().translate(None, b"\0")


def seeded_values(n):
    rng = np.random.default_rng(0)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    for special in (0.0, -0.0, np.inf, -np.inf, np.nan):
        values[rng.random(n) < 0.002] = special
    return values


def seeded_result(n):
    """Three arms whose spectrograms hold about n powers, and the number
    of float cells in the CSVs that export_report writes for them."""
    rng = np.random.default_rng(1)
    frames = max(1, n // (3 * BINS))
    samples = 8 * max(1, n // 60)
    freq = np.arange(BINS) * 7.8125

    def report():
        psd = PowerSpectrum(freq_hz=freq, power_db=rng.normal(-40, 20, BINS),
                            power_linear=np.zeros(BINS))
        spectro = Spectrogram(times_s=np.arange(frames) * 0.064, freq_hz=freq,
                              power_db=rng.normal(-40, 20, (frames, BINS)))
        return RunReport(interval_s=1.0, nr_per_interval_db=rng.normal(10, 5, 20), snr_db=1.0,
                         psd=psd, spectro=spectro)

    arms = {name: ArmResult(name, [report()], rng.standard_normal((samples, 1)))
            for name in ("uncontrolled", "adaptive", "fixed")}
    pretrain = PretrainInfo(seconds_trained=1, nr_per_second_db=[0.5], plateau_reached=False,
                            mu=0.01)
    result = ScenarioResult(
        config=default_config("combined"), arms=arms,
        adaptive_weights=np.zeros((1, 1, 128)), fixed_weights=np.zeros((1, 1, 128)),
        installed_estimates=np.zeros((1, 1, 65)), sysid_summaries=[], pretrain=pretrain,
        mu=0.01, mse_trace=rng.random(samples // 8), mse_stride=8)
    rows = samples // 8
    return result, 3 * (3 * frames * BINS + 2 * BINS + 2 * 20 + 3 * rows) + rows


PHASES = dict.fromkeys(("format", "assembly", "nul_deletion", "write"), 0.0)


class TimedBytes(bytes):
    """A block's padded text, whose NUL deletion is timed."""

    def translate(self, *args):
        t = time.perf_counter()
        try:
            return bytes.translate(self, *args)
        finally:
            PHASES["nul_deletion"] += time.perf_counter() - t


class TimedCells(np.ndarray):
    """A block's cell matrix, whose conversion to bytes is timed."""

    def tobytes(self, *args, **kwargs):
        t = time.perf_counter()
        text = np.ndarray.tobytes(self, *args, **kwargs)
        PHASES["nul_deletion"] += time.perf_counter() - t
        return TimedBytes(text)


def timed(fn, phase):
    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            PHASES[phase] += time.perf_counter() - t
    return wrapper


def phase_split(result, out, n_cells):
    """Microseconds per float cell of each phase of the fastest of REPS
    timed exports of `result` into `out`."""
    cells, write = reporting._cells, reporting.atomic_write

    def finished(path, chunks):
        blocks = list(chunks)
        timed(write, "write")(path, blocks)

    patches = {"format_floats": timed(reporting.format_floats, "format"),
               "format_ints": timed(reporting.format_ints, "format"),
               "_cells": lambda *parts: cells(*parts).view(TimedCells),
               "atomic_write": finished}
    saved = {name: getattr(reporting, name) for name in patches}
    best = None
    try:
        for name, fn in patches.items():
            setattr(reporting, name, fn)
        for _ in range(REPS):
            for phase in PHASES:
                PHASES[phase] = 0.0
            t = time.perf_counter()
            export_report(result, out)
            total = time.perf_counter() - t
            PHASES["assembly"] = total - sum(PHASES.values())
            if best is None or total < best[0]:
                best = total, dict(PHASES)
    finally:
        for name, fn in saved.items():
            setattr(reporting, name, fn)
    return {phase: secs / n_cells * 1e6 for phase, secs in best[1].items()}


values = seeded_values(N)
result, n_cells = seeded_result(N)
digest = hashlib.sha256()
fmt_best = export_best = None
with tempfile.TemporaryDirectory() as out:
    for _ in range(REPS):
        t0 = time.perf_counter()
        formatted = b"".join(text(values[s:s + BLOCK]) for s in range(0, N, BLOCK))
        t1 = time.perf_counter()
        export_report(result, out)
        t2 = time.perf_counter()
        fmt_us, export_us = (t1 - t0) / N * 1e6, (t2 - t1) / n_cells * 1e6
        fmt_best = fmt_us if fmt_best is None else min(fmt_best, fmt_us)
        export_best = export_us if export_best is None else min(export_best, export_us)
    with tempfile.TemporaryDirectory() as timed_out:
        split = phase_split(result, timed_out, n_cells)
    digest.update(formatted)
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(fh.read())
print("export_split_us " + " ".join(f"{phase}={us:.3f}" for phase, us in split.items()))
print(f"fmt_us={fmt_best:.3f} export_us={export_best:.3f}",
      f"values={N} cells={n_cells} sha256={digest.hexdigest()[:16]}")
