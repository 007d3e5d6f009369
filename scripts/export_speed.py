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
from ancsim.reporting import export_report  # noqa: E402
from ancsim.scenario import ArmResult, PretrainInfo, ScenarioResult  # noqa: E402
from ancsim.signals import Signal  # noqa: E402

N = int(sys.argv[2]) if len(sys.argv) > 2 else 480_000
REPS = int(sys.argv[3]) if len(sys.argv) > 3 else 5
BLOCK, BINS = 8192, 513


def unread(cls, **fields):
    """The fields an older tree's result classes still hold, which no
    export reads: a placeholder for each one `cls` has."""
    return {k: v for k, v in fields.items() if k in cls.__dataclass_fields__}


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
    empty = Signal(np.zeros(1), 8000.0)

    def report():
        psd = PowerSpectrum(freq_hz=freq, power_db=rng.normal(-40, 20, BINS),
                            power_linear=np.zeros(BINS))
        spectro = Spectrogram(times_s=np.arange(frames) * 0.064, freq_hz=freq,
                              power_db=rng.normal(-40, 20, (frames, BINS)))
        return RunReport(interval_s=1.0, nr_per_interval_db=rng.normal(10, 5, 20), snr_db=1.0,
                         psd=psd, spectro=spectro, **unread(RunReport, reference=empty, error=empty))

    arms = {name: ArmResult(name, [report()], rng.standard_normal((samples, 1)),
                            **unread(ArmResult, output=None))
            for name in ("uncontrolled", "adaptive", "fixed")}
    pretrain = PretrainInfo(seconds_trained=1, nr_per_second_db=[0.5], plateau_reached=False,
                            mu=0.01)
    result = ScenarioResult(
        config=default_config("combined"), arms=arms, **unread(ScenarioResult, reference=empty),
        adaptive_weights=np.zeros((1, 1, 128)), fixed_weights=np.zeros((1, 1, 128)),
        installed_estimates=np.zeros((1, 1, 65)), sysid_summaries=[], pretrain=pretrain,
        mu=0.01, mse_trace=rng.random(samples // 8), mse_stride=8)
    rows = samples // 8
    return result, 3 * (3 * frames * BINS + 2 * BINS + 2 * 20 + 3 * rows) + rows


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
    digest.update(formatted)
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(fh.read())
print(f"fmt_us={fmt_best:.3f} export_us={export_best:.3f}",
      f"values={N} cells={n_cells} sha256={digest.hexdigest()[:16]}")
