"""Time and memory of each stage of `scenario.scenario_stages`, and of the
export, for the tree whose `src/` is given.

    python scripts/stage_memory.py SRC_DIR SECONDS [WORKLOAD]

Runs the benchmark workload (`combined`, `mixed` or `mc-2x2`, from
`perfbench/workloads/`) at SECONDS of reference, the switch time at half
of it, and exports it to a temporary directory, twice in one process.
A stage ends where `scenario_stages` yields it and starts where the one
before it ended, so pre-training's adaptive calls, and the adaptive
arm's seconds that run beside them, count toward `pretrain`, and what
is left of the arm toward `adaptive`; `export` is `export_report` on the
run's result.

The first run is untraced and gives each stage's wall seconds and the
`ru_maxrss` high-water mark at its end, in MB; the first row, `imports`,
is the mark after `import ancsim`. The second runs under `tracemalloc`
(numpy reports its buffers to it) and gives each stage's traced peak and
the memory still traced at its end, in units U of one float64 array of
the run's T samples (8 T bytes). The row `run` is the whole run, export
included: its peak, seconds and mark.

Last it prints one short sha256 of the exported files, the same for both
runs. Two trees that print the same hash wrote the same bytes.
"""

import hashlib
import os
import resource
import sys
import tempfile
import time
import tracemalloc

sys.path.insert(0, sys.argv[1])

import ancsim.scenario as scenario  # noqa: E402
from ancsim.config import load_config  # noqa: E402
from ancsim.reporting import export_report  # noqa: E402

IMPORT_RSS_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
SECONDS = float(sys.argv[2]) if len(sys.argv) > 2 else 20.0
WORKLOAD = sys.argv[3] if len(sys.argv) > 3 else "combined"


def workload_config():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "perfbench", "workloads", f"{WORKLOAD}.json")
    cfg = load_config(path)
    cfg.duration_s = SECONDS
    if cfg.composition.mode == "concatenate":
        cfg.composition.switch_times_s = [SECONDS / 2]
    return cfg.validate()


def pipeline(cfg, out):
    """The scenario's stages, then the export of its result into `out`."""
    for stage, product in scenario.scenario_stages(cfg):
        yield stage
    export_report(product, out)
    yield "export"


def run(traced: bool):
    """One run and export; returns (stage rows, export digest)."""
    rows = {}
    cfg = workload_config()
    if traced:
        tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory() as out:
            start = time.perf_counter()
            for stage in pipeline(cfg, out):
                end = time.perf_counter()
                row = rows[stage] = {"seconds": end - start, "peak": 0, "held": 0}
                row["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                if traced:
                    row["held"], row["peak"] = tracemalloc.get_traced_memory()
                    tracemalloc.reset_peak()
                start = time.perf_counter()
            digest = hashlib.sha256()
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    finally:
        tracemalloc.stop()
    return rows, digest.hexdigest()[:16]


rss_rows, rss_digest = run(traced=False)
traced_rows, traced_digest = run(traced=True)
if traced_digest != rss_digest:
    raise SystemExit(f"traced run exported other bytes: {traced_digest} != {rss_digest}")
unit = 8 * round(SECONDS * workload_config().sample_rate_hz)
print(f"{WORKLOAD} at {SECONDS:g} s: U = {unit / 1e6:.3f} MB")
print(f"{'stage':>14} {'peak_U':>8} {'held_U':>8} {'seconds':>8} {'maxrss_MB':>10}")
print(f"{'imports':>14} {'-':>8} {'-':>8} {'-':>8} {IMPORT_RSS_MB:>10.1f}")
for stage, row in traced_rows.items():
    print(f"{stage:>14} {row['peak'] / unit:>8.4f} {row['held'] / unit:>8.4f} "
          f"{rss_rows[stage]['seconds']:>8.3f} {rss_rows[stage]['rss_mb']:>10.1f}")
print(f"{'run':>14} {max(r['peak'] for r in traced_rows.values()) / unit:>8.4f} {'-':>8} "
      f"{sum(r['seconds'] for r in rss_rows.values()):>8.3f} "
      f"{max(r['rss_mb'] for r in rss_rows.values()):>10.1f}")
print(f"sha256={rss_digest}")
