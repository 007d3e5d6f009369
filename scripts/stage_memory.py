"""Memory held by each stage of `run_scenario` and `export_report`, for the
tree whose `src/` is given.

    python scripts/stage_memory.py SRC_DIR SECONDS [WORKLOAD]

Runs the benchmark workload (`combined`, `mixed` or `mc-2x2`, from
`perfbench/workloads/`) at SECONDS of reference, the switch time at half
of it, and exports it to a temporary directory, twice in one process.

The first run is untraced and gives each stage's `ru_maxrss` high-water
mark at its exit, in MB; the first row, `imports`, is the mark after
`import ancsim`. The second runs under `tracemalloc` (numpy reports its
buffers to it) and gives each stage's traced peak and the memory still
traced at its exit, in units U of one float64 array of the run's T
samples (8 T bytes). The row `run` is the peak over the whole run, export
included. A stage called more than once (`reports`, one call per arm)
shows its largest peak and its last exit. Stages are the functions
`run_scenario` looks up in `ancsim.scenario`, plus `export_report`; calls
nested inside a stage (the loop inside pre-training) count toward it.

Last it prints one short sha256 of the exported files, the same for both
runs. Two trees that print the same hash wrote the same bytes.
"""

import hashlib
import os
import resource
import sys
import tempfile
import tracemalloc

sys.path.insert(0, sys.argv[1])

import ancsim.scenario as scenario  # noqa: E402
from ancsim.config import load_config  # noqa: E402
from ancsim.reporting import export_report  # noqa: E402

IMPORT_RSS_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
SECONDS = float(sys.argv[2]) if len(sys.argv) > 2 else 20.0
WORKLOAD = sys.argv[3] if len(sys.argv) > 3 else "combined"
STAGES = {
    "build_reference": "reference",
    "resolve_estimates": "identification",
    "resolve_mu": "resolve_mu",
    "build_training_signal": "training",
    "pretrain_fixed_filter": "pretrain",
    "run_uncontrolled_signal": "uncontrolled",
    "run_adaptive": "adaptive",
    "run_fixed": "fixed",
    "_reports_for": "reports",
}


def workload_config():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "perfbench", "workloads", f"{WORKLOAD}.json")
    cfg = load_config(path)
    cfg.duration_s = SECONDS
    if cfg.composition.mode == "concatenate":
        cfg.composition.switch_times_s = [SECONDS / 2]
    return cfg.validate()


class Stages:
    """Wraps each stage; records its peak and exit figures in `rows`."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.rows: dict[str, dict] = {}
        self.depth = 0
        self.run_peak = 0

    def wrap(self, label, fn):
        def staged(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            if self.traced:
                self.fold_peak()
                tracemalloc.reset_peak()
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                self.record(label)
        return staged

    def fold_peak(self):
        """Fold the traced peak since the last reset into the run's."""
        self.run_peak = max(self.run_peak, tracemalloc.get_traced_memory()[1])

    def record(self, label):
        row = self.rows.setdefault(label, {"peak": 0, "held": 0, "rss_mb": 0.0})
        row["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.traced:
            held, peak = tracemalloc.get_traced_memory()
            row["peak"], row["held"] = max(row["peak"], peak), held


def run(traced: bool):
    """One run and export; returns (stage rows, run peak, export digest)."""
    stages = Stages(traced)
    originals = {name: getattr(scenario, name) for name in STAGES}
    for name, label in STAGES.items():
        setattr(scenario, name, stages.wrap(label, originals[name]))
    export = stages.wrap("export", export_report)
    cfg = workload_config()
    if traced:
        tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory() as out:
            export(scenario.run_scenario(cfg), out)
            if traced:
                stages.fold_peak()
            digest = hashlib.sha256()
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    finally:
        tracemalloc.stop()
        for name, fn in originals.items():
            setattr(scenario, name, fn)
    return stages.rows, stages.run_peak, digest.hexdigest()[:16]


rss_rows, _, rss_digest = run(traced=False)
traced_rows, run_peak, traced_digest = run(traced=True)
if traced_digest != rss_digest:
    raise SystemExit(f"traced run exported other bytes: {traced_digest} != {rss_digest}")
unit = 8 * round(SECONDS * workload_config().sample_rate_hz)
print(f"{WORKLOAD} at {SECONDS:g} s: U = {unit / 1e6:.3f} MB")
print(f"{'stage':>14} {'peak_U':>8} {'held_U':>8} {'maxrss_MB':>10}")
print(f"{'imports':>14} {'-':>8} {'-':>8} {IMPORT_RSS_MB:>10.1f}")
for label, row in traced_rows.items():
    print(f"{label:>14} {row['peak'] / unit:>8.2f} {row['held'] / unit:>8.2f} "
          f"{rss_rows[label]['rss_mb']:>10.1f}")
print(f"{'run':>14} {run_peak / unit:>8.2f} {'-':>8} "
      f"{max(r['rss_mb'] for r in rss_rows.values()):>10.1f}")
print(f"sha256={rss_digest}")
