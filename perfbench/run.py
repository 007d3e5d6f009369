"""ancsim benchmark: the paper's scenarios through `ancsim run`, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record --workload NAME

Run from the root of a checkout. One driver process runs `ancsim run`
in child processes, one at a time (a closed loop with one client), each
on a generated config file, with BLAS/OpenMP threads pinned to 1.

`--trace 0` measures the end-to-end metrics: set-up probes, then full
runs on configs made from `--seed` until `--seconds` have been measured
(at least one). `--trace 1` replays the workload's recorded seed untraced
and then once with spans around the program's public functions (see
launch.py), and runs the kernel sweep (kernels.py); it reports the
per-layer metrics. Times are normalized seconds (see Launch). Every
run's exports are checked (see check_outputs); the last line of standard
output is the JSON result.

`--record` runs the recorded seed once and rewrites the workload's
reference file under perfbench/references/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from launch import SpeedSampler

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")
LAUNCH = os.path.join(BENCH, "launch.py")
KERNELS = os.path.join(BENCH, "kernels.py")

WORKLOADS = {
    # the paper's headline scenario; mcanc does no work, so it is the
    # bypass case for multichannel changes
    "combined": "combined.json",
    # the paper's second scenario: the mix path, 7 pre-training blocks at
    # the recorded seed instead of 5, a different frozen filter
    "mixed": "mixed.json",
    # the combined scenario at 5 s with a 1x2x2 multichannel controller,
    # four identification runs and the only measurement noise
    "mc-2x2": "mc-2x2.json",
}

# `--seed 0` is the recorded seed: it reproduces each workload config's own
# seed, whose exports perfbench/references/ holds. Further runs within one
# invocation step by REP_STRIDE so that no two runs share inputs.
REP_STRIDE = 100_000

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

SETUP_PROBES = 3        # set-up-only launches per --trace 0 invocation
DEADLINE_S = 170.0      # whole invocation, below the 180 s limit

LOOP_ARMS = {
    "ancsim.scenario.run_uncontrolled_signal": "uncontrolled",
    "ancsim.scenario.run_adaptive": "adaptive",
    "ancsim.scenario.run_fixed": "fixed",
}
MULTICHANNEL = "ancsim.scenario.run_multichannel"
PRETRAIN_LOOPS = ("ancsim.scenario.run_adaptive", MULTICHANNEL)


class Launch:
    """One child process: its clock, peak RSS, exit code, spans and the
    SpeedSampler's jobs (see launch.py).

    Pipeline intervals are reported in normalized seconds. The launch is
    cut into windows of WINDOW_JOBS consecutive sampler jobs (about one
    second each). Each window's speed is REFERENCE_JOB_S over its mean
    job time. An interval's normalized length is the sum, over the
    windows it overlaps, of the overlap less the sampler jobs inside it,
    times that window's speed. On an uncontended vCPU of the reference VM
    this is the raw wall time. When other tenants slow the machine, the
    job slows by the same factor and the figure stays put. Set-up is the
    exception (see setup_s).
    """

    WINDOW_JOBS = 20

    def __init__(self, t0, t_end, rss_mb, code, spans, jobs):
        self.t0 = t0
        self.t_end = t_end
        self.rss_mb = rss_mb
        self.code = code
        self.spans = spans
        self.jobs = jobs
        chunks = [jobs[k:k + self.WINDOW_JOBS] for k in range(0, len(jobs), self.WINDOW_JOBS)]
        if len(chunks) > 1 and len(chunks[-1]) < self.WINDOW_JOBS // 2:
            last = chunks.pop()
            chunks[-1] += last
        # (window start, speed); the first window reaches back to the
        # spawn and the last one on to the exit
        self._windows = [(chunk[0][0] if k else -math.inf,
                          SpeedSampler.REFERENCE_JOB_S / statistics.fmean(d for _, d in chunk))
                         for k, chunk in enumerate(chunks)] or [(-math.inf, 1.0)]

    def _unsampled(self, start: float, end: float) -> float:
        """Raw length of [start, end) less the sampler jobs inside it."""
        return end - start - sum(d for t, d in self.jobs if start <= t < end)

    def seconds(self, start: float, end: float) -> float:
        """Normalized length of the interval [start, end)."""
        total = 0.0
        bounds = [w for w, _ in self._windows[1:]] + [math.inf]
        for (w_start, speed), w_end in zip(self._windows, bounds):
            a, b = max(start, w_start), min(end, w_end)
            if a < b:
                total += self._unsampled(a, b) * speed
        return total

    @property
    def speed(self) -> float:
        """Mean speed over the launch: normalized over unsampled wall time."""
        return self.wall_s / self._unsampled(self.t0, self.t_end)

    def first(self, name):
        """Index of the first span called `name`, or None."""
        for i, span in enumerate(self.spans):
            if span["name"] == name:
                return i
        return None

    def span_s(self, i: int) -> float:
        return self.seconds(self.spans[i]["start"], self.spans[i]["end"])

    @property
    def raw_wall_s(self) -> float:
        return self.t_end - self.t0

    @property
    def wall_s(self) -> float:
        """Spawn to exit, normalized."""
        return self.seconds(self.t0, self.t_end)

    @property
    def setup_s(self):
        """Spawn to the start of the pipeline (`run_scenario`), less the
        sampler's jobs but not normalized: imports and unmarshalling do
        not slow down with the numpy job, and scaling by it made set-up
        noisier, not steadier."""
        i = self.first("ancsim.cli.run_scenario")
        return None if i is None else self._unsampled(self.t0, self.spans[i]["start"])


def launch(mode: str, cfg_path: str, work: str, tag: str, deadline: float) -> Launch:
    """Run `ancsim run` on cfg_path under launch.py and wait for it.

    Exports go to WORK/TAG.out. The child is killed if it outlives
    `deadline` (a monotonic time).
    """
    out_dir = os.path.join(work, f"{tag}.out")
    spans_path = os.path.join(work, f"{tag}.spans.json")
    cmd = [sys.executable, LAUNCH, mode, spans_path,
           "run", "--config", cfg_path, "--out", out_dir]
    env = dict(os.environ, **THREAD_ENV)
    with open(os.path.join(work, f"{tag}.log"), "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    t_end = time.monotonic()
    # wait4 reaped the child; telling Popen keeps it from waiting again
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(spans_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        spans, jobs = doc["spans"], doc["jobs"]
    except (OSError, ValueError, KeyError):
        spans, jobs = [], []
    # ru_maxrss is in KiB on Linux
    return Launch(t0, t_end, usage.ru_maxrss / 1024.0, proc.returncode, spans, jobs)


# ---------------------------------------------------------------- checks

def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def differing_values(ref, got, path="") -> list[str]:
    """Paths of values in `ref` that `got` lacks or holds differently.
    Keys that only `got` has are allowed."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [path or "/"]
        out = []
        for key, value in ref.items():
            sub = f"{path}/{key}"
            if key not in got:
                out.append(sub)
            else:
                out.extend(differing_values(value, got[key], sub))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [path]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out.extend(differing_values(r, g, f"{path}/{i}"))
        return out
    return [] if type(ref) is type(got) and ref == got else [path]


def check_outputs(out_dir: str, code: int, reference: dict | None,
                  byte_exact: bool) -> list[str]:
    """Reasons the run failed; empty when it passed.

    Every run: exit code 0, no arm and no pre-training diverged, the
    uncontrolled arm at exactly 0 dB, and every file the reference names
    exported. With `byte_exact` (the recorded seed) also: each export but
    summary.json equal byte for byte to the reference, and every value
    of summary.json's recorded keys unchanged.
    """
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    try:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        failures.append(f"summary.json unreadable: {exc}")
        return failures
    arms = summary.get("arms", {})
    for name, arm in sorted(arms.items()):
        if arm.get("diverged"):
            failures.append(f"{name} arm diverged at sample {arm.get('diverged_at')}")
    if summary.get("pretrain", {}).get("diverged_at") is not None:
        failures.append("pre-training diverged")
    uncontrolled = arms.get("uncontrolled", {}).get("snr_db")
    if not uncontrolled or any(v != 0.0 for v in uncontrolled):
        failures.append(f"uncontrolled arm not at 0 dB: {uncontrolled}")
    if reference is None:
        return failures
    present = set(os.listdir(out_dir))
    for name in sorted(reference["files"]):
        if name not in present:
            failures.append(f"{name} not exported")
    if byte_exact:
        for name, digest in sorted(reference["files"].items()):
            if name in present and sha256_file(os.path.join(out_dir, name)) != digest:
                failures.append(f"{name} differs from the reference")
        for path in differing_values(reference["summary"], summary):
            failures.append(f"summary.json{path} differs from the reference")
    return failures


# ---------------------------------------------------------------- workload

def load_workload(name: str) -> dict:
    with open(os.path.join(BENCH, "workloads", WORKLOADS[name]), encoding="utf-8") as fh:
        return json.load(fh)


def reference_path(name: str) -> str:
    return os.path.join(BENCH, "references", f"{name}.json")


def load_reference(name: str) -> dict:
    with open(reference_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def write_config(base: dict, config_seed: int, work: str, tag: str) -> str:
    cfg = dict(base, seed=config_seed)
    path = os.path.join(work, f"{tag}.config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    return path


class Session:
    """The runs of one invocation, with their checks and failure count."""

    def __init__(self, workload: str, work: str, deadline: float):
        self.workload = workload
        self.work = work
        self.base = load_workload(workload)
        self.reference = load_reference(workload)
        self.deadline = deadline
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self._n = 0

    def _tag(self, kind: str) -> str:
        self._n += 1
        return f"{self._n:02d}-{kind}"

    def full_run(self, mode: str, config_seed: int) -> tuple[Launch, str]:
        """One checked `ancsim run`; returns the launch and its out dir."""
        tag = self._tag("traced" if mode == "trace" else "run")
        out_dir = os.path.join(self.work, f"{tag}.out")
        cfg = write_config(self.base, config_seed, self.work, tag)
        run = launch(mode, cfg, self.work, tag, self.deadline)
        byte_exact = config_seed == self.base["seed"]
        failures = check_outputs(out_dir, run.code, self.reference, byte_exact)
        if run.setup_s is None:
            failures.append("pipeline start not recorded")
        if not run.jobs:
            failures.append("no speed samples recorded")
        self._count(tag, run, config_seed, failures, byte_exact=byte_exact)
        return run, out_dir

    def setup_probe(self, config_seed: int, counted: bool = True) -> Launch:
        tag = self._tag("setup")
        cfg = write_config(self.base, config_seed, self.work, tag)
        run = launch("setup", cfg, self.work, tag, self.deadline)
        failures = [] if run.code == 0 and run.setup_s is not None and run.jobs else [
            f"set-up probe exit code {run.code}, pipeline start "
            f"{'not ' if run.setup_s is None else ''}recorded, "
            f"{len(run.jobs)} speed samples"]
        if counted or failures:
            self._count(tag, run, config_seed, failures)
        return run

    def _count(self, tag, run, config_seed, failures, **extra):
        self.attempted += 1
        self.failed += bool(failures)
        self.records.append(dict(
            tag=tag, config_seed=config_seed, wall_s=run.wall_s,
            setup_s=run.setup_s, raw_wall_s=run.raw_wall_s, speed=run.speed,
            speed_jobs=len(run.jobs), peak_rss_mb=run.rss_mb, exit_code=run.code,
            failures=failures, **extra))
        for reason in failures:
            print(f"perfbench: {self.workload} {tag} FAILED: {reason}", file=sys.stderr)

    def timed_runs(self, first_seed: int, seconds: float) -> list[Launch]:
        """Full runs on first_seed, first_seed + REP_STRIDE, ... until
        `seconds` have been measured, at least one, never past the
        deadline."""
        runs = []
        t_start = time.monotonic()
        while True:
            run, _ = self.full_run("mark", first_seed + REP_STRIDE * len(runs))
            runs.append(run)
            now = time.monotonic()
            if now - t_start >= seconds or now + 1.5 * run.raw_wall_s > self.deadline:
                return runs


# ---------------------------------------------------------------- per layer

def span_metrics(run: Launch, cfg: dict, summary: dict) -> dict:
    """Per-layer metrics from a traced run's spans and summary.json."""
    spans = run.spans
    dur = [run.span_s(i) for i in range(len(spans))]
    children: dict = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)

    def total(name):
        return sum(dur[i] for i, s in enumerate(spans) if s["name"] == name)

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    top = run.first("ancsim.cli.run_scenario")
    top_children = children.get(top, [])
    arms = {"uncontrolled": 0.0, "adaptive": 0.0, "fixed": 0.0}
    mc_seen = 0
    for i in top_children:
        name = spans[i]["name"]
        if name in LOOP_ARMS:
            arms[LOOP_ARMS[name]] += dur[i]
        elif name == MULTICHANNEL:
            # the adaptive arm runs before the fixed arm
            arms["adaptive" if mc_seen == 0 else "fixed"] += dur[i]
            mc_seen += 1
    pretrain = run.first("ancsim.scenario.pretrain_fixed_filter")
    pretrain_loop = sum(dur[i] for i in children.get(pretrain, [])
                        if spans[i]["name"] in PRETRAIN_LOOPS) if pretrain is not None else 0.0
    run_s = dur[top] if top is not None else 0.0

    n_samples = round(cfg["duration_s"] * cfg["sample_rate_hz"])
    paths = count("ancsim.sysid.identify_path")
    sysid_s = total("ancsim.sysid.identify_path")
    misalignments = [s["misalignment_db"] for s in summary.get("sysid", [])
                     if isinstance(s.get("misalignment_db"), (int, float))]
    seconds_trained = summary.get("pretrain", {}).get("seconds_trained", 0)
    m = {
        "config.load_s": (total("ancsim.cli.load_config"), "s"),
        "synth.reference_s": (total("ancsim.scenario.build_reference"), "s"),
        "synth.training_s": (total("ancsim.scenario.build_training_signal"), "s"),
        "sysid.s": (sysid_s, "s"),
        "sysid.paths": (paths, "count"),
        "sysid.us_per_path_sample": (
            sysid_s / (paths * cfg["sysid"]["n_samples"]) * 1e6 if paths else 0.0, "us"),
        "sysid.misalignment_db_max": (max(misalignments) if misalignments else 0.0, "dB"),
        "scenario.resolve_mu_s": (total("ancsim.scenario.resolve_mu"), "s"),
        "scenario.run_s": (run_s, "s"),
        "pretrain.s": (total("ancsim.scenario.pretrain_fixed_filter"), "s"),
        "pretrain.loop_s": (pretrain_loop, "s"),
        "pretrain.seconds_trained": (seconds_trained, "s"),
        "pretrain.useful_ratio": (seconds_trained / cfg["fixed_filter"]["max_train_s"], "ratio"),
        "loops.uncontrolled_s": (arms["uncontrolled"], "s"),
        "loops.adaptive_s": (arms["adaptive"], "s"),
        "loops.adaptive_us_per_sample": (arms["adaptive"] / n_samples * 1e6, "us"),
        "loops.fixed_s": (arms["fixed"], "s"),
        "loops.multichannel_s": (total(MULTICHANNEL), "s"),
        "metrics.s": (total("ancsim.scenario.build_run_report"), "s"),
        "metrics.reports": (count("ancsim.scenario.build_run_report"), "count"),
        "reporting.export_s": (total("ancsim.cli.export_report"), "s"),
        "trace.coverage": (
            sum(dur[i] for i in top_children) / run_s if run_s else 0.0, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def self_times(run: Launch) -> dict:
    """Per span name: calls, total and self normalized seconds (total less
    the time covered by child spans; children of one span never overlap)."""
    dur = [run.span_s(i) for i in range(len(run.spans))]
    child_s = [0.0] * len(dur)
    for i, s in enumerate(run.spans):
        if s["parent"] is not None:
            child_s[s["parent"]] += dur[i]
    out: dict = {}
    for i, s in enumerate(run.spans):
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur[i]
        row["self_s"] += dur[i] - child_s[i]
    return out


def export_metrics(out_dir: str) -> dict:
    sizes = [os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)]
    return {"reporting.bytes": {"value": sum(sizes), "unit": "bytes"},
            "reporting.files": {"value": len(sizes), "unit": "count"}}


def kernel_sweep(seed: int, cfg: dict, deadline: float) -> dict:
    cmd = [sys.executable, KERNELS, "--seed", str(seed),
           "--sources", str(cfg["plant"]["n_sources"]),
           "--mics", str(cfg["plant"]["n_mics"])]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, **THREAD_ENV),
                          timeout=max(deadline - time.monotonic(), 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"kernel sweep exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- fingerprint

def fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src_digest.update(os.path.relpath(path, SRC).encode())
                src_digest.update(sha256_file(path).encode())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "child_thread_env": THREAD_ENV,
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }


# ---------------------------------------------------------------- main

def measure(session: Session, seed: int, seconds: float) -> dict:
    """--trace 0: the end-to-end metrics."""
    first_seed = session.base["seed"] + seed
    session.setup_probe(first_seed, counted=False)   # fills the bytecode cache
    probes = [session.setup_probe(first_seed) for _ in range(SETUP_PROBES)]
    runs = session.timed_runs(first_seed, seconds)
    setups = [r.setup_s for r in probes + runs if r.setup_s is not None]
    return {
        "wall_s": {"value": statistics.median(r.wall_s for r in runs), "unit": "s"},
        "setup_s": {"value": statistics.median(setups) if setups else float("nan"),
                    "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r.rss_mb for r in runs), "unit": "MB"},
    }


def trace(session: Session, seed: int, seconds: float) -> dict:
    """--trace 1: the per-layer metrics, on the recorded seed."""
    recorded = session.base["seed"]
    session.setup_probe(recorded, counted=False)
    untraced = session.timed_runs(recorded, seconds)
    traced, out_dir = session.full_run("trace", recorded)
    try:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError):
        summary = {}
    metrics = span_metrics(traced, session.base, summary)
    metrics["trace.overhead_ratio"] = {
        "value": traced.wall_s / statistics.median(r.wall_s for r in untraced),
        "unit": "ratio"}
    if os.path.isdir(out_dir):
        metrics.update(export_metrics(out_dir))
    with open(os.path.join(session.work, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"spans": traced.spans, "speed": traced.speed,
                   "self_times": self_times(traced)},
                  fh, indent=1)
    session.attempted += 1
    try:
        metrics.update(kernel_sweep(seed, session.base, session.deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        session.failed += 1
        print(f"perfbench: {session.workload} kernel sweep FAILED: {exc}", file=sys.stderr)
    metrics["fail_share"] = {"value": session.failed / session.attempted, "unit": "ratio"}
    return metrics


def record(workload: str, work: str) -> int:
    """Rewrite the workload's reference from one run of its recorded seed."""
    base = load_workload(workload)
    tag = "record"
    out_dir = os.path.join(work, f"{tag}.out")
    run = launch("mark", write_config(base, base["seed"], work, tag), work, tag,
                 time.monotonic() + 600.0)
    failures = check_outputs(out_dir, run.code, None, False)
    if failures:
        print(f"perfbench: not recording, the run failed: {failures}", file=sys.stderr)
        return 1
    names = sorted(f for f in os.listdir(out_dir) if f != "summary.json")
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    fp = fingerprint()
    doc = {
        "workload": workload,
        "config_seed": base["seed"],
        "recorded_with": {k: fp[k] for k in ("cpu_model", "numpy", "blas", "git_commit",
                                             "src_sha256")},
        "files": {n: sha256_file(os.path.join(out_dir, n)) for n in names},
        "summary": summary,
    }
    with open(reference_path(workload), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(names)} files for {workload} in {run.raw_wall_s:.1f} s")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference of the recorded seed and exit")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "ancsim", "__init__.py")):
        print(f"perfbench: no ancsim sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    work = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if args.record:
        return record(args.workload, work)

    session = Session(args.workload, work, deadline)
    step = trace if args.trace else measure
    metrics = step(session, args.seed, args.seconds)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "fingerprint": fingerprint(), "runs": session.records}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(detail, metrics=metrics), fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
