"""Child-process entry point: run `ancsim ARGS...` with spans around its
public functions.

    python3 perfbench/launch.py MODE SPANS_FILE ARGS...

MODE selects what is wrapped:

- `mark`: only `ancsim.cli.run_scenario` and `ancsim.cli.export_report`,
  so the parent learns when the pipeline started (the end of set-up) at
  the cost of two wrapped calls;
- `setup`: as `mark`, but the process stops where the pipeline would
  start, which measures interpreter start, `import ancsim` and config load
  without running the scenario;
- `trace`: every function in TRACED.

In every mode a SpeedSampler times a fixed numpy job 20 times a second,
so the parent can tell how fast this machine ran during the run.

Functions are replaced at the sites where the program looks them up (the
attribute of the module that calls them), so the program's source stays
as it is. A name that no longer exists records zero calls. Spans live in
memory and are written to SPANS_FILE as JSON when the process ends. All
times are `time.monotonic()`, which on Linux is the system-wide
CLOCK_MONOTONIC, so the parent can compare them with its own clock.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import signal
import sys
import time

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# module -> functions looked up there by the pipeline
TRACED = {
    "ancsim.cli": ("load_config", "run_scenario", "export_report"),
    "ancsim.scenario": (
        "build_reference", "resolve_estimates", "resolve_mu",
        "build_training_signal", "pretrain_fixed_filter",
        "run_uncontrolled_signal", "run_adaptive", "run_fixed",
        "run_multichannel", "build_run_report",
    ),
    "ancsim.sysid": ("identify_path",),
}
MARKED = {"ancsim.cli": ("run_scenario", "export_report")}


class SpeedSampler:
    """Times JOB_DOTS calls of `np.dot` on 128-sample vectors every
    PERIOD_S seconds of wall time, from a SIGALRM handler in this process.

    On a shared host other tenants can slow this vCPU by up to 2x for tens
    of seconds at a time. The job is made of the same small numpy calls as
    the per-sample loops, so its mean time tracks that slowdown through
    the run. Signal handlers run between bytecodes, so the job never
    interleaves with the program's own numpy calls.
    """

    PERIOD_S = 0.05
    JOB_DOTS = 2000
    # the job's mean time inside uncontended runs on the 2-vCPU Intel Xeon
    # VM the benchmark was defined on; scales normalized times to seconds
    REFERENCE_JOB_S = 1.5e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal(128)
        self._b = rng.standard_normal(128)
        self.jobs: list[tuple[float, float]] = []   # (start, seconds)

    def _job(self, signum, frame):
        a, b, dot = self._a, self._b, np.dot
        t0 = time.monotonic()
        for _ in range(self.JOB_DOTS):
            dot(a, b)
        self.jobs.append((t0, time.monotonic() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._job)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)


class StopAtPipeline(BaseException):
    """Raised in `setup` mode where the pipeline would start. A
    BaseException, so the CLI's own error handlers let it through."""


class Recorder:
    """In-memory span list; each span is [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, stop: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.monotonic(), None,
                    self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                if stop:
                    raise StopAtPipeline
                return fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._stack.pop()
        return traced

    def install(self, targets: dict, stop_at: str | None = None) -> None:
        for modname, names in targets.items():
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.extend(f"{modname}.{n}" for n in names)
                continue
            for name in names:
                qualified = f"{modname}.{name}"
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(qualified)
                    continue
                setattr(module, name, self.wrap(qualified, fn, stop=qualified == stop_at))

    def dump(self, path: str, exit_code: int, jobs: list) -> None:
        doc = {
            "exit_code": exit_code,
            "jobs": jobs,
            "missing": self.missing,
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv: list[str]) -> int:
    mode, spans_path, args = argv[0], argv[1], argv[2:]
    if mode not in ("mark", "setup", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    if not os.path.isfile(os.path.join(SRC, "ancsim", "__init__.py")):
        print(f"launch: no ancsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    recorder = Recorder()
    sampler = SpeedSampler()
    code = 1
    sampler.start()
    try:
        import ancsim.cli  # noqa: F401  (set-up work the user waits for)
        recorder.install(TRACED if mode == "trace" else MARKED,
                         stop_at="ancsim.cli.run_scenario" if mode == "setup" else None)
        code = ancsim.cli.main(args)
    except StopAtPipeline:
        code = 0
    finally:
        sampler.stop()
        recorder.dump(spans_path, code, sampler.jobs)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
