"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs two short scenarios through the same launcher and checks as
run.py and shows that the checks catch what they must: an export with
one flipped byte fails, a changed summary value fails, a new summary key
passes, and a diverging config fails. Exits 0 when every case behaves.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402


def tiny_config() -> dict:
    cfg = bench.load_workload("combined")
    cfg.update(duration_s=2.0)
    cfg["composition"] = dict(cfg["composition"], switch_times_s=[1.0])
    cfg["sysid"] = dict(cfg["sysid"], n_samples=5000)
    cfg["fixed_filter"] = dict(cfg["fixed_filter"], max_train_s=3.0)
    return cfg


def run_config(cfg: dict, work: str, tag: str):
    path = os.path.join(work, f"{tag}.config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    run = bench.launch("mark", path, work, tag, time.monotonic() + 120.0)
    return run, os.path.join(work, f"{tag}.out")


def reference_of(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    return {"files": {n: bench.sha256_file(os.path.join(out_dir, n))
                      for n in os.listdir(out_dir) if n != "summary.json"},
            "summary": summary}


def rewrite_summary(out_dir: str, edit) -> None:
    path = os.path.join(out_dir, "summary.json")
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    edit(summary)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


def main() -> int:
    work = os.path.join(bench.WORK_ROOT, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    results = []

    def case(name, failures, expect_fail):
        ok = bool(failures) == expect_fail
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {failures or 'no failures'}")

    cfg = tiny_config()
    run, out = run_config(cfg, work, "good")
    reference = reference_of(out)
    case("clean run against its own reference",
         bench.check_outputs(out, run.code, reference, True), False)

    victim = os.path.join(out, "fixed_error.csv")
    with open(victim, "r+b") as fh:
        fh.seek(os.path.getsize(victim) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0x01]))
    case("one flipped byte in fixed_error.csv",
         bench.check_outputs(out, run.code, reference, True), True)
    case("flipped byte on a seed without references (invariants only)",
         bench.check_outputs(out, run.code, reference, False), False)
    with open(victim, "r+b") as fh:
        fh.seek(os.path.getsize(victim) // 2)
        fh.write(byte)

    rewrite_summary(out, lambda s: s.update(new_key=1))
    case("new summary.json key", bench.check_outputs(out, run.code, reference, True), False)
    rewrite_summary(out, lambda s: s["pretrain"].update(seconds_trained=99))
    case("changed summary.json value",
         bench.check_outputs(out, run.code, reference, True), True)

    cfg["controller"] = dict(cfg["controller"], mu=5.0)
    run, out = run_config(cfg, work, "diverging")
    case("diverging config (mu 5.0)", bench.check_outputs(out, run.code, reference, False), True)

    print(f"{sum(results)}/{len(results)} self-test cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
