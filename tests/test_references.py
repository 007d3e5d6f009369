"""Recorded exports: `ancsim run` on each benchmark workload, at the
workload's own seed, reproduces the files and summary values recorded
under perfbench/references/ exactly. The references are only read here;
perfbench/run.py --record rewrites them."""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from ancsim.cli import main

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = sorted(p.stem for p in (BENCH / "workloads").glob("*.json"))


def differing_values(ref, got, path=""):
    """Paths of values in `ref` that `got` lacks or holds differently;
    keys that only `got` has are allowed."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [path or "/"]
        return [p for key, value in ref.items()
                for p in (differing_values(value, got[key], f"{path}/{key}")
                          if key in got else [f"{path}/{key}"])]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [path]
        return [p for i, (r, g) in enumerate(zip(ref, got))
                for p in differing_values(r, g, f"{path}/{i}")]
    return [] if type(ref) is type(got) and ref == got else [path]


def test_every_workload_has_a_reference():
    assert WORKLOADS
    for name in WORKLOADS:
        assert (BENCH / "references" / f"{name}.json").is_file(), name


@pytest.mark.parametrize("name", WORKLOADS)
def test_run_reproduces_the_recorded_exports(name, tmp_path):
    reference = json.loads((BENCH / "references" / f"{name}.json").read_text())
    recorded = reference["recorded_with"]["numpy"]
    if np.__version__ != recorded:
        pytest.skip(f"references recorded with numpy {recorded}, "
                    f"this is numpy {np.__version__}")
    config = BENCH / "workloads" / f"{name}.json"
    assert json.loads(config.read_text())["seed"] == reference["config_seed"]
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0

    changed = [file for file, digest in sorted(reference["files"].items())
               if not (out / file).is_file()
               or hashlib.sha256((out / file).read_bytes()).hexdigest() != digest]
    assert changed == []
    summary = json.loads((out / "summary.json").read_text())
    assert differing_values(reference["summary"], summary) == []
