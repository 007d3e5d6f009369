"""CLI surface: subcommands, exit codes, determinism of exports."""

import json
import subprocess
import sys

import pytest
import yaml

from ancsim.cli import main
from ancsim.config import config_to_dict, default_config, save_config
from ancsim.wavio import read_wav


def write_small_config(path, **overrides):
    cfg = default_config("combined", duration_s=2.0, seed=7)
    cfg.composition.switch_times_s = [1.0]
    cfg.controller.taps = 48
    cfg.sysid.taps = 24
    cfg.sysid.n_samples = 6000
    cfg.fixed_filter.max_train_s = 3.0
    cfg.metrics.segment_len = 512
    cfg.metrics.hop = 256
    for key, value in overrides.items():
        obj = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            obj = getattr(obj, part)
        setattr(obj, parts[-1], value)
    save_config(path, cfg)
    return cfg


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "ancsim.cli", *argv],
                          capture_output=True, text=True)


class TestInProcess:
    def test_synth_writes_wav(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        out = tmp_path / "synth"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        sig = read_wav(out / "reference.wav")
        assert len(sig) == 16000

    def test_mac_table(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        out = tmp_path / "mac"
        code = main(["mac", "--config", str(cfg_path), "--out", str(out),
                     "--measure", "10"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "total" in printed and "instrumented" in printed
        table = json.loads((out / "mac_table.json").read_text())
        configured = table["rows"][0]
        # (IJK + IJ) L + IJKM + K at 1x1x1, L=48, M=24
        assert configured["total"] == 2 * 48 + 24 + 1

    def test_identify_writes_estimates(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        out = tmp_path / "ident"
        assert main(["identify", "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = json.loads((out / "identification.json").read_text())
        assert doc["paths"][0]["misalignment_db"] < -30.0
        assert (out / "estimate_j0_k0.anw").exists()

    def test_pretrain_writes_weights(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "fixed_weights.anw").exists()
        assert (out / "fixed_weights.json").exists()

    def test_init_config_round_trips(self, tmp_path):
        path = tmp_path / "generated.yaml"
        assert main(["init-config", "--scenario", "mixed", "--out", str(path)]) == 0
        doc = yaml.safe_load(path.read_text())
        assert doc["composition"]["mode"] == "mix"

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        cfg = write_small_config(cfg_path)
        out = tmp_path / "r"
        assert main(["run", "--config", str(cfg_path), "--seed", "99",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["provenance"]["seed"] == 99
        assert cfg.seed != 99


class TestExitCodes:
    def test_run_success_is_zero(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        proc = run_cli("run", "--config", str(cfg_path), "--out",
                       str(tmp_path / "out"))
        assert proc.returncode == 0
        assert "SNR" in proc.stdout

    def test_config_error_is_two(self, tmp_path):
        cfg_path = tmp_path / "bad.yaml"
        write_small_config(cfg_path)
        doc = yaml.safe_load(cfg_path.read_text())
        doc["controller"]["taps"] = 48
        doc["controller"]["muu"] = 0.5
        cfg_path.write_text(yaml.safe_dump(doc))
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_zero_taps_is_two(self, tmp_path):
        cfg_path = tmp_path / "bad.yaml"
        write_small_config(cfg_path)
        doc = yaml.safe_load(cfg_path.read_text())
        doc["controller"]["taps"] = 0
        cfg_path.write_text(yaml.safe_dump(doc))
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "controller.taps" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_divergence_is_three(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path, **{"controller.mu": 5.0})
        proc = run_cli("run", "--config", str(cfg_path), "--out",
                       str(tmp_path / "out"))
        assert proc.returncode == 3
        assert "diverged" in (proc.stdout + proc.stderr).lower()
        # partial results still exported
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["arms"]["adaptive"]["diverged"] is True

    def test_io_error_is_four(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        proc = run_cli("synth", "--config", str(cfg_path), "--out",
                       str(blocker / "nested"))
        assert proc.returncode == 4

    def test_missing_wav_source_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        doc = yaml.safe_load(cfg_path.read_text())
        doc["noise_sources"] = [
            {"name": "rec", "kind": "wav-file", "path": str(tmp_path / "nope.wav")}]
        doc["composition"] = {"mode": "mix", "gains": [1.0]}
        cfg_path.write_text(yaml.safe_dump(doc))
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2


class TestRunDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out_a)).returncode == 0
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out_b)).returncode == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_report_with_interval_override(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        out = tmp_path / "rep"
        assert main(["report", "--config", str(cfg_path), "--out", str(out),
                     "--interval", "0.5"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["interval_s"] == 0.5
        assert len(summary["arms"]["adaptive"]["nr_per_interval_db"][0]) == 4
