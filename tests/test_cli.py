"""CLI surface: subcommands, exit codes, determinism of exports."""

import json
import struct
import subprocess
import sys

import numpy as np
import pytest
import yaml

from ancsim.cli import main
from ancsim.config import config_to_dict, default_config, save_config
from ancsim.scenario import run_scenario
from ancsim.serialization import load_weights_binary, load_weights_json
from ancsim.signals import Signal
from ancsim.wavio import read_wav, write_wav


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
        # (IJK + IJ) L + IJKM + K at 1x1x1, L=48, M=25: the 24 identified
        # taps behind the loop's one-sample latency
        assert configured["total"] == 2 * 48 + 25 + 1

    @pytest.mark.parametrize("mode", ["identify", "exact"])
    def test_mac_configured_row_is_the_installed_controller(self, tmp_path, mode):
        cfg_path = tmp_path / "c.yaml"
        cfg = write_small_config(cfg_path, **{"sysid.mode": mode})
        out = tmp_path / "mac"
        assert main(["mac", "--config", str(cfg_path), "--out", str(out)]) == 0
        configured = json.loads((out / "mac_table.json").read_text())["rows"][0]
        installed = run_scenario(cfg).installed_estimates
        assert (configured["J"], configured["K"], configured["M"]) == installed.shape
        assert configured["L"] == cfg.controller.taps

    def test_identify_writes_estimates(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        out = tmp_path / "ident"
        assert main(["identify", "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = json.loads((out / "identification.json").read_text())
        assert doc["paths"][0]["misalignment_db"] < -30.0
        assert (out / "estimate_j0_k0.anw").exists()

    def test_identify_writes_strict_json_for_a_perfect_estimate(self, tmp_path, capsys):
        # a one-tap path fitted by a one-tap LMS converges to it exactly, so
        # the misalignment is -inf dB; summary.json's "silent" marker, not
        # the non-standard -Infinity token, must reach the file
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path, **{
            "plant.kind": "explicit", "plant.primary_taps": [0.5],
            "plant.secondary_taps": [[[0.5]]], "plant.measurement_noise_std": 0.0,
            "sysid.taps": 1, "sysid.mu": 0.1, "sysid.n_samples": 5000})
        out = tmp_path / "ident"
        assert main(["identify", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert "misalignment -inf dB" in capsys.readouterr().out

        def reject(token):
            raise AssertionError(f"non-standard JSON token {token}")

        doc = json.loads((out / "identification.json").read_text(), parse_constant=reject)
        assert doc["paths"][0]["misalignment_db"] == "silent"
        assert sorted(p.name for p in out.iterdir()) == [
            "estimate_j0_k0.anw", "estimate_j0_k0.json", "identification.json"]

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

    @pytest.mark.parametrize("section, name, bad", [
        (None, "sample_rate_hz", "8k"), (None, "duration_s", "abc"),
        ("metrics", "hop", "x"), ("controller", "mu_scale", "abc"),
        ("metrics", "interval_s", 5.0),
    ])
    def test_bad_scalar_is_two(self, tmp_path, section, name, bad):
        cfg_path = tmp_path / "bad.yaml"
        write_small_config(cfg_path)
        doc = yaml.safe_load(cfg_path.read_text())
        (doc[section] if section else doc)[name] = bad
        cfg_path.write_text(yaml.safe_dump(doc))
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert (f"{section}.{name}" if section else name) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, bad, named", [
        (("noise_sources", 0, "low_hz"), "x", "noise_sources[0].low_hz"),
        (("noise_sources", 0, "tones"), [{"freq_hz": "x"}],
         "noise_sources[0].tones[0].freq_hz"),
        (("plant", "measurement_noise_std"), "x", "plant.measurement_noise_std"),
        (("seed",), -1, "seed"),
        (("controller", "n_refs"), "x", "controller.n_refs"),
        (("plant", "primary", "taps"), "x", "plant.primary.taps"),
        (("plant", "primary", "delay"), 40, "plant.primary.delay"),     # taps is 32
        (("plant", "secondary", "taps"), 0, "plant.secondary.taps"),
    ])
    def test_bad_field_is_two_naming_its_path(self, tmp_path, path, bad, named):
        cfg_path = tmp_path / "bad.yaml"
        write_small_config(cfg_path)
        doc = yaml.safe_load(cfg_path.read_text())
        obj = doc
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = bad
        cfg_path.write_text(yaml.safe_dump(doc))
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert f"config error: {named}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "mac"])
    @pytest.mark.parametrize("kind", ["single", "multichannel"])
    def test_n_refs_other_than_one_is_two(self, tmp_path, capsys, command, kind):
        # no run executes a geometry with I = 2, so `mac` prints no row for it
        cfg_path = tmp_path / "bad.yaml"
        write_small_config(cfg_path, **{"controller.kind": kind, "controller.n_refs": 2})
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "config error: controller.n_refs must be 1, got 2" in captured.err
        assert "configured" not in captured.out
        assert not out.exists()

    def test_metric_geometry_is_two_before_the_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        write_small_config(cfg_path, **{"metrics.segment_len": 1000})
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "metrics.segment_len" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_finite_wav_sample_is_four(self, tmp_path, capsys):
        wav = tmp_path / "rec.wav"
        write_wav(wav, Signal(np.zeros(16000), 8000.0), fmt="float32")
        blob = bytearray(wav.read_bytes())
        blob[-4:] = struct.pack("<f", float("nan"))
        wav.write_bytes(bytes(blob))
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        doc = yaml.safe_load(cfg_path.read_text())
        doc["noise_sources"] = [{"name": "rec", "kind": "wav-file", "path": str(wav)}]
        doc["composition"] = {"mode": "mix"}
        cfg_path.write_text(yaml.safe_dump(doc))
        assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 4
        assert "index 15999" in capsys.readouterr().err

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

    def test_pretrain_divergence_is_three_with_silent_weights(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path, **{"controller.mu": 5.0})
        out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert "pre-training diverged at sample" in capsys.readouterr().err
        for snap in (load_weights_binary(out / "fixed_weights.anw"),
                     load_weights_json(out / "fixed_weights.json")):
            assert snap.weights.shape == (48,)
            assert not snap.weights.any()

    def test_init_config_bad_seed_is_two_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "generated.yaml"
        assert main(["init-config", "--seed", "-1", "--out", str(path)]) == 2
        assert "config error: seed" in capsys.readouterr().err
        assert not path.exists()

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
