"""CLI surface: subcommands, exit codes, determinism of exports."""

import contextlib
import copy
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_config import _VALUES, _leaves

from ancsim import loops, scenario
from ancsim.cli import main
from ancsim.config import config_from_dict, config_to_dict, default_config, save_config
from ancsim.errors import ConfigError
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


WAV_SOURCES = ["valid", "missing", "rate", "short", "malformed"]


def write_wav_source(case, path, seconds):
    """A recording for a wav-file source that needs `seconds` at 8 kHz:
    one that fits, none at all, one at 16 kHz, one too short by 0.1 s or
    bytes that are no WAV stream."""
    if case == "malformed":
        with open(path, "wb") as fh:
            fh.write(b"RIFF\x04\x00\x00\x00WAVEdata\xff\xff\x00\x00")
    elif case != "missing":
        rate = 16000.0 if case == "rate" else 8000.0
        n = int(round((seconds - 0.1 if case == "short" else seconds) * rate))
        samples = 0.3 * np.random.default_rng(5).standard_normal(n)
        write_wav(path, Signal(samples, rate))


class TestInProcess:
    def test_synth_writes_wav(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        out = tmp_path / "synth"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        sig = read_wav(out / "reference.wav")
        assert len(sig) == 16000

    def test_a_synth_whose_write_fails_leaves_no_partial_wav(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        out = tmp_path / "synth"

        def broken(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 4
        assert "disk full" in err.getvalue()
        assert os.listdir(out) == []

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

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_mac_measure_below_one_is_two_before_any_output(self, tmp_path, capsys, samples):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        with pytest.raises(SystemExit) as exc:
            main(["mac", "--config", str(cfg_path), "--measure", samples])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --measure: must be at least 1, got {samples}" in captured.err

    def test_identify_records_the_paths_a_run_records(self, tmp_path):
        # one rendering of the identification: identify's `paths` are the
        # `sysid` entries of a run's summary on the same config
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path, **{"plant.n_sources": 2, "plant.n_mics": 2,
                                        "controller.kind": "multichannel"})
        assert main(["identify", "--config", str(cfg_path), "--out", str(tmp_path / "i")]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
        paths = json.loads((tmp_path / "i" / "identification.json").read_text())["paths"]
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert [(p["j"], p["k"]) for p in paths] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert paths == summary["sysid"]

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
        # the weights `run` exports for the same config, byte for byte
        run_out = tmp_path / "run"
        assert main(["run", "--config", str(cfg_path), "--out", str(run_out)]) == 0
        for name in ("fixed_weights.anw", "fixed_weights.json"):
            assert (out / name).read_bytes() == (run_out / name).read_bytes(), name

    def test_pretrain_runs_no_adaptive_arm(self, tmp_path, monkeypatch):
        # `run` trains beside the adaptive arm; `pretrain` trains alone,
        # one lane a block, and computes no disturbance of the reference
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        run_lanes, lanes = loops.run_lanes, []

        def counted(calls):
            lanes.append(len(calls))
            return run_lanes(calls)

        def uncontrolled(plant, x):
            raise AssertionError("the uncontrolled arm ran")

        monkeypatch.setattr(loops, "run_lanes", counted)
        monkeypatch.setattr(scenario, "run_uncontrolled_signal", uncontrolled)
        assert main(["pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "pre")]) == 0
        assert lanes and set(lanes) == {1}

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

    @pytest.mark.parametrize("field, value, named", [
        ("metrics.segment_len", 2, "metrics.segment_len must be a power of two of at least 4"),
        ("metrics.segment_len", 32768,
         "metrics.segment_len 32768 is longer than the run's 16000 samples"),
        ("fixed_filter.max_train_s", 0.5, "fixed_filter.max_train_s 0.5 is below 1 s"),
    ])
    def test_configs_that_failed_late_are_two_before_identification(
            self, tmp_path, capsys, monkeypatch, field, value, named):
        def identification(cfg):
            raise AssertionError("identification ran")

        monkeypatch.setattr(scenario, "resolve_estimates", identification)
        cfg_path = tmp_path / "bad.yaml"
        write_small_config(cfg_path, **{field: value})
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("times", [[0.99999], [0.0000625], [0.0001875, 0.0003125]],
                             ids=["last_segment_empty", "first_segment_empty",
                                  "boundary_missed"])
    def test_a_switch_time_no_segment_renders_is_two_naming_it(self, tmp_path, capsys, times):
        # at 8 kHz: a last segment of 0.08 samples or a first of 0.5 round
        # to none; with a third source, segments of 1.5 and 1.0 samples
        # round to 2 and 1, which miss the second boundary at round(2.5) = 2
        cfg = default_config("combined", duration_s=1.0)
        if len(times) == 2:
            cfg.noise_sources.append(copy.deepcopy(cfg.noise_sources[0]))
        cfg.composition.switch_times_s = times
        cfg_path = tmp_path / "bad.yaml"
        save_config(cfg_path, cfg)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "config error: composition.switch_times_s" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_a_rate_whose_second_rounds_to_no_sample_is_two(self, tmp_path, capsys):
        # the default run scaled to 0.4 Hz: pre-training's one-second
        # blocks would hold round(0.4) = 0 samples
        cfg = default_config("combined", duration_s=100.0)
        cfg.composition.switch_times_s = [50.0]
        for src in cfg.noise_sources:
            src.low_hz, src.high_hz = 0.01, 0.1
        cfg.metrics.segment_len, cfg.metrics.hop, cfg.metrics.interval_s = 4, 2, 10.0
        cfg.sysid.taps = cfg.controller.taps = 4
        cfg.sysid.n_samples = 500
        cfg.sample_rate_hz = 1.0
        cfg.validate()
        cfg.sample_rate_hz = 0.4
        cfg_path = tmp_path / "bad.yaml"
        save_config(cfg_path, cfg)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "config error: sample_rate_hz 0.4" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_finite_wav_sample_is_four(self, tmp_path, capsys):
        wav = tmp_path / "rec.wav"
        write_wav(wav, Signal(np.zeros(16000), 8000.0))
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

    @pytest.mark.parametrize("fields, named", [
        ({"duration_s": 1e12, "composition.switch_times_s": [5e11]}, "duration_s"),
        ({"sysid.n_samples": 10**15}, "sysid.n_samples"),
        ({"sample_rate_hz": 1e15}, "sample_rate_hz"),
        ({"fixed_filter.max_train_s": 1e15}, "fixed_filter.max_train_s"),
        ({"controller.taps": 10**12}, "controller.taps"),
        ({"plant.n_sources": 10**5, "plant.n_mics": 10**4, "controller.kind": "multichannel"},
         "plant.n_sources"),
    ], ids=["reference_28_PiB", "identification_7_PiB", "rate", "training", "taps", "grid"])
    def test_an_allocation_past_any_memory_is_two_without_a_traceback(
            self, tmp_path, capsys, monkeypatch, fields, named):
        # `validate` sizes the run's largest array and names the field that
        # grew it, before any stage allocates one
        def identification(cfg):
            raise AssertionError("identification ran")

        monkeypatch.setattr(scenario, "resolve_estimates", identification)
        doc = config_to_dict(default_config("combined"))
        for key, value in fields.items():
            *parents, leaf = key.split(".")
            node = doc
            for part in parents:
                node = node[part]
            node[leaf] = value
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump(doc))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"config error: {re.escape(named)} \S+: one array of the run "
                            r"would hold .* float64 values .*, past the limit of 268435456 "
                            r"\(2 GiB\)\n", err)
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("case", ["missing", "rate", "short"])
    def test_unusable_wav_source_is_config_error_naming_its_path(self, tmp_path, case):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        doc = yaml.safe_load(cfg_path.read_text())
        path = tmp_path / "rec.wav"
        write_wav_source(case, path, 2.0)
        doc["noise_sources"] = [{"name": "rec", "kind": "wav-file", "path": str(path)}]
        doc["composition"] = {"mode": "mix", "gains": [1.0]}
        cfg_path.write_text(yaml.safe_dump(doc))
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "noise_sources[0].path (source rec): " in proc.stderr, proc.stderr


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

    def test_psd_does_not_depend_on_metrics_hop(self, tmp_path):
        # at metrics.hop 128 the PSD's own hop (256, from overlap 0.5) differs,
        # so the PSD frames the errors again: only the spectrograms, and
        # the config hash, may differ from the run at hop 256
        outs = {}
        for hop in (256, 128):
            cfg_path = tmp_path / f"c{hop}.yaml"
            write_small_config(cfg_path, **{"metrics.hop": hop})
            outs[hop] = tmp_path / f"o{hop}"
            assert main(["run", "--config", str(cfg_path), "--out", str(outs[hop])]) == 0
        names = sorted(p.name for p in outs[256].iterdir())
        assert names == sorted(p.name for p in outs[128].iterdir())
        for name in names:
            a, b = (outs[hop] / name for hop in (256, 128))
            if name.endswith("_spectrogram.csv"):
                rows = [len(p.read_text().splitlines()) - 1 for p in (a, b)]
                assert rows == [((16000 - 512) // hop + 1) * 257 for hop in (256, 128)]
            elif name == "summary.json":
                sa, sb = (json.loads(p.read_text()) for p in (a, b))
                assert sa["provenance"].pop("config_hash") != sb["provenance"].pop("config_hash")
                assert sa == sb
            else:
                assert a.read_bytes() == b.read_bytes(), name

    def test_report_with_interval_override(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_small_config(cfg_path)
        out = tmp_path / "rep"
        assert main(["report", "--config", str(cfg_path), "--out", str(out),
                     "--interval", "0.5"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["interval_s"] == 0.5
        assert len(summary["arms"]["adaptive"]["nr_per_interval_db"][0]) == 4


# The run-level fuzz: short configs around a 0.25 s `combined` whose
# drawn fields include the secondary paths' delay, so the adaptive loop
# runs passes of several widths, and fields that fail validation. Its
# second source may be a recording, usable or not (`WAV_SOURCES`), and
# any one leaf may take any value the config fuzz of `test_config.py`
# draws.
FIELD_NAMED = re.compile(
    r"\b(sample_rate_hz|duration_s|seed|schema_version|noise_sources\[\d+\]\.\w+|"
    r"(composition|plant(\.primary|\.secondary)?|controller|sysid|fixed_filter|metrics|export)"
    r"\.\w+)\b")

RUN_FIELDS = {
    ("plant", "secondary", "delay"): st.integers(0, 7),
    ("plant", "secondary", "taps"): st.integers(1, 8),
    ("plant", "primary", "delay"): st.integers(0, 6),
    ("plant", "measurement_noise_std"): st.sampled_from([0.0, 0.02]),
    ("controller", "taps"): st.integers(1, 24),
    ("controller", "mu"): st.sampled_from(["auto", 0.0, 0.002, 5.0]),
    ("sysid", "n_samples"): st.integers(1, 600),
    ("sysid", "taps"): st.integers(1, 24),
    ("sysid", "mode"): st.sampled_from(["identify", "exact"]),
    ("metrics", "segment_len"): st.sampled_from([2, 4, 64, 256, 4096]),
    ("metrics", "hop"): st.sampled_from([1, 32, 128]),
    ("metrics", "interval_s"): st.sampled_from([0.05, 0.125, 0.3]),
    ("export", "error_decimation"): st.integers(1, 16),
    ("noise_sources", 0, "high_hz"): st.sampled_from([900.0, 3999.0, 4000.0]),
}
GEOMETRIES = [("single", 1, 1), ("multichannel", 1, 1), ("multichannel", 1, 2),
              ("multichannel", 2, 2), ("single", 2, 1)]


def run_doc(geometry, fields, wav_path=None):
    cfg = default_config("combined", duration_s=2.0, seed=7)
    cfg.duration_s = 0.25
    cfg.composition.switch_times_s = [0.125]
    cfg.controller.taps = 16
    cfg.sysid.taps = 12
    cfg.sysid.n_samples = 400
    cfg.fixed_filter.max_train_s = 1.0
    cfg.metrics.interval_s = 0.125
    cfg.metrics.segment_len = 256
    cfg.metrics.hop = 128
    doc = config_to_dict(cfg)
    doc["controller"]["kind"], doc["plant"]["n_sources"], doc["plant"]["n_mics"] = geometry
    for path, value in fields.items():
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    if wav_path is not None:
        doc["noise_sources"][1].update(name="rec", kind="wav-file", path=wav_path)
    return doc


RUN_LEAVES = sorted(_leaves(run_doc(GEOMETRIES[0], {})), key=str)


def within_budget(doc):
    """Whether a document that loads runs in a fraction of a second: at
    most 4000 samples of run and 32000 of training, 64 taps a filter or
    path, 4000 identification samples, a 2x2 plant and 2e5 spectrogram
    cells an arm (frames of segment_len / 2 bins). A document that does
    not load costs nothing."""
    try:
        cfg = config_from_dict(copy.deepcopy(doc))
    except ConfigError:
        return True
    rate, p, m = cfg.sample_rate_hz, cfg.plant, cfg.metrics
    n = cfg.duration_s * rate
    taps = [cfg.controller.taps, cfg.sysid.taps, p.primary.taps, p.secondary.taps,
            len(p.primary_taps), *(len(t) for row in p.secondary_taps for t in row)]
    return (n <= 4000 and cfg.fixed_filter.max_train_s * rate <= 32000 and max(taps) <= 64
            and cfg.sysid.n_samples <= 4000 and p.n_sources * p.n_mics <= 4
            and n / m.hop * m.segment_len <= 4e5)


@settings(max_examples=30)
@given(geometry=st.sampled_from(GEOMETRIES),
       fields=st.fixed_dictionaries({}, optional=RUN_FIELDS),
       wav=st.sampled_from([None] + WAV_SOURCES),
       leaf=st.none() | st.tuples(st.sampled_from(RUN_LEAVES), _VALUES))
@example(("single", 2, 1), {}, None, None)      # the kind's message named no field
@example(("single", 1, 1), {("sysid", "n_samples"): 1}, None, None)   # nor did auto mu's
@example(("single", 1, 1), {("noise_sources", 0, "high_hz"): 4000.0}, None, None)
@example(("multichannel", 2, 2), {("plant", "secondary", "delay"): 0,
                                  ("plant", "measurement_noise_std"): 0.02}, None, None)
@example(("multichannel", 1, 2), {("plant", "secondary", "delay"): 7,
                                  ("plant", "secondary", "taps"): 8,
                                  ("controller", "mu"): 5.0}, None, None)
@example(("single", 1, 1), {}, "valid", None)
# nor did an unusable recording's
@example(("single", 1, 1), {}, "missing", None)
@example(("multichannel", 1, 2), {}, "rate", None)
@example(("single", 1, 1), {}, "short", None)
@example(("multichannel", 2, 2), {}, "malformed", None)
# any leaf's value: a missing band edge named only its source, the rest
# ran until an error named no field, or until a sum overflowed
@example(("single", 1, 1), {}, None, (("noise_sources", 0, "high_hz"), None))
@example(("single", 1, 1), {}, None, (("noise_sources", 0, "low_hz"), 2000.0))
@example(("single", 1, 1), {}, None, (("metrics", "interval_s"), 1e-6))
@example(("single", 1, 1), {}, None, (("plant", "measurement_noise_std"), 1e308))
@example(("single", 1, 1), {}, None, (("plant", "primary", "decay"), 1e300))
@example(("single", 1, 1), {}, None, (("plant", "primary", "gain"), 1e308))
@example(("single", 1, 1), {}, None,
         (("noise_sources", 0, "tones"), [{"freq_hz": 100.0, "amplitude": 1e308}]))
@example(("single", 1, 1), {("composition", "mode"): "mix"}, None,
         (("composition", "gains"), [0.0, 0.0]))
@example(("single", 1, 1), {}, None, (("plant", "kind"), "explicit"))
@example(("single", 1, 1), {}, None, (("plant", "secondary", "gain"), 0.0))
@example(("single", 1, 1), {}, "valid", (("fixed_filter", "train_source"), 1))
# a run longer than a float can count raised OverflowError
@example(("single", 1, 1), {}, None, (("duration_s",), 1e308))
# schema_version's message named it, but the pattern did not know it
@example(("single", 1, 1), {}, None, (("schema_version",), 2))
# a diverged identification exported nothing and named no sample
@example(("single", 1, 1), {}, None, (("sysid", "mu"), 5.0))
# a silent disturbance: its noise reduction is the documented nan
@example(("single", 1, 1), {}, None, (("plant", "primary", "gain"), 0.0))
def test_any_drawn_config_runs_or_exits_with_its_code(geometry, fields, wav, leaf):
    # exit 0 with finite, non-empty CSVs; 2 naming a field, before
    # identification unless the rule needs its estimates (auto mu's); 3
    # with the divergence in summary.json; or 4. Never a traceback or exit
    # 1. A recording that is missing, at another rate or too short exits
    # 2, one that is no WAV stream 2 or 4
    if leaf is not None:
        fields = {**fields, leaf[0]: leaf[1]}
    identified = []
    resolve = scenario.resolve_estimates

    def watched(cfg):
        identified.append(True)
        return resolve(cfg)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "resolve_estimates", watched)
        cfg_path, out = os.path.join(tmp, "c.yaml"), os.path.join(tmp, "out")
        wav_path = None
        if wav is not None:
            wav_path = os.path.join(tmp, "rec.wav")
            write_wav_source(wav, wav_path, 0.125)
        doc = run_doc(geometry, fields, wav_path)
        assume(within_budget(doc))
        with open(cfg_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", cfg_path, "--out", out])
        message = err.getvalue()
        assert code in (0, 2, 3, 4), message
        if wav in ("missing", "rate", "short"):
            assert code == 2, message
        elif wav == "malformed":
            assert code in (2, 4), message
        if code == 2:
            assert FIELD_NAMED.search(message), message
            assert not identified or "controller.mu auto" in message, message
        elif code == 3 and not os.path.exists(out):
            # identification diverged: nothing is exported, and the
            # message names the path and the sample
            assert re.search(r"identification of path \(\d+, \d+\) diverged at sample \d+",
                             message), message
        elif code == 3:
            with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            diverged = [arm["diverged_at"] for arm in summary["arms"].values() if arm["diverged"]]
            assert diverged or summary["pretrain"]["diverged_at"] is not None
            assert all(isinstance(at, int) for at in diverged)
        elif code == 0:
            assert_exports_finite(out)


def assert_exports_finite(out):
    """Every CSV holds data rows of finite cells, but for the noise
    reduction dB the export documents as inf, -inf or nan: +inf where the
    error is silent, and any of them only in an interval whose disturbance
    is silent (the uncontrolled arm's own NR there is nan, 0/0)."""
    for name in sorted(os.listdir(out)):
        if not name.endswith(".csv"):
            continue
        rows = np.loadtxt(os.path.join(out, name), delimiter=",", skiprows=1, ndmin=2)
        assert rows.size, name
        if not name.split("_")[1].startswith("nr"):
            assert np.isfinite(rows).all(), name
            continue
        silent = np.isnan(np.loadtxt(os.path.join(out, "uncontrolled_" + name.split("_", 1)[1]),
                                     delimiter=",", skiprows=1, ndmin=2)[:, 2])
        nr = rows[:, 2]
        assert np.isfinite(rows[:, :2]).all(), name
        assert (np.isfinite(nr) | (nr == np.inf) | silent).all(), name
