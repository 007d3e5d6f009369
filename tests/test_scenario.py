"""Scenario orchestration: arm isolation, pre-training, divergence, exports."""

import json

import numpy as np
import pytest

from ancsim.acoustics import PathSpec
from ancsim.config import (
    CompositionConfig,
    ExperimentConfig,
    PlantConfig,
    SourceConfig,
    default_config,
)
from ancsim.filters import FirFilter
from ancsim.reporting import export_report, summary_dict
from ancsim.scenario import build_plant, build_reference, run_scenario


def small_config(**overrides):
    cfg = default_config("combined", duration_s=2.0, seed=11)
    cfg.composition.switch_times_s = [1.0]
    cfg.controller.taps = 48
    cfg.sysid.taps = 24
    cfg.sysid.n_samples = 8000
    cfg.fixed_filter.max_train_s = 4.0
    cfg.metrics.segment_len = 512
    cfg.metrics.hop = 256
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg.validate()


@pytest.fixture(scope="module")
def small_result():
    return run_scenario(small_config())


class TestArms:
    def test_uncontrolled_equals_primary_filtering_exactly(self, small_result):
        cfg = small_result.config
        x = build_reference(cfg)
        primary = build_plant(cfg).primaries[0]
        expected = FirFilter(primary).process(x.samples)
        assert np.array_equal(small_result.arms["uncontrolled"].error, expected)

    def test_all_arms_share_disturbance_length(self, small_result):
        n = len(small_result.reference)
        for arm in small_result.arms.values():
            assert arm.error.shape[0] == n

    def test_adaptive_attenuates(self, small_result):
        assert small_result.arms["adaptive"].reports[0].snr_db > 5.0

    def test_fixed_beats_adaptive_in_first_interval(self, small_result):
        nr_fixed = small_result.arms["fixed"].reports[0].nr_per_interval_db
        nr_adaptive = small_result.arms["adaptive"].reports[0].nr_per_interval_db
        assert nr_fixed[0] > nr_adaptive[0]

    def test_provenance_block(self, small_result):
        prov = small_result.provenance
        assert set(prov) >= {"config_hash", "seed", "version", "mu"}
        assert prov["seed"] == 11


class TestTrivialPlant:
    def test_silent_everything_gives_undefined_markers(self):
        cfg = small_config()
        cfg.plant = PlantConfig(
            kind="explicit", n_sources=1, n_mics=1,
            primary_taps=[0.0], secondary_taps=[[[0.0, 1.0]]])
        cfg.controller.mu = 0.001
        result = run_scenario(cfg)
        for arm in result.arms.values():
            nr = arm.reports[0].nr_per_interval_db
            assert np.all(np.isnan(nr))
            assert np.isnan(arm.reports[0].snr_db)


class TestPretrainReplay:
    def test_replay_on_training_environment_within_1db(self):
        # stationary single-source scenario: frozen filter must track the
        # adaptive arm's final-second performance
        cfg = small_config()
        cfg.noise_sources = [SourceConfig(name="traffic", kind="band-noise",
                                          low_hz=40.0, high_hz=1400.0)]
        cfg.composition = CompositionConfig(mode="concatenate", switch_times_s=[])
        cfg.duration_s = 4.0
        cfg.fixed_filter.max_train_s = 8.0
        cfg.validate()
        result = run_scenario(cfg)
        adaptive_last = result.arms["adaptive"].reports[0].nr_per_interval_db[-1]
        fixed_last = result.arms["fixed"].reports[0].nr_per_interval_db[-1]
        assert fixed_last > adaptive_last - 1.0

    def test_pretrain_plateau_rule(self, small_result):
        info = small_result.pretrain
        assert info.seconds_trained >= 2
        if info.plateau_reached:
            assert (info.nr_per_second_db[-1] - info.nr_per_second_db[-2]
                    < small_result.config.fixed_filter.min_improvement_db)


class TestDivergenceHandling:
    def test_partial_result_with_flag(self):
        cfg = small_config()
        cfg.controller.mu = 5.0  # far beyond any stability bound
        result = run_scenario(cfg)
        arm = result.arms["adaptive"]
        assert arm.diverged
        assert arm.error.shape[0] < len(result.reference)
        assert result.any_diverged
        summary = summary_dict(result)
        assert summary["arms"]["adaptive"]["diverged"] is True
        assert isinstance(summary["arms"]["adaptive"]["diverged_at"], int)

    @pytest.mark.parametrize("kind", ["single", "multichannel"])
    def test_mse_trace_keeps_the_tripping_sample(self, kind, tmp_path):
        # both kinds write one mse row per error row, the sample whose
        # update tripped the guard included
        cfg = small_config()
        cfg.controller.mu = 5.0
        cfg.export.error_decimation = 1
        if kind == "multichannel":
            cfg.plant = PlantConfig(kind="synthetic", n_sources=2, n_mics=2, seed=5)
            cfg.controller.kind = "multichannel"
            cfg.controller.taps = 32
            cfg.sysid.mode = "exact"
        result = run_scenario(cfg.validate())
        arm = result.arms["adaptive"]
        assert arm.diverged
        export_report(result, tmp_path)
        suffix = "_mic0" if kind == "multichannel" else ""
        error_rows = (tmp_path / f"adaptive_error{suffix}.csv").read_text().splitlines()
        mse_rows = (tmp_path / "mse_trace.csv").read_text().splitlines()
        assert len(mse_rows) == len(error_rows) == arm.error.shape[0] + 1


class TestMseTrace:
    @pytest.mark.parametrize("kind", ["single", "multichannel"])
    def test_mse_trace_is_each_exported_rows_dot(self, kind):
        # e(n).e(n) per exported error row, as McAncController.step forms
        # the cost, sign bits included
        cfg = small_config()
        cfg.duration_s = 1.0
        cfg.composition.switch_times_s = [0.5]
        cfg.fixed_filter.max_train_s = 1.0
        cfg.export.error_decimation = 5
        if kind == "multichannel":
            cfg.plant = PlantConfig(kind="synthetic", n_sources=2, n_mics=2, seed=5)
            cfg.controller.kind = "multichannel"
            cfg.controller.taps = 32
            cfg.sysid.mode = "exact"
        result = run_scenario(cfg.validate())
        error = result.arms["adaptive"].error
        error_rows = error.reshape(len(error), -1)
        want = np.array([float(e.dot(e)) for e in error_rows[::result.mse_stride]])
        assert result.mse_stride == 5
        assert np.array_equal(result.mse_trace, want)
        assert np.array_equal(np.signbit(result.mse_trace), np.signbit(want))


class TestExport:
    def test_files_written(self, small_result, tmp_path):
        files = export_report(small_result, tmp_path)
        expected = {
            "summary.json", "mse_trace.csv",
            "adaptive_error.csv", "adaptive_nr.csv", "adaptive_psd.csv",
            "adaptive_spectrogram.csv",
            "fixed_error.csv", "fixed_nr.csv", "fixed_psd.csv",
            "fixed_spectrogram.csv",
            "uncontrolled_error.csv", "uncontrolled_nr.csv", "uncontrolled_psd.csv",
            "uncontrolled_spectrogram.csv",
            "adaptive_weights.anw", "adaptive_weights.json",
            "fixed_weights.anw", "fixed_weights.json",
        }
        assert set(files) == expected
        for name in expected:
            assert (tmp_path / name).exists()

    def test_json_summary_round_trip_equals_memory(self, small_result, tmp_path):
        export_report(small_result, tmp_path)
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == summary_dict(small_result)
        snr = on_disk["arms"]["adaptive"]["snr_db"][0]
        assert snr == small_result.arms["adaptive"].reports[0].snr_db

    def test_csv_headers(self, small_result, tmp_path):
        export_report(small_result, tmp_path)
        heads = {
            "adaptive_error.csv": "sample_index,time_s,reference,error",
            "adaptive_nr.csv": "interval_index,start_s,nr_db",
            "adaptive_psd.csv": "freq_hz,power_db",
            "adaptive_spectrogram.csv": "frame_index,time_s,freq_hz,power_db",
            "mse_trace.csv": "sample_index,mse",
        }
        for name, header in heads.items():
            first = (tmp_path / name).read_text().splitlines()[0]
            assert first == header

    def test_error_decimation_respected(self, small_result, tmp_path):
        export_report(small_result, tmp_path)
        n_rows = len((tmp_path / "adaptive_error.csv").read_text().splitlines()) - 1
        expected = int(np.ceil(len(small_result.reference)
                               / small_result.config.export.error_decimation))
        assert n_rows == expected

    def test_weight_snapshots_load_back(self, small_result, tmp_path):
        from ancsim.serialization import load_weights_binary, load_weights_json
        export_report(small_result, tmp_path)
        snap = load_weights_binary(tmp_path / "adaptive_weights.anw")
        assert np.array_equal(snap.weights, small_result.adaptive_weights)
        snap_j = load_weights_json(tmp_path / "fixed_weights.json")
        assert np.array_equal(snap_j.weights, small_result.fixed_weights)

    def test_byte_identical_across_invocations(self, tmp_path):
        cfg_a = small_config()
        cfg_b = small_config()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        export_report(run_scenario(cfg_a), out_a)
        export_report(run_scenario(cfg_b), out_b)
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestMultichannelScenario:
    def test_1x2x2_runs_and_reports_per_mic(self):
        cfg = small_config()
        cfg.plant = PlantConfig(kind="synthetic", n_sources=2, n_mics=2, seed=5,
                                primary=PathSpec(8, 0.6, 32, 0.9),
                                secondary=PathSpec(4, 0.5, 16, 0.5))
        cfg.controller.kind = "multichannel"
        cfg.controller.taps = 32
        cfg.sysid.mode = "exact"
        cfg.validate()
        result = run_scenario(cfg)
        assert len(result.arms["adaptive"].reports) == 2
        assert result.arms["adaptive"].error.shape[1] == 2
        assert result.adaptive_weights.shape == (1, 2, 32)
        for rep in result.arms["adaptive"].reports:
            assert rep.snr_db > 3.0

    def test_multichannel_export(self, tmp_path):
        cfg = small_config()
        cfg.plant = PlantConfig(kind="synthetic", n_sources=1, n_mics=2, seed=6)
        cfg.controller.kind = "multichannel"
        cfg.controller.taps = 32
        cfg.sysid.mode = "exact"
        cfg.validate()
        result = run_scenario(cfg)
        files = export_report(result, tmp_path)
        assert "adaptive_error_mic0.csv" in files
        assert "adaptive_error_mic1.csv" in files
        assert "adaptive_weights.anw" in files

    def test_single_mic_grid_reports_every_arm(self):
        cfg = small_config()
        cfg.plant = PlantConfig(kind="synthetic", n_sources=2, n_mics=1, seed=8)
        cfg.controller.kind = "multichannel"
        cfg.controller.taps = 24
        cfg.sysid.mode = "exact"
        cfg.validate()
        result = run_scenario(cfg)
        for arm in result.arms.values():
            assert arm.error.shape == (len(result.reference), 1)
            assert len(arm.reports) == 1
