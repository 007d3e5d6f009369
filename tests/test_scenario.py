"""Scenario orchestration: arm isolation, pre-training, divergence, exports."""

import json
import os
import re

import numpy as np
import pytest

from ancsim import loops, scenario
from ancsim.acoustics import PathSpec
from ancsim.config import (
    CompositionConfig,
    ExperimentConfig,
    PlantConfig,
    SourceConfig,
    default_config,
)
from ancsim.filters import FirFilter, fir
from ancsim.reporting import export_report, summary_dict
from ancsim.scenario import build_plant, build_reference, run_scenario
from ancsim.serialization import (
    FilterSnapshot,
    GridSnapshot,
    load_weights_binary,
    load_weights_json,
)


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
        assert np.array_equal(small_result.arms["uncontrolled"].error[:, 0], expected)

    def test_all_arms_share_disturbance_length(self, small_result):
        n = small_result.arms["uncontrolled"].error.shape[0]
        assert n == len(build_reference(small_result.config))
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


class TestStages:
    @pytest.mark.parametrize("duration_s, max_train_s, packing", [
        (3.0, 2.0, {"pretrain": [2, 2], "adaptive": [1]}),
        (1.5, 2.0, {"pretrain": [2, 1], "adaptive": [1]}),
        (2.0, 3.0, {"pretrain": [2, 2, 1]}),
    ], ids=["1s_rest", "half_rest", "no_rest"])
    def test_nine_stages_in_order_each_owning_its_adaptive_calls(self, monkeypatch, duration_s,
                                                                 max_train_s, packing):
        # the uncontrolled stage's disturbance comes first; then each
        # pre-training second is one `run_lanes` call inside `pretrain`,
        # two lanes while the adaptive arm has a second left, and the arm
        # runs what is left of it alone inside `adaptive`, which makes no
        # call when nothing is left
        calls = []
        run_lanes = loops.run_lanes

        def counted(lanes):
            calls.append(len(lanes))
            return run_lanes(lanes)

        monkeypatch.setattr(loops, "run_lanes", counted)
        cfg = small_config(duration_s=duration_s)
        cfg.composition.switch_times_s = [duration_s / 2]
        cfg.fixed_filter.max_train_s = max_train_s
        per_stage = {}
        for stage, product in scenario.scenario_stages(cfg):
            per_stage[stage] = calls[sum(map(len, per_stage.values())):]
            if stage == "pretrain":
                seconds_trained = product[1].seconds_trained
        assert list(per_stage) == ["reference", "identification", "mu", "training",
                                   "uncontrolled", "pretrain", "adaptive", "fixed",
                                   "reports"]
        assert seconds_trained == len(packing["pretrain"])
        assert per_stage == {**dict.fromkeys(per_stage, []), **packing}
        assert isinstance(product, scenario.ScenarioResult)


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

    def test_silent_training_second_is_undefined_as_in_every_arm(self):
        # zero disturbance and zero error power over a second is 0/0: NaN,
        # "undefined" in summary.json, as the arms' intervals read it; a
        # NaN step is no improvement, so the plateau rule stops training
        # after the second such second
        cfg = small_config()
        cfg.noise_sources[0] = SourceConfig(name="silent", kind="tone",
                                            freq_hz=200.0, amplitude=0.0)
        result = run_scenario(cfg.validate())
        summary = summary_dict(result)
        assert summary["pretrain"]["nr_per_second_db"] == ["undefined"] * 2
        assert summary["pretrain"]["plateau_reached"] is True
        assert summary["arms"]["adaptive"]["nr_per_interval_db"][0][0] == "undefined"

    def test_pretrain_plateau_rule(self, small_result):
        info = small_result.pretrain
        assert info.seconds_trained >= 2
        if info.plateau_reached:      # a NaN step counts as no improvement
            assert not (info.nr_per_second_db[-1] - info.nr_per_second_db[-2]
                        >= small_result.config.fixed_filter.min_improvement_db)


class TestDivergenceHandling:
    def test_partial_result_with_flag(self):
        cfg = small_config()
        cfg.controller.mu = 5.0  # far beyond any stability bound
        result = run_scenario(cfg)
        arm = result.arms["adaptive"]
        assert arm.diverged
        assert arm.error.shape[0] < result.arms["uncontrolled"].error.shape[0]
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
        expected = int(np.ceil(small_result.arms["uncontrolled"].error.shape[0]
                               / small_result.config.export.error_decimation))
        assert n_rows == expected

    def test_weight_snapshots_load_back(self, small_result, tmp_path):
        export_report(small_result, tmp_path)
        snap = load_weights_binary(tmp_path / "adaptive_weights.anw")
        # a single-channel run exports its one filter of the (1, 1, L) grid
        assert np.array_equal(snap.weights, small_result.adaptive_weights[0, 0])
        snap_j = load_weights_json(tmp_path / "fixed_weights.json")
        assert np.array_equal(snap_j.weights, small_result.fixed_weights[0, 0])

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

    def test_auto_mu_takes_the_largest_path_power_as_each_path_alone_gives_it(self):
        # one `fir` call over the grid: each path's power has the bits of
        # its own pass and mean, and the largest sets mu
        cfg = small_config()
        cfg.plant = PlantConfig(kind="synthetic", n_sources=2, n_mics=2, seed=5)
        cfg.controller.kind = "multichannel"
        cfg.validate()
        reference = build_reference(cfg)
        aligned, _ = scenario.resolve_estimates(cfg)
        powers = [float(np.mean(fir(path, reference.samples) ** 2))
                  for path in aligned.reshape(-1, aligned.shape[-1])]
        assert len(set(powers)) == 4
        want = cfg.controller.mu_scale * 2.0 / (4 * cfg.controller.taps * max(powers))
        assert scenario.resolve_mu(cfg, reference, aligned) == want

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
            assert arm.error.shape == (result.arms["uncontrolled"].error.shape[0], 1)
            assert len(arm.reports) == 1


def one_by_one(kind, mu):
    """A 1 s, 1x1 `combined` config run by the given controller kind."""
    cfg = small_config()
    cfg.duration_s = 1.0
    cfg.composition.switch_times_s = [0.5]
    cfg.fixed_filter.max_train_s = 2.0
    cfg.controller.kind = kind
    cfg.controller.mu = mu
    return cfg.validate()


def export_both(tmp_path, single_mu, multi_mu):
    """Run and export the 1x1 config as `single` and as `multichannel`;
    returns (result, out dir) for each, in that order."""
    runs = []
    for kind, mu in (("single", single_mu), ("multichannel", multi_mu)):
        result = run_scenario(one_by_one(kind, mu))
        export_report(result, tmp_path / kind)
        runs.append((result, tmp_path / kind))
    return runs


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestSingleIsAnExportFormat:
    """Both controller kinds run the same 1x1x1 grid on a 1x1 plant. The
    single-channel mu is half the multichannel one (its update carries 2
    mu); the kind changes only the snapshot format and the divergence
    coordinates in the export."""

    def test_kinds_export_the_same_csvs_and_weights(self, tmp_path):
        (single, out_s), (multi, out_m) = export_both(tmp_path, "auto", "auto")
        csvs = sorted(name for name in os.listdir(out_s) if name.endswith(".csv"))
        assert len(csvs) == 13
        assert csvs == sorted(name for name in os.listdir(out_m) if name.endswith(".csv"))
        for name in csvs:
            assert (out_s / name).read_bytes() == (out_m / name).read_bytes(), name

        sum_s = json.loads((out_s / "summary.json").read_text())
        sum_m = json.loads((out_m / "summary.json").read_text())
        assert sum_m["mu"] == 2.0 * sum_s["mu"] == 2.0 * single.mu
        assert sum_m["pretrain"]["mu"] == 2.0 * sum_s["pretrain"]["mu"]

        for stem in ("adaptive_weights", "fixed_weights"):
            for load, ext in ((load_weights_binary, ".anw"), (load_weights_json, ".json")):
                snap_s, snap_m = load(out_s / (stem + ext)), load(out_m / (stem + ext))
                assert isinstance(snap_s, FilterSnapshot)
                assert isinstance(snap_m, GridSnapshot)
                assert_same_bits(snap_s.weights, snap_m.weights[0, 0])
                assert_same_bits(snap_s.sec_path_estimate, snap_m.sec_path_estimates[0, 0])
        assert_same_bits(single.adaptive_weights, multi.adaptive_weights)

    def test_divergence_coordinates_are_null_for_single(self, tmp_path):
        (single, out_s), (multi, out_m) = export_both(tmp_path, 5.0, 10.0)
        arms_s = json.loads((out_s / "summary.json").read_text())["arms"]
        arms_m = json.loads((out_m / "summary.json").read_text())["arms"]
        at = arms_s["adaptive"]["diverged_at"]
        n = single.arms["uncontrolled"].error.shape[0]
        assert at == arms_m["adaptive"]["diverged_at"] and 0 < at < n
        assert arms_s["adaptive"]["diverged_coords"] is None
        assert arms_m["adaptive"]["diverged_coords"] == [0, 0]
        # in memory both kinds hold the grid's coordinates
        assert (single.arms["adaptive"].diverged_coords
                == multi.arms["adaptive"].diverged_coords == (0, 0))


def test_readme_library_block_runs():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    loop = namespace["loop"]
    assert loop.error.shape == (40_000, 1) and loop.output.shape == (40_000, 1)
    assert loop.final_weights.shape == (1, 1, 64)
    assert loop.diverged_at is None
