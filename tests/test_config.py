"""Config schema: strictness, validation, round trips."""

import os
import re

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ancsim.config import (
    _LOADER,
    ExperimentConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from ancsim.errors import ConfigError
from ancsim.synth import ToneSpec


WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "workloads")


def minimal_doc():
    return {
        "schema_version": 1,
        "sample_rate_hz": 8000.0,
        "duration_s": 2.0,
        "seed": 1,
        "noise_sources": [
            {"name": "a", "kind": "band-noise", "low_hz": 100.0, "high_hz": 1000.0},
        ],
        "composition": {"mode": "mix"},
    }


class TestStrictness:
    def test_minimal_loads(self):
        cfg = config_from_dict(minimal_doc())
        assert cfg.sample_rate_hz == 8000.0
        assert cfg.controller.taps == 128

    def test_unknown_top_level_key(self):
        doc = minimal_doc()
        doc["sampel_rate_hz"] = 8000
        with pytest.raises(ConfigError, match="sampel_rate_hz"):
            config_from_dict(doc)

    def test_unknown_nested_key(self):
        doc = minimal_doc()
        doc["controller"] = {"taps": 64, "stepsize": 0.1}
        with pytest.raises(ConfigError, match="stepsize"):
            config_from_dict(doc)

    def test_unknown_source_key(self):
        doc = minimal_doc()
        doc["noise_sources"][0]["bandwidth"] = 3
        with pytest.raises(ConfigError, match="bandwidth"):
            config_from_dict(doc)

    def test_wrong_schema_version(self):
        doc = minimal_doc()
        doc["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict(doc)


class TestValidation:
    def test_band_above_nyquist(self):
        doc = minimal_doc()
        doc["noise_sources"][0]["high_hz"] = 4000.0
        with pytest.raises(ConfigError, match="Nyquist"):
            config_from_dict(doc)

    def test_switch_times_outside_duration(self):
        doc = minimal_doc()
        doc["noise_sources"].append(
            {"name": "b", "kind": "band-noise", "low_hz": 100.0, "high_hz": 900.0})
        doc["composition"] = {"mode": "concatenate", "switch_times_s": [5.0]}
        with pytest.raises(ConfigError, match="switch"):
            config_from_dict(doc)

    def test_switch_time_count(self):
        doc = minimal_doc()
        doc["composition"] = {"mode": "concatenate", "switch_times_s": [1.0]}
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_train_source_index(self):
        doc = minimal_doc()
        doc["fixed_filter"] = {"train_source": 3}
        with pytest.raises(ConfigError, match="train_source"):
            config_from_dict(doc)

    def test_mu_string_other_than_auto(self):
        doc = minimal_doc()
        doc["controller"] = {"mu": "fast"}
        with pytest.raises(ConfigError, match="auto"):
            config_from_dict(doc)

    def test_single_controller_needs_1x1_plant(self):
        doc = minimal_doc()
        doc["plant"] = {"n_sources": 2, "n_mics": 2}
        with pytest.raises(ConfigError, match="1x1"):
            config_from_dict(doc)

    @pytest.mark.parametrize("section, name", [
        ("controller", "taps"), ("sysid", "taps"), ("sysid", "n_samples"),
        ("export", "error_decimation"), ("metrics", "segment_len"), ("metrics", "hop"),
    ])
    @pytest.mark.parametrize("bad", [0, -4, "abc", 2.5, True, None])
    def test_integer_fields_must_be_positive_ints(self, section, name, bad):
        doc = minimal_doc()
        doc[section] = {name: bad}
        with pytest.raises(ConfigError, match=rf"{section}\.{name}"):
            config_from_dict(doc)

    @pytest.mark.parametrize("path", [
        "sample_rate_hz", "duration_s", "controller.mu_scale", "sysid.mu",
        "fixed_filter.max_train_s", "metrics.interval_s",
    ])
    @pytest.mark.parametrize("bad", [0, -1.5, "8k", "abc", True, None,
                                     float("nan"), float("inf")])
    def test_real_fields_must_be_finite_and_positive(self, path, bad):
        doc = minimal_doc()
        if "." in path:
            section, name = path.split(".")
            doc[section] = {name: bad}
        else:
            doc[path] = bad
        with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
            config_from_dict(doc)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, "half", None])
    def test_overlap_is_a_fraction(self, bad):
        doc = minimal_doc()
        doc["metrics"] = {"overlap": bad}
        with pytest.raises(ConfigError, match=r"metrics\.overlap"):
            config_from_dict(doc)

    @pytest.mark.parametrize("segment_len, hop, field", [
        (1000, 500, "metrics.segment_len"), (1536, 512, "metrics.segment_len"),
        (1024, 4096, "metrics.hop"), (256, 512, "metrics.hop"),
    ])
    def test_metric_geometry_checked_up_front(self, segment_len, hop, field):
        doc = minimal_doc()
        doc["metrics"] = {"segment_len": segment_len, "hop": hop}
        with pytest.raises(ConfigError, match=re.escape(field)):
            config_from_dict(doc)

    def test_metric_geometry_edges_accepted(self):
        doc = minimal_doc()
        doc["metrics"] = {"segment_len": 4, "hop": 1}
        assert config_from_dict(doc).metrics.segment_len == 4
        doc["metrics"] = {"segment_len": 512, "hop": 512}
        assert config_from_dict(doc).metrics.hop == 512
        doc["metrics"] = {"segment_len": 16384, "hop": 512}
        doc["duration_s"] = 2.048                    # exactly one frame of 16384 samples
        assert config_from_dict(doc).metrics.segment_len == 16384

    @pytest.mark.parametrize("segment_len", [1, 2])
    def test_segment_len_below_four_is_rejected(self, segment_len):
        # 1 passed the power-of-two test, and a 2-sample Hann window is all
        # zeros, so every PSD and spectrogram bin would be 0/0
        doc = minimal_doc()
        doc["metrics"] = {"segment_len": segment_len, "hop": 1}
        with pytest.raises(ConfigError, match=re.escape(
                f"metrics.segment_len must be a power of two of at least 4, got {segment_len}")):
            config_from_dict(doc)

    def test_segment_len_longer_than_the_run_is_rejected(self):
        # no frame would fit: every PSD and spectrogram CSV would be empty
        doc = minimal_doc()
        doc["metrics"] = {"segment_len": 32768, "hop": 512}
        with pytest.raises(ConfigError, match=re.escape(
                "metrics.segment_len 32768 is longer than the run's 16000 samples")):
            config_from_dict(doc)

    @pytest.mark.parametrize("seconds", [0.5, 0.999])
    def test_max_train_s_below_one_second_is_rejected(self, seconds):
        doc = minimal_doc()
        doc["fixed_filter"] = {"max_train_s": seconds}
        with pytest.raises(ConfigError, match=re.escape(
                f"fixed_filter.max_train_s {seconds} is below 1 s")):
            config_from_dict(doc)
        doc["fixed_filter"] = {"max_train_s": 1.0}
        assert config_from_dict(doc).fixed_filter.max_train_s == 1.0

    @pytest.mark.parametrize("bad", [-0.01, float("nan"), True, [0.1]])
    def test_numeric_mu_is_finite_and_non_negative(self, bad):
        doc = minimal_doc()
        doc["controller"] = {"mu": bad}
        with pytest.raises(ConfigError, match=r"controller\.mu"):
            config_from_dict(doc)

    def test_integral_sample_rate_is_accepted(self):
        doc = minimal_doc()
        doc["sample_rate_hz"] = 8000
        assert config_from_dict(doc).sample_rate_hz == 8000

    def test_interval_longer_than_run(self):
        doc = minimal_doc()
        doc["metrics"] = {"interval_s": 5.0}
        with pytest.raises(ConfigError, match=r"metrics\.interval_s"):
            config_from_dict(doc)
        doc["metrics"] = {"interval_s": doc["duration_s"]}
        assert config_from_dict(doc).metrics.interval_s == 2.0

    def test_multichannel_plant_accepted(self):
        doc = minimal_doc()
        doc["plant"] = {"n_sources": 2, "n_mics": 2}
        doc["controller"] = {"kind": "multichannel", "taps": 32}
        cfg = config_from_dict(doc)
        assert cfg.controller.kind == "multichannel"

    @pytest.mark.parametrize("kind, plant", [
        ("single", {}),
        ("multichannel", {"n_sources": 2, "n_mics": 2}),
    ])
    def test_n_refs_other_than_one_is_rejected_for_either_kind(self, kind, plant):
        # both kinds run as a 1xJxK grid over the one composed reference
        doc = minimal_doc()
        doc["plant"] = plant
        doc["controller"] = {"kind": kind, "n_refs": 2}
        with pytest.raises(ConfigError, match=r"controller\.n_refs must be 1, got 2"):
            config_from_dict(doc)
        doc["controller"]["n_refs"] = 1
        assert config_from_dict(doc).controller.n_refs == 1


def small_combined_doc():
    """The 2 s `combined` config as a document."""
    doc = config_to_dict(default_config("combined", duration_s=2.0, seed=7))
    doc["composition"]["switch_times_s"] = [1.0]
    return doc


def set_leaf(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


class TestFieldTypes:
    """Every field is checked from its annotation, and the error names the
    field's dotted path and the bad value."""

    @pytest.mark.parametrize("path, bad, named", [
        (("noise_sources", 0, "low_hz"), "x", "noise_sources[0].low_hz"),
        (("noise_sources", 1, "high_hz"), -5.0, "noise_sources[1].high_hz"),
        (("noise_sources", 0, "amplitude"), float("inf"), "noise_sources[0].amplitude"),
        (("noise_sources", 0, "phase_rad"), "x", "noise_sources[0].phase_rad"),
        (("noise_sources", 0, "kind"), "pink", "noise_sources[0].kind"),
        (("noise_sources", 0, "name"), 3, "noise_sources[0].name"),
        (("noise_sources", 0, "tones"), [{"bad": 1}], "noise_sources[0].tones[0]"),
        (("noise_sources", 0, "tones"), [{"freq_hz": "x"}],
         "noise_sources[0].tones[0].freq_hz"),
        (("noise_sources", 0, "tones"), [{"amplitude": 1.0}], "noise_sources[0].tones[0]"),
        (("noise_sources", 0, "tones"), {"freq_hz": 100.0}, "noise_sources[0].tones"),
        (("noise_sources", 0), "traffic", "noise_sources[0]"),
        (("noise_sources",), {"name": "a"}, "noise_sources"),
        (("composition", "switch_times_s"), ["a"], "composition.switch_times_s[0]"),
        (("composition", "switch_times_s"), 1.0, "composition.switch_times_s"),
        (("composition", "mode"), "sum", "composition.mode"),
        (("composition",), {"mode": "mix", "gains": ["a", "b"]}, "composition.gains[0]"),
        (("plant", "measurement_noise_std"), "x", "plant.measurement_noise_std"),
        (("plant", "measurement_noise_std"), -0.1, "plant.measurement_noise_std"),
        (("plant", "perturbation"), "x", "plant.perturbation"),
        (("plant", "seed"), "x", "plant.seed"),
        (("plant", "kind"), "measured", "plant.kind"),
        (("plant", "n_mics"), 0, "plant.n_mics"),
        (("plant", "primary", "taps"), "x", "plant.primary.taps"),
        (("plant", "secondary", "decay"), None, "plant.secondary.decay"),
        (("plant", "primary"), [8, 0.6, 32, 0.9], "plant.primary"),
        (("plant", "primary_taps"), [0.5, "x"], "plant.primary_taps[1]"),
        (("plant", "secondary_taps"), [[[0.5, None]]], "plant.secondary_taps[0][0][1]"),
        (("seed",), "x", "seed"),
        (("seed",), -1, "seed"),
        (("seed",), 1.0, "seed"),
        (("sysid", "seed"), -3, "sysid.seed"),
        (("sysid", "mode"), "guess", "sysid.mode"),
        (("controller", "kind"), "dual", "controller.kind"),
        (("controller", "n_refs"), "x", "controller.n_refs"),    # on a single-channel run
        (("fixed_filter", "min_improvement_db"), "x", "fixed_filter.min_improvement_db"),
        (("fixed_filter", "min_improvement_db"), float("nan"),
         "fixed_filter.min_improvement_db"),
        (("fixed_filter", "train_source"), "0", "fixed_filter.train_source"),
        (("fixed_filter", "train_source"), -1, "fixed_filter.train_source"),
        (("sample_rate_hz",), 10**400, "sample_rate_hz"),
        (("schema_version",), "1", "schema_version"),
        (("plant", "primary", "delay"), -1, "plant.primary.delay"),
        (("plant", "primary", "delay"), 40, "plant.primary.delay"),     # taps is 32
        (("plant", "secondary", "delay"), 16, "plant.secondary.delay"),  # taps is 16
        (("plant", "secondary", "taps"), 0, "plant.secondary.taps"),
        (("plant", "primary", "gain"), float("inf"), "plant.primary.gain"),
    ])
    def test_bad_value_names_its_path(self, path, bad, named):
        doc = small_combined_doc()
        set_leaf(doc, path, bad)
        with pytest.raises(ConfigError) as exc_info:
            config_from_dict(doc)
        message = str(exc_info.value)
        assert message.startswith(named), message
        if not isinstance(bad, (dict, list)):
            assert repr(bad) in message

    def test_tone_above_nyquist(self):
        doc = small_combined_doc()
        doc["noise_sources"][0]["tones"] = [{"freq_hz": 4000.0}]
        with pytest.raises(ConfigError, match="Nyquist"):
            config_from_dict(doc)

    def test_tones_load_as_specs(self):
        doc = small_combined_doc()
        doc["noise_sources"][0]["tones"] = [{"freq_hz": 120.0, "amplitude": 2}]
        cfg = config_from_dict(doc)
        spec = cfg.noise_sources[0].to_spec()
        assert spec.tones == (ToneSpec(120.0, 2),)
        assert config_to_dict(cfg)["noise_sources"][0]["tones"] == [
            {"freq_hz": 120.0, "amplitude": 2, "phase_rad": 0.0}]

    def test_values_are_not_converted(self):
        doc = small_combined_doc()
        doc["sample_rate_hz"] = 8000
        doc["plant"]["primary"]["gain"] = 1
        cfg = config_from_dict(doc)
        assert type(cfg.sample_rate_hz) is int
        assert type(cfg.plant.primary.gain) is int
        assert config_to_dict(cfg) == doc

    def test_validate_checks_fields_set_in_code(self):
        cfg = default_config("combined")
        cfg.seed = -1
        with pytest.raises(ConfigError, match="seed"):
            cfg.validate()
        cfg.seed = 1
        cfg.plant.measurement_noise_std = float("nan")
        with pytest.raises(ConfigError, match=re.escape("plant.measurement_noise_std")):
            cfg.validate()

    @pytest.mark.parametrize("where, mapping, named", [
        ("plant", {"kind": "synthetic"}, "plant must be a PlantConfig"),
        ("tones", {"freq_hz": 100.0}, "noise_sources[0].tones[0] must be a ToneSpec"),
    ])
    def test_validate_rejects_mappings_set_in_code(self, where, mapping, named):
        cfg = default_config("combined")
        if where == "plant":
            cfg.plant = mapping
        else:
            cfg.noise_sources[0].tones = [mapping]
        with pytest.raises(ConfigError, match=re.escape(named)):
            cfg.validate()

    def test_root_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            config_from_dict([1, 2])


def _leaves(doc, path=()):
    """Paths of the default document's leaves: scalars and lists of scalars."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(doc, list) and doc and isinstance(doc[0], dict):
        for i, value in enumerate(doc):
            yield from _leaves(value, path + (i,))
    else:
        yield path


_DEFAULT_LEAVES = sorted(_leaves(config_to_dict(default_config("combined"))), key=str)
_SCALARS = st.one_of(st.text(max_size=8), st.integers(), st.booleans(), st.none(),
                     st.floats(allow_nan=True, allow_infinity=True))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.integers(), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=400)
@given(path=st.sampled_from(_DEFAULT_LEAVES), value=_VALUES)
# a run longer than a float can count raised OverflowError
@example(("duration_s",), 1e308)
@example(("sample_rate_hz",), 1e308)
@example(("fixed_filter", "max_train_s"), 1e308)
def test_any_leaf_value_loads_or_raises_config_error(path, value):
    doc = config_to_dict(default_config("combined"))
    set_leaf(doc, path, value)
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    got = config_to_dict(cfg)
    for key in path:
        got = got[key]
    if not isinstance(value, list):
        assert type(got) is type(value) and got == value


@settings(max_examples=200)
@given(path=st.sampled_from(_DEFAULT_LEAVES), value=_VALUES)
def test_libyaml_reads_any_document_as_the_python_loader(path, value):
    # load_config parses with libyaml where PyYAML has it; documents must
    # not depend on which parser read them (repr: nan equals nan)
    doc = config_to_dict(default_config("combined"))
    set_leaf(doc, path, value)
    text = yaml.safe_dump(doc)
    assert repr(yaml.load(text, Loader=_LOADER)) == repr(yaml.load(text, Loader=yaml.SafeLoader))


@pytest.mark.parametrize("name", sorted(os.listdir(WORKLOADS)))
def test_libyaml_reads_every_workload_as_the_python_loader(name):
    with open(os.path.join(WORKLOADS, name), encoding="utf-8") as fh:
        text = fh.read()
    assert yaml.load(text, Loader=_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


def test_readme_config_block_is_the_combined_default():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Configuration"):]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    cfg = config_from_dict(yaml.safe_load(block))
    assert config_to_dict(cfg) == config_to_dict(default_config("combined"))


class TestRoundTrip:
    def test_yaml_save_load(self, tmp_path):
        cfg = default_config("combined")
        path = tmp_path / "cfg.yaml"
        save_config(path, cfg)
        back = load_config(path)
        assert config_to_dict(back) == config_to_dict(cfg)
        assert config_hash(back) == config_hash(cfg)

    def test_json_is_valid_yaml_input(self, tmp_path):
        import json
        cfg = default_config("mixed")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        back = load_config(path)
        assert config_hash(back) == config_hash(cfg)

    def test_hash_sensitive_to_changes(self):
        a = default_config("combined")
        b = default_config("combined")
        b.seed += 1
        assert config_hash(a) != config_hash(b)

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("noise_sources: [unclosed")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_config(path)


class TestDefaults:
    def test_combined_default(self):
        cfg = default_config("combined")
        assert cfg.composition.mode == "concatenate"
        assert cfg.composition.switch_times_s == [10.0]
        assert [s.name for s in cfg.noise_sources] == ["traffic", "aircraft"]
        # aircraft band's 14 kHz nominal edge capped below Nyquist
        assert cfg.noise_sources[1].high_hz == pytest.approx(0.95 * 4000.0)
        assert cfg.noise_sources[0].high_hz == 1400.0

    def test_mixed_default(self):
        cfg = default_config("mixed")
        assert cfg.composition.mode == "mix"
        assert cfg.composition.gains == [2.0, 1.0]
        assert cfg.controller.mu_scale == 0.05

    def test_yaml_emits_plain_scalars(self, tmp_path):
        path = tmp_path / "c.yaml"
        save_config(path, default_config())
        doc = yaml.safe_load(path.read_text())
        assert isinstance(doc["sample_rate_hz"], float)
        assert doc["schema_version"] == 1
