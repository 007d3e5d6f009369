"""Config schema: strictness, validation, round trips."""

import pytest
import yaml

from ancsim.config import (
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from ancsim.errors import ConfigError


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
        ("export", "error_decimation"),
    ])
    @pytest.mark.parametrize("bad", [0, -4, "abc", 2.5, True, None])
    def test_integer_fields_must_be_positive_ints(self, section, name, bad):
        doc = minimal_doc()
        doc[section] = {name: bad}
        with pytest.raises(ConfigError, match=rf"{section}\.{name}"):
            config_from_dict(doc)

    def test_multichannel_plant_accepted(self):
        doc = minimal_doc()
        doc["plant"] = {"n_sources": 2, "n_mics": 2}
        doc["controller"] = {"kind": "multichannel", "taps": 32}
        cfg = config_from_dict(doc)
        assert cfg.controller.kind == "multichannel"


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
