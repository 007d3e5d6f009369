"""Experiment configuration: a strict, versioned YAML/JSON tree.

Unknown keys are errors, not warnings; a silently ignored typo would
invalidate a comparison. `default_config` builds the desk-scale setup:
8 kHz, 20 s, 128 control taps, 64 estimate taps, surrogate traffic and
aircraft bands. The aircraft surrogate's nominal 14 kHz upper edge is
capped at 95% of Nyquist when the rate cannot carry it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

import yaml

from .acoustics import PathSpec
from .errors import ConfigError
from .synth import BandNoiseSpec, ToneSpec, WavFileSpec

SCHEMA_VERSION = 1


@dataclass
class SourceConfig:
    name: str
    kind: str                       # tone | band-noise | wav-file
    freq_hz: float | None = None
    amplitude: float = 1.0
    phase_rad: float = 0.0
    low_hz: float | None = None
    high_hz: float | None = None
    tones: list = field(default_factory=list)
    path: str | None = None

    def to_spec(self):
        if self.kind == "tone":
            if self.freq_hz is None:
                raise ConfigError(f"source {self.name}: tone needs freq_hz")
            return ToneSpec(self.freq_hz, self.amplitude, self.phase_rad)
        if self.kind == "band-noise":
            if self.low_hz is None or self.high_hz is None:
                raise ConfigError(f"source {self.name}: band-noise needs low_hz and high_hz")
            tones = tuple(ToneSpec(**t) for t in self.tones)
            return BandNoiseSpec(self.low_hz, self.high_hz, tones)
        if self.kind == "wav-file":
            if not self.path:
                raise ConfigError(f"source {self.name}: wav-file needs path")
            return WavFileSpec(self.path)
        raise ConfigError(f"source {self.name}: unknown kind {self.kind!r}")


@dataclass
class CompositionConfig:
    mode: str = "concatenate"       # concatenate | mix
    switch_times_s: list = field(default_factory=list)
    gains: list = field(default_factory=list)


@dataclass
class PathConfig:
    delay: int
    decay: float
    taps: int
    gain: float

    def to_spec(self) -> PathSpec:
        return PathSpec(self.delay, self.decay, self.taps, self.gain)


@dataclass
class PlantConfig:
    kind: str = "synthetic"         # synthetic | explicit
    n_sources: int = 1
    n_mics: int = 1
    seed: int = 77
    measurement_noise_std: float = 0.0
    primary: PathConfig = field(default_factory=lambda: PathConfig(8, 0.6, 32, 0.9))
    secondary: PathConfig = field(default_factory=lambda: PathConfig(4, 0.5, 16, 0.5))
    perturbation: float = 0.1
    primary_taps: list = field(default_factory=list)      # explicit kind
    secondary_taps: list = field(default_factory=list)    # explicit kind, [J][K][taps]


@dataclass
class ControllerConfig:
    kind: str = "single"            # single | multichannel
    taps: int = 128
    mu: float | str = "auto"
    mu_scale: float = 0.1           # fraction of the estimated bound when mu == auto
    n_refs: int = 1


@dataclass
class SysidConfig:
    mode: str = "identify"          # identify | exact
    taps: int = 64
    mu: float = 0.01
    n_samples: int = 50_000
    seed: int = 31


@dataclass
class FixedFilterConfig:
    train_source: int = 0           # index into noise_sources
    min_improvement_db: float = 0.1
    max_train_s: float = 30.0


@dataclass
class MetricsConfig:
    interval_s: float = 1.0
    segment_len: int = 1024
    overlap: float = 0.5
    hop: int = 512


@dataclass
class ExportConfig:
    error_decimation: int = 8


@dataclass
class ExperimentConfig:
    sample_rate_hz: float = 8000.0
    duration_s: float = 20.0
    seed: int = 2024
    noise_sources: list = field(default_factory=list)
    composition: CompositionConfig = field(default_factory=CompositionConfig)
    plant: PlantConfig = field(default_factory=PlantConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    sysid: SysidConfig = field(default_factory=SysidConfig)
    fixed_filter: FixedFilterConfig = field(default_factory=FixedFilterConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    export: ExportConfig = field(default_factory=ExportConfig)
    schema_version: int = SCHEMA_VERSION

    def validate(self) -> "ExperimentConfig":
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version {self.schema_version} unsupported; this build "
                f"reads version {SCHEMA_VERSION}")
        if self.sample_rate_hz <= 0:
            raise ConfigError("sample_rate_hz must be positive")
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if not self.noise_sources:
            raise ConfigError("at least one noise source is required")
        if self.composition.mode not in ("concatenate", "mix"):
            raise ConfigError(f"unknown composition mode {self.composition.mode!r}")
        if self.composition.mode == "concatenate":
            times = self.composition.switch_times_s
            if len(times) != len(self.noise_sources) - 1:
                raise ConfigError(
                    f"{len(self.noise_sources)} sources need "
                    f"{len(self.noise_sources) - 1} switch times, got {len(times)}")
            if any(not (0 < t < self.duration_s) for t in times):
                raise ConfigError("switch times must lie inside (0, duration_s)")
            if sorted(times) != list(times):
                raise ConfigError("switch times must be increasing")
        else:
            if self.composition.gains and len(self.composition.gains) != len(self.noise_sources):
                raise ConfigError("one gain per source is required when gains are given")
        nyquist = self.sample_rate_hz / 2
        for src in self.noise_sources:
            for edge in (src.freq_hz, src.low_hz, src.high_hz):
                if edge is not None and edge >= nyquist:
                    raise ConfigError(
                        f"source {src.name}: {edge} Hz is not below Nyquist ({nyquist} Hz)")
            if src.kind == "wav-file" and src.path and not os.path.exists(src.path):
                raise ConfigError(f"source {src.name}: file {src.path} does not exist")
        if self.plant.kind not in ("synthetic", "explicit"):
            raise ConfigError(f"unknown plant kind {self.plant.kind!r}")
        if self.controller.kind not in ("single", "multichannel"):
            raise ConfigError(f"unknown controller kind {self.controller.kind!r}")
        if self.controller.kind == "single" and (self.plant.n_sources != 1
                                                 or self.plant.n_mics != 1):
            raise ConfigError("single-channel controller needs a 1x1 plant")
        if self.controller.kind == "multichannel" and self.controller.n_refs != 1:
            raise ConfigError("scenario runs feed one composed reference; n_refs must be 1")
        if isinstance(self.controller.mu, str) and self.controller.mu != "auto":
            raise ConfigError(f"controller mu must be a number or 'auto', got "
                              f"{self.controller.mu!r}")
        if self.sysid.mode not in ("identify", "exact"):
            raise ConfigError(f"unknown sysid mode {self.sysid.mode!r}")
        if not (0 <= self.fixed_filter.train_source < len(self.noise_sources)):
            raise ConfigError(
                f"fixed_filter.train_source {self.fixed_filter.train_source} does not "
                f"index noise_sources")
        if self.metrics.interval_s <= 0:
            raise ConfigError("metrics.interval_s must be positive")
        for section, name in (("controller", "taps"), ("sysid", "taps"),
                              ("sysid", "n_samples"), ("export", "error_decimation")):
            value = getattr(getattr(self, section), name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(
                    f"{section}.{name} must be a positive integer, got {value!r}")
        return self


_SECTION_TYPES = {
    "composition": CompositionConfig,
    "plant": PlantConfig,
    "controller": ControllerConfig,
    "sysid": SysidConfig,
    "fixed_filter": FixedFilterConfig,
    "metrics": MetricsConfig,
    "export": ExportConfig,
}


def _build(cls, mapping: dict, path: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(mapping).__name__}")
    fields = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(mapping) - fields
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in mapping.items():
        if key in ("primary", "secondary") and cls is PlantConfig:
            value = _build(PathConfig, value, f"{path}.{key}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    top_fields = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}
    unknown = set(doc) - top_fields
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    kwargs: dict = {}
    for key, value in doc.items():
        if key == "noise_sources":
            if not isinstance(value, list):
                raise ConfigError("noise_sources must be a list")
            kwargs[key] = [_build(SourceConfig, s, f"noise_sources[{i}]")
                           for i, s in enumerate(value)]
        elif key in _SECTION_TYPES:
            kwargs[key] = _build(_SECTION_TYPES[key], value, key)
        else:
            kwargs[key] = value
    return ExperimentConfig(**kwargs).validate()


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if doc is None:
        raise ConfigError(f"{path}: empty config")
    return config_from_dict(doc)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def save_config(path, cfg: ExperimentConfig) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=True)


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def capped_band(low_hz: float, high_hz: float, sample_rate_hz: float) -> tuple[float, float]:
    """Clamp a nominal band's upper edge to 95% of Nyquist."""
    return low_hz, min(high_hz, 0.95 * sample_rate_hz / 2)


def default_config(scenario: str = "combined", sample_rate_hz: float = 8000.0,
                   duration_s: float = 20.0, seed: int = 2024) -> ExperimentConfig:
    """Desk-scale surrogate of the evaluation scenarios.

    `combined` concatenates a traffic-band segment and an aircraft-band
    segment with the switch at mid-run; `mixed` sums the two bands with
    the traffic component dominant and a slower default step size, which
    keeps the frozen filter ahead during the first interval as in the
    reference comparisons. The fixed filter trains on the first (traffic)
    source in both, so the evaluation probes how a filter frozen for one
    environment behaves when the noise leaves that environment.
    """
    t_lo, t_hi = capped_band(40.0, 1400.0, sample_rate_hz)
    a_lo, a_hi = capped_band(50.0, 14000.0, sample_rate_hz)
    traffic = SourceConfig(name="traffic", kind="band-noise", low_hz=t_lo, high_hz=t_hi)
    aircraft = SourceConfig(name="aircraft", kind="band-noise", low_hz=a_lo, high_hz=a_hi)
    controller = ControllerConfig()
    if scenario == "combined":
        composition = CompositionConfig(mode="concatenate",
                                        switch_times_s=[duration_s / 2])
    elif scenario == "mixed":
        composition = CompositionConfig(mode="mix", gains=[2.0, 1.0])
        controller.mu_scale = 0.05
    else:
        raise ConfigError(f"unknown scenario {scenario!r}; use combined or mixed")
    return ExperimentConfig(
        sample_rate_hz=sample_rate_hz,
        duration_s=duration_s,
        seed=seed,
        noise_sources=[traffic, aircraft],
        composition=composition,
        controller=controller,
    ).validate()
