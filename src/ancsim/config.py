"""Experiment configuration: a strict, versioned YAML/JSON tree.

Unknown keys are errors, not warnings; a silently ignored typo would
invalidate a comparison. The dataclass annotations are the schema: one
walker builds the dataclasses from the parsed document and checks every
field's type and range against its annotation, naming the dotted path of
a bad value; `validate` adds the rules that relate fields.

`default_config` builds the desk-scale setup: 8 kHz, 20 s, 128 control
taps, 64 estimate taps, surrogate traffic and aircraft bands. The
aircraft surrogate's nominal 14 kHz upper edge is capped at 95% of
Nyquist when the rate cannot carry it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import Annotated, Literal, Union, get_args, get_origin, get_type_hints

import yaml

from .acoustics import DEFAULT_PRIMARY, DEFAULT_SECONDARY, PathSpec
from .errors import ConfigError
from .ranges import Fraction, NonNegative, NonNegativeInt, NonNegativeScale, Positive, PositiveInt, Scale
from .synth import BandNoiseSpec, ToneSpec, WavFileSpec

SCHEMA_VERSION = 1


@dataclass
class SourceConfig:
    name: str
    kind: Literal["tone", "band-noise", "wav-file"]
    freq_hz: NonNegative | None = None
    amplitude: Scale = 1.0
    phase_rad: float = 0.0
    low_hz: Positive | None = None
    high_hz: Positive | None = None
    tones: list[ToneSpec] = field(default_factory=list)
    path: str | None = None

    def to_spec(self):
        """The synthesis spec of a validated source."""
        if self.kind == "tone":
            return ToneSpec(self.freq_hz, self.amplitude, self.phase_rad)
        if self.kind == "band-noise":
            return BandNoiseSpec(self.low_hz, self.high_hz, tuple(self.tones))
        return WavFileSpec(self.path)


@dataclass
class CompositionConfig:
    mode: Literal["concatenate", "mix"] = "concatenate"
    switch_times_s: list[float] = field(default_factory=list)
    gains: list[Scale] = field(default_factory=list)


@dataclass
class PlantConfig:
    kind: Literal["synthetic", "explicit"] = "synthetic"
    n_sources: PositiveInt = 1
    n_mics: PositiveInt = 1
    seed: NonNegativeInt = 77
    measurement_noise_std: NonNegativeScale = 0.0
    primary: PathSpec = DEFAULT_PRIMARY
    secondary: PathSpec = DEFAULT_SECONDARY
    perturbation: Scale = 0.1
    primary_taps: list[Scale] = field(default_factory=list)                  # explicit kind
    secondary_taps: list[list[list[Scale]]] = field(default_factory=list)    # [J][K][taps]

    def check_paths(self) -> None:
        """An explicit plant lists a primary path and a J x K grid of
        secondary paths; every secondary path must reach its mic."""
        J, K, grid = self.n_sources, self.n_mics, self.secondary_taps
        if self.kind == "synthetic":
            silent = [] if self.secondary.gain else ["plant.secondary.gain"]
        elif not self.primary_taps:
            raise ConfigError("plant.primary_taps: an explicit plant needs a primary path")
        elif len(grid) != J or any(len(row) != K for row in grid):
            raise ConfigError(f"plant.secondary_taps must list {J} rows of {K} paths")
        else:
            silent = [f"plant.secondary_taps[{j}][{k}]" for j in range(J) for k in range(K)
                      if not any(grid[j][k])]
        if silent:
            raise ConfigError(f"{silent[0]}: a silent secondary path reaches no mic")


@dataclass
class ControllerConfig:
    kind: Literal["single", "multichannel"] = "single"
    taps: PositiveInt = 128
    mu: NonNegative | Literal["auto"] = "auto"
    mu_scale: Positive = 0.1        # fraction of the estimated bound when mu == auto
    n_refs: PositiveInt = 1


@dataclass
class SysidConfig:
    mode: Literal["identify", "exact"] = "identify"
    taps: PositiveInt = 64
    mu: Positive = 0.01
    n_samples: PositiveInt = 50_000
    seed: NonNegativeInt = 31


@dataclass
class FixedFilterConfig:
    train_source: NonNegativeInt = 0    # index into noise_sources
    min_improvement_db: float = 0.1
    max_train_s: Positive = 30.0


@dataclass
class MetricsConfig:
    interval_s: Positive = 1.0
    segment_len: PositiveInt = 1024
    overlap: Fraction = 0.5
    hop: PositiveInt = 512


@dataclass
class ExportConfig:
    error_decimation: PositiveInt = 8


@dataclass
class ExperimentConfig:
    sample_rate_hz: Positive = 8000.0
    duration_s: Positive = 20.0
    seed: NonNegativeInt = 2024
    noise_sources: list[SourceConfig] = field(default_factory=list)
    composition: CompositionConfig = field(default_factory=CompositionConfig)
    plant: PlantConfig = field(default_factory=PlantConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    sysid: SysidConfig = field(default_factory=SysidConfig)
    fixed_filter: FixedFilterConfig = field(default_factory=FixedFilterConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    export: ExportConfig = field(default_factory=ExportConfig)
    schema_version: int = SCHEMA_VERSION

    def validate(self) -> "ExperimentConfig":
        _walk(ExperimentConfig, self, "", built=True)   # each field against its annotation
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version {self.schema_version} unsupported; this build "
                f"reads version {SCHEMA_VERSION}")
        for name, spec in (("primary", self.plant.primary), ("secondary", self.plant.secondary)):
            if spec.delay >= spec.taps:
                raise ConfigError(f"plant.{name}.delay {spec.delay} must be below taps {spec.taps}")
        for name, seconds in (("duration_s", self.duration_s),
                              ("fixed_filter.max_train_s", self.fixed_filter.max_train_s)):
            if not math.isfinite(seconds * self.sample_rate_hz):
                raise ConfigError(f"{name} {seconds} at sample_rate_hz {self.sample_rate_hz} "
                                  f"gives more samples than a float can hold")
        if self.metrics.interval_s > self.duration_s:
            raise ConfigError(
                f"metrics.interval_s {self.metrics.interval_s} is longer than "
                f"duration_s {self.duration_s}; no interval would complete")
        if round(self.metrics.interval_s * self.sample_rate_hz) < 1:
            raise ConfigError(
                f"metrics.interval_s {self.metrics.interval_s} is shorter than one sample")
        seg = self.metrics.segment_len
        if seg < 4 or seg & (seg - 1):
            # a 2-sample Hann window is all zeros: every bin would be 0/0
            raise ConfigError(f"metrics.segment_len must be a power of two of at least 4, "
                              f"got {seg}")
        n_samples = int(round(self.duration_s * self.sample_rate_hz))
        if seg > n_samples:
            raise ConfigError(
                f"metrics.segment_len {seg} is longer than the run's {n_samples} samples; "
                f"no spectrum frame would fit")
        if self.metrics.hop > seg:
            raise ConfigError(
                f"metrics.hop {self.metrics.hop} is longer than metrics.segment_len {seg}")
        if not self.noise_sources:
            raise ConfigError("at least one noise source is required")
        if self.composition.mode == "concatenate":
            times = self.composition.switch_times_s
            if len(times) != len(self.noise_sources) - 1:
                raise ConfigError(
                    f"composition.switch_times_s: {len(self.noise_sources)} sources need "
                    f"{len(self.noise_sources) - 1} switch times, got {len(times)}")
            if any(not (0 < t < self.duration_s) for t in times):
                raise ConfigError("composition.switch_times_s: switch times must lie inside "
                                  "(0, duration_s)")
            if sorted(times) != list(times):
                raise ConfigError("composition.switch_times_s: switch times must be increasing")
            # each segment's samples as `build_reference` renders them, and
            # each boundary as `synth.compose` checks it
            bounds, end = [0.0, *times, self.duration_s], 0
            for i, (start, stop) in enumerate(zip(bounds, bounds[1:])):
                n = int(round((stop - start) * self.sample_rate_hz))
                end += n
                if n < 1:
                    raise ConfigError(
                        f"composition.switch_times_s: segment {i} from {start} s to {stop} s "
                        f"holds no sample at sample_rate_hz {self.sample_rate_hz}")
                boundary = int(round(stop * self.sample_rate_hz))
                if i < len(times) and end != boundary:
                    raise ConfigError(
                        f"composition.switch_times_s: switch time {stop} s expects a boundary "
                        f"at sample {boundary}, but segment {i} ends at sample {end}")
        elif self.composition.gains and (len(self.composition.gains)
                                         != len(self.noise_sources)):
            raise ConfigError("composition.gains: one gain per source is required when "
                              "gains are given")
        nyquist = self.sample_rate_hz / 2
        for i, src in enumerate(self.noise_sources):
            for name in {"tone": ("freq_hz",), "band-noise": ("low_hz", "high_hz")}.get(
                    src.kind, ()):
                if getattr(src, name) is None:
                    raise ConfigError(
                        f"noise_sources[{i}].{name} (source {src.name}): a {src.kind} "
                        f"source needs it")
            if src.kind == "band-noise" and not src.low_hz < src.high_hz:
                raise ConfigError(
                    f"noise_sources[{i}].low_hz (source {src.name}): {src.low_hz} Hz is not "
                    f"below high_hz {src.high_hz} Hz")
            tones = [(f"tones[{t}].freq_hz", tone.freq_hz) for t, tone in enumerate(src.tones)]
            for name, edge in (("freq_hz", src.freq_hz), ("low_hz", src.low_hz),
                               ("high_hz", src.high_hz), *tones):
                if edge is not None and edge >= nyquist:
                    raise ConfigError(
                        f"noise_sources[{i}].{name} (source {src.name}): {edge} Hz is not "
                        f"below Nyquist ({nyquist} Hz)")
            if src.kind == "wav-file" and not (src.path and os.path.exists(src.path)):
                raise ConfigError(
                    f"noise_sources[{i}].path (source {src.name}): "
                    + (f"file {src.path} does not exist" if src.path else "wav-file needs a path"))
        self.plant.check_paths()
        if self.controller.kind == "single" and (self.plant.n_sources != 1
                                                 or self.plant.n_mics != 1):
            raise ConfigError(
                f"controller.kind single needs a 1x1 plant, got "
                f"plant.n_sources {self.plant.n_sources} and plant.n_mics {self.plant.n_mics}")
        if self.controller.n_refs != 1:
            # either kind runs as a 1xJxK grid over the one composed reference
            raise ConfigError(
                f"controller.n_refs must be 1, got {self.controller.n_refs}: "
                f"scenario runs feed one composed reference")
        if round(self.sample_rate_hz) < 1:
            raise ConfigError(
                f"sample_rate_hz {self.sample_rate_hz}: one pre-training second rounds to "
                f"no sample")
        if self.fixed_filter.max_train_s < 1.0:
            raise ConfigError(
                f"fixed_filter.max_train_s {self.fixed_filter.max_train_s} is below 1 s; "
                f"pre-training adapts one second at a time")
        if self.fixed_filter.train_source >= len(self.noise_sources):
            raise ConfigError(
                f"fixed_filter.train_source {self.fixed_filter.train_source} does not "
                f"index noise_sources")
        return self


# libyaml's parser where PyYAML was built with it: the same documents as the
# pure-Python SafeLoader, about ten times faster on the workload configs
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# what a value must be for each plain leaf type, and how a message names it;
# no value is converted, so an int stays an int in a float field. A float
# field's value must be finite as a float: NaN, +-inf and ints beyond the
# float range fail.
_LEAVES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (lambda v: (isinstance(v, numbers.Real) and not isinstance(v, bool)
                       and abs(v) <= sys.float_info.max), "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
    type(None): (lambda v: v is None, "null"),
}


@functools.cache
def _hints(cls) -> dict:
    return get_type_hints(cls, include_extras=True)


def _walk(tp, value, path: str, built: bool = False):
    """`value` checked against the annotation `tp`, with a document's
    mappings built into the dataclasses `tp` names. With `built`, as in a
    config set up in code, those must already be instances of them.
    Raises ConfigError naming the dotted path."""
    if is_dataclass(tp):
        if built and isinstance(value, tp):
            value = vars(value)
        elif built or not isinstance(value, dict):
            kind = f"a {tp.__name__}" if built else "a mapping"
            raise ConfigError(f"{path or 'config root'} must be {kind}, got {value!r}")
        hints = _hints(tp)
        unknown = [str(k) for k in value if k not in hints]
        if unknown:
            raise ConfigError(f"{path or 'config'}: unknown keys {sorted(unknown)}")
        missing = [f.name for f in fields(tp) if f.name not in value
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"{path or 'config'}: missing keys {missing}")
        return tp(**{k: _walk(hints[k], v, f"{path}.{k}" if path else k, built)
                     for k, v in value.items()})
    if get_origin(tp) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        (item,) = get_args(tp)
        return [_walk(item, v, f"{path}[{i}]", built) for i, v in enumerate(value)]
    if not _matches(tp, value):
        raise ConfigError(f"{path} must be {_describe(tp)}, got {value!r}")
    return value


def _matches(tp, value) -> bool:
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        return _matches(args[0], value) and args[2](value)
    if origin is Literal:
        return any(type(value) is type(a) and value == a for a in args)
    if origin in (Union, UnionType):
        return any(_matches(a, value) for a in args)
    return _LEAVES[tp][0](value)


def _describe(tp) -> str:
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        return args[1]
    if origin is Literal:
        return " or ".join(map(repr, args))
    if origin in (Union, UnionType):
        return " or ".join(map(_describe, args))
    return _LEAVES[tp][1]


def config_from_dict(doc: dict) -> ExperimentConfig:
    return _walk(ExperimentConfig, doc, "").validate()


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_LOADER)
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
