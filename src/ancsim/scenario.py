"""Scenario orchestration: the adaptive-versus-fixed comparison.

A scenario runs nine stages: `reference` composes the reference from the
noise sources; `identification` resolves the secondary-path estimates
(offline identification or the true paths); `mu` the step size (below);
`training` renders the training source, on which `pretrain` trains and
freezes the fixed filter; then three arms over one disturbance
realization, `uncontrolled`, `adaptive` from zero weights and `fixed`;
last, `reports`. The disturbance and the measurement noise do not depend
on the control, so the uncontrolled run computes them once and both
controlled arms reuse it, each from silent paths and fresh state.

Step sizes: `auto` resolves to `mu_scale` times the stability limit of
the update actually applied (which carries a factor 2 in front of mu),
i.e. mu = mu_scale / (N * P_xf) with P_xf the filtered-reference power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .acoustics import Plant, synthetic_plant
from .config import ExperimentConfig, config_hash
from .errors import ConfigError, DataError
from .filters import fir, rowdots
from .loops import (
    PlantSplit,
    loop_aligned_path,
    run_adaptive,
    run_fixed,
    run_uncontrolled_signal,
)
from .mcanc import ChannelConfig, McAncController
from .metrics import _power_ratio_db, build_run_report
from .signals import Signal
from .synth import compose, synthesize_noise
from .sysid import identify_all_paths


def build_plant(cfg: ExperimentConfig) -> Plant:
    """Fresh plant from the config; identical calls give identical plants."""
    p = cfg.plant
    if p.kind == "synthetic":
        return synthetic_plant(
            n_sources=p.n_sources, n_mics=p.n_mics, seed=p.seed,
            primary=p.primary, secondary=p.secondary,
            perturbation=p.perturbation,
            measurement_noise_std=p.measurement_noise_std)
    return Plant([p.primary_taps] * p.n_mics, p.secondary_taps,
                 measurement_noise_std=p.measurement_noise_std, seed=p.seed)


def _source_seeds(cfg: ExperimentConfig):
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.noise_sources) + 1)
    return children[:-1], children[-1]  # per-source seeds, training seed


def _render_source(cfg: ExperimentConfig, i: int, seed, duration_s: float) -> Signal:
    """Noise source i over `duration_s`. A recording whose rate or length
    does not fit the run is a config error that names its path field."""
    src = cfg.noise_sources[i]
    try:
        return synthesize_noise(src.to_spec(), seed, duration_s, cfg.sample_rate_hz)
    except ConfigError as exc:
        if src.kind != "wav-file":
            raise
        raise ConfigError(f"noise_sources[{i}].path (source {src.name}): {exc}") from exc


def build_reference(cfg: ExperimentConfig) -> Signal:
    """Render every source and compose the run's reference signal."""
    seeds, _ = _source_seeds(cfg)
    comp = cfg.composition
    if comp.mode == "concatenate":
        boundaries = [0.0] + list(comp.switch_times_s) + [cfg.duration_s]
        sources = [_render_source(cfg, i, seeds[i], boundaries[i + 1] - boundaries[i])
                   for i in range(len(cfg.noise_sources))]
        return compose(sources, "concatenate", switch_times_s=comp.switch_times_s)
    sources = [_render_source(cfg, i, seeds[i], cfg.duration_s)
               for i in range(len(cfg.noise_sources))]
    try:
        return compose(sources, "mix", gains=comp.gains or None)
    except DataError as exc:
        raise ConfigError(f"composition.mode mix: {exc}") from None


def build_training_signal(cfg: ExperimentConfig) -> Signal:
    """Fresh realization of the training source, long enough for the
    pre-training plateau rule."""
    _, train_seed = _source_seeds(cfg)
    return _render_source(cfg, cfg.fixed_filter.train_source, train_seed,
                          cfg.fixed_filter.max_train_s)


@dataclass
class SysidSummary:
    j: int
    k: int
    misalignment_db: float | None
    residual_power: float
    undermodeled: bool


def installed_estimate_taps(cfg: ExperimentConfig) -> int:
    """Length M of the loop-aligned estimates `run_scenario` installs: the
    identification length, or the true secondary paths' length in `exact`
    mode, plus the loop's one-sample latency."""
    if cfg.sysid.mode == "exact":
        return build_plant(cfg).secondaries.shape[2] + 1
    return cfg.sysid.taps + 1


def resolve_estimates(cfg: ExperimentConfig):
    """The estimates a run installs, (J, K, taps + 1), plus summaries.

    `identify` runs offline white-noise identification against the
    quiescent plant; `exact` copies the true paths. Either way the
    estimates are then shifted by the loop's one-sample latency
    (`loop_aligned_path`).
    """
    p = cfg.plant
    plant = build_plant(cfg)
    if cfg.sysid.mode == "exact":
        summaries = [SysidSummary(j, k, None, 0.0, False)
                     for j in range(p.n_sources) for k in range(p.n_mics)]
        return loop_aligned_path(plant.secondaries), summaries
    results = identify_all_paths(
        plant, cfg.sysid.taps, mu=cfg.sysid.mu, n_samples=cfg.sysid.n_samples,
        seed=cfg.sysid.seed, sample_rate_hz=cfg.sample_rate_hz)
    est = np.stack([np.stack([results[j][k].estimate.weights
                              for k in range(p.n_mics)])
                    for j in range(p.n_sources)])
    summaries = [SysidSummary(j, k, results[j][k].misalignment_db,
                              results[j][k].residual_power,
                              results[j][k].undermodeled)
                 for j in range(p.n_sources) for k in range(p.n_mics)]
    return loop_aligned_path(est), summaries


def resolve_mu(cfg: ExperimentConfig, reference: Signal, aligned_est: np.ndarray) -> float:
    """Config mu, or mu_scale / (N * P_xf) when set to auto."""
    ctl = cfg.controller
    if ctl.mu != "auto":
        return float(ctl.mu)
    p_xf = 0.0
    J, K = aligned_est.shape[:2]
    for j in range(J):
        for k in range(K):
            xf = fir(aligned_est[j, k], reference.samples)
            p_xf = max(p_xf, float(np.mean(xf**2)))
    if p_xf == 0.0:
        raise ConfigError("controller.mu auto cannot scale: the filtered reference through "
                          f"the estimates has zero power (sysid.n_samples {cfg.sysid.n_samples})")
    if ctl.kind == "multichannel":
        # conservative stacked-correlation bound mu < 2 / (I*J*K*L*P_xf);
        # at 1x1x1 this is exactly twice the single-channel rule below,
        # matching the bare-mu update convention
        channels = ctl.n_refs * cfg.plant.n_sources * cfg.plant.n_mics
        return ctl.mu_scale * 2.0 / (channels * ctl.taps * p_xf)
    return ctl.mu_scale / (ctl.taps * p_xf)


def build_controller(cfg: ExperimentConfig, aligned_est: np.ndarray, mu: float):
    """The zero-weight 1xJxK McAncController over the plant's sources and
    mics, for either kind. A `single` mu scales an update carrying 2 mu,
    so it is doubled here, exactly, as `FxlmsFilter` doubles it."""
    ctl = cfg.controller
    return McAncController(
        ChannelConfig(1, cfg.plant.n_sources, cfg.plant.n_mics, ctl.taps,
                      aligned_est.shape[2]),
        mu if ctl.kind == "multichannel" else 2.0 * mu, aligned_est)


@dataclass
class PretrainInfo:
    seconds_trained: int
    nr_per_second_db: list
    plateau_reached: bool
    mu: float
    diverged_at: int | None = None


def pretrain_fixed_filter(cfg: ExperimentConfig, aligned_est: np.ndarray,
                          mu: float, training: Signal):
    """Adapt on the training source until the per-second noise reduction
    stops improving, then freeze.

    Improvement below `min_improvement_db` between consecutive seconds
    ends training; the training signal's length caps it regardless.
    Returns (frozen (1, J, taps) weights, PretrainInfo).
    """
    block = int(round(cfg.sample_rate_hz))
    n_blocks = len(training) // block
    if n_blocks < 1:
        raise ConfigError("training signal shorter than one second")
    # The disturbance is computed block by block, only for the blocks that
    # train. Each block's loop starts from a silent loudspeaker, so the
    # block's first sample does not hear the previous block's last output;
    # the recorded exports depend on that.
    split = PlantSplit(build_plant(cfg))
    controller = build_controller(cfg, aligned_est, mu)
    nr_history: list[float] = []
    plateau = False
    diverged_at = None
    for b in range(n_blocks):
        seg = training.samples[b * block:(b + 1) * block]
        dist = split.disturbance(seg)
        res = run_adaptive(split, controller, seg, disturbance=dist)
        if res.diverged_at is not None:
            diverged_at = b * block + res.diverged_at
            break
        e_power = float(np.sum(res.error**2))
        d_power = float(np.sum(dist.uncontrolled()**2))
        nr = _power_ratio_db(d_power, e_power)
        nr_history.append(nr)
        # a NaN step (silent seconds, 0/0) is no improvement either
        if b >= 1 and not nr - nr_history[-2] >= cfg.fixed_filter.min_improvement_db:
            plateau = True
            break
    if diverged_at is not None:
        # weights past the guard are useless; freeze a silent filter and
        # carry the diagnostic so the run reports the divergence
        weights = np.zeros_like(controller.weights)
    else:
        weights = controller.weights
    info = PretrainInfo(seconds_trained=len(nr_history),
                        nr_per_second_db=nr_history,
                        plateau_reached=plateau, mu=mu, diverged_at=diverged_at)
    return weights, info


@dataclass
class ArmResult:
    """One arm's errors and reports; no export reads its outputs."""

    name: str
    reports: list          # one RunReport per error microphone
    error: np.ndarray      # (T, K), T shorter on divergence
    diverged_at: int | None = None
    diverged_coords: tuple | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


@dataclass
class ScenarioResult:
    """What the exports read; `build_reference(config)` rebuilds the reference."""

    config: ExperimentConfig
    arms: dict                      # name -> ArmResult
    adaptive_weights: np.ndarray    # (1, J, L), for either kind
    fixed_weights: np.ndarray       # (1, J, L)
    installed_estimates: np.ndarray  # loop-aligned (J, K, M+1)
    sysid_summaries: list
    pretrain: PretrainInfo
    mu: float                       # the config's convention, as resolved
    mse_trace: np.ndarray           # decimated adaptive-arm squared cost
    mse_stride: int
    provenance: dict = field(default_factory=dict)

    @property
    def any_diverged(self) -> bool:
        if self.pretrain.diverged_at is not None:
            return True
        return any(arm.diverged for arm in self.arms.values())


def _reports_for(d: np.ndarray, e: np.ndarray, cfg: ExperimentConfig) -> list:
    m, rate, n = cfg.metrics, cfg.sample_rate_hz, e.shape[0]
    return [build_run_report(Signal(d[:n, k], rate), Signal(e[:, k], rate),
                             interval_s=m.interval_s, segment_len=m.segment_len,
                             overlap=m.overlap, hop=m.hop)
            for k in range(e.shape[1])]


def scenario_stages(cfg: ExperimentConfig):
    """`run_scenario` a stage at a time: yields (stage, product) after each
    stage. The products, in order: the reference, `resolve_estimates`'
    pair, mu, the training signal, (frozen weights, PretrainInfo), the
    disturbance, the adaptive LoopResult, the fixed error, the result."""
    cfg.validate()
    reference = build_reference(cfg)
    if cfg.noise_sources[cfg.fixed_filter.train_source].kind == "wav-file":
        build_training_signal(cfg)      # a recording too short to train on fails here
    yield "reference", reference
    aligned, sysid_summaries = resolve_estimates(cfg)
    yield "identification", (aligned, sysid_summaries)
    mu = resolve_mu(cfg, reference, aligned)
    yield "mu", mu
    training = build_training_signal(cfg)
    yield "training", training
    fixed_weights, pretrain = pretrain_fixed_filter(cfg, aligned, mu, training)
    del training        # released as soon as pre-training returns
    yield "pretrain", (fixed_weights, pretrain)

    plant = build_plant(cfg)
    dist = run_uncontrolled_signal(plant, reference.samples)
    yield "uncontrolled", dist
    d = dist.uncontrolled()
    res = run_adaptive(plant, build_controller(cfg, aligned, mu), reference.samples,
                       disturbance=dist)
    yield "adaptive", res
    fixed_error = run_fixed(plant, fixed_weights, reference.samples,
                            disturbance=dist).error
    yield "fixed", fixed_error
    # every arm holds only its errors: the reference, the primary-path
    # outputs and both loudspeaker buffers go before the reports
    res.output = None
    del reference, dist

    uncontrolled = ArmResult("uncontrolled", _reports_for(d, d, cfg), d)
    adaptive = ArmResult("adaptive", _reports_for(d, res.error, cfg), res.error,
                         res.diverged_at, res.diverged_coords)
    # the cost e(n).e(n) as McAncController.step forms it, at the exported
    # samples; on divergence it keeps the sample whose update tripped the
    # guard, as the error CSVs do
    stride = max(cfg.export.error_decimation, 1)
    rows = res.error[::stride]
    mse_trace = rowdots(rows, rows)
    fixed = ArmResult("fixed", _reports_for(d, fixed_error, cfg), fixed_error)

    provenance = {"config_hash": config_hash(cfg), "seed": cfg.seed,
                  "version": __version__, "mu": mu}
    yield "reports", ScenarioResult(
        config=cfg,
        arms={"uncontrolled": uncontrolled, "adaptive": adaptive, "fixed": fixed},
        adaptive_weights=res.final_weights, fixed_weights=fixed_weights,
        installed_estimates=aligned, sysid_summaries=sysid_summaries,
        pretrain=pretrain, mu=mu,
        mse_trace=mse_trace, mse_stride=stride,
        provenance=provenance)


def run_scenario(cfg: ExperimentConfig) -> ScenarioResult:
    """Every stage of `scenario_stages`; returns the last one's result."""
    for _, product in scenario_stages(cfg):
        pass
    return product
