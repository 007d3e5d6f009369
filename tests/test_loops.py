"""The split loops against a per-sample `Plant.step` oracle.

The loops compute the control-independent plant terms once and run only
the adaptive recursions per sample. Every exported number must still be
the one a per-sample `Plant.step` loop produces, down to the sign of a
zero, so each comparison here is `np.array_equal` plus equal sign bits.
"""

import numpy as np
import pytest

from ancsim.acoustics import Plant
from ancsim.adaptation import FxlmsFilter, LmsFilter
from ancsim.config import PlantConfig, default_config
from ancsim.errors import DivergenceError
from ancsim.filters import FirFilter
from ancsim.loops import PlantSplit, run_adaptive, run_fixed
from ancsim.mcanc import ChannelConfig, McAncController
from ancsim.scenario import build_plant, build_training_signal, run_scenario
from ancsim.sysid import identify_path


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def plant_loop(plant, control, x):
    """Reference closed loop: one `Plant.step` per sample, the controller
    output reaching the plant one sample later, from silent loudspeakers.
    `control(x_n, e_n)` returns the J outputs."""
    T = len(x)
    err = np.empty((T, plant.n_mics))
    out = np.empty((T, plant.n_sources))
    u = np.zeros(plant.n_sources)
    for n in range(T):
        err[n] = plant.step(x[n], u)
        u = np.atleast_1d(control(x[n], err[n]))
        out[n] = u
    return err, out


def single_control(controller):
    return lambda xn, e: controller.step(xn, e[0])


def multi_control(controller):
    return lambda xn, e: controller.step([xn], e)


def oracle_pretrain(cfg, aligned, mu):
    """Pre-training as a per-sample plant loop: a second plant's
    uncontrolled run gives each block's disturbance power, and every 1 s
    block starts from a silent loudspeaker while the plant keeps its state."""
    training = build_training_signal(cfg).samples
    block = int(round(cfg.sample_rate_hz))
    n_blocks = len(training) // block
    d_all = build_plant(cfg).run_uncontrolled(training[:n_blocks * block])
    c_plant = build_plant(cfg)
    if cfg.controller.kind == "single":
        controller = FxlmsFilter(cfg.controller.taps, mu, aligned[0, 0])
        control = single_control(controller)
    else:
        controller = McAncController(
            ChannelConfig(1, cfg.plant.n_sources, cfg.plant.n_mics,
                          cfg.controller.taps, aligned.shape[2]), mu, aligned)
        control = multi_control(controller)
    nr = []
    for b in range(n_blocks):
        err, _ = plant_loop(c_plant, control, training[b * block:(b + 1) * block])
        e_power = float(np.sum(err**2))
        d_power = float(np.sum(d_all[b * block:(b + 1) * block]**2))
        nr.append(10.0 * np.log10(d_power / e_power))
        if b >= 1 and nr[-1] - nr[-2] < cfg.fixed_filter.min_improvement_db:
            break
    return controller.weights, nr


def split_config(kind):
    cfg = default_config("combined", duration_s=1.0, seed=21)
    cfg.metrics.interval_s = 0.5
    cfg.metrics.segment_len = 512
    cfg.metrics.hop = 256
    cfg.sysid.taps = 16
    cfg.sysid.n_samples = 3000
    cfg.fixed_filter.max_train_s = 2.5   # not a whole number of 1 s blocks
    if kind == "1x1":
        cfg.plant = PlantConfig(
            kind="explicit", n_sources=1, n_mics=1, seed=3,
            primary_taps=[0.0, 0.0, -0.6, 0.4, -0.25, 0.1, -0.05],
            secondary_taps=[[[0.0, 0.5, -0.2, 0.1]]],
            measurement_noise_std=0.02)
        cfg.controller.taps = 24
    else:
        cfg.plant = PlantConfig(kind="synthetic", n_sources=2, n_mics=2, seed=5,
                                measurement_noise_std=0.02)
        cfg.controller.kind = "multichannel"
        cfg.controller.taps = 16
    return cfg.validate()


@pytest.mark.parametrize("kind", ["1x1", "1x2x2"])
def test_scenario_matches_plant_step_oracle(kind):
    cfg = split_config(kind)
    result = run_scenario(cfg)
    assert not result.any_diverged
    x = result.reference.samples
    aligned, mu = result.installed_estimates, result.mu
    single = cfg.controller.kind == "single"

    fixed_weights, nr = oracle_pretrain(cfg, aligned, mu)
    assert result.pretrain.nr_per_second_db == nr
    assert_same_bits(result.fixed_weights, fixed_weights)

    d = build_plant(cfg).run_uncontrolled(x)
    if single:
        controller = FxlmsFilter(cfg.controller.taps, mu, aligned[0, 0])
        err, out = plant_loop(build_plant(cfg), single_control(controller), x)
        frozen = FirFilter(fixed_weights)
        f_err, f_out = plant_loop(build_plant(cfg),
                                  lambda xn, e: frozen.process_sample(xn), x)
        d, err, out, f_err, f_out = (a[:, 0] for a in (d, err, out, f_err, f_out))
    else:
        chan = ChannelConfig(1, 2, 2, cfg.controller.taps, aligned.shape[2])
        controller = McAncController(chan, mu, aligned)
        err, out = plant_loop(build_plant(cfg), multi_control(controller), x)
        frozen = McAncController(chan, 0.0, aligned)
        frozen.weights = fixed_weights
        f_err, f_out = plant_loop(build_plant(cfg), multi_control(frozen), x)

    assert_same_bits(result.arms["uncontrolled"].error, d)
    assert_same_bits(result.arms["adaptive"].error, err)
    assert_same_bits(result.arms["adaptive"].output, out)
    assert_same_bits(result.adaptive_weights, controller.weights)
    assert_same_bits(result.arms["fixed"].error, f_err)
    assert_same_bits(result.arms["fixed"].output, f_out)


@pytest.mark.parametrize("kind, j, k", [("1x1", 0, 0), ("1x2x2", 1, 1)])
def test_identification_response_matches_plant_step(kind, j, k):
    cfg = split_config(kind)
    n = cfg.sysid.n_samples
    res = identify_path(build_plant(cfg), j, k, cfg.sysid.taps,
                        mu=cfg.sysid.mu, n_samples=n, seed=17)
    excitation = np.random.default_rng(17).standard_normal(n)
    plant = build_plant(cfg)
    u = np.zeros(plant.n_sources)
    response = np.empty(n)
    for i in range(n):
        u[j] = excitation[i]
        response[i] = plant.step(0.0, u)[k]
    assert_same_bits(res.response.samples, response)
    fit = LmsFilter(cfg.sysid.taps, cfg.sysid.mu).run(excitation, response)
    assert_same_bits(res.estimate.weights, fit.final_weights)


def signed_zero_plant():
    # one-tap negative paths turn exact zeros into -0.0, which an added
    # +0.0 would flip: the loops must add exactly what the plant adds
    return Plant([FirFilter([-0.7])], [[FirFilter([-0.4])]])


def test_signed_zeros_survive_every_loop():
    x = np.r_[np.zeros(40), np.random.default_rng(2).standard_normal(200), np.zeros(40)]
    s_hat = [0.0, -0.4]

    d = signed_zero_plant().run_uncontrolled(x)[:, 0]
    assert np.signbit(d[:40]).all()
    split = PlantSplit(signed_zero_plant())
    assert_same_bits(split.disturbance(x).uncontrolled()[:, 0], d)

    ctl = FxlmsFilter(6, 0.01, s_hat)
    res = run_adaptive(signed_zero_plant(), ctl, x)
    err, out = plant_loop(signed_zero_plant(), single_control(FxlmsFilter(6, 0.01, s_hat)), x)
    assert_same_bits(res.error, err[:, 0])
    assert_same_bits(res.output, out[:, 0])

    w = np.array([0.3, -0.2, 0.1])
    frozen = FirFilter(w)
    res = run_fixed(signed_zero_plant(), w, x)
    err, out = plant_loop(signed_zero_plant(), lambda xn, e: frozen.process_sample(xn), x)
    assert_same_bits(res.error, err[:, 0])
    assert_same_bits(res.output, out[:, 0])


def loop_cases(primary, secondary, s_hat, taps, mu, **plant_kw):
    """The same taps as a 1x1 plant with an FxlmsFilter, and scaled by a
    different positive gain on every path of a 2x2 plant with a 1x2x2
    McAncController: (plant factory, controller factory, per-sample
    control) pairs. The multichannel step size is 2 mu, the single-channel
    controller's update coefficient."""
    primary, secondary, s_hat = (np.asarray(a, dtype=np.float64)
                                 for a in (primary, secondary, s_hat))
    mic_gain = [1.0, 0.7]
    path_gain = [[1.0, 0.6], [0.8, 1.2]]

    def single_plant():
        return Plant([FirFilter(primary)], [[FirFilter(secondary)]], **plant_kw)

    def multi_plant():
        return Plant([FirFilter(primary * g) for g in mic_gain],
                     [[FirFilter(secondary * g) for g in row] for row in path_gain],
                     **plant_kw)

    def single_ctl():
        return FxlmsFilter(taps, mu, s_hat)

    def multi_ctl():
        est = np.array([[s_hat * g for g in row] for row in path_gain])
        return McAncController(ChannelConfig(1, 2, 2, taps, s_hat.size), 2.0 * mu, est)

    return [(single_plant, single_ctl, single_control),
            (multi_plant, multi_ctl, multi_control)]


def assert_same_state(got, want):
    got = getattr(got, "controller", got)
    want = getattr(want, "controller", want)
    assert got._step_count == want._step_count
    for a, b in ((got._v, want._v), (got._x, want._x), (got._fx, want._fx)):
        np.testing.assert_array_equal(a, b)     # NaN equals NaN here
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_split_carries_state_across_calls():
    # one split over consecutive blocks equals one plant stepped across
    # them, each block starting from a silent loudspeaker
    rng = np.random.default_rng(9)
    x = rng.standard_normal(900)
    cases = loop_cases([0.0, 0.8, -0.3], [0.0, 0.5, 0.2], [0.0, 0.0, 0.5, 0.2], 8, 0.01,
                       measurement_noise_std=0.05, seed=4)
    for make_plant, make_ctl, control in cases:
        plant = make_plant()
        split = PlantSplit(plant)
        ctl = make_ctl()
        got = [run_adaptive(split, ctl, x[a:a + 300]) for a in range(0, 900, 300)]
        assert all(res.diverged_at is None for res in got)

        ref_ctl = make_ctl()
        want = [plant_loop(plant, control(ref_ctl), x[a:a + 300])
                for a in range(0, 900, 300)]
        squeeze = np.squeeze if isinstance(ctl, FxlmsFilter) else np.asarray
        assert_same_bits(np.concatenate([res.error for res in got]),
                         squeeze(np.concatenate([err for err, _ in want])))
        assert_same_bits(np.concatenate([res.output for res in got]),
                         squeeze(np.concatenate([out for _, out in want])))
        assert_same_bits(ctl.weights, ref_ctl.weights)
        assert_same_state(ctl, ref_ctl)
        if isinstance(ctl, FxlmsFilter):
            assert_same_bits(ctl.filtered_reference_window,
                             ref_ctl.filtered_reference_window)
            assert_same_bits(ctl.reference_window, ref_ctl.reference_window)


@pytest.mark.parametrize("bad, primary, s_tap", [
    ("nan", 0.0, 2.0),     # e = 0 meets xf = inf
    ("-inf", 1.0, 2.0),
    ("+inf", 1.0, -2.0),
])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_guard_stops_the_lean_loop_where_the_controller_raises(bad, primary, s_tap):
    # x(7) overflows the filtered reference, so the update at step 7 puts
    # a non-finite value into the weights: for the grid, into filter (0, 0)
    # first, where the guard stops the step before filter (0, 1) updates
    x = np.zeros(20)
    x[7] = 1e308
    for make_plant, make_ctl, control in loop_cases([primary], [0.0, 0.5], [s_tap], 4, 0.01):
        ctl = make_ctl()
        res = run_adaptive(make_plant(), ctl, x)
        single = isinstance(ctl, FxlmsFilter)
        assert res.diverged_at == 7
        assert res.diverged_coords == (None if single else (0, 0))
        assert {"nan": np.isnan, "-inf": np.isneginf, "+inf": np.isposinf}[bad](
            res.final_weights).any()

        plant = make_plant()
        ref = make_ctl()
        step = control(ref)
        err, u = [], np.zeros(plant.n_sources)
        with pytest.raises(DivergenceError) as exc_info:
            for n in range(x.size):
                err.append(plant.step(x[n], u))
                u = np.atleast_1d(step(x[n], err[-1]))
        assert exc_info.value.index == 7
        assert exc_info.value.coords == res.diverged_coords
        assert_same_bits(res.error, np.squeeze(err) if single else err)
        assert len(res.output) == 7
        np.testing.assert_array_equal(res.final_weights, ref.weights)
        assert_same_state(ctl, ref)
