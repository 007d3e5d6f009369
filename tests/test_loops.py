"""The split loops against a per-sample `Plant.step` oracle.

The loops compute the control-independent plant terms once and run only
the adaptive recursions per sample. Every exported number must still be
the one a per-sample `Plant.step` loop produces, down to the sign of a
zero, so each comparison here is `np.array_equal` plus equal sign bits.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ancsim import loops
from ancsim.acoustics import Plant
from ancsim.adaptation import FxlmsFilter, LmsFilter
from ancsim.config import PlantConfig, default_config, load_config
from ancsim.errors import DataError, DivergenceError
from ancsim.filters import FirFilter
from ancsim.loops import (
    Lane,
    PlantSplit,
    SeamlessRun,
    _block_width,
    loop_aligned_path,
    run_adaptive,
    run_fixed,
    run_lanes,
    run_uncontrolled_signal,
)
from ancsim.mcanc import GUARD_SCREEN, WEIGHT_GUARD, ChannelConfig, McAncController
from ancsim.scenario import (
    build_controller,
    build_plant,
    build_reference,
    build_training_signal,
    run_scenario,
)
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


def grid_of(ctl):
    """The 1xJxK controller the loops run: an `FxlmsFilter`'s 1x1x1
    `controller`, or the `McAncController` itself. The oracles step the
    `FxlmsFilter`, so they stay independent of the loops."""
    return getattr(ctl, "controller", ctl)


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
    return grid_of(controller).weights, nr


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
    x = build_reference(cfg).samples
    aligned, mu = result.installed_estimates, result.mu
    single = cfg.controller.kind == "single"

    fixed_weights, nr = oracle_pretrain(cfg, aligned, mu)
    assert result.pretrain.nr_per_second_db == nr
    assert_same_bits(result.fixed_weights, fixed_weights)

    d = build_plant(cfg).run_uncontrolled(x)
    if single:
        controller = FxlmsFilter(cfg.controller.taps, mu, aligned[0, 0])
        err, out = plant_loop(build_plant(cfg), single_control(controller), x)
        frozen = FirFilter(fixed_weights[0, 0])
        f_err, f_out = plant_loop(build_plant(cfg),
                                  lambda xn, e: frozen.process_sample(xn), x)
    else:
        chan = ChannelConfig(1, 2, 2, cfg.controller.taps, aligned.shape[2])
        controller = McAncController(chan, mu, aligned)
        err, out = plant_loop(build_plant(cfg), multi_control(controller), x)
        frozen = McAncController(chan, 0.0, aligned)
        frozen.weights = fixed_weights
        f_err, f_out = plant_loop(build_plant(cfg), multi_control(frozen), x)

    assert_same_bits(result.arms["uncontrolled"].error, d)
    assert_same_bits(result.arms["adaptive"].error, err)
    assert_same_bits(result.adaptive_weights, grid_of(controller).weights)
    assert_same_bits(result.arms["fixed"].error, f_err)
    # the result keeps no outputs: the loops run on the scenario's
    # installed estimates, mu, frozen weights and reference give them
    adaptive = run_adaptive(build_plant(cfg), build_controller(cfg, aligned, mu), x)
    assert_same_bits(adaptive.error, err)
    assert_same_bits(adaptive.output, out)
    fixed = run_fixed(build_plant(cfg), result.fixed_weights, x)
    assert_same_bits(fixed.error, f_err)
    assert_same_bits(fixed.output, f_out)


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
    lms = LmsFilter(cfg.sysid.taps, cfg.sysid.mu)
    for xn, dn in zip(excitation, response):
        lms.step(xn, dn)
    assert_same_bits(res.estimate.weights, lms.weights)


def signed_zero_plant():
    # one-tap negative paths turn exact zeros into -0.0, which an added
    # +0.0 would flip: the loops must add exactly what the plant adds
    return Plant([[-0.7]], [[[-0.4]]])


def test_signed_zeros_survive_every_loop():
    x = np.r_[np.zeros(40), np.random.default_rng(2).standard_normal(200), np.zeros(40)]
    s_hat = [0.0, -0.4]

    d = signed_zero_plant().run_uncontrolled(x)[:, 0]
    assert np.signbit(d[:40]).all()
    split = PlantSplit(signed_zero_plant())
    assert_same_bits(split.disturbance(x).uncontrolled()[:, 0], d)

    res = run_adaptive(signed_zero_plant(), FxlmsFilter(6, 0.01, s_hat).controller, x)
    err, out = plant_loop(signed_zero_plant(), single_control(FxlmsFilter(6, 0.01, s_hat)), x)
    assert_same_bits(res.error, err)
    assert_same_bits(res.output, out)

    w = np.array([[[0.3, -0.2, 0.1]]])
    frozen = FirFilter(w[0, 0])
    res = run_fixed(signed_zero_plant(), w, x)
    err, out = plant_loop(signed_zero_plant(), lambda xn, e: frozen.process_sample(xn), x)
    assert_same_bits(res.error, err)
    assert_same_bits(res.output, out)


def loop_cases(primary, secondary, s_hat, taps, mu, **plant_kw):
    """The same taps as a 1x1 plant with an FxlmsFilter, and scaled by a
    different positive gain on every path of a 2x2 plant with a 1x2x2
    McAncController: (plant factory, controller factory, per-sample
    control) pairs. The multichannel step size is 2 mu, the single-channel
    controller's update coefficient. The loops run `grid_of` a controller;
    the per-sample controls step the controller itself."""
    primary, secondary, s_hat = (np.asarray(a, dtype=np.float64)
                                 for a in (primary, secondary, s_hat))
    mic_gain = [1.0, 0.7]
    path_gain = [[1.0, 0.6], [0.8, 1.2]]

    def single_plant():
        return Plant([primary], [[secondary]], **plant_kw)

    def multi_plant():
        return Plant([primary * g for g in mic_gain],
                     [[secondary * g for g in row] for row in path_gain], **plant_kw)

    def single_ctl():
        return FxlmsFilter(taps, mu, s_hat)

    def multi_ctl():
        est = np.array([[s_hat * g for g in row] for row in path_gain])
        return McAncController(ChannelConfig(1, 2, 2, taps, s_hat.size), 2.0 * mu, est)

    return [(single_plant, single_ctl, single_control),
            (multi_plant, multi_ctl, multi_control)]


def assert_same_state(got, want):
    got, want = grid_of(got), grid_of(want)
    got, want = got.state, want.state
    assert got.steps == want.steps
    for a, b in ((got.v, want.v), (got.x, want.x), (got.fx, want.fx)):
        np.testing.assert_array_equal(a, b)     # NaN equals NaN here
        assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_blocks_match_plant_step(cases, blocks):
    """One split over consecutive blocks equals one plant stepped across
    them, each block starting from a silent loudspeaker."""
    for make_plant, make_ctl, control in cases:
        plant = make_plant()
        split = PlantSplit(plant)
        ctl = make_ctl()
        got = [run_adaptive(split, grid_of(ctl), xb) for xb in blocks]
        assert all(res.diverged_at is None for res in got)

        ref_ctl = make_ctl()
        want = [plant_loop(plant, control(ref_ctl), xb) for xb in blocks]
        assert_same_bits(np.concatenate([res.error for res in got]),
                         np.concatenate([err for err, _ in want]))
        assert_same_bits(np.concatenate([res.output for res in got]),
                         np.concatenate([out for _, out in want]))
        assert_same_bits(ctl.weights, ref_ctl.weights)
        assert_same_state(ctl, ref_ctl)


def test_split_carries_state_across_calls():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(900)
    cases = loop_cases([0.0, 0.8, -0.3], [0.0, 0.5, 0.2], [0.0, 0.0, 0.5, 0.2], 8, 0.01,
                       measurement_noise_std=0.05, seed=4)
    assert_blocks_match_plant_step(cases, [x[a:a + 300] for a in range(0, 900, 300)])


def test_a_split_past_a_diverged_call_is_spent():
    # the first call trips the guard; its primary paths and noise ran over
    # the whole call, so every later use of the split raises and names
    # the step that tripped
    x = np.random.default_rng(3).standard_normal(400)
    plant = Plant([np.array([0.0, 0.8])], [[np.array([0.0, 0.5])]],
                  measurement_noise_std=0.05, seed=4)
    split = PlantSplit(plant)
    res = run_adaptive(split, FxlmsFilter(4, 50.0, [0.0, 0.5]).controller, x[:200])
    assert res.diverged_at is not None and res.diverged_at < 199
    spent = rf"diverged at its step {res.diverged_at}\b"
    with pytest.raises(DataError, match=spent):
        run_adaptive(split, FxlmsFilter(4, 0.0, [0.0, 0.5]).controller, x[200:])
    with pytest.raises(DataError, match=spent):
        run_fixed(split, np.zeros((1, 1, 4)), x[200:])
    with pytest.raises(DataError, match=spent):
        split.disturbance(x[200:])
    with pytest.raises(DataError, match=spent):
        run_uncontrolled_signal(split, x[200:])


def test_split_carries_estimate_history_longer_than_the_control_filter():
    # M = 9 estimate taps behind L = 3 control taps: each block's first
    # filtered references reach M - 1 samples back into the controller's
    # stored reference window, past the L samples the control filter reads;
    # the first block is shorter than M
    x = np.random.default_rng(12).standard_normal(600)
    secondary = [0.0, 0.5, 0.2, -0.1, 0.05, 0.03, -0.02, 0.01]
    cases = loop_cases([0.0, 0.8, -0.3], secondary, [0.0] + secondary, 3, 0.01,
                       measurement_noise_std=0.05, seed=4)
    assert cases[0][1]().controller.cfg.estimate_taps == 9
    assert_blocks_match_plant_step(cases, [x[:5], x[5:305], x[305:]])


def random_grid_case(seed, J, K, L, noisy, mu):
    """A 1xJxK loop with paths of unequal lengths, one tap included, of
    both signs; estimates of their own lengths; parked weights with
    signed zeros; and a reference with silent stretches, cut into blocks."""
    rng = np.random.default_rng(seed)

    def path():
        return rng.standard_normal(int(rng.integers(1, 6))) * 0.4

    primaries = [path() for _ in range(K)]
    secondaries = [[path() for _ in range(K)] for _ in range(J)]
    secondaries[0][-1] = np.array([-0.4])       # one tap, whatever else is drawn
    M = int(rng.integers(1, 5))
    est = rng.standard_normal((J, K, M)) * 0.4
    w0 = rng.standard_normal((1, J, L)) * 0.05
    w0[rng.random(w0.shape) < 0.3] = -0.0
    x = np.r_[np.zeros(15), rng.standard_normal(100), np.zeros(25), rng.standard_normal(20)]
    cuts = np.sort(rng.choice(np.arange(1, x.size), size=3, replace=False))

    def make_plant():
        return Plant(primaries, secondaries, measurement_noise_std=0.05 * noisy, seed=seed)

    def make_ctl():
        ctl = McAncController(ChannelConfig(1, J, K, L, M), mu, est)
        ctl.weights = w0
        return ctl

    return make_plant, make_ctl, np.split(x, cuts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([1, 2, 17]), st.booleans(), st.sampled_from([0.0, 0.01]))
@example(0, 1, 1, 17, True, 0.01)    # one filter, one mic
@example(1, 1, 1, 1, False, 0.01)
@example(2, 1, 3, 2, True, 0.01)     # J*K > 1, J != K
@example(3, 3, 1, 17, False, 0.01)
@example(4, 2, 3, 1, True, 0.01)     # one-tap controller
@example(5, 4, 4, 17, True, 0.0)
@example(6, 1, 3, 1, False, 0.01)    # one weight per term slot
@example(7, 1, 8, 1, True, 0.01)     # ... with a slot count numpy sums pairwise
def test_every_geometry_matches_the_per_sample_controller(seed, J, K, L, noisy, mu):
    make_plant, make_ctl, blocks = random_grid_case(seed, J, K, L, noisy, mu)
    assert_blocks_match_plant_step([(make_plant, make_ctl, multi_control)], blocks)


def random_loop(seed, taps, mu):
    """A reference with silent stretches, which give signed zeros, and
    loop_cases over random paths of both signs; the plant is noiseless."""
    rng = np.random.default_rng(seed)
    x = np.r_[np.zeros(20), rng.standard_normal(150), np.zeros(30)]
    primary = rng.standard_normal(int(rng.integers(1, 8))) * 0.5
    secondary = np.r_[0.0, rng.standard_normal(int(rng.integers(1, 5))) * 0.5]
    s_hat = np.r_[0.0, secondary + rng.standard_normal(secondary.size) * 0.05]
    return x, loop_cases(primary, secondary, s_hat, taps, mu)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_zero_step_size_is_the_zero_weight_fixed_arm_and_the_uncontrolled_arm(seed):
    taps = 6
    x, cases = random_loop(seed, taps, 0.0)
    for make_plant, make_ctl, _ in cases:
        plant = make_plant()
        adaptive = run_adaptive(plant, grid_of(make_ctl()), x)
        fixed = run_fixed(make_plant(), np.zeros((1, plant.n_sources, taps)), x)
        uncontrolled = run_uncontrolled_signal(make_plant(), x).uncontrolled()
        assert_same_bits(adaptive.error, fixed.error)
        assert_same_bits(fixed.error, uncontrolled)
        assert_same_bits(adaptive.output, fixed.output)
        assert_same_bits(adaptive.final_weights, np.zeros_like(adaptive.final_weights))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-4, 4))
def test_scaling_reference_by_2p_and_step_size_by_2_minus_2p(seed, p):
    # every product and sum scales by a power of two, which is exact, and
    # the update (-mu e) x_f is unchanged: the weights follow the same path
    x, cases = random_loop(seed, 6, 0.004)
    _, scaled_cases = random_loop(seed, 6, 0.004 * 4.0 ** -p)
    for (make_plant, make_ctl, _), (_, make_scaled, _) in zip(cases, scaled_cases):
        base = run_adaptive(make_plant(), grid_of(make_ctl()), x)
        scaled = run_adaptive(make_plant(), grid_of(make_scaled()), x * 2.0 ** p)
        assert base.diverged_at is None and scaled.diverged_at is None
        assert_same_bits(scaled.error, base.error * 2.0 ** p)
        assert_same_bits(scaled.output, base.output * 2.0 ** p)
        assert_same_bits(scaled.final_weights, base.final_weights)


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
    # first, where the guard stops the step before filter (0, 1) updates.
    # The loop names filter (0, 0) either way; the scalar `FxlmsFilter`
    # oracle raises without coordinates, having one filter
    x = np.zeros(20)
    x[7] = 1e308
    for make_plant, make_ctl, control in loop_cases([primary], [0.0, 0.5], [s_tap], 4, 0.01):
        ctl = make_ctl()
        res = run_adaptive(make_plant(), grid_of(ctl), x)
        assert res.diverged_at == 7
        assert res.diverged_coords == (0, 0)
        assert {"nan": np.isnan, "-inf": np.isneginf, "+inf": np.isposinf}[bad](
            res.final_weights).any()

        plant = make_plant()
        single = plant.n_sources == 1
        ref = make_ctl()
        step = control(ref)
        err, u = [], np.zeros(plant.n_sources)
        with pytest.raises(DivergenceError) as exc_info:
            for n in range(x.size):
                err.append(plant.step(x[n], u))
                u = np.atleast_1d(step(x[n], err[-1]))
        assert exc_info.value.index == 7
        assert exc_info.value.coords == (None if single else res.diverged_coords)
        assert_same_bits(res.error, np.array(err))
        assert len(res.output) == 7
        np.testing.assert_array_equal(res.final_weights, grid_of(ref).weights)
        assert_same_state(ctl, ref)


def park(ctl, *filters):
    """Set the J filters of the controller's grid (an FxlmsFilter's has
    one) to the first J of `filters`."""
    grid = grid_of(ctl)
    grid.weights = np.array([filters[:grid.n_sources]])
    return ctl


@pytest.mark.parametrize("filters", [
    # one weight between G/2 and G
    [[0.95, 0.1, -0.3, 0.2], [-0.6, 0.0, 0.0, 0.0]],
    # every weight within G/2, their squares summing past (G/2)^2
    [[0.4, -0.4, 0.4, -0.4], [0.3, 0.3, -0.3, 0.0]],
], ids=["weight_past_half", "norm_past_half"])
def test_weights_in_the_guard_band_pass_the_exact_check(filters):
    # the loop screens each filter by its squared norm; weights parked
    # where the screen fails but no |w| exceeds the guard G must run on,
    # step for step with the oracle's exact per-filter check
    filters = WEIGHT_GUARD * np.array(filters)
    x = np.random.default_rng(3).standard_normal(400)
    cases = loop_cases([0.0, 0.8, -0.3], [0.0, 0.5, 0.2], [0.0, 0.0, 0.5, 0.2], 4, 1e-5,
                       measurement_noise_std=0.05, seed=4)
    for make_plant, make_ctl, control in cases:
        ctl = park(make_ctl(), *filters)
        res = run_adaptive(make_plant(), grid_of(ctl), x)
        assert res.diverged_at is None
        ref = park(make_ctl(), *filters)
        err, out = plant_loop(make_plant(), control(ref), x)
        assert_same_bits(res.error, err)
        assert_same_bits(res.output, out)
        assert_same_state(ctl, ref)
        # still in the band at the end: the screen failed at every step
        v = ctl.weights.reshape(-1, 4)
        assert (np.sum(v**2, axis=1) > 0.25 * WEIGHT_GUARD**2).all()
        assert (np.abs(v) <= WEIGHT_GUARD).all()


def test_weight_just_past_the_guard_trips_where_the_controller_raises():
    # a sign-flipped estimate drives the parked weights outward; the one
    # at 0.999 G crosses G with a squared norm far below (2G)^2, so only
    # the exact check behind the screen catches it. The grid parks it in
    # filter (0, 1), behind a filter (0, 0) that fails the screen and
    # passes the exact check at every step. The scalar `FxlmsFilter`
    # oracle raises without coordinates, having one filter
    near = WEIGHT_GUARD * np.array([0.999, 0.2, -0.1, 0.1])
    x = np.random.default_rng(3).standard_normal(400)
    cases = loop_cases([0.0, 0.8, -0.3], [0.0, 0.5, 0.2], [0.0, 0.0, -0.5, -0.2], 4, 1e-5,
                       measurement_noise_std=0.05, seed=4)
    for make_plant, make_ctl, control in cases:
        single = make_plant().n_sources == 1
        filters = [near] if single else [0.5 * near[::-1], near]
        ctl = park(make_ctl(), *filters)
        res = run_adaptive(make_plant(), grid_of(ctl), x)

        plant, ref = make_plant(), park(make_ctl(), *filters)
        step = control(ref)
        err, u = [], np.zeros(plant.n_sources)
        with pytest.raises(DivergenceError) as exc_info:
            for n in range(x.size):
                err.append(plant.step(x[n], u))
                u = np.atleast_1d(step(x[n], err[-1]))
        tripped = ref.weights.reshape(-1, 4)[-1]
        assert WEIGHT_GUARD < np.abs(tripped).max() < 1.001 * WEIGHT_GUARD
        assert np.sum(tripped**2) < 4.0 * WEIGHT_GUARD**2
        assert 0 < exc_info.value.index < x.size - 1
        assert res.diverged_at == exc_info.value.index
        assert res.diverged_coords == (0, 0 if single else 1)
        assert exc_info.value.coords == (None if single else res.diverged_coords)
        assert_same_bits(res.error, np.array(err))
        assert len(res.output) == res.diverged_at
        assert_same_bits(res.final_weights, grid_of(ref).weights)
        assert_same_state(ctl, ref)


def grid_guard_case(est_sign):
    """A 1x3x2 plant and controller factory: every estimate carries the
    sign of the true path times `est_sign`, so -1 drives parked weights
    outward."""
    secondary = np.array([0.0, 0.5, 0.2])
    gains = [[1.0, 0.6], [0.8, 1.2], [0.9, 0.7]]

    def make_plant():
        return Plant([np.array([0.0, 0.8, -0.3]), np.array([0.0, 0.5, 0.2])],
                     [[secondary * g for g in row] for row in gains],
                     measurement_noise_std=0.05, seed=4)

    def make_ctl(filters):
        est = est_sign * np.array([[np.r_[0.0, secondary * g] for g in row] for row in gains])
        ctl = McAncController(ChannelConfig(1, 3, 2, 4, 4), 2e-5, est)
        ctl.weights = np.array([filters])
        return ctl

    return make_plant, make_ctl


def test_grid_trip_in_a_middle_filter_commits_the_filters_before_it():
    # filter (0, 1) is parked next to the guard with estimates that drive
    # it outward; at the step it crosses, filter (0, 0) has taken its
    # update and filter (0, 2) has not, as in `step`
    near = WEIGHT_GUARD * np.array([0.999, 0.2, -0.1, 0.1])
    filters = [0.3 * near[::-1], near, 0.2 * near]
    make_plant, make_ctl = grid_guard_case(-1.0)
    x = np.random.default_rng(3).standard_normal(400)
    ctl = make_ctl(filters)
    res = run_adaptive(make_plant(), ctl, x)

    plant, ref = make_plant(), make_ctl(filters)
    step = multi_control(ref)
    err, u = [], np.zeros(3)
    with pytest.raises(DivergenceError) as exc_info:
        for n in range(x.size):
            err.append(plant.step(x[n], u))
            u = step(x[n], err[-1])
    assert 0 < exc_info.value.index < x.size - 1
    assert res.diverged_at == exc_info.value.index
    assert res.diverged_coords == exc_info.value.coords == (0, 1)
    assert_same_bits(res.error, err)
    assert_same_bits(res.final_weights, ref.weights)
    assert_same_state(ctl, ref)

    # the outputs and weights before the tripping step
    before = make_ctl(filters)
    _, out = plant_loop(make_plant(), multi_control(before), x[:res.diverged_at])
    assert_same_bits(res.output, out)
    assert not np.array_equal(res.final_weights[0, 0], before.weights[0, 0])
    assert WEIGHT_GUARD < np.abs(res.final_weights[0, 1]).max()
    assert_same_bits(res.final_weights[0, 2], before.weights[0, 2])


def test_grid_norms_past_the_screen_together_pass_filter_by_filter():
    # each filter's squared norm is under the screen bound, their sum is
    # past it: the one-dot screen over all filters fails at every step,
    # and the exact check behind it, filter by filter, lets the run go on
    filters = WEIGHT_GUARD * np.array([[0.25, -0.25, 0.2, -0.1],
                                       [-0.2, 0.25, 0.1, 0.25],
                                       [0.1, 0.2, -0.25, 0.25]])
    make_plant, make_ctl = grid_guard_case(1.0)
    x = np.random.default_rng(3).standard_normal(400)
    ctl = make_ctl(filters)
    res = run_adaptive(make_plant(), ctl, x)
    assert res.diverged_at is None
    ref = make_ctl(filters)
    norms = []

    def control(xn, e):
        u = ref.step([xn], e)
        norms.append(np.sum(ref.weights[0]**2, axis=1))
        return u

    err, out = plant_loop(make_plant(), control, x)
    assert_same_bits(res.error, err)
    assert_same_bits(res.output, out)
    assert_same_state(ctl, ref)
    norms = np.array(norms)
    assert (norms.sum(axis=1) > GUARD_SCREEN).all()
    assert (norms < GUARD_SCREEN).all()


def screen_oracle(plant, ctl, x, extra=None):
    """A 1xJxK controller's `_advance` (its `step` without the finite-input
    check) on `Plant.step` errors, one sample at a time, with `extra[n]`
    added to error n. Returns the errors, the outputs, the steps after
    which the squared norm of the whole (J, L) weight stack fails
    GUARD_SCREEN and the DivergenceError or None."""
    err, out, fails = [], [], []
    u = np.zeros(ctl.n_sources)
    for n, xn in enumerate(x):
        e = plant.step(xn, u)
        if extra is not None:
            e = e + extra[n]
        err.append(e)
        try:
            u = ctl._advance(np.array([xn]), e)
        except DivergenceError as exc:
            return np.array(err), np.array(out).reshape(-1, ctl.n_sources), fails + [n], exc
        v = ctl.state.v[0].reshape(-1)
        if not (v.dot(v) <= GUARD_SCREEN):
            fails.append(n)
        out.append(u)
    return np.array(err), np.array(out), fails, None


def assert_same_values(got, want):
    """Equal arrays, NaN included, with equal sign bits."""
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def grid_case(primary, secondary, est, taps, mu, w0=None, gains=((1.0,),), **plant_kw):
    """Factories of a 1xJxK plant, J x K the shape of `gains`, whose mics
    all hear `primary` and whose path (j, k) is `secondary` scaled by
    gains[j][k], and of a McAncController whose estimate (j, k) is `est`
    scaled alike and whose filter (0, j) starts at row j of `w0`."""
    J, K = len(gains), len(gains[0])

    def make_plant():
        return Plant([np.array(primary)] * K,
                     [[np.array(secondary) * g for g in row] for row in gains], **plant_kw)

    def make_ctl():
        grid = np.array([[np.array(est) * g for g in row] for row in gains])
        ctl = McAncController(ChannelConfig(1, J, K, taps, len(est)), mu, grid)
        if w0 is not None:
            ctl.weights = np.array(w0).reshape(1, J, -1)
        return ctl

    return make_plant, make_ctl


@pytest.mark.parametrize("gain", [1e7, -1e7], ids=["just_under_half", "just_past_half"])
def test_one_filter_exact_check_runs_where_the_screen_fails(guard_spy, gain):
    # weights 0.03 from half the guard; a disturbance of about gain * 1e-3
    # moves their norm by about 4e-4 a step, outward for +1e7 and inward
    # for -1e7, so the run crosses the screen once either way
    sign = 1.0 if gain > 0 else -1.0
    w0 = [0.3e6, -0.4e6 * (1.0 - sign * 1e-7), 0.0]
    make_plant, make_ctl = grid_case([gain], [0.0, 0.5], [1.0], 3, 2e-4, w0)
    x = np.full(200, 1e-3)
    ctl = make_ctl()
    with guard_spy.watching():
        res = run_adaptive(make_plant(), ctl, x)
    ref = make_ctl()
    err, out, fails, exc = screen_oracle(make_plant(), ref, x)
    assert exc is None and res.diverged_at is None
    assert 0 < len(fails) < x.size and guard_spy.checks == fails
    assert (fails[0] == 0) == (gain < 0)
    assert_same_bits(res.error, err)
    assert_same_bits(res.output, out)
    assert_same_state(ctl, ref)


def test_one_filter_bound_resets_from_the_norm_and_runs_on(guard_spy):
    # measurement noise of 1e6 against a reference of 1e-2: the bound
    # climbs by thousands a step while the weights wander far below half
    # the guard, so it passes BOUND_LIMIT again and again, and each reset
    # brings it back to the norm
    make_plant, make_ctl = grid_case([0.0, 0.8], [0.0, 0.5], [0.0, 0.5], 4, 0.2,
                                     measurement_noise_std=1e6, seed=8)
    T = 1000
    x = 1e-2 * np.random.default_rng(8).standard_normal(T)
    ctl = make_ctl()
    with guard_spy.watching():
        res = run_adaptive(make_plant(), ctl, x)
    ref = make_ctl()
    norms = []

    def control(xn, e):
        u = ref.step([xn], e)
        norms.append(np.linalg.norm(ref.state.v))
        return u

    err, out = plant_loop(make_plant(), control, x)
    assert res.diverged_at is None
    assert 3 < len(guard_spy.resets) < T / 10 and guard_spy.checks == []
    assert max(norms) < 0.2 * WEIGHT_GUARD
    assert_same_bits(res.error, err)
    assert_same_bits(res.output, out)
    assert_same_state(ctl, ref)


def test_one_filter_trip_from_the_bound_near_the_subnormal_range(guard_spy):
    # filtered references of about 1e-304, whose squares underflow to 0,
    # meet an update coefficient of about -5e307: the weights fall by about
    # 5e3 a step from zero and trip the guard on the way
    make_plant, make_ctl = grid_case([5e303], [0.0, 0.5], [0.0, 1.0], 4, 1e308)
    x = 1e-304 * (1.0 + 0.1 * np.random.default_rng(4).random(300))
    assert not (x * x).any()
    ctl = make_ctl()
    with guard_spy.watching():
        res = run_adaptive(make_plant(), ctl, x)
    ref = make_ctl()
    err, out, fails, exc = screen_oracle(make_plant(), ref, x)
    assert exc is not None and 20 < exc.index < x.size - 1
    assert res.diverged_at == exc.index and res.diverged_coords == exc.coords == (0, 0)
    # the bound, not the squared norm, guarded the steps after the first
    assert guard_spy.resets[0] == 0 and guard_spy.resets[1] > 5
    assert guard_spy.checks == fails
    assert_same_bits(res.error, err)
    assert_same_bits(res.output, out)
    assert_same_state(ctl, ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_one_filter_non_finite_disturbance_trips_where_the_controller_does(bad):
    make_plant, make_ctl = grid_case([0.0, 0.8, -0.3], [0.0, 0.5, 0.2],
                                     [0.0, 0.0, 0.5, 0.2], 4, 0.02)
    rng = np.random.default_rng(6)
    T, at = 80, 37
    x = rng.standard_normal(T)
    extra = np.zeros((T, 1))
    extra[at] = bad
    dist = run_uncontrolled_signal(make_plant(), x)
    dist.noise = extra
    ctl = make_ctl()
    res = run_adaptive(make_plant(), ctl, x, disturbance=dist)
    ref = make_ctl()
    err, out, _, exc = screen_oracle(make_plant(), ref, x, extra)
    assert exc is not None and exc.index == at
    assert res.diverged_at == at and res.diverged_coords == exc.coords == (0, 0)
    assert_same_values(res.error, err)
    assert_same_bits(res.output, out)
    assert_same_state(ctl, ref)


# The 1x2x2 grid's loudspeaker-to-mic gains: no two paths alike.
GAINS_2X2 = ((1.0, 0.6), (0.8, 1.2))


@pytest.mark.parametrize("w0, primary, mu, x", [
    # a stack's squared norm within a few ulps of the screen, which the
    # fourth update moves across: a bound with no margin stays at
    # BOUND_LIMIT and skips the check there
    ([[-189397.5287621725, -462260.7815732426], [15064.144237588527, -14717.930440997774]],
     1.3585543884311821, 5.0148057512288546e-11,
     [0.0008303685353406952, -0.0011054158653759716, -0.001385289470147128,
      0.00020812161377524265, -0.0008037826522071053, 0.00038021105584191034]),
    # filter (0, 0) parked 0.03 from half the guard and filter (0, 1) at
    # zero: the stack's norm moves by about 1e-3 a step, outward for a
    # primary gain of +1e7 and inward for -1e7, so the run crosses the
    # screen once either way
    ([[0.3e6, -0.4e6 * (1.0 - 1e-7), 0.0], [0.0, 0.0, 0.0]], 1e7, 1e-4, [1e-3] * 200),
    ([[0.3e6, -0.4e6 * (1.0 + 1e-7), 0.0], [0.0, 0.0, 0.0]], -1e7, 1e-4, [1e-3] * 200),
], ids=["ulps_from_screen", "just_under_half", "just_past_half"])
def test_grid_exact_check_runs_where_the_screen_fails(guard_spy, w0, primary, mu, x):
    taps = len(w0[0])
    make_plant, make_ctl = grid_case([primary], [0.0, 0.5], [1.0], taps, mu, w0, GAINS_2X2)
    x = np.array(x)
    ctl = make_ctl()
    with guard_spy.watching():
        res = run_adaptive(make_plant(), ctl, x)
    ref = make_ctl()
    err, out, fails, exc = screen_oracle(make_plant(), ref, x)
    assert exc is None and res.diverged_at is None
    # both filters, in order, at each of those steps
    assert 0 < len(fails) < x.size and guard_spy.checks == [n for n in fails for _ in range(2)]
    assert guard_spy.checked == [(0, 0), (0, 1)] * len(fails)
    assert (fails[0] == 0) == (primary < 0)
    assert_same_bits(res.error, err)
    assert_same_bits(res.output, out)
    assert_same_state(ctl, ref)


def test_grid_bound_resets_from_the_norm_and_runs_on(guard_spy):
    # measurement noise of 1e6 against a reference of 1e-2: the bound
    # climbs by thousands a step while the weights wander far below half
    # the guard, so it passes BOUND_LIMIT again and again, and each reset
    # brings it back to the norm of the whole stack
    make_plant, make_ctl = grid_case([0.0, 0.8], [0.0, 0.5], [0.0, 0.5], 4, 0.1,
                                     gains=GAINS_2X2, measurement_noise_std=1e6, seed=8)
    T = 1000
    x = 1e-2 * np.random.default_rng(8).standard_normal(T)
    ctl = make_ctl()
    with guard_spy.watching():
        res = run_adaptive(make_plant(), ctl, x)
    ref = make_ctl()
    norms = []

    def control(xn, e):
        u = ref.step([xn], e)
        norms.append(np.linalg.norm(ref.state.v))
        return u

    err, out = plant_loop(make_plant(), control, x)
    assert res.diverged_at is None
    assert 3 < len(guard_spy.resets) < T / 10 and guard_spy.checks == []
    assert max(norms) < 0.2 * WEIGHT_GUARD
    assert_same_bits(res.error, err)
    assert_same_bits(res.output, out)
    assert_same_state(ctl, ref)


@pytest.mark.parametrize("gains", [GAINS_2X2, ((1.0, 1.0), (1.0, 1.0))],
                         ids=["distinct_paths", "alike_paths"])
def test_grid_trip_from_the_bound_near_the_subnormal_range(guard_spy, gains):
    # filtered references of about 1e-304, whose squares underflow to 0,
    # meet update coefficients of about -5e307 at both mics: the weights
    # fall by about 1e4 a step from zero and trip the guard on the way.
    # With alike paths both filters take the same update, whose norm over
    # the stack is sqrt(J) times one filter's
    make_plant, make_ctl = grid_case([5e303], [0.0, 0.5], [0.0, 1.0], 4, 1e308,
                                     gains=gains)
    x = 1e-304 * (1.0 + 0.1 * np.random.default_rng(4).random(300))
    assert not (x * x).any()
    ctl = make_ctl()
    with guard_spy.watching():
        res = run_adaptive(make_plant(), ctl, x)
    ref = make_ctl()
    err, out, fails, exc = screen_oracle(make_plant(), ref, x)
    assert exc is not None and 20 < exc.index < x.size - 1
    assert res.diverged_at == exc.index and res.diverged_coords == exc.coords
    # the bound, not the squared norm, guarded the steps after the first
    assert guard_spy.resets[0] == 0 and guard_spy.resets[1] > 5
    assert sorted(set(guard_spy.checks)) == fails
    assert_same_bits(res.error, err)
    assert_same_bits(res.output, out)
    assert_same_state(ctl, ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_grid_non_finite_disturbance_trips_where_the_controller_does(bad):
    make_plant, make_ctl = grid_case([0.0, 0.8, -0.3], [0.0, 0.5, 0.2],
                                     [0.0, 0.0, 0.5, 0.2], 4, 0.01, gains=GAINS_2X2)
    rng = np.random.default_rng(6)
    T, at = 80, 37
    x = rng.standard_normal(T)
    extra = np.zeros((T, 2))
    extra[at, 1] = bad
    dist = run_uncontrolled_signal(make_plant(), x)
    dist.noise = extra
    ctl = make_ctl()
    res = run_adaptive(make_plant(), ctl, x, disturbance=dist)
    ref = make_ctl()
    err, out, _, exc = screen_oracle(make_plant(), ref, x, extra)
    assert exc is not None and exc.index == at
    assert res.diverged_at == at and res.diverged_coords == exc.coords
    assert_same_values(res.error, err)
    assert_same_bits(res.output, out)
    assert_same_state(ctl, ref)


@pytest.mark.parametrize("J, K, taps", [(1, 1, 4), (2, 2, 4), (2, 2, 1)])
def test_empty_reference_gives_empty_results(J, K, taps):
    # no sample to run: no window for the running bound either, which
    # with one tap would be empty
    gains = tuple(tuple(1.0 + 0.1 * (j + k) for k in range(K)) for j in range(J))
    make_plant, make_ctl = grid_case([0.0, 0.8], [0.0, 0.5], [0.0, 0.5], taps, 0.01,
                                     gains=gains, measurement_noise_std=0.1, seed=2)
    ctl, ref = make_ctl(), make_ctl()
    ctl.weights = ref.weights = np.full((1, J, taps), 0.25)
    res = run_adaptive(make_plant(), ctl, np.empty(0))
    assert res.error.shape == (0, K) and res.output.shape == (0, J)
    assert res.diverged_at is None and res.diverged_coords is None
    assert_same_bits(res.final_weights, ref.weights)
    assert_same_state(ctl, ref)


def stepped_calls(plant, ctl, calls):
    """The per-sample oracle of `run_adaptive` over consecutive calls on
    one split: `Plant.step` errors and the controller's `_advance` (its
    `step` without the finite-input check), each call from silent
    loudspeakers. Yields (errors, outputs, diverged_at, coords) after
    each call, up to and including a call that trips the guard."""
    J, K = plant.n_sources, plant.n_mics
    for x in calls:
        err, out, at, coords = [], [], None, None
        u = np.zeros(J)
        for n, xn in enumerate(x):
            err.append(plant.step(xn, u))
            try:
                u = ctl._advance(np.array([xn]), err[-1])
            except DivergenceError as exc:
                at, coords = n, exc.coords
                break
            out.append(u)
        yield np.array(err).reshape(-1, K), np.array(out).reshape(-1, J), at, coords
        if at is not None:
            return


def random_delayed_case(seed, J, K, L, noisy, mu):
    """A 1xJxK loop whose secondary paths each start with 0-5 zero taps,
    some -0.0, then taps of both signs (some paths of one tap), with
    estimates and parked weights of both signs and a reference with silent
    stretches, cut into two calls of random lengths."""
    rng = np.random.default_rng(seed)

    def path():
        lead = np.where(rng.random(int(rng.integers(0, 6))) < 0.5, -0.0, 0.0)
        tail = rng.standard_normal(int(rng.integers(1, 4))) * 0.5
        return np.r_[lead, tail] if rng.random() < 0.9 else tail[:1]

    primaries = [rng.standard_normal(int(rng.integers(1, 6))) * 0.5 for _ in range(K)]
    secondaries = [[path() for _ in range(K)] for _ in range(J)]
    M = int(rng.integers(1, 7))
    est = rng.standard_normal((J, K, M)) * 0.4
    w0 = rng.standard_normal((1, J, L)) * 0.05
    w0[rng.random(w0.shape) < 0.3] = -0.0
    T = int(rng.integers(0, 90))
    x = rng.standard_normal(T)
    x[rng.random(T) < 0.2] = 0.0
    cut = int(rng.integers(0, T + 1))

    def make_plant():
        return Plant(primaries, secondaries, measurement_noise_std=0.05 * noisy, seed=seed)

    def make_ctl():
        ctl = McAncController(ChannelConfig(1, J, K, L, M), mu, est)
        ctl.weights = w0
        return ctl

    return make_plant, make_ctl, [x[:cut], x[cut:]]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 1), (1, 2), (2, 2)]),
       st.sampled_from([1, 3, 8]), st.booleans(), st.sampled_from([0.0, 0.02, 20.0]))
@example(11, (1, 1), 8, False, 0.02)
@example(20, (2, 2), 3, True, 0.02)
@example(4, (1, 2), 8, True, 0.0)       # no update
@example(3, (2, 2), 8, False, 20.0)     # trips inside a pass
@example(5, (1, 1), 1, True, 20.0)
def test_block_passes_match_the_per_sample_loop(seed, geometry, L, noisy, mu):
    # paths of several delays: each pass runs their shortest plus one
    # samples, the last pass of a call what is left; errors, outputs,
    # weights and a trip inside a pass are those of the per-sample loop,
    # sign bits included, and the split carries across the two calls
    make_plant, make_ctl, calls = random_delayed_case(seed, *geometry, L, noisy, mu)
    split, ctl = PlantSplit(make_plant()), make_ctl()
    ref = make_ctl()
    for x, (err, out, at, coords) in zip(calls, stepped_calls(make_plant(), ref, calls)):
        res = run_adaptive(split, ctl, x)
        assert (res.diverged_at, res.diverged_coords) == (at, coords)
        assert_same_bits(res.error, err)
        assert_same_bits(res.output, out)
        assert_same_bits(res.final_weights, ref.weights)
        assert_same_state(ctl, ref)


@pytest.mark.parametrize("paths, width", [
    ([[[0.0, 0.0, 0.3]]], 3),
    ([[[-0.0, 0.0, -0.0, 0.0, 0.2, 0.1]]], 5),
    ([[[0.0, 0.0, 0.3], [0.0, 0.5]], [[0.0, -0.0, -0.0, 0.1], [0.0, 0.0, 0.0]]], 2),
    ([[[0.0], [-0.0]]], 1),                   # paths of one tap, a product each
    ([[[0.0, 0.0, 0.3], [0.0]]], 3),          # a one-tap path padded to three
    ([[[0.4, 0.0, 0.3]]], 1),
], ids=["two_zeros", "signed_zeros", "least_of_every_path", "one_tap", "one_tap_padded",
        "undelayed"])
def test_block_width_is_one_more_than_the_zero_taps_every_path_starts_with(paths, width):
    J, K = len(paths), len(paths[0])
    split = PlantSplit(Plant([np.array([0.5])] * K, [[np.array(s) for s in row] for row in paths]))
    ctl = McAncController(ChannelConfig(1, J, K, 4, 2), 0.01, np.zeros((J, K, 2)))
    x_buf = np.ones(10)
    assert type(_block_width(split, ctl, x_buf)) is int
    assert _block_width(split, ctl, x_buf) == width
    # a reference that could overflow an output puts every path a sample a pass
    x_buf[3] = 1e300
    assert _block_width(split, ctl, x_buf) == 1


WORKLOADS = sorted((pathlib.Path(__file__).resolve().parent.parent
                    / "perfbench" / "workloads").glob("*.json"))


@pytest.mark.parametrize("path", WORKLOADS, ids=[p.stem for p in WORKLOADS])
def test_every_workload_runs_five_samples_a_pass(path):
    # the workloads' secondary paths start with 4 zero taps; a change to
    # the default paths that lost them would show only in the speed
    cfg = load_config(path)
    J, K = cfg.plant.n_sources, cfg.plant.n_mics
    ctl = build_controller(cfg, np.zeros((J, K, 2)), 0.01)
    x_buf = np.concatenate([ctl.state.x[0], build_reference(cfg).samples])
    assert _block_width(PlantSplit(build_plant(cfg)), ctl, x_buf) == 5


def assert_same_words(got, want):
    """Equal 64-bit words, every bit of every float (a zero's sign and a
    NaN's payload included), and equal sign bits."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))
    assert np.array_equal(np.signbit(got), np.signbit(want))


def lane_pair_case(seed, J, K, L, noisy, mus):
    """Two 1xJxK loops on one geometry, each with its own plant (secondary
    paths of H taps after 0 to H - 1 leading zeros, some -0.0), noise,
    estimates, starting weights with signed zeros, step size and reference
    with silent stretches, T samples each. One loop in three starts with
    its weights past the squared-norm screen: a norm of 0.9 of the guard
    over every tap, or one tap a step below the guard. Returns the two
    (plant factory, controller factory, reference) triples and two cut
    points in [0, T]."""
    rng = np.random.default_rng(seed)
    H, M, T = int(rng.integers(1, 7)), int(rng.integers(1, 6)), int(rng.integers(0, 80))

    def path():
        p = rng.standard_normal(H) * 0.5
        d = int(rng.integers(0, H))
        p[:d] = np.where(rng.random(d) < 0.5, -0.0, 0.0)
        return p

    def lane(g):
        primaries = [rng.standard_normal(int(rng.integers(1, 6))) * 0.5 for _ in range(K)]
        secondaries = [[path() for _ in range(K)] for _ in range(J)]
        est = rng.standard_normal((J, K, M)) * 0.4
        w0 = rng.standard_normal((1, J, L)) * 0.05
        near = rng.random()
        if near < 1 / 6:
            w0 = rng.choice([-1.0, 1.0], (1, J, L)) * 0.9 * WEIGHT_GUARD / np.sqrt(J * L)
        elif near < 1 / 3:
            w0[0, rng.integers(J), rng.integers(L)] = rng.choice([-1.0, 1.0]) * 0.999 * WEIGHT_GUARD
        w0[rng.random(w0.shape) < 0.3] = -0.0
        x = rng.standard_normal(T)
        x[rng.random(T) < 0.2] = 0.0

        def make_plant():
            return Plant(primaries, secondaries, measurement_noise_std=0.05 * noisy[g],
                         seed=seed + g)

        def make_ctl():
            ctl = McAncController(ChannelConfig(1, J, K, L, M), mus[g], est)
            ctl.weights = w0
            return ctl

        return make_plant, make_ctl, x

    return [lane(0), lane(1)], sorted(int(c) for c in rng.integers(0, T + 1, 2))


def assert_same_result(got, want):
    assert (got.diverged_at, got.diverged_coords) == (want.diverged_at, want.diverged_coords)
    for a, b in ((got.error, want.error), (got.output, want.output),
                 (got.final_weights, want.final_weights)):
        assert_same_words(a, b)


# `lane_pair_case`'s draws and a lane-order flag
LANE_DRAWS = (st.integers(0, 2**32 - 1), st.sampled_from([(1, 1), (1, 2), (2, 2)]),
              st.sampled_from([1, 3, 8]), st.tuples(st.booleans(), st.booleans()),
              st.tuples(*[st.sampled_from([0.0, 0.02, 20.0])] * 2), st.booleans())


def lane_strategies(f):
    return settings(max_examples=80, deadline=None)(given(*LANE_DRAWS)(f))


@lane_strategies
@example(3, (2, 2), 8, (True, False), (20.0, 0.02), False)    # lane 1 trips inside a pass
@example(3, (2, 2), 8, (False, True), (0.02, 20.0), True)     # lane 2 trips, lanes swapped
@example(7, (1, 1), 3, (True, True), (0.0, 0.02), False)      # one lane does not adapt
@example(12, (1, 2), 1, (False, False), (0.02, 0.02), True)
@example(3, (1, 1), 1, (True, False), (0.02, 0.02), False)    # one lane a step below the guard
def test_two_lanes_are_each_their_own_run(seed, geometry, L, noisy, mus, swap):
    # lane "run" takes its reference in three calls with no seam: each
    # call's first sample hears the outputs that ended the call before,
    # so together they are one `run_adaptive` call. Lane "blocks" starts
    # each of two calls from silent loudspeakers, as pre-training's
    # seconds do, and leaves after the second. Each lane equals its own
    # `run_adaptive` calls and the per-sample loop, to the bit; a lane
    # that trips the guard leaves where it tripped, the other runs on.
    (run_case, block_case), cuts = lane_pair_case(seed, *geometry, L, noisy, mus)
    T = len(run_case[2])
    bounds = [0, *cuts, T]
    splits = {"run": PlantSplit(run_case[0]()), "blocks": PlantSplit(block_case[0]())}
    ctls = {"run": run_case[1](), "blocks": block_case[1]()}
    refs = {"run": run_case[2], "blocks": block_case[2]}
    got = {"run": [], "blocks": []}
    u_prev = None
    for c, (a, b) in enumerate(zip(bounds, bounds[1:])):
        names = [name for name in ("run", "blocks")
                 if all(res.diverged_at is None for res in got[name])
                 and (name == "run" or c < 2)]
        if swap:
            names.reverse()
        lanes = [Lane(splits[n], ctls[n], refs[n][a:b], u_prev=u_prev if n == "run" else None)
                 for n in names]
        for name, res in zip(names, run_lanes(lanes) if lanes else []):
            got[name].append(res)
            if name == "run" and len(res.output):
                u_prev = res.output[-1].copy()

    # lane "run": one call over the whole reference
    runs = got["run"]
    offsets = np.cumsum([0] + [len(res.error) for res in runs])
    at = next((o + res.diverged_at for o, res in zip(offsets, runs)
               if res.diverged_at is not None), None)
    whole = run_adaptive(run_case[0](), run_case[1](), refs["run"])
    ref = run_case[1]()
    ((err, out, want_at, coords),) = stepped_calls(run_case[0](), ref, [refs["run"]])
    assert (at, runs[-1].diverged_coords) == (whole.diverged_at, whole.diverged_coords) \
        == (want_at, coords)
    for a, b in ((np.concatenate([res.error for res in runs]), whole.error),
                 (np.concatenate([res.output for res in runs]), whole.output),
                 (whole.error, err), (whole.output, out),
                 (ctls["run"].weights, whole.final_weights),
                 (whole.final_weights, ref.weights)):
        assert_same_words(a, b)
    assert_same_state(ctls["run"], ref)

    # lane "blocks": two calls, each from silence
    calls = [refs["blocks"][:cuts[0]], refs["blocks"][cuts[0]:cuts[1]]]
    split, own_ctl, ref = PlantSplit(block_case[0]()), block_case[1](), block_case[1]()
    stepped = list(stepped_calls(block_case[0](), ref, calls))
    assert len(got["blocks"]) == len(stepped)
    for res, x, (err, out, want_at, coords) in zip(got["blocks"], calls, stepped):
        assert_same_result(res, run_adaptive(split, own_ctl, x))
        assert (res.diverged_at, res.diverged_coords) == (want_at, coords)
        assert_same_words(res.error, err)
        assert_same_words(res.output, out)
    assert_same_words(ctls["blocks"].weights, ref.weights)
    assert_same_state(ctls["blocks"], ref)


@settings(max_examples=80, deadline=None)
@given(*LANE_DRAWS, st.tuples(st.booleans(), st.booleans()))
@example(3, (2, 2), 8, (True, False), (20.0, 0.02), False, (False, True))
@example(3, (2, 2), 8, (False, True), (0.02, 20.0), True, (True, False))
@example(0, (2, 2), 8, (True, False), (20.0, 20.0), False, (False, True))  # "run" trips at 13 of 40
@example(0, (2, 2), 8, (True, False), (20.0, 20.0), True, (True, True))
@example(9, (2, 2), 8, (True, False), (20.0, 20.0), False, (False, True))  # "blocks" trips in its 2nd
@example(7807, (2, 2), 3, (False, False), (20.0, 0.0), False, (True, False))  # "run" trips, both leave
@example(8, (2, 2), 3, (False, False), (0.02, 0.02), True, (False, True))  # an empty middle stretch
@example(19, (2, 2), 3, (True, True), (0.02, 0.02), False, (True, True))   # an empty first stretch
def test_a_seamless_run_beside_another_lane_is_one_call(seed, geometry, L, noisy, mus,
                                                        swap, seams):
    # two `SeamlessRun`s, each seamed or seamless: "run" over the whole
    # reference in three stretches at the cuts, "blocks" over the first two,
    # each stretch packed into one `run_lanes` call with the other run's
    # stretch while both have one (in swapped lane order with `swap`). A
    # seamed run gives its stretches' own `run_adaptive` calls, each from
    # silence, on the split and controller they carry; a seamless run gives
    # one `run_adaptive` call over its reference. A run that trips the guard
    # ends there, and the other runs on.
    (run_case, block_case), cuts = lane_pair_case(seed, *geometry, L, noisy, mus)
    cases = {"run": run_case, "blocks": (*block_case[:2], block_case[2][:cuts[1]])}
    runs = {name: SeamlessRun(plant(), make_ctl(), x, seam=seam)
            for (name, (plant, make_ctl, x)), seam in zip(cases.items(), seams)}
    stretches = {name: [] for name in runs}
    for n in np.diff([0, *cuts, len(run_case[2])]):
        names = [name for name, run in runs.items() if run.left and run.left >= n]
        if swap:
            names.reverse()
        lanes = [runs[name].stretch(n) for name in names]
        for name, lane, res in zip(names, lanes, run_lanes(lanes) if lanes else []):
            runs[name].take(res)
            stretches[name].append((lane.x, res))

    for name, (plant, make_ctl, x) in cases.items():
        if runs[name].seam:
            split, ctl = PlantSplit(plant()), make_ctl()
            for xs, res in stretches[name]:
                assert_same_result(res, run_adaptive(split, ctl, xs))
            assert_same_words(runs[name].controller.weights, ctl.weights)
        else:
            assert_same_result(runs[name].finish(), run_adaptive(plant(), make_ctl(), x))


def test_the_loops_name_no_private_attribute_of_a_controller():
    # `run_lanes` advances a controller's recursion through its public
    # `state`; the names come from a built controller, so a private
    # attribute it gains later is guarded too
    ctl = McAncController(ChannelConfig(1, 2, 2, 3, 2), 0.01, np.zeros((2, 2, 2)))
    private = {name for name in vars(ctl) if name.startswith("_")}
    tree = ast.parse(pathlib.Path(loops.__file__).read_text())
    named = {(node.lineno, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in private}
    assert named == set(), "loops reads the controller's private state"


@pytest.mark.parametrize("lengths, taps", [((10, 11), (8, 8)), ((10, 10), (8, 4))],
                         ids=["samples", "control_taps"])
def test_lanes_of_two_geometries_advance_no_split(lengths, taps):
    # the geometry check comes before any lane takes its disturbance, so
    # the split that the refused call was given runs on as if it had not
    plant = Plant([np.array([0.5, 0.25])], [[np.array([0.0, 0.0, 0.7, -0.3])]])
    est = loop_aligned_path(plant.secondaries)
    split = PlantSplit(plant)
    x = np.random.default_rng(3).standard_normal(12)
    lanes = [Lane(split if g == 0 else plant,
                  McAncController(ChannelConfig(1, 1, 1, L, est.shape[2]), 1e-3, est), x[:T])
             for g, (T, L) in enumerate(zip(lengths, taps))]
    with pytest.raises(DataError, match="lanes need one geometry"):
        run_lanes(lanes)
    ctl = McAncController(ChannelConfig(1, 1, 1, 8, est.shape[2]), 1e-3, est)
    fresh = McAncController(ChannelConfig(1, 1, 1, 8, est.shape[2]), 1e-3, est)
    assert_same_result(run_adaptive(split, ctl, x), run_adaptive(plant, fresh, x))


@pytest.mark.parametrize("kind", ["1x1", "1x2x2"])
@pytest.mark.parametrize("seconds", [1.5, 3.0])
def test_pre_training_beside_the_adaptive_arm_matches_plant_step(kind, seconds):
    # 2 s of pre-training beside the adaptive arm's first seconds: at 1.5 s
    # the arm's last half second and the second training second run alone,
    # at 3 s both seconds ride with the arm and its third runs alone.
    # Pre-training equals its per-sample oracle, every block from silence;
    # the arm equals one `run_adaptive` call and the per-sample loop.
    cfg = split_config(kind)
    cfg.duration_s = seconds
    cfg.composition.switch_times_s = [seconds / 2]
    cfg.fixed_filter.max_train_s = 2.0
    cfg.fixed_filter.min_improvement_db = -1e9     # no plateau: both seconds train
    result = run_scenario(cfg.validate())
    assert not result.any_diverged
    assert result.pretrain.seconds_trained == 2
    aligned, mu = result.installed_estimates, result.mu

    fixed_weights, nr = oracle_pretrain(cfg, aligned, mu)
    assert result.pretrain.nr_per_second_db == nr
    assert_same_words(result.fixed_weights, fixed_weights)

    x = build_reference(cfg).samples
    alone = run_adaptive(build_plant(cfg), build_controller(cfg, aligned, mu), x)
    assert_same_words(result.arms["adaptive"].error, alone.error)
    assert_same_words(result.adaptive_weights, alone.final_weights)
    if kind == "1x1":
        controller = FxlmsFilter(cfg.controller.taps, mu, aligned[0, 0])
        err, _ = plant_loop(build_plant(cfg), single_control(controller), x)
    else:
        controller = McAncController(
            ChannelConfig(1, 2, 2, cfg.controller.taps, aligned.shape[2]), mu, aligned)
        err, _ = plant_loop(build_plant(cfg), multi_control(controller), x)
    assert_same_words(alone.error, err)
    assert_same_words(alone.final_weights, grid_of(controller).weights)
