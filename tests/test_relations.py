"""Run-level metamorphic relations that hold bit for bit on any BLAS kernel.

In IEEE 754 arithmetic a product by a power of two is exact unless it
overflows or underflows (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 2002, §2.1), so every dot of a run scaled by two
is the unscaled dot scaled by two, whatever order a kernel sums in. On
one 3 s `combined` run:

- `plant.primary.gain` x 2 doubles every arm's error and leaves every
  noise-reduction file byte-identical;
- `plant.secondary.gain` x 2 under `mu: auto` doubles the identified
  estimates, so the resolved mu is exactly a quarter and the weights
  exactly a half, and leaves every arm's error and every exported file
  but the weights and `summary.json` byte-identical.

Through `run_adaptive` at 1x1x1 and 1x2x2, with measurement noise:

- the reference and the noise x 2 with mu / 4 give exactly twice the
  errors: each update's error and filtered reference both double, so the
  weights' steps are the unscaled ones;
- causality: a call over a prefix of the reference gives, bit for bit,
  the prefix of a longer call's errors and outputs, whatever tail pass
  the prefix's length leaves.

Trailing zero taps: a plant pads every path to the longest of its kind,
so paths given at their own lengths and the same paths padded to the
grid's longest are one plant. Its disturbance, both loops and its
identification are the same bits, and an explicit run's exports the
same bytes, but for the config hash in `summary.json`.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ancsim.acoustics import DEFAULT_PRIMARY, Plant, synthetic_plant
from ancsim.config import PlantConfig, config_hash, default_config
from ancsim.loops import (
    loop_aligned_path,
    run_adaptive,
    run_fixed,
    run_uncontrolled_signal,
)
from ancsim.mcanc import ChannelConfig, McAncController
from ancsim.reporting import export_report
from ancsim.scenario import run_scenario
from ancsim.sysid import identify_all_paths

WEIGHTS = {"adaptive_weights.anw", "adaptive_weights.json",
           "fixed_weights.anw", "fixed_weights.json"}


def small_config():
    cfg = default_config("combined", duration_s=3.0, seed=7)
    cfg.composition.switch_times_s = [1.5]
    cfg.sysid.n_samples = 8000
    cfg.fixed_filter.max_train_s = 3.0
    return cfg


def run(cfg, out):
    """The run's result and its exported files' bytes, by name."""
    result = run_scenario(cfg)
    export_report(result, out)
    return result, {p.name: p.read_bytes() for p in out.iterdir()}


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    return run(small_config(), tmp_path_factory.mktemp("base"))


def test_doubling_the_primary_gain_doubles_every_error(base, tmp_path):
    cfg = small_config()
    cfg.plant.primary = replace(cfg.plant.primary, gain=2.0 * cfg.plant.primary.gain)
    (result, files), (want, want_files) = run(cfg, tmp_path), base
    assert result.mu == want.mu
    for name, arm in want.arms.items():
        assert np.array_equal(bits(result.arms[name].error), bits(2.0 * arm.error)), name
    nr = sorted(n for n in files if n.endswith("_nr.csv"))
    assert len(nr) == 3
    assert [n for n in nr if files[n] != want_files[n]] == []


def test_doubling_the_secondary_gain_under_auto_mu_moves_only_mu_and_the_weights(
        base, tmp_path):
    cfg = small_config()
    assert cfg.controller.mu == "auto"
    cfg.plant.secondary = replace(cfg.plant.secondary, gain=2.0 * cfg.plant.secondary.gain)
    (result, files), (want, want_files) = run(cfg, tmp_path), base
    assert result.mu == want.mu / 4.0
    assert np.array_equal(bits(result.adaptive_weights), bits(0.5 * want.adaptive_weights))
    assert np.array_equal(bits(result.fixed_weights), bits(0.5 * want.fixed_weights))
    for name, arm in want.arms.items():
        assert np.array_equal(bits(result.arms[name].error), bits(arm.error)), name
    assert set(files) == set(want_files)
    assert {n for n in files if files[n] != want_files[n]} == WEIGHTS | {"summary.json"}


def adaptive_run(J, K, x, mu, noise_std=0.01):
    """`run_adaptive` of a zero-weight 32-tap controller whose estimates
    are the loop-aligned true paths of a seeded JxK plant with noise."""
    plant = synthetic_plant(J, K, seed=5, measurement_noise_std=noise_std)
    est = loop_aligned_path(np.array([[plant.true_secondary(j, k) for k in range(K)]
                                      for j in range(J)]))
    ctl = McAncController(ChannelConfig(1, J, K, 32, est.shape[2]), mu, est)
    res = run_adaptive(plant, ctl, x)
    assert res.diverged_at is None
    return res


def reference(T):
    return 0.5 * np.random.default_rng(8).standard_normal(T)


@pytest.mark.parametrize("J, K", [(1, 1), (2, 2)])
def test_doubling_the_reference_and_noise_with_a_quarter_mu_doubles_the_error(J, K):
    x = reference(4000)
    base = adaptive_run(J, K, x, 2e-3)
    scaled = adaptive_run(J, K, 2.0 * x, 2e-3 / 4.0, noise_std=0.02)
    assert np.array_equal(bits(scaled.error), bits(2.0 * base.error))


@pytest.mark.parametrize("J, K", [(1, 1), (2, 2)])
def test_a_prefix_of_the_reference_gives_the_prefix_of_the_run(J, K):
    x = reference(24_000)
    whole, prefix = adaptive_run(J, K, x, 2e-3), adaptive_run(J, K, x[:7001], 2e-3)
    assert np.array_equal(bits(prefix.error), bits(whole.error[:7001]))
    assert np.array_equal(bits(prefix.output), bits(whole.output[:7001]))


def padded(paths):
    """Every path with trailing +0.0 taps up to the longest."""
    n = max(len(p) for p in paths)
    return [np.pad(np.asarray(p, dtype=np.float64), (0, n - len(p))) for p in paths]


def padded_grid(rows):
    """A J x K grid of paths, every one padded to the grid's longest."""
    flat, K = padded([s for row in rows for s in row]), len(rows[0])
    return [flat[j * K:(j + 1) * K] for j in range(len(rows))]


def plant_bits(primaries, secondaries, noise_std, seed):
    """Every array a seeded 1xJxK loop and identification give on the
    plant with these paths, over a reference with silent stretches."""
    J, K = len(secondaries), len(primaries)
    plant = Plant(primaries, secondaries, measurement_noise_std=noise_std, seed=seed)
    rng = np.random.default_rng(seed)
    x = np.r_[np.zeros(10), rng.standard_normal(100), np.zeros(20), rng.standard_normal(70)]
    est = 0.4 * rng.standard_normal((J, K, 3))
    dist = run_uncontrolled_signal(plant, x)
    adaptive = run_adaptive(plant, McAncController(ChannelConfig(1, J, K, 4, 3), 0.01, est),
                            x, disturbance=dist)
    fixed = run_fixed(plant, 0.1 * rng.standard_normal((1, J, 4)), x, disturbance=dist)
    out = [dist.uncontrolled(), adaptive.error, adaptive.output, adaptive.final_weights,
           np.array([-1 if adaptive.diverged_at is None else adaptive.diverged_at]),
           fixed.error, fixed.output]
    for row in identify_all_paths(plant, 8, n_samples=150, seed=seed):
        for r in row:
            out += [r.estimate.weights, r.response.samples,
                    np.array([r.misalignment_db, r.residual_power])]
    return out


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.sampled_from([1, 2]),
       st.sampled_from([0.0, 0.02]))
@example(79, 1, 2, 0.0)     # a one-tap primary path in a longer pair, over silence
@example(200, 1, 2, 0.0)
def test_trailing_zero_taps_up_to_the_longest_path_change_no_bit(seed, J, K, noise_std):
    # paths of 1-8 taps, each after 0 to all-but-one leading zeros of
    # either sign; a one-tap path in a longer grid is padded, so over
    # silence its dot sums to +0.0 where a plain product keeps -0.0
    rng = np.random.default_rng(seed)

    def path():
        taps = 0.5 * rng.standard_normal(int(rng.integers(1, 9)))
        lead = int(rng.integers(0, taps.size))
        taps[:lead] = np.where(rng.random(lead) < 0.5, -0.0, 0.0)
        return taps

    primaries = [path() for _ in range(K)]
    secondaries = [[path() for _ in range(K)] for _ in range(J)]
    twin = plant_bits(padded(primaries), padded_grid(secondaries), noise_std, seed)
    for got, want in zip(plant_bits(primaries, secondaries, noise_std, seed), twin,
                         strict=True):
        assert np.array_equal(bits(got), bits(want))


RAGGED = [[[0.0, 0.0, 0.5, 0.25, 0.125, 0.06, 0.03, 0.015, 0.008, 0.004, 0.002, 0.001,
            0.0005, 0.0002, 0.0001, 0.00005], [0.0, 0.0, -0.3, 0.1, 0.05]],
          [[0.0, 0.0, 0.4, -0.2, 0.1, 0.05, 0.02, 0.01, 0.005], [0.0, 0.0, 0.6]]]


def explicit_config(secondary_taps, mode):
    cfg = small_config()
    cfg.controller.kind = "multichannel"
    cfg.controller.taps = 32
    cfg.sysid.mode, cfg.sysid.taps = mode, 16
    cfg.plant = PlantConfig(kind="explicit", n_sources=2, n_mics=2, measurement_noise_std=0.01,
                            primary_taps=DEFAULT_PRIMARY.impulse_response().tolist(),
                            secondary_taps=secondary_taps)
    return cfg.validate()


@pytest.mark.parametrize("mode", ["identify", "exact"])
def test_an_explicit_ragged_plant_exports_its_padded_twin(tmp_path, mode):
    ragged = explicit_config(RAGGED, mode)
    twin = explicit_config([[p.tolist() for p in row] for row in padded_grid(RAGGED)], mode)
    assert config_hash(ragged) != config_hash(twin)
    files = run(ragged, tmp_path / "ragged")[1]
    want = run(twin, tmp_path / "twin")[1]
    assert set(files) == set(want)
    files["summary.json"] = files["summary.json"].replace(
        config_hash(ragged).encode(), config_hash(twin).encode())
    assert [n for n in files if files[n] != want[n]] == []
