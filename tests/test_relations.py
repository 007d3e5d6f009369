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
"""

from dataclasses import replace

import numpy as np
import pytest

from ancsim.acoustics import synthetic_plant
from ancsim.config import default_config
from ancsim.loops import loop_aligned_path, run_adaptive
from ancsim.mcanc import ChannelConfig, McAncController
from ancsim.reporting import export_report
from ancsim.scenario import run_scenario

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
