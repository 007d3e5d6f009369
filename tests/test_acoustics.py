"""Interference arithmetic and plant behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ancsim.acoustics import (
    MediumParams,
    PathSpec,
    Plant,
    energy_density,
    spl_delta,
    superposed_energy_density,
    synthetic_plant,
)
from ancsim.errors import DataError, DomainError
from ancsim.filters import FirFilter


class TestEnergyDensity:
    def test_zero_amplitude(self):
        assert energy_density(0.0, MediumParams()) == 0.0

    def test_direct_substitution(self):
        assert energy_density(2.0, MediumParams(rho=1.0, c=1.0)) == 1.0

    def test_air_at_unit_amplitude(self):
        expected = 1.0 / (4 * 1.21 * 343.0**2)
        assert energy_density(1.0, MediumParams(rho=1.21, c=343.0)) == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(1.756e-6, rel=1e-3)

    def test_invalid_medium(self):
        with pytest.raises(DomainError):
            MediumParams(rho=0.0, c=343.0)
        with pytest.raises(DomainError):
            MediumParams(rho=1.2, c=-1.0)

    def test_superposed_matches_factor(self):
        m = MediumParams()
        e1 = energy_density(1.0, m)
        e2 = superposed_energy_density(1.0, m, beta=1.0, alpha=0.0)
        assert e2 == pytest.approx(4 * e1, rel=1e-12)
        # spl delta is exactly the dB ratio of the two densities
        assert spl_delta(1.0, 0.0) == pytest.approx(10 * math.log10(e1 / e2), rel=1e-12)


class TestSplDelta:
    def test_no_secondary_source(self):
        for alpha in (0.0, 1.0, math.pi):
            assert spl_delta(0.0, alpha) == 0.0

    def test_constructive_doubling(self):
        assert spl_delta(1.0, 0.0) == pytest.approx(-10 * math.log10(4), abs=1e-12)
        assert spl_delta(1.0, 0.0) == pytest.approx(-6.0206, abs=1e-4)

    def test_near_perfect_cancellation(self):
        # closed form: -10 log10(2 + 2 cos(pi - a))
        assert spl_delta(1.0, math.pi - 0.1) == pytest.approx(
            -10 * math.log10(2 + 2 * math.cos(math.pi - 0.1)), rel=1e-12)
        assert spl_delta(1.0, math.pi - 0.1) == pytest.approx(20.0036, abs=1e-3)
        assert spl_delta(1.0, math.pi - 0.05) == pytest.approx(26.0215, abs=1e-3)

    def test_perfect_cancellation_is_unbounded(self):
        assert spl_delta(1.0, math.pi) == math.inf

    @settings(max_examples=50)
    @given(beta=st.floats(0.0, 5.0), alpha=st.floats(-math.pi, math.pi))
    def test_cosine_symmetry(self, beta, alpha):
        assert spl_delta(beta, alpha) == spl_delta(beta, -alpha)

    def test_monotone_in_alpha_for_unit_beta(self):
        alphas = np.linspace(0.0, math.pi, 200)
        deltas = [spl_delta(1.0, a) for a in alphas]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))

    def test_negative_beta_rejected(self):
        with pytest.raises(DomainError):
            spl_delta(-0.1, 0.0)


def single_path_plant(primary, secondary, noise=0.0, seed=0):
    return Plant([primary], [[secondary]],
                 measurement_noise_std=noise, seed=seed)


class TestPlantStep:
    def test_all_zero_paths(self):
        plant = single_path_plant([0.0], [0.0])
        for x, u in [(1.0, 0.5), (-2.0, 3.0)]:
            assert plant.step(x, [u])[0] == 0.0

    def test_perfect_instantaneous_cancellation(self):
        plant = single_path_plant([1.0], [1.0])
        assert plant.step(1.0, [-1.0])[0] == 0.0

    def test_two_step_hand_trace(self):
        plant = single_path_plant([0.0, 1.0], [0.9])
        assert plant.step(1.0, [0.0])[0] == 0.0
        assert plant.step(0.0, [-1.0])[0] == pytest.approx(0.1, abs=1e-15)

    def test_uncontrolled_reproduces_fir_exactly(self):
        rng = np.random.default_rng(1)
        p = rng.standard_normal(16)
        x = rng.standard_normal(400)
        plant = single_path_plant(p, np.zeros(4))
        d = plant.run_uncontrolled(x)[:, 0]
        assert np.array_equal(d, FirFilter(p).process(x))

    def test_superposition(self):
        rng = np.random.default_rng(2)
        p = rng.standard_normal(8)
        s = rng.standard_normal(5)
        x = rng.standard_normal(200)
        u = rng.standard_normal(200)

        def respond(xs, us):
            plant = single_path_plant(p, s)
            return np.array([plant.step(xs[n], [us[n]])[0] for n in range(200)])

        both = respond(x, u)
        only_x = respond(x, np.zeros(200))
        only_u = respond(np.zeros(200), u)
        np.testing.assert_allclose(both, only_x + only_u, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        plant = single_path_plant([1.0], [1.0])
        with pytest.raises(DataError):
            plant.step(1.0, [1.0, 2.0])

    def test_non_finite_rejected(self):
        plant = single_path_plant([1.0], [1.0])
        with pytest.raises(DataError):
            plant.step(float("nan"), [0.0])
        with pytest.raises(DataError):
            plant.step(0.0, [float("inf")])

    def test_measurement_noise_deterministic_per_seed(self):
        x = np.ones(50)
        a = single_path_plant([1.0], [0.5], noise=0.1, seed=9).run_uncontrolled(x)
        b = single_path_plant([1.0], [0.5], noise=0.1, seed=9).run_uncontrolled(x)
        c = single_path_plant([1.0], [0.5], noise=0.1, seed=10).run_uncontrolled(x)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_reset_rewinds_noise_and_state(self):
        plant = single_path_plant([0.2, 0.8], [0.5], noise=0.05, seed=4)
        x = np.linspace(-1, 1, 64)
        first = plant.run_uncontrolled(x)
        plant.reset()
        assert np.array_equal(plant.run_uncontrolled(x), first)


class TestSyntheticPlant:
    def test_geometry(self):
        plant = synthetic_plant(n_sources=2, n_mics=3, seed=5)
        assert plant.n_sources == 2
        assert plant.n_mics == 3
        assert plant.true_secondary(1, 2).size == 16

    def test_default_path_shapes(self):
        p = PathSpec(delay=8, decay=0.6, taps=32, gain=0.9).impulse_response()
        assert p.size == 32
        assert np.all(p[:8] == 0.0)
        assert p[8] == 0.9
        assert p[9] == pytest.approx(0.9 * 0.6)
        plant = synthetic_plant(seed=0, perturbation=0.0)
        np.testing.assert_array_equal(plant.primaries[0], p)
        s = plant.true_secondary(0, 0)
        assert np.all(s[:4] == 0.0)
        assert s[4] == 0.5
        assert s[5] == pytest.approx(0.25)

    def test_perturbation_bounded_and_seeded(self):
        a = synthetic_plant(seed=3).true_secondary(0, 0)
        b = synthetic_plant(seed=3).true_secondary(0, 0)
        base = PathSpec(4, 0.5, 16, 0.5).impulse_response()
        assert np.array_equal(a, b)
        nz = base != 0
        ratio = a[nz] / base[nz]
        assert np.all((ratio >= 0.9) & (ratio <= 1.1))

    def test_paths_differ_across_grid(self):
        plant = synthetic_plant(n_sources=2, n_mics=2, seed=1)
        assert not np.array_equal(plant.true_secondary(0, 0), plant.true_secondary(1, 1))
