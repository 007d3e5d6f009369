"""Secondary-path identification quality and determinism."""

import numpy as np
import pytest

from ancsim.acoustics import Plant, synthetic_plant
from ancsim.adaptation import wiener_solve
from ancsim.errors import DivergenceError
from ancsim.sysid import (
    UndermodelingWarning,
    identify_all_paths,
    identify_path,
    misalignment_db,
)


def scalar_plant(s_taps):
    return Plant([[0.0]], [[s_taps]])


class TestIdentifyPath:
    def test_scalar_path(self):
        res = identify_path(scalar_plant([1.0]), 0, 0, n_taps=1, mu=0.05,
                            n_samples=10_000, seed=0)
        assert res.estimate.weights[0] == pytest.approx(1.0, abs=1e-6)
        assert res.misalignment_db < -60.0
        assert not res.undermodeled

    def test_default_16_tap_path(self):
        plant = synthetic_plant(seed=3)
        res = identify_path(plant, 0, 0, n_taps=16, mu=0.01,
                            n_samples=50_000, seed=1)
        assert res.misalignment_db < -40.0
        truth = synthetic_plant(seed=3).true_secondary(0, 0)
        np.testing.assert_allclose(res.estimate.weights, truth, atol=1e-3)

    def test_matches_wiener_solve_on_same_records(self):
        plant = synthetic_plant(seed=4)
        res = identify_path(plant, 0, 0, n_taps=16, mu=0.01,
                            n_samples=50_000, seed=2)
        w = wiener_solve(res.excitation, res.response, 16)
        np.testing.assert_allclose(res.estimate.weights, w, atol=1e-3)

    def test_undermodeling_warning(self):
        # default path: geometric decay 0.5 starting at tap 4, so the tail
        # beyond 6 taps holds ~6% of the energy (beyond 8 it is only ~0.4%,
        # below the 1% rule)
        plant = synthetic_plant(seed=5)
        with pytest.warns(UndermodelingWarning):
            res = identify_path(plant, 0, 0, n_taps=6, mu=0.01,
                                n_samples=20_000, seed=3)
        assert res.undermodeled

    def test_no_warning_when_tail_below_one_percent(self):
        import warnings as _warnings
        plant = synthetic_plant(seed=5)
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", UndermodelingWarning)
            res = identify_path(plant, 0, 0, n_taps=8, mu=0.01,
                                n_samples=20_000, seed=3)
        assert not res.undermodeled

    def test_misalignment_monotone_in_samples(self):
        # noise-free identification improves through decade checkpoints
        values = []
        for n_samples in (500, 5000, 50_000):
            plant = synthetic_plant(seed=6)
            res = identify_path(plant, 0, 0, n_taps=16, mu=0.01,
                                n_samples=n_samples, seed=4)
            values.append(res.misalignment_db)
        assert values[0] > values[1] > values[2]

    def test_deterministic_under_seed(self):
        a = identify_path(synthetic_plant(seed=7), 0, 0, 16, seed=9,
                          n_samples=5000)
        b = identify_path(synthetic_plant(seed=7), 0, 0, 16, seed=9,
                          n_samples=5000)
        assert np.array_equal(a.estimate.weights, b.estimate.weights)
        assert a.misalignment_db == b.misalignment_db

    def test_grid_indices_validated(self):
        plant = synthetic_plant(n_sources=2, n_mics=2, seed=8)
        from ancsim.errors import DataError
        with pytest.raises(DataError):
            identify_path(plant, 2, 0, 8)
        with pytest.raises(DataError):
            identify_path(plant, 0, -1, 8)

    def test_with_measurement_noise_converges_near_truth(self):
        plant = synthetic_plant(seed=9, measurement_noise_std=0.01)
        res = identify_path(plant, 0, 0, n_taps=16, mu=0.005,
                            n_samples=50_000, seed=5)
        assert res.misalignment_db < -30.0
        assert res.residual_power == pytest.approx(1e-4, rel=0.5)


class TestIdentifyAllPaths:
    def test_grid_equals_per_path_identification_on_fresh_plants(self):
        def build():
            return synthetic_plant(n_sources=2, n_mics=2, seed=12,
                                   measurement_noise_std=0.01)
        grid = identify_all_paths(build(), 8, mu=0.01, n_samples=3000, seed=21)
        children = np.random.SeedSequence(21).spawn(4)
        assert [len(row) for row in grid] == [2, 2]
        for j in range(2):
            for k in range(2):
                ref = identify_path(build(), j, k, 8, mu=0.01, n_samples=3000,
                                    seed=children[j * 2 + k])
                got = grid[j][k]
                assert got.estimate.weights.tobytes() == ref.estimate.weights.tobytes()
                assert got.response.samples.tobytes() == ref.response.samples.tobytes()
                assert got.excitation.samples.tobytes() == ref.excitation.samples.tobytes()
                assert got.misalignment_db == ref.misalignment_db
                assert got.residual_power == ref.residual_power
        # the paths differ, so a grid entry is not a copy of another
        assert grid[0][0].estimate.weights.tobytes() != grid[1][1].estimate.weights.tobytes()


class TestGridDivergence:
    def test_earliest_diverging_path_raises_at_its_own_index(self):
        # path (1, 1) is loud, so its fit passes the guard first; the grid
        # still raises for (0, 0), the first pair in (j, k) order, at the
        # index identifying (0, 0) alone raises with
        def build():
            return Plant([[0.0], [0.0]], [[[1e-3], [1e-3]], [[1e-3], [1e3]]])
        children = np.random.SeedSequence(8).spawn(4)
        indices = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for j, k in ((0, 0), (1, 1)):
                with pytest.raises(DivergenceError) as exc_info:
                    identify_path(build(), j, k, 4, mu=1.0, n_samples=400,
                                  seed=children[j * 2 + k])
                indices[j, k] = exc_info.value.index
            assert indices[1, 1] < indices[0, 0]
            with pytest.raises(DivergenceError, match=r"path \(0, 0\)") as exc_info:
                identify_all_paths(build(), 4, mu=1.0, n_samples=400, seed=8)
        assert exc_info.value.index == indices[0, 0]

    def test_warnings_of_earlier_pairs_precede_the_raise(self):
        # (0, 0) is undermodeled and fits; the (0, 1) estimate converges
        # towards a tap beyond the weight guard: sequential fitting warns
        # for (0, 0), then raises for (0, 1)
        plant = Plant([[0.0], [0.0]], [[[0.0, 0.0, 1.0], [2e6]]])
        with pytest.warns(UndermodelingWarning, match=r"path \(0, 0\)") as record:
            with pytest.raises(DivergenceError, match=r"path \(0, 1\)"):
                identify_all_paths(plant, 2, mu=0.05, n_samples=400, seed=1)
        assert len([w for w in record if w.category is UndermodelingWarning]) == 1


class TestMisalignment:
    def test_exact_match_is_minus_infinity(self):
        assert misalignment_db([1.0, 0.5], [1.0, 0.5]) == -np.inf

    def test_length_padding(self):
        # estimate shorter than truth: the tail counts as error
        v = misalignment_db([1.0, 0.0, 0.5], [1.0])
        assert v == pytest.approx(10 * np.log10(0.25 / 1.25), rel=1e-12)

    def test_zero_truth_rejected(self):
        from ancsim.errors import DataError
        with pytest.raises(DataError):
            misalignment_db([0.0, 0.0], [1.0])
