"""Offline secondary-path identification.

Drives one loudspeaker with seeded unit-power white noise while the
primary input stays muted, and adapts an FIR estimate of the path to one
error microphone with LMS. The control algorithms consume the resulting
estimates; controllers never model paths online.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .acoustics import Plant
from .adaptation import LmsFilter
from .errors import DataError, DivergenceError
from .filters import FirFilter
from .signals import Signal


class UndermodelingWarning(UserWarning):
    """Estimate is shorter than the true path and the truncated tail holds
    more than 1% of the impulse-response energy."""


@dataclass
class IdentificationResult:
    """Converged estimate plus quality figures.

    misalignment_db is 10 log10(||s_true - s_hat||^2 / ||s_true||^2)
    against the plant's true path (None when truth is unavailable);
    residual_power is the mean squared identification error over the last
    tenth of the run. The excitation/response records are kept so the
    estimate can be cross-checked against the optimal-filter solution.
    """

    estimate: FirFilter
    misalignment_db: float | None
    residual_power: float
    excitation: Signal
    response: Signal
    undermodeled: bool = False


def misalignment_db(true_taps, estimate_taps) -> float:
    """Normalized estimation error in dB, zero-padding the shorter vector."""
    t = np.atleast_1d(np.asarray(true_taps, dtype=np.float64))
    s = np.atleast_1d(np.asarray(estimate_taps, dtype=np.float64))
    n = max(t.size, s.size)
    t = np.pad(t, (0, n - t.size))
    s = np.pad(s, (0, n - s.size))
    denom = float(np.dot(t, t))
    if denom == 0.0:
        raise DataError("true path has zero energy")
    err = float(np.dot(t - s, t - s))
    if err == 0.0:
        return -np.inf
    return 10.0 * np.log10(err / denom)


def identify_path(plant: Plant, j: int, k: int, n_taps: int,
                  mu: float = 0.01, n_samples: int = 50_000,
                  seed: int = 0, sample_rate_hz: float = 8000.0) -> IdentificationResult:
    """Identify the (j, k) secondary path of a quiescent plant.

    The plant is excited through loudspeaker j only (x = 0, other
    loudspeakers silent) and the microphone-k response is fitted by a
    length-`n_taps` LMS filter. Warns about undermodeling when the true
    path's tail beyond `n_taps` carries over 1% of its energy.

    The response is that of the freshly built (or reset) plant; the
    plant's own state is neither read nor advanced.
    """
    if not (0 <= j < plant.n_sources):
        raise DataError(f"source index {j} outside [0, {plant.n_sources})")
    if not (0 <= k < plant.n_mics):
        raise DataError(f"microphone index {k} outside [0, {plant.n_mics})")
    rng = np.random.default_rng(seed)
    excitation = rng.standard_normal(n_samples)

    # Plant.step(0.0, u) term by term, in the order it adds them: the
    # muted primary path and every silent secondary path give constants,
    # path (j, k) filters the excitation, then the noise
    response = np.full(n_samples, plant.primaries[k].clone().process_sample(0.0))
    for jj, row in enumerate(plant.secondaries):
        path = row[k].clone()
        response += path.process(excitation) if jj == j else path.process_sample(0.0)
    if plant.measurement_noise_std > 0.0:
        noise = np.random.default_rng(plant.seed).standard_normal((n_samples, plant.n_mics))
        response += plant.measurement_noise_std * noise[:, k]

    lms = LmsFilter(n_taps, mu)
    run = lms.run(excitation, response)
    if run.diverged_at is not None:
        raise DivergenceError(
            f"identification of path ({j}, {k}) diverged", index=run.diverged_at)

    true_taps = plant.true_secondary(j, k)
    tail = true_taps[n_taps:]
    total_energy = float(np.dot(true_taps, true_taps))
    undermodeled = False
    if tail.size and total_energy > 0.0:
        tail_energy = float(np.dot(tail, tail))
        if tail_energy > 0.01 * total_energy:
            undermodeled = True
            warnings.warn(
                f"path ({j}, {k}) estimate of {n_taps} taps truncates "
                f"{100 * tail_energy / total_energy:.1f}% of the impulse-response "
                f"energy", UndermodelingWarning, stacklevel=2)

    tail_len = max(n_samples // 10, 1)
    residual_power = float(np.mean(run.e[-tail_len:] ** 2))
    return IdentificationResult(
        estimate=FirFilter(run.final_weights),
        misalignment_db=misalignment_db(true_taps, run.final_weights),
        residual_power=residual_power,
        excitation=Signal(excitation, sample_rate_hz, label=f"excitation_{j}_{k}"),
        response=Signal(response, sample_rate_hz, label=f"response_{j}_{k}"),
        undermodeled=undermodeled,
    )


def identify_all_paths(plant: Plant, n_taps: int, mu: float = 0.01,
                       n_samples: int = 50_000, seed: int = 0,
                       sample_rate_hz: float = 8000.0):
    """Identify the plant's full J x K grid; returns a J x K nested list.

    Pair (j, k) is excited with the (j * K + k)-th child of `seed`'s
    SeedSequence. `identify_path` neither reads nor advances the plant's
    state, so every pair sees the quiescent plant.
    """
    children = np.random.SeedSequence(seed).spawn(plant.n_sources * plant.n_mics)
    return [[identify_path(plant, j, k, n_taps, mu=mu, n_samples=n_samples,
                           seed=children[j * plant.n_mics + k],
                           sample_rate_hz=sample_rate_hz)
             for k in range(plant.n_mics)]
            for j in range(plant.n_sources)]
