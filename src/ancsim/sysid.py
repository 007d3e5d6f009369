"""Offline secondary-path identification.

Drives one loudspeaker with seeded unit-power white noise while the
primary input stays muted, and adapts an FIR estimate of the path to one
error microphone with LMS. The control algorithms consume the resulting
estimates; controllers never model paths online. One `lms_fit` pass
fits all requested paths, each bit for bit its own `LmsFilter.step` loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .acoustics import Plant
from .adaptation import check_lms_args, lms_fit
from .errors import DataError, DivergenceError
from .filters import FirFilter, dot, fir
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
    denom = float(dot(t, t))
    if denom == 0.0:
        raise DataError("true path has zero energy")
    err = float(dot(t - s, t - s))
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
    if not (0 <= j < plant.n_sources and 0 <= k < plant.n_mics):
        raise DataError(f"path ({j}, {k}) outside the {plant.n_sources} x {plant.n_mics} grid")
    return next(_identify(plant, [(j, k, seed)], n_taps, mu, n_samples, sample_rate_hz))


def identify_all_paths(plant: Plant, n_taps: int, mu: float = 0.01,
                       n_samples: int = 50_000, seed: int = 0,
                       sample_rate_hz: float = 8000.0):
    """Identify the plant's full J x K grid; returns a J x K nested list.

    Pair (j, k) is excited with the (j * K + k)-th child of `seed`'s
    SeedSequence; each entry equals `identify_path` on its pair.
    """
    J, K = plant.n_sources, plant.n_mics
    children = np.random.SeedSequence(seed).spawn(J * K)
    pairs = [(j, k, children[j * K + k]) for j in range(J) for k in range(K)]
    results = list(_identify(plant, pairs, n_taps, mu, n_samples, sample_rate_hz))
    return [results[j * K:(j + 1) * K] for j in range(J)]


def _identify(plant: Plant, pairs, n_taps: int, mu: float, n_samples: int,
              sample_rate_hz: float):
    """Fit the (j, k, seed) pairs in one pass, then yield their results in
    order, warning and raising as fitting them one by one would."""
    check_lms_args(n_taps, mu)
    # row p: n_taps - 1 samples of silent history, then pair p's excitation
    x = np.zeros((len(pairs), n_taps - 1 + n_samples))
    responses = np.empty((len(pairs), n_samples))
    noise = None
    if plant.measurement_noise_std > 0.0:
        noise = plant.measurement_noise_std * np.random.default_rng(plant.seed).standard_normal(
            (n_samples, plant.n_mics))
    p_silent, s_silent = plant.silent_outputs()
    for excitation, response, (j, k, seed) in zip(x[:, n_taps - 1:], responses, pairs):
        excitation[:] = np.random.default_rng(seed).standard_normal(n_samples)
        # Plant.step(0.0, u) term by term, in the order it adds them: the
        # muted primary path and every silent secondary path give constants,
        # path (j, k) filters the excitation, then the noise
        response[:] = p_silent[k]
        for jj, row in enumerate(plant.secondaries):
            response += fir(row[k], excitation) if jj == j else s_silent[jj, k]
        if noise is not None:
            response += noise[:, k]
    # spent before the fit's outputs and errors take their (P, n_samples)
    del noise
    v = np.zeros((len(pairs), n_taps))
    e, diverged = lms_fit(v, x, responses, mu)[1:]

    for p, (j, k, _) in enumerate(pairs):
        if diverged is not None and diverged[0] == p:
            raise DivergenceError(
                f"identification of path ({j}, {k}) diverged at sample {diverged[1]}",
                index=diverged[1])
        weights, true_taps = v[p, ::-1].copy(), plant.true_secondary(j, k)
        tail_energy = float(dot(true_taps[n_taps:], true_taps[n_taps:]))
        total_energy = float(dot(true_taps, true_taps))
        undermodeled = tail_energy > 0.01 * total_energy
        if undermodeled:
            warnings.warn(
                f"path ({j}, {k}) estimate of {n_taps} taps truncates "
                f"{100 * tail_energy / total_energy:.1f}% of the impulse-response "
                f"energy", UndermodelingWarning, stacklevel=3)
        yield IdentificationResult(
            estimate=FirFilter(weights),
            misalignment_db=misalignment_db(true_taps, weights),
            residual_power=float(np.mean(e[p, -max(n_samples // 10, 1):] ** 2)),
            excitation=Signal(x[p, n_taps - 1:], sample_rate_hz, label=f"excitation_{j}_{k}"),
            response=Signal(responses[p], sample_rate_hz, label=f"response_{j}_{k}"),
            undermodeled=undermodeled,
        )
