"""Destructive-interference arithmetic and the simulated acoustic plant.

The plant is plain data: its primary and secondary paths are two tap
arrays, which the loops filter with `filters.fir`; `Plant.step` is the
per-sample oracle over the same arrays.

Sign conventions, kept distinct on purpose: the plant ADDS the secondary
contribution to the disturbance (error = disturbance + paths * outputs),
so a controller must drive its output toward the negated disturbance. The
LMS module, by contrast, uses error = desired - output. Both conventions
follow their respective derivations and are not interchangeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError
from .filters import as_taps, dot, rowdots
from .ranges import Decay, NonNegativeInt, PositiveInt, Scale
from .signals import as_samples


@dataclass(frozen=True)
class MediumParams:
    """Propagation medium: density rho (kg/m^3) and speed of sound c (m/s)."""

    rho: float = 1.21
    c: float = 343.0

    def __post_init__(self):
        if not (self.rho > 0 and self.c > 0):
            raise DomainError("medium density and speed of sound must be positive")


def energy_density(amplitude: float, medium: MediumParams) -> float:
    """Average incident sound energy density A^2 / (4 rho c^2), in J/m^3."""
    if amplitude < 0:
        raise DomainError("amplitude must be non-negative")
    return amplitude**2 / (4.0 * medium.rho * medium.c**2)


def superposed_energy_density(amplitude: float, medium: MediumParams,
                              beta: float, alpha: float) -> float:
    """Energy density after adding a secondary wave of relative amplitude
    beta and phase offset alpha: E1 * (1 + 2 beta cos(alpha) + beta^2)."""
    if beta < 0:
        raise DomainError("beta must be non-negative")
    return energy_density(amplitude, medium) * (1.0 + 2.0 * beta * math.cos(alpha) + beta**2)


def spl_delta(beta: float, alpha: float) -> float:
    """Sound-pressure-level change from superposing the secondary wave:
    -10 log10(1 + 2 beta cos(alpha) + beta^2), in dB.

    Positive values mean attenuation, negative mean the combined field is
    louder. Exact cancellation (beta = 1, alpha = pi) has no finite dB
    value; math.inf is returned as the distinguished unbounded marker.
    """
    if beta < 0:
        raise DomainError("beta must be non-negative")
    factor = 1.0 + 2.0 * beta * math.cos(alpha) + beta**2
    if factor <= 0.0:
        # |1 + beta e^{j alpha}|^2 cannot go negative; 0 is perfect cancellation
        return math.inf
    return -10.0 * math.log10(factor)


class Plant:
    """Simulated acoustic environment between controller and microphones,
    held as plain data.

    `primaries` (K, P) holds one primary path per error microphone, carrying
    the reference to the disturbance; `secondaries` (J, K, H) the grid of
    paths from each loudspeaker to each microphone. Each path is padded
    with trailing zeros to the longest of its kind, as `true_secondary`
    returns it. Optional white measurement noise is drawn from a generator
    seeded with `seed`, so identical seeds give identical realizations.

    `step` is the per-sample oracle: it keeps the recent reference and
    loudspeaker samples and forms each path's output as one dot over its
    window. The closed loops read the arrays instead (`loops.PlantSplit`).
    """

    def __init__(self, primary_paths, secondary_paths,
                 measurement_noise_std: float = 0.0, seed: int = 0):
        primaries = [as_taps(p) for p in primary_paths]
        secondaries = [[as_taps(s) for s in row] for row in secondary_paths]
        self.n_sources = len(secondaries)               # J
        self.n_mics = len(primaries)                    # K
        for j, row in enumerate(secondaries):
            if len(row) != self.n_mics:
                raise DataError(
                    f"secondary path row {j} has {len(row)} entries, expected {self.n_mics}")
        if self.n_sources < 1 or self.n_mics < 1:
            raise DataError("plant needs at least one source and one microphone")
        if measurement_noise_std < 0:
            raise DomainError("measurement noise std must be non-negative")
        self.primaries = _padded(primaries)
        self.secondaries = _padded([s for row in secondaries for s in row]).reshape(
            self.n_sources, self.n_mics, -1)
        self.measurement_noise_std = float(measurement_noise_std)
        self.seed = seed
        self.reset()

    def step(self, x_sample: float, u_samples) -> np.ndarray:
        """Advance one sample: error at each microphone for reference input
        x and loudspeaker outputs u (length J)."""
        if not math.isfinite(x_sample):
            raise DataError(f"non-finite reference sample {x_sample!r}")
        u = np.atleast_1d(np.asarray(u_samples, dtype=np.float64))
        if u.size != self.n_sources:
            raise DataError(f"expected {self.n_sources} control samples, got {u.size}")
        if not np.all(np.isfinite(u)):
            raise DataError("non-finite control sample")
        x_win, u_win = self._x, self._u
        x_win[:-1] = x_win[1:]
        x_win[-1] = x_sample
        u_win[:, :-1] = u_win[:, 1:]
        u_win[:, -1] = u
        e = np.empty(self.n_mics)
        for k, p in enumerate(self._p_rev):
            e[k] = dot(p, x_win)
        for window, row in zip(u_win, self._s_rev):
            for k, s in enumerate(row):
                e[k] += dot(s, window)
        if self.measurement_noise_std > 0.0:
            e += self.measurement_noise_std * self._rng.standard_normal(self.n_mics)
        return e

    def run_uncontrolled(self, x) -> np.ndarray:
        """Errors with all loudspeakers silent, shape (len(x), K)."""
        samples = as_samples(x)
        zeros = np.zeros(self.n_sources)
        out = np.empty((samples.size, self.n_mics))
        for n in range(samples.size):
            out[n] = self.step(samples[n], zeros)
        return out

    def silent_outputs(self) -> tuple[np.ndarray, np.ndarray]:
        """Each path's output while its input is silent: (K,) primaries and
        (J, K) secondaries. Each is the path's dot over a zero window, as
        `step` forms it, so a negative tap of a one-tap path gives -0.0."""
        return (rowdots(np.zeros(self.primaries.shape[-1]), self.primaries),
                rowdots(np.zeros(self.secondaries.shape[-1]), self.secondaries))

    def true_secondary(self, j: int, k: int) -> np.ndarray:
        """Impulse response of the true path from source j to microphone k."""
        return self.secondaries[j, k].copy()

    def reset(self) -> None:
        """Zero the reference and loudspeaker histories and rewind the
        noise generator."""
        self._x = np.zeros(self.primaries.shape[1])
        self._u = np.zeros((self.n_sources, self.secondaries.shape[2]))
        # reversed taps pair with the histories, which `step` shifts in place
        self._p_rev = self.primaries[:, ::-1].copy()
        self._s_rev = self.secondaries[..., ::-1].copy()
        self._rng = np.random.default_rng(self.seed)


def _padded(paths) -> np.ndarray:
    """The paths as the rows of one array, each padded with trailing zeros
    to the longest."""
    n = max(p.size for p in paths)
    return np.array([np.pad(p, (0, n - p.size)) for p in paths])


@dataclass(frozen=True)
class PathSpec:
    """Parameterized synthetic path: `gain * decay^i` starting after `delay`
    zero taps, `taps` total length."""

    delay: NonNegativeInt
    decay: Decay
    taps: PositiveInt
    gain: Scale

    def impulse_response(self) -> np.ndarray:
        if not (0 <= self.delay < self.taps):
            raise DomainError(f"delay {self.delay} outside [0, {self.taps})")
        h = np.zeros(self.taps)
        n_active = self.taps - self.delay
        h[self.delay:] = self.gain * self.decay ** np.arange(n_active)
        return h


DEFAULT_PRIMARY = PathSpec(delay=8, decay=0.6, taps=32, gain=0.9)
DEFAULT_SECONDARY = PathSpec(delay=4, decay=0.5, taps=16, gain=0.5)


def synthetic_plant(n_sources: int = 1, n_mics: int = 1, seed: int = 0,
                    primary: PathSpec = DEFAULT_PRIMARY,
                    secondary: PathSpec = DEFAULT_SECONDARY,
                    perturbation: float = 0.1,
                    measurement_noise_std: float = 0.0) -> Plant:
    """Causal, stable synthetic plant for experiments.

    Every (j, k) secondary path gets an independent multiplicative tap
    perturbation of up to +/- `perturbation`, drawn from the seeded
    generator, so multichannel grids are non-degenerate. The secondary
    delay is shorter than the primary delay, preserving feedforward
    causality.
    """
    rng = np.random.default_rng(seed)
    s_base = secondary.impulse_response()
    secondaries = [[s_base * (1.0 + perturbation * rng.uniform(-1.0, 1.0, size=s_base.size))
                    for _ in range(n_mics)] for _ in range(n_sources)]
    return Plant([primary.impulse_response()] * n_mics, secondaries,
                 measurement_noise_std=measurement_noise_std, seed=seed)
