"""Exception hierarchy shared across the library.

The CLI maps these onto exit codes: config problems exit 2, adaptive
divergence exits 3, file I/O problems exit 4.
"""


class AncError(Exception):
    """Base class for all library errors."""


class ConfigError(AncError):
    """Invalid or inconsistent experiment configuration."""


class DataError(AncError):
    """Invalid signal data: non-finite samples, length or rate mismatch."""


class DomainError(AncError):
    """Argument outside the mathematically valid domain of an operation."""


class DivergenceError(AncError):
    """An adaptive update produced a non-finite or guard-exceeding weight.

    `index` is the step at which the guard tripped; `coords` identifies the
    (reference, source) filter in a multichannel controller, when relevant.
    """

    def __init__(self, message: str, index: int, coords: tuple | None = None):
        super().__init__(message)
        self.index = index
        self.coords = coords


class ConditioningError(AncError):
    """A sample autocorrelation matrix is too ill-conditioned to solve."""


class UndefinedBoundError(AncError):
    """A step-size bound is undefined (zero-power signal or denominator)."""


class WavError(AncError):
    """Base class for WAV file problems."""


class MalformedWavError(WavError):
    """File is not a parseable RIFF/WAVE stream."""


class UnsupportedWavError(WavError):
    """Parseable WAV, but a codec/layout this library does not handle."""


class EmptyWavError(WavError):
    """WAV contains no audio samples."""
