"""Range-annotated number types, read by `config`'s schema walker."""

from typing import Annotated

PositiveInt = Annotated[int, "a positive integer", lambda v: v > 0]
NonNegativeInt = Annotated[int, "a non-negative integer", lambda v: v >= 0]
Positive = Annotated[float, "a positive finite number", lambda v: v > 0]
NonNegative = Annotated[float, "a non-negative finite number", lambda v: v >= 0]
Fraction = Annotated[float, "a finite number in [0, 1)", lambda v: 0 <= v < 1]
# Far beyond the unit-power sources and unit-gain paths of a run; past
# this a run's sums of squares can overflow.
Scale = Annotated[float, "a number within +-1e6", lambda v: abs(v) <= 1e6]
NonNegativeScale = Annotated[float, "a number in [0, 1e6]", lambda v: 0 <= v <= 1e6]
Decay = Annotated[float, "a number in [-1, 1]", lambda v: abs(v) <= 1]
