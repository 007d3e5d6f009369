"""Range-annotated number types, read by `config`'s schema walker."""

from typing import Annotated

PositiveInt = Annotated[int, "a positive integer", lambda v: v > 0]
NonNegativeInt = Annotated[int, "a non-negative integer", lambda v: v >= 0]
Positive = Annotated[float, "a positive finite number", lambda v: v > 0]
NonNegative = Annotated[float, "a non-negative finite number", lambda v: v >= 0]
Fraction = Annotated[float, "a finite number in [0, 1)", lambda v: 0 <= v < 1]
