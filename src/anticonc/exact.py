"""Helpers for exact rational values and their wire format.

Rationals travel as "num/den" strings in every JSON interface of the
package; `fractions.Fraction` (always in lowest terms, positive
denominator) is the in-memory representation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and "num/den" strings to Fraction. A bool is
    refused: Python counts it an int, but True is no rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError(f"a rational cannot be a bool, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        raise TypeError(
            "refusing to coerce float to exact rational; pass a string or Fraction"
        )
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``values`` as integer numerators over their lcm denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def fraction_str(q: Fraction) -> str:
    q = as_fraction(q)  # rationals only: a Q(sqrt(m)) value has no wire format
    return f"{q.numerator}/{q.denominator}"


def parse_vector(items: Sequence) -> tuple[Fraction, ...]:
    """A vector given as a list or tuple of rationals; anything else, such as
    a string that would be read digit by digit, is refused."""
    if not isinstance(items, (list, tuple)):
        raise DomainError(f"a vector must be a list of rationals, got {items!r}")
    return tuple(as_fraction(x) for x in items)


def vector_str(vec: Iterable[Fraction]) -> list[str]:
    return [fraction_str(x) for x in vec]
