"""Exact arithmetic in real quadratic fields Q(sqrt(m)).

The octagon's coordinates lie in Q(sqrt(2)) and the sharpness points' in
Q(sqrt(3)). Such points go through the same "d < 1" kernel as rational ones
(``geometry._near_masks``): `QuadExt` supports the operations the kernel
uses (``+``, ``-``, ``*``, ``**``, ``abs``, ``sum``, and ``<``, which is all
``bisect`` needs), and ``numerator``/``denominator`` scale a coordinate into
Z[sqrt(m)] as they scale a Fraction into Z. Power sums of such coordinates
stay inside the field, so every comparison against 1 is decided exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import as_fraction


@dataclass(frozen=True, slots=True)
class QuadExt:
    """Field element a + b*sqrt(m) with rational a, b and squarefree m > 1.

    The components are Fractions, or ints for an element of Z[sqrt(m)]. The
    class's own operations build their results by ``_quad``, unchecked.
    """

    a: Fraction
    b: Fraction
    m: int

    def __post_init__(self):
        if self.m < 2 or math.isqrt(self.m) ** 2 == self.m:
            raise ValueError(f"m must be a non-square above 1, got {self.m}")

    @classmethod
    def of(cls, a, b=0, m=2) -> "QuadExt":
        return cls(as_fraction(a), as_fraction(b), m)

    def __add__(self, other):
        other = self._coerce(other)
        return _quad(self.a + other.a, self.b + other.b, self.m)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return _quad(self.a - other.a, self.b - other.b, self.m)

    def __neg__(self):
        return _quad(-self.a, -self.b, self.m)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __mul__(self, other):
        other = self._coerce(other)
        return _quad(
            self.a * other.a + self.m * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.m,
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        out = _quad(1, 0, self.m)
        for _ in range(e):
            out = out * self
        return out

    def _coerce(self, other) -> "QuadExt":
        if type(other) is QuadExt and other.m == self.m:
            return other
        if isinstance(other, QuadExt):
            raise ValueError("mixing different quadratic fields")
        return _quad(other if isinstance(other, int) else as_fraction(other), 0, self.m)

    @property
    def denominator(self) -> int:
        """Least positive int d with d * self in Z[sqrt(m)]."""
        return math.lcm(self.a.denominator, self.b.denominator)

    @property
    def numerator(self) -> "QuadExt":
        """self * denominator, with int components."""
        d = self.denominator
        return _quad(int(self.a * d), int(self.b * d), self.m)

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(m)."""
        sa, sb = _sign(self.a), _sign(self.b)
        if sa * sb >= 0:
            return sa or sb
        # signs differ: the larger of a^2 and m*b^2 wins
        return sa * _sign(self.a * self.a - self.m * self.b * self.b)

    def __eq__(self, other):
        """Exact: both parts of the difference vanish. Two fields meet in Q."""
        if isinstance(other, QuadExt):
            same_field = other.m == self.m or self.b == 0 == other.b
            return same_field and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        return hash(self.a if self.b == 0 else (self.a, self.b, self.m))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.m)


_set_a, _set_b, _set_m = (QuadExt.__dict__[f].__set__ for f in ("a", "b", "m"))


def _quad(a, b, m: int) -> QuadExt:
    """``QuadExt(a, b, m)`` without the check of m, for a checked m."""
    q = object.__new__(QuadExt)
    _set_a(q, a)
    _set_b(q, b)
    _set_m(q, m)
    return q


def _sign(x) -> int:
    return (x > 0) - (x < 0)
