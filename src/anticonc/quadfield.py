"""Exact arithmetic in real quadratic fields Q(sqrt(m)).

The octagon's coordinates lie in Q(sqrt(2)) and the sharpness points' in
Q(sqrt(3)). `QuadExt` is how such points enter and leave the library: a
config scales them once into Z[sqrt(m)] and stores them as `QuadExt` values
with int parts. The hot kernels do no `QuadExt` arithmetic. They read a point
as the flat int tuple (a0, b0, a1, b1, ...) of its coordinates a_i + b_i
sqrt(m) (``_pairs``): the planar l2 row test decides "dx^2 + dy^2 < s^2" on
those ints, and product sums add them. Sorts and row-end bisections compare
the exact int keys floor(c 2^K) of ``_floor_keys``. `QuadExt` keeps the
operations the other norms' tests, the box sweep and the scenarios use
(``+``, ``-``, ``*``, ``**``, ``abs``, ``sum``, the comparisons), so every
decision stays exact. No library code calls ``<=``, but it stays: an int has
no comparison with a `QuadExt`, so without ``__le__`` both ``q <= 3`` and its
reflection ``3 >= q`` would raise `TypeError`.
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


def _scaled_points(points) -> tuple[int, tuple[tuple[QuadExt, ...], ...]]:
    """The lcm of the denominators of every coordinate's two parts, and the
    points times it, in Z[sqrt(m)]."""
    scale = math.lcm(*(f.denominator for p in points for c in p for f in (c.a, c.b)))
    up = lambda f: f.numerator * (scale // f.denominator)
    return scale, tuple(tuple(_quad(up(c.a), up(c.b), c.m) for c in p) for p in points)


def _over(c: QuadExt, scale: int) -> QuadExt:
    """c / scale for c in Z[sqrt(m)]."""
    return _quad(Fraction(c.a, scale), Fraction(c.b, scale), c.m)


def _pairs(points) -> list[tuple[int, ...]]:
    """The flat int tuple (a0, b0, a1, b1, ...) of each point of Z[sqrt(m)],
    with coordinates a_i + b_i sqrt(m)."""
    return [tuple([x for c in p for x in (c.a, c.b)]) for p in points]


def _from_pairs(flat, m: int) -> list[tuple[QuadExt, ...]]:
    """The points of the flat int tuples that ``_pairs`` returns."""
    return [tuple([_quad(f[i], f[i + 1], m) for i in range(0, len(f), 2)]) for f in flat]


def _floor_keys(values, reach: int = 0) -> tuple[int, list[int]]:
    """``(K, keys)``: the int floor(c 2^K) of each c in ``values``, elements
    a + b sqrt(m) of Z[sqrt(m)], with K so large that for any two of them x,
    y and any int |t| <= reach, x + t < y exactly when key(x) + t 2^K <
    key(y), and x + t == y exactly when those are equal.

    For a nonzero u + v sqrt(m) with ints u, v, |u^2 - m v^2| >= 1 as m is
    not a square, so |u + v sqrt(m)| >= 1 / (|u| + |v| sqrt(m)). Here
    |u| <= 2A + reach and |v| <= 2B for the largest |a| = A and |b| = B,
    and 2^K exceeds 2A + reach + 2Bm, so distinct values of x + t and y lie
    more than 2^-K apart and their floors differ the same way. ``values``
    is not empty.
    """
    m, aa, bb = values[0].m, [c.a for c in values], [c.b for c in values]
    k = (2 * max(map(abs, aa)) + reach + 2 * m * max(map(abs, bb))).bit_length()
    mk, keys = m << 2 * k, []
    for a, b in zip(aa, bb):
        r = math.isqrt(mk * b * b)  # floor(|b| sqrt(m) 2^K), never exact for b != 0
        keys.append((a << k) + (r if b >= 0 else -r - 1))
    return k, keys
