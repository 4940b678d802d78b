"""Finite point configurations and measures in small normed spaces.

Coordinates are exact rationals. Point configurations and measures also
accept coordinates from one real quadratic field Q(sqrt(m)) (`QuadExt`), for
distance graphs, concentrations and product sums; serialisation and
near-line fitting stay rational. The design rule of the module: every
comparison that feeds a combinatorial decision (is a pair an edge, is a pair
a block pair, does a functional separate two points) is decided exactly,
floats appear only in reported magnitudes. For the p-norms this is possible
because ``d(x, y) < 1`` is equivalent to ``sum |dx_i|^p < 1``, a comparison
inside the coordinate field whenever p is an integer. Near-line fits are exact
too in linf and exponents 1 and 2, in every dimension; only lp with p >= 3,
whose distances to a line are irrational, certifies by a float search.

Every "d < 1" decision over a point set goes through one row test per norm,
``_row_test``, on coordinates scaled to Z or Z[sqrt(m)]; planar l2 decides
Z[sqrt(m)] points on ints alone, through each point's flat int tuple
(``PointConfig._pairs``), and sorts and row-end bisections compare exact int
keys (``PointConfig._keys``), so `QuadExt` arithmetic is left to the other
norms and the API edge. ``_near_masks``
sweeps it into the adjacency bitmasks the graph solvers read, once per
config, and blocks apply it where only consecutive points can be near;
``dist_vs_one`` checks one pair. Concentration builds no graph: in linf, in
planar l1 and on the line its cliques are the atom sets of half-open unit
boxes, which ``_box_search`` sweeps; elsewhere ``_window_search`` runs the
clique branch and bound on rows swept on demand, each root bounded by the
weight of its unit x-window.

The invariant of configs, measures and blocks (``chains.Block``): the
integer form is stored and each Fraction value is built once, where it is
read. A config stores its points times one positive int
(``PointConfig.scaled``), a measure its weights as integer numerators over
their lcm (``VectorMeasure._ints``), a block its scaled points and
functional numerators. Every constructor, public or private, ends in its
class's one initialiser, which stores that form. A public config of
rational points also keeps the Fraction points it was given, and a measure
carries them through its merge and sort; everything built from integers
derives ``points``, ``weights``, ``f_raw`` and a concentration's
``witness_points`` on first read (`_IntForm`), as do Q(sqrt(m)) configs.
``_scaled_integers`` is the only code that scales Fractions, once per public
config or block; code that holds integers (product sums, merges, dilations,
uniform multisets, chains) builds through ``_from_scaled`` or ``_from_ints``.
A `LineFrame` likewise scales its coefficients once (``LineFrame._scaled``);
support checks, separation checks and blocks take functional values as
integer numerators on the two forms.

Supported norms: l1, l2, linf and lp with integer p >= 1. Rational
non-integer p would require algebraic-number arithmetic for exact edge
decisions and is rejected. Paths follow the exponent, never the name, so
lp(1) and lp(2) run as l1 and l2 everywhere. Two `NormSpec` kernels, on ints,
Fractions, Z[sqrt(m)] values and floats alike, hold every norm formula:
``_power`` (||x|| ** exponent) and ``_dual`` (the dual norm).
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import accumulate, chain
from typing import Iterable, Iterator, Optional, Sequence

from .caps import check
from .errors import (
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    UnsupportedNorm,
)
from .exact import _numerators, as_fraction, fraction_str, parse_vector, vector_str
from .perfect_graphs import DistGraph, _branch_and_bound, _iter_bits
from .quadfield import QuadExt, _floor_keys, _from_pairs, _over, _pairs, _scaled_points

Point = tuple[Fraction, ...]

_FLOAT_GUARD = 1e-9  # safety margin for the few non-exact certifications


@dataclass(frozen=True)
class NormSpec:
    """A norm on R^d: one of l1, l2, linf, lp (integer p)."""

    kind: str
    dimension: int
    p: Optional[Fraction] = None

    def __post_init__(self):
        # an int only: not a bool (an int subclass), not a float such as 2.7
        if type(self.dimension) is not int or self.dimension < 1:
            raise DomainError(f"dimension must be an int >= 1, got {self.dimension!r}")
        if self.kind not in ("l1", "l2", "linf", "lp"):
            raise UnsupportedNorm(f"unknown norm kind {self.kind!r}")
        if self.kind == "lp":
            if self.p is None:
                raise UnsupportedNorm("lp norm needs p, got none")
            p = as_fraction(self.p)
            if p < 1:
                raise UnsupportedNorm("lp norm needs p >= 1")
            if p.denominator != 1:
                raise UnsupportedNorm(
                    "lp with non-integer p cannot decide edges exactly; "
                    "use an integer p"
                )
            object.__setattr__(self, "p", p)
        elif self.p is not None:
            raise DomainError(f"p is only meaningful for lp norms")

    @property
    def exponent(self) -> int:
        """The integer power applied coordinatewise before summing; 1 for
        linf, whose power sum is the maximum, the norm itself."""
        if self.kind == "l2":
            return 2
        if self.kind == "lp":
            return int(self.p)
        return 1

    @property
    def is_hilbert(self) -> bool:
        return self.kind == "l2" or (self.kind == "lp" and self.p == 2)

    @property
    def _model(self) -> tuple[bool, int, int]:  # all that paths read: lp(1) is l1, lp(2) is l2
        return self.kind == "linf", self.exponent, self.dimension

    def _power(self, vec):
        """||vec|| ** exponent: max |x_i| for linf, else sum |x_i| ** e. Exact on
        ints, Fractions and Z[sqrt(m)] values, the float formula on floats."""
        if self.kind == "linf":
            return max(map(abs, vec))
        e = self.exponent
        return sum([abs(x) ** e for x in vec])

    def _dual(self, v):
        """The dual norm of v, squared for exponent 2; None for p >= 3, whose
        dual exponent is not an integer."""
        if self.kind == "linf":
            return sum(map(abs, v))
        e = self.exponent
        return max(map(abs, v)) if e == 1 else sum([c * c for c in v]) if e == 2 else None

    @property
    def near_line_radius(self) -> float:
        """Strip half-width under which distance graphs are perfect."""
        return math.sqrt(3) / 4 if self.is_hilbert else 0.125

    @property
    def near_line_radius_sq(self) -> Fraction:
        """Exact square of the near-line radius (3/16 or 1/64)."""
        return Fraction(3, 16) if self.is_hilbert else Fraction(1, 64)

    def to_json(self):
        if self.kind == "lp":
            return {"lp": fraction_str(self.p)}
        return self.kind

    @classmethod
    def from_json(cls, data, dimension: int) -> "NormSpec":
        if isinstance(data, str):
            return cls(data, dimension)
        if isinstance(data, dict) and data.keys() == {"lp"}:
            return cls("lp", dimension, as_fraction(data["lp"]))
        raise DomainError(f"bad norm spec {data!r}")


def l2(dimension: int) -> NormSpec:
    return NormSpec("l2", dimension)


def l1(dimension: int) -> NormSpec:
    return NormSpec("l1", dimension)


def linf(dimension: int) -> NormSpec:
    return NormSpec("linf", dimension)


def lp(p, dimension: int) -> NormSpec:
    return NormSpec("lp", dimension, as_fraction(p))


# --- exact distance primitives ----------------------------------------------


def _check_dims(norm: NormSpec, *vecs: Point) -> None:
    for v in vecs:
        if len(v) != norm.dimension:
            raise DimensionMismatch(
                f"expected dimension {norm.dimension}, got {len(v)}"
            )


norm_power = NormSpec._power  # norm_power(norm, vec): ||vec|| ** exponent, which compares to 1 as d does


def norm_float(norm: NormSpec, vec: Sequence[Fraction]) -> float:
    return float(norm_power(norm, vec)) ** (1.0 / norm.exponent)  # x ** 1.0 is x


def _sign_vs_one(power: Fraction) -> int:
    """Sign of d - 1 from the power sum d ** exponent."""
    return (power > 1) - (power < 1)


def dist_vs_one(norm: NormSpec, x: Point, y: Point) -> int:
    """Sign of d(x, y) - 1, decided exactly."""
    _check_dims(norm, x, y)
    return _sign_vs_one(norm_power(norm, tuple(a - b for a, b in zip(x, y))))


@dataclass(frozen=True)
class Distance:
    """Distance value with an exactly decided comparison against 1."""

    value: float
    compare_one: int
    exact: Optional[Fraction]  # the distance itself when it is rational
    power_sum: Fraction  # ||x-y||^exponent, always rational


def distance(norm: NormSpec, x, y) -> Distance:
    x = parse_vector(x)
    y = parse_vector(y)
    _check_dims(norm, x, y)
    diff = tuple(a - b for a, b in zip(x, y))
    power = norm_power(norm, diff)
    e = norm.exponent
    return Distance(float(power) ** (1.0 / e), _sign_vs_one(power), power if e == 1 else None, power)


# --- configurations and measures ---------------------------------------------


class _IntForm:
    """Base of the classes that store only an integer form: each field named
    in a class's ``_derive`` table is derived from that form on first read."""

    def __getattr__(self, name):
        if name not in type(self)._derive:
            raise AttributeError(name)
        value = self.__dict__[name] = type(self)._derive[name](self)
        return value


@dataclass(frozen=True)
class PointConfig(_IntForm):
    """Ordered point sequence; duplicates allowed and kept.

    Coordinates are all rational or all `QuadExt` values with one m. A config
    stores ``scaled = (s, s * points)``, with s a positive int that takes every
    coordinate into Z (or Z[sqrt(m)]): the integer form every exact decision
    on the points reads. Derived from it on first read: ``points``, unless the
    public constructor kept the rational points it was given; ``_keys``, the
    order form of ``_order_form`` that sorts and bisections read; and for
    Z[sqrt(m)] ``_pairs``, each point's flat int tuple (a0, b0, a1, b1, ...)
    that the planar l2 test and product sums read (None for rational points).
    """

    norm: NormSpec
    points: tuple[Point, ...]

    _derive = {
        "points": lambda self: _unscaled(*self.scaled),
        "_keys": lambda self: _order_form(*self.scaled),
        "_pairs": lambda self: _pairs(self.scaled[1]) if _is_quad(self.scaled[1]) else None,
    }

    def __init__(self, norm: NormSpec, points: Sequence[Sequence]):
        pts = tuple(map(tuple, points))
        if _is_quad(pts):
            first = pts[0][0]
            if any(not isinstance(c, QuadExt) or c.m != first.m for p in pts for c in p):
                raise DomainError("coordinates must be all rational or all in one Q(sqrt(m))")
            kept = {}
        else:
            pts = tuple(tuple(map(as_fraction, p)) for p in pts)
            kept = {"points": pts}  # rational points are kept as given
        for p in pts:
            if len(p) != norm.dimension:
                raise DimensionMismatch("point dimension does not match norm")
        self._init(norm, *_scaled_integers(pts), **kept)

    @classmethod
    def _from_scaled(cls, norm: NormSpec, scale: int, ipts: Sequence[tuple], **derived) -> "PointConfig":
        """The config of the points ``ipts / scale``, storing this integer form.

        The callers hold integer forms of checked configs of this norm, so
        the points need no second check; a caller that holds derived fields
        (``points``, ``_keys``, ``_pairs``) of these points hands them over."""
        config = object.__new__(cls)
        config._init(norm, scale, ipts, **derived)
        return config

    def _init(self, norm: NormSpec, scale: int, ipts: Sequence[tuple], **derived) -> None:
        self.__dict__.update(norm=norm, scaled=(scale, tuple(ipts)), **derived)

    def __len__(self) -> int:
        return len(self.scaled[1])

    @cached_property
    def _graph(self) -> DistGraph:
        """The strict distance graph, swept once on first use."""
        return DistGraph._from_masks(len(self), *_near_masks(self.norm, *self.scaled))

    def to_json(self) -> dict:
        return {
            "norm": self.norm.to_json(),
            "dim": self.norm.dimension,
            "points": [vector_str(p) for p in self.points],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PointConfig":
        norm = NormSpec.from_json(data["norm"], data["dim"])
        return cls(norm, tuple(parse_vector(p) for p in data["points"]))


@dataclass(frozen=True)
class VectorMeasure(_IntForm):
    """Finitely supported probability measure; equal atoms are merged. It
    stores its sorted config and ``_ints``, the weights as integer numerators
    over their lcm; ``weights`` is derived from them on first read."""

    config: PointConfig
    weights: tuple[Fraction, ...]

    _derive = {"weights": lambda self: tuple(Fraction(u, self._ints[1]) for u in self._ints[0])}

    def __init__(self, config: PointConfig, weights: Sequence):
        ws = tuple(as_fraction(w) for w in weights)
        if len(ws) != len(config):
            raise DomainError("weights do not align with points")
        nums, den = _numerators(ws)
        if any(u < 0 for u in nums):
            raise DomainError("negative weight")
        # a positive scale keeps the lexicographic order: merge on integers
        scale, ipts = config.scaled
        merged: dict[tuple, int] = {}
        for p, u in zip(ipts, nums):
            if u:
                merged[p] = merged.get(p, 0) + u
        pts = list(merged)
        unit, keys = _order_form(scale, pts)
        order = sorted(range(len(pts)), key=keys.__getitem__)
        derived = {"_keys": (unit, [keys[i] for i in order])}
        if "points" in config.__dict__:  # the kept points, carried to the merged, sorted ones
            kept = dict(zip(ipts, config.points))
            derived["points"] = tuple([kept[pts[i]] for i in order])
        config = PointConfig._from_scaled(config.norm, scale, [pts[i] for i in order], **derived)
        self._init(config, [merged[pts[i]] for i in order], den)

    @classmethod
    def _from_ints(cls, config: PointConfig, nums: Sequence[int], den: int) -> "VectorMeasure":
        """Weights ``nums / den`` on the strictly increasing points of ``config``."""
        keys = config._keys[1]
        if not all(p < q for p, q in zip(keys, keys[1:])):
            raise InvariantViolation("the points of a measure must be strictly increasing")
        measure = object.__new__(cls)
        measure._init(config, nums, den)
        return measure

    def _init(self, config: PointConfig, nums: Sequence[int], den: int) -> None:
        """Check ``nums / den`` as weights on the sorted points of ``config``
        and store them over their lcm."""
        g = math.gcd(den, *nums)
        nums, den = tuple(u // g for u in nums), den // g
        if len(nums) != len(config):
            raise DomainError("weights do not align with points")
        if not all(u > 0 for u in nums):
            raise DomainError("weights must be positive")
        if sum(nums) != den:
            raise DomainError("weights must sum to exactly 1")
        self.__dict__.update(config=config, _ints=(nums, den))

    @property
    def norm(self) -> NormSpec:
        return self.config.norm

    @property
    def points(self) -> tuple[Point, ...]:
        return self.config.points

    def atoms(self) -> Iterable[tuple[Point, Fraction]]:
        return zip(self.config.points, self.weights)

    def dilate(self, factor) -> "VectorMeasure":
        f = as_fraction(factor)  # x -> f x on the integer form: (s, X) -> (s b, a X) for f = a / b
        s, ipts = self.config.scaled
        pts = [tuple(f.numerator * c for c in p) for p in ipts]
        return VectorMeasure(PointConfig._from_scaled(self.norm, s * f.denominator, pts), self.weights)

    @classmethod
    def uniform(cls, norm: NormSpec, points: Sequence[Sequence]) -> "VectorMeasure":
        pts = tuple(parse_vector(p) for p in points)
        w = Fraction(1, len(pts))
        return cls(PointConfig(norm, pts), tuple(w for _ in pts))

    def to_json(self) -> dict:
        return {
            "norm": self.norm.to_json(),
            "dim": self.norm.dimension,
            "atoms": [
                {"point": vector_str(p), "weight": fraction_str(w)}
                for p, w in self.atoms()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "VectorMeasure":
        norm = NormSpec.from_json(data["norm"], data["dim"])
        pts = tuple(parse_vector(a["point"]) for a in data["atoms"])
        ws = tuple(as_fraction(a["weight"]) for a in data["atoms"])
        return cls(PointConfig(norm, pts), ws)


def _scaled_integers(points: Sequence[Point]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The lcm of all coordinate denominators, and the points times it: ints,
    or elements of Z[sqrt(m)] for `QuadExt` coordinates."""
    if _is_quad(points):
        return _scaled_points(points)
    scale = math.lcm(*(c.denominator for p in points for c in p))
    return scale, tuple(tuple(c.numerator * (scale // c.denominator) for c in p) for p in points)


def _unscaled(scale: int, ipts: Sequence[tuple]) -> tuple[Point, ...]:
    """The points ``ipts / scale``: Fractions, or `QuadExt` values for
    Z[sqrt(m)] coordinates, each distinct coordinate divided once."""
    over = _over if _is_quad(ipts) else Fraction
    coord = {c: over(c, scale) for c in set(chain.from_iterable(ipts))}
    return tuple([tuple(map(coord.__getitem__, p)) for p in ipts])


def _row_test(norm: NormSpec, s: int, pts: Sequence[tuple], pairs=None):
    """The one near test, near(a, row): the b in ``row`` with d(pts[a], pts[b])
    < s, on points scaled by s to Z or Z[sqrt(m)]. In the plane linf and
    exponents 1 and 2 are inlined, and exponent 2 decides Z[sqrt(m)] points
    on their flat int tuples, ``pairs`` if the caller holds them."""
    linf, e = norm.kind == "linf", norm.exponent
    if norm.dimension != 2 or not (linf or e <= 2):
        power, limit = norm._power, s**e
        return lambda a, row: [b for b in row if power(map(operator.sub, pts[a], pts[b])) < limit]
    xs, ys, ss = [q[0] for q in pts], [q[1] for q in pts], s * s
    if e == 2 and not linf and _is_quad(pts):
        m, flat = xs[0].m, pairs or _pairs(pts)
        m4 = 4 * m

        def near(i, row):
            # dx = a + b sqrt(m), dy = c + d sqrt(m): dx^2 + dy^2 < s^2 exactly
            # when 2t sqrt(m) < r, with r = s^2 - (a^2 + m b^2 + c^2 + m d^2)
            # and t = ab + cd, decided by the signs and by 4m t^2 against r^2
            a0, b0, c0, d0 = flat[i]
            out = []
            for j in row:
                a1, b1, c1, d1 = flat[j]
                a = a1 - a0; b = b1 - b0; c = c1 - c0; d = d1 - d0
                r = ss - a * a - c * c - m * (b * b + d * d)
                t = a * b + c * d
                if t < 0:
                    if r >= 0 or m4 * t * t > r * r:
                        out.append(j)
                elif r > 0 and m4 * t * t < r * r:
                    out.append(j)
            return out

        return near
    if linf:
        return lambda a, row: [b for b in row if abs(xs[b] - xs[a]) < s and abs(ys[b] - ys[a]) < s]
    if e == 1:
        return lambda a, row: [b for b in row if abs(xs[b] - xs[a]) + abs(ys[b] - ys[a]) < s]
    return lambda a, row: [b for b in row if (dx := xs[b] - xs[a]) * dx + (dy := ys[b] - ys[a]) * dy < ss]


def _near_masks(norm: NormSpec, s: int, ipts: Sequence[tuple]) -> tuple[list[int], tuple[int, ...]]:
    """Adjacency bitmasks of the pairs i != j with d(ipts[i] / s, ipts[j] / s)
    < 1, decided on the integer form of the points (``PointConfig.scaled``).

    Coordinates are ints, or Z[sqrt(m)] values for `QuadExt` points. The
    points are swept in order of x, returned too (the graph keeps it for
    ``is_berge``), on the exact int keys of ``_order_form``; bisection ends a
    row at the first x-gap of at least 1, exact because |dx_1| <= ||dx||, and
    ``_row_test`` decides the pairs in it.
    """
    _check_dims(norm, *ipts)
    unit, keys = _order_form(s, ipts)
    xk = [k[0] for k in keys]
    order = tuple(sorted(range(len(ipts)), key=xk.__getitem__))
    xs, near = [xk[i] for i in order], _row_test(norm, s, ipts)
    masks = [0] * len(ipts)
    for a, x in enumerate(xs):
        i = order[a]
        for j in near(i, order[a + 1 : bisect_left(xs, x + unit, a + 1)]):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks, order


def _is_quad(pts: Sequence[tuple]) -> bool:
    """Whether the points' coordinates are `QuadExt` values (they are all or none)."""
    return bool(pts) and bool(pts[0]) and isinstance(pts[0][0], QuadExt)


def _order_form(s: int, ipts: Sequence[tuple]) -> tuple[int, Sequence[tuple]]:
    """``(unit, keys)`` for points scaled by s: int tuples ordered as the
    points are, coordinate by coordinate, and the key of a step of 1, so that
    sorts and row-end bisections run on ints. Rational points are their own
    keys, with unit s. Z[sqrt(m)] points have the floor keys of
    ``quadfield._floor_keys``, exact for steps up to 1, with unit s 2^K."""
    if not _is_quad(ipts):
        return s, ipts
    k, keys = _floor_keys([c for p in ipts for c in p], s)
    it = iter(keys)
    return s << k, list(zip(*[it] * len(ipts[0])))


def distance_graph(config: PointConfig) -> DistGraph:
    """Strict distance graph: edge exactly when d(x_i, x_j) < 1.

    Duplicate points are at distance 0 and therefore always adjacent. The
    graph is built once per config and shared.
    """
    return config._graph


# --- supporting functionals and line frames ----------------------------------


@dataclass(frozen=True)
class LineFrame:
    """A line (base + span of direction) with a supporting functional.

    The functional is f(x) = <coeffs, x> / scale where the positive scale is
    represented exactly through scale ** scale_root = scale_pow. Comparisons
    of functional gaps against rational thresholds are decided exactly by
    raising both sides to scale_root.
    """

    norm: NormSpec
    direction: Point
    base: Point
    coeffs: Point
    scale_pow: Fraction
    scale_root: int

    def f_raw(self, x: Sequence[Fraction]) -> Fraction:
        return sum((c * v for c, v in zip(self.coeffs, x)), Fraction(0))

    def raw_gap_at_least(self, gap: Fraction, threshold: Fraction) -> bool:
        """Exactly decide |gap| / scale >= threshold for threshold >= 0."""
        g = abs(gap)
        t = as_fraction(threshold)
        return g ** self.scale_root >= (t ** self.scale_root) * self.scale_pow

    def gap_at_least(self, x, y, threshold) -> bool:
        _check_dims(self.norm, x, y)
        return self.raw_gap_at_least(self.f_raw(x) - self.f_raw(y), threshold)

    def supports(self, x: Sequence[Fraction]) -> bool:
        """Exactly decide |f(x)| <= ||x||.

        Both sides raised to scale_root are rational: ||x|| ** scale_root is
        the coordinate power sum (scale_root equals the norm exponent), and
        for linf the norm itself (scale_root 1).
        """
        _check_dims(self.norm, x)
        g = abs(self.f_raw(x))
        return g ** self.scale_root <= self.scale_pow * norm_power(self.norm, x)

    def attains_one_on_direction(self) -> bool:
        """Exactly decide f(direction / ||direction||) == 1."""
        g = self.f_raw(self.direction)
        return g > 0 and g ** self.scale_root == self.scale_pow * norm_power(self.norm, self.direction)

    @cached_property
    def _scaled(self) -> tuple[int, tuple[int, ...]]:
        """``(t, C)``: a positive int t and the integer coefficients
        C = t * coeffs, so that f_raw(X / s) = <C, X> / st."""
        t, (icoeffs,) = _scaled_integers([self.coeffs])
        return t, icoeffs

    def _dots(self, ipts: Iterable[tuple]) -> list:
        """The numerators <C, X> of f_raw at the integer points ``ipts``."""
        icoeffs = self._scaled[1]
        return [sum(map(operator.mul, icoeffs, x)) for x in ipts]

    def _half_apart(self, st: int):
        """The test "a gap D / st of f_raw is at least 1/2 in units of the
        scale" on the integer numerator D: (2|D|) ** r * den >= st ** r * num
        with r = scale_root and num / den = scale_pow."""
        r, num, den = self.scale_root, self.scale_pow.numerator, self.scale_pow.denominator
        gap_min = st**r * num
        return lambda d: (2 * abs(d)) ** r * den >= gap_min

    @cached_property
    def _consecutive_only(self) -> bool:
        """Whether the functional's dual norm is at most its scale, so |f| <=
        ||.||: points of a block two apart then differ by at least 1 in f,
        hence in norm, and only consecutive points can be near. False where
        ``NormSpec._dual`` is None, and for a zero scale, where every gap passes."""
        t, icoeffs = self._scaled
        r, num, den = self.scale_root, self.scale_pow.numerator, self.scale_pow.denominator
        dual, k = self.norm._dual(icoeffs), 1 + self.norm.is_hilbert  # k: the power of _dual
        return dual is not None and num > 0 and dual**r * den**k <= num**k * t ** (k * r)

    def verify_supporting(self, points: Iterable[Sequence[Fraction]] | PointConfig) -> None:
        """``supports`` at every point, decided on the points and coefficients
        scaled to integers. A `PointConfig` is checked on its stored integer
        form; points of another dimension than the frame's raise
        `DimensionMismatch`."""
        if isinstance(points, PointConfig):
            s, ipts = points.scaled
            _check_dims(self.norm, *ipts[:1])  # a config's points share one dimension
        else:
            points = list(points)
            _check_dims(self.norm, *points)
            s, ipts = _scaled_integers(points)
        t = self._scaled[0]
        r, e = self.scale_root, self.norm.exponent
        lhs_mul = self.scale_pow.denominator * s**e
        rhs_mul = self.scale_pow.numerator * (s * t) ** r
        for i, (x, dot) in enumerate(zip(ipts, self._dots(ipts))):
            if abs(dot) ** r * lhs_mul > rhs_mul * self.norm._power(x):
                p = (points.points if isinstance(points, PointConfig) else points)[i]
                raise InvariantViolation(f"functional exceeds the norm at point {p}")


def supporting_functional(
    norm: NormSpec, direction, base=None
) -> LineFrame:
    """Norm-bounded linear functional equal to 1 on the unit direction.

    linf: sign-carrying coordinate functional at a maximal coordinate. Any
    other norm, of exponent e: coefficients sign(d_i)|d_i|^(e-1) over the
    scale ||d||_e^(e-1) (l1: the sign vector; l2: the inner product).
    """
    d = parse_vector(direction)
    _check_dims(norm, d)
    if all(c == 0 for c in d):
        raise DomainError("direction must be nonzero")
    b = parse_vector(base) if base is not None else tuple(
        Fraction(0) for _ in range(norm.dimension)
    )
    _check_dims(norm, b)
    if norm.kind == "linf":
        j = max(range(len(d)), key=lambda i: (abs(d[i]), -i))
        coeffs = tuple(
            (Fraction(1) if d[j] > 0 else Fraction(-1)) if i == j else Fraction(0)
            for i in range(len(d))
        )
        frame = LineFrame(norm, d, b, coeffs, Fraction(1), 1)
    else:
        e = norm.exponent
        coeffs = tuple(
            (1 if c > 0 else -1) * abs(c) ** (e - 1) if c != 0 else Fraction(0)
            for c in d
        )
        # scale = ||d|| ** (e - 1), so scale ** e = (||d|| ** e) ** (e - 1)
        frame = LineFrame(norm, d, b, coeffs, norm_power(norm, d) ** (e - 1), e)
    if not frame.attains_one_on_direction():
        raise InvariantViolation("functional does not attain 1 on its direction")
    return frame


# --- near-line fitting --------------------------------------------------------


@dataclass(frozen=True)
class NearLineFit:
    """Best candidate line with its certified deviation."""

    frame: LineFrame
    max_deviation: float
    certified: bool  # max_deviation < near-line radius, decided exactly
    exact_sq: Optional[Fraction]  # squared deviation when the norm is Hilbert
    exact: Optional[Fraction]  # deviation itself for linf and exponent 1, in every dimension


def _primitive(diff: Sequence[int]) -> tuple[int, ...]:
    """The primitive integer vector along a nonzero integer vector: coprime
    coordinates, first nonzero coordinate positive."""
    g = math.gcd(*diff)
    if next(c for c in diff if c) < 0:
        g = -g
    return tuple(c // g for c in diff)


def _candidate_directions(points: Sequence[tuple[int, ...]], d: int) -> Iterator[tuple[int, ...]]:
    """The axes, then the direction of every pairwise difference, first seen
    first, each line direction once as a primitive vector; lazily, so a scan
    that stops early pays only for the pairs it reached."""
    seen = set()
    for i in range(d):
        seen.add(axis := tuple(int(j == i) for j in range(d)))
        yield axis
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            if p != q:
                cand = _primitive([a - b for a, b in zip(p, q)])
                if cand not in seen:
                    seen.add(cand)
                    yield cand


def _hull(points: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Convex hull vertices of integer points in the plane, by Andrew's
    monotone chain: a linear functional's extremes over the points are there."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    hull: list[tuple[int, int]] = []
    for seq in (pts, pts[::-1]):
        start = len(hull)
        for x, y in seq:
            while len(hull) > start + 1:
                (ax, ay), (bx, by) = hull[-2], hull[-1]
                if (bx - ax) * (y - ay) > (by - ay) * (x - ax):
                    break
                hull.pop()
            hull.append((x, y))
        hull.pop()
    return hull


_PLANE_AXES = ((1, 0), (0, 1))


def _planar_key(norm: NormSpec, hull: Sequence[tuple[int, int]], v: tuple[int, int]) -> tuple:
    """``(num, den, lo, hi)``: the extremes lo, hi of det(v, x) over the hull
    and the key num / den that orders directions as their deviations do: the
    spread hi - lo over the dual norm of v, both squared for exponent 2."""
    v0, v1 = v
    dets = [v0 * y - v1 * x for x, y in hull]
    lo, hi = min(dets), max(dets)
    return (hi - lo) ** (1 + norm.is_hilbert), norm._dual(v), lo, hi


def _planar_fit(norm: NormSpec, scale: int, v: tuple[int, int], key: tuple) -> tuple:
    """``((v, base), (max_deviation, certified, exact_sq, exact))`` for the
    `_planar_key` of v on points scaled by ``scale``: the line
    det(v, x) = (lo + hi) / 2, through its point nearest 0."""
    (v0, v1), (num, den, lo, hi) = v, key
    base_den = 2 * scale * (v0 * v0 + v1 * v1)
    base = (Fraction(-v1 * (lo + hi), base_den), Fraction(v0 * (lo + hi), base_den))
    return (v, base), _fit_fields(norm, scale, Fraction(num, den))


def _fit_fields(norm: NormSpec, scale: int, key: Fraction) -> tuple:
    """The other `NearLineFit` fields of an exact deviation of the points times 2s (squared if Hilbert)."""
    dev = key / (4 * scale * scale if norm.is_hilbert else 2 * scale)
    if norm.is_hilbert:
        return math.sqrt(float(dev)), dev < norm.near_line_radius_sq, dev, None
    return float(dev), dev * dev < norm.near_line_radius_sq, None, dev


def _line_deviation(norm: NormSpec, r: Sequence[int], v: Sequence[int]) -> Fraction:
    """min over t of ||r - t v||, squared for exponent 2, for integer r and v != 0 in linf or
    exponent 1 or 2: exact, from the 2x2 minors m_jk = r_j v_k - r_k v_j."""
    idx = range(len(v))
    m = [[r[j] * v[k] - r[k] * v[j] for k in idx] for j in idx]
    if norm.kind == "linf":  # Helly on the line: the slabs |r_j - t v_j| <= c meet if every two do
        pairs = ((j, k) for j in idx for k in idx[j + 1:] if v[j] or v[k])
        return max((Fraction(abs(m[j][k]), norm._dual((v[j], v[k]))) for j, k in pairs), default=Fraction(0))
    if norm.exponent == 1:  # the minimum sits at a breakpoint t = r_j / v_j
        return min(Fraction(norm._power(m[j]), abs(v[j])) for j in idx if v[j])
    return Fraction(sum(map(norm._power, m)), 2 * norm._dual(v))  # Lagrange's identity


def _first_pair(points: Sequence[tuple[int, int]], v: tuple[int, int]) -> Optional[tuple[int, int]]:
    """The first pair (i, j), i < j, of the all-pairs scan whose difference is
    a nonzero multiple of v. Two points differ by a multiple of v exactly when
    det(v, .) agrees, so the first point of each value is all it needs."""
    v0, v1 = v
    first: dict[int, tuple] = {}
    found = None
    for j, p in enumerate(points):
        i, q = first.setdefault(v0 * p[1] - v1 * p[0], (j, p))
        if q != p and (found is None or (i, j) < found):
            found = (i, j)
    return found


def _planar_direction(
    norm: NormSpec, points: Sequence[tuple[int, int]], hull: Sequence[tuple[int, int]]
) -> Optional[tuple[int, int]]:
    """The direction the all-pairs scan of `near_line_fit` settles on in the
    plane, found among the axes and the hull-edge directions, or None where
    only that scan can tell.

    Between two adjacent breakpoints (the hull-edge directions, where the
    extremes of det(v, .) change, and where the dual norm bends: the
    diagonals for l1, the axes for linf) the spread of det(v, x) and the
    dual norm are both linear in v. The l2 key is then |a - b| sin of the
    angle from v to a - b, larger inside the arc than at one of its ends;
    the l1 and linf keys are a ratio of linear maps, monotone or constant
    on the arc. No l1 minimum sits next to a diagonal: for |v1| <= |v0| the
    key of v = (1, m) is the spread W(m) of y - mx, convex in m. If W does
    not rise toward m = 1, the right end m2 of its minimum set is a hull
    edge with m2 >= 1, and for m2 > 1 its key W(m2) / m2 is below W on the
    last piece before m = 1 (likewise at m = -1 and for |v0| <= |v1|).

    So a direction of least key is an axis or a hull edge, except inside an
    arc where the key is constant at its least, which shows as two adjacent
    breakpoints of least key: then None. Among tied directions the scan
    meets the axes first, then the direction of its first pair (i, j).
    """
    edges = {
        _primitive((b[0] - a[0], b[1] - a[1])) for a, b in zip(hull, hull[1:] + hull[:1]) if a != b
    }
    cands = [*_PLANE_AXES, *edges]
    bends = _PLANE_AXES if norm.kind == "linf" else ((1, 1), (1, -1)) if norm.exponent == 1 else ()
    keys = {v: _planar_key(norm, hull, v) for v in (*cands, *bends)}
    least = min((keys[v] for v in cands), key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))
    tied = {v for v, k in keys.items() if k[0] * least[1] == least[0] * k[1]}
    if bends and len(hull) > 1:
        # canonical directions lie at angles in (-90, 90]: det orders them
        ring = sorted(edges.union(bends), key=cmp_to_key(lambda a, b: a[1] * b[0] - a[0] * b[1]))
        if any(a in tied and b in tied for a, b in zip(ring, ring[1:] + ring[:1])):
            return None
    return min(
        tied.intersection(cands),
        key=lambda v: (0, _PLANE_AXES.index(v)) if v in _PLANE_AXES else (1, *_first_pair(points, v)),
    )


def _ternary_min(f, lo: float, hi: float, steps: int, tol: float = 0.0) -> float:
    """The midpoint left by up to ``steps`` ternary-search cuts of [lo, hi]
    toward a minimum of the convex f, stopping at a width below ``tol``."""
    for _ in range(steps):
        if hi - lo < tol:
            break
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    return (lo + hi) / 2


def _point_line_dist_float(norm: NormSpec, x: Point, b: Point, v: Point) -> float:
    """Ternary search on the convex map t -> ||x - b - t v||."""
    xf = [float(c) for c in x]
    bf = [float(c) for c in b]
    vf = [float(c) for c in v]
    vn2 = sum(c * c for c in vf)
    center = sum((a - c) * d for a, c, d in zip(xf, bf, vf)) / vn2
    span = norm_float(norm, tuple(a - c for a, c in zip(x, b))) / math.sqrt(vn2) + 1.0

    def val(t: float) -> float:
        return norm_float(norm, [a - c - t * d for a, c, d in zip(xf, bf, vf)])

    return val(_ternary_min(val, center - span, center + span, 200, 1e-12))


def near_line_fit(config: PointConfig, early_stop: bool = False) -> NearLineFit:
    """Search candidate lines and report the smallest maximal deviation.

    The points are scaled once to integers over the lcm of their
    denominators. Candidate directions are the coordinate axes plus all
    pairwise point differences, as primitive integer vectors, in that order
    (pairs (i, j) by i, then j); a direction replaces the best one only when
    its key is strictly smaller, so the fit is that of the earliest
    direction of least key.

    In the plane (exponent 1 or 2, linf) the deviation for a direction v has
    a closed form: half the spread of det(v, x) over ||v||_2 for exponent 2,
    and over the dual norm of v for exponent 1 (||v||_inf) and linf
    (||v||_1), taken over the convex hull's vertices since det(v, .) is
    linear. Keys are compared exactly on integers, and the base point,
    centred exactly, is built in Fractions only for a best key. Without
    ``early_stop`` the planar fit is found without the O(n^2) scan: the
    least key lies at an axis or a hull-edge direction (`_planar_direction`),
    and among ties the scan's first is an axis, else the direction of the
    earliest pair (i, j), ranked in O(n) by one dict over det(v, x). Only
    when two adjacent exponent-1 or linf breakpoints (hull edges and the
    diagonals or axes) share the least key, so the key is constant between
    them, does the full scan run.

    Off the plane every line passes through the centre of the bounding box,
    and for linf and exponents 1 and 2 a key is the largest `_line_deviation`
    of the integer points 2s (x - centre). lp with p >= 3 falls back to
    per-point ternary search with a small certification margin. A direction
    is dropped at the first point whose deviation reaches the best key. With
    ``early_stop`` the scan returns the first improvement whose deviation is
    certified below the norm's near-line radius. Only the returned fit's
    frame is built; it is checked once to be norm-bounded at every point.
    Q(sqrt(m)) coordinates raise `DomainError`.
    """
    norm, d, (scale, ipts) = config.norm, config.norm.dimension, config.scaled
    if not ipts:
        raise DomainError("need at least one point")
    if _is_quad(ipts):
        raise DomainError("near-line fitting needs rational coordinates")
    exact = norm.kind == "linf" or norm.exponent <= 2
    planar = d == 2 and exact
    best = None  # ((v, base), the other NearLineFit fields) of the best key
    best_key = None  # Fraction or float; planar keys as `_planar_key` tuples
    hull = _hull(ipts) if planar else ()
    if planar and not early_stop:
        v = _planar_direction(norm, ipts, hull)
        if v is not None:
            best = _planar_fit(norm, scale, v, _planar_key(norm, hull, v))
    if not planar:  # every line passes through the centre of the bounding box
        ends = [min(c) + max(c) for c in zip(*ipts)]  # 2s * mid
        mid = tuple(Fraction(e, 2 * scale) for e in ends)
        rel = [[2 * c - e for c, e in zip(p, ends)] for p in ipts]  # 2s (x - mid)

    for v in _candidate_directions(ipts, d) if best is None else ():  # the scan
        if planar:
            key = _planar_key(norm, hull, v)
            if best is not None and key[0] * best_key[1] >= best_key[0] * key[1]:
                continue
            best_key, best = key, _planar_fit(norm, scale, v, key)
        else:  # the largest deviation, unless one reaches the best key
            key = None
            for r in rel if exact else config.points:
                dev = _line_deviation(norm, r, v) if exact else _point_line_dist_float(norm, r, mid, v)
                if best is not None and dev >= best_key:
                    break
                key = dev if key is None else max(key, dev)
            else:
                best_key, best = key, ((v, mid), _fit_fields(norm, scale, key) if exact else
                                       (key, key < norm.near_line_radius - _FLOAT_GUARD, None, None))
        if early_stop and best[1][1]:
            break
    fit = NearLineFit(supporting_functional(norm, *best[0]), *best[1])
    fit.frame.verify_supporting(config)
    return fit


@dataclass(frozen=True)
class SeparationReport:
    pairs_checked: int
    violations: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def separation_check(frame: LineFrame, config: PointConfig) -> SeparationReport:
    """Functional gap >= 1/2 for every pair at distance >= 1.

    Violations are returned as data; for configurations within the norm's
    near-line radius of the frame's line the list is empty. A frame of
    another dimension than the config raises `DimensionMismatch`.
    """
    s, ipts = config.scaled
    _check_dims(frame.norm, *ipts[:1])  # a config's points share one dimension
    dots = frame._dots(ipts)
    half_apart = frame._half_apart(s * frame._scaled[0])
    comp = distance_graph(config).complement().masks
    far = [(i, j) for i, m in enumerate(comp) for j in _iter_bits(m & -(2 << i))]
    bad = tuple((i, j) for i, j in far if not half_apart(dots[i] - dots[j]))
    return SeparationReport(len(far), bad)


# --- sums, concentration, sampling -------------------------------------------


def product_sum_measure(measures: Sequence[VectorMeasure]) -> VectorMeasure:
    """Exact distribution of the sum of independent vector measures, convolved
    on the summands' integer forms over one common scale and on integer
    weights; the sum keeps its sorted integer points as its own form.

    Points in Z[sqrt(m)] are convolved as flat int tuples (a0, b0, a1, b1,
    ...) and become `QuadExt` values only as the sum's points, sorted by
    exact int keys; rational summands join them with every b_i zero."""
    if not measures:
        raise DomainError("need at least one measure")
    norm = measures[0].norm
    for m in measures[1:]:
        if m.norm._model != norm._model:
            raise DomainError("summands must share the same norm and dimension")
    fields = {ipts[0][0].m for m in measures if _is_quad(ipts := m.config.scaled[1])}
    if len(fields) > 1:
        raise DomainError("summands must share one Q(sqrt(m))")
    field = fields.pop() if fields else None
    scale = math.lcm(*(m.config.scaled[0] for m in measures))
    acc, den = {(0,) * (norm.dimension * (1 + bool(field))): 1}, 1  # integer points -> weight numerators
    for i, m in enumerate(measures):
        if i:
            check("product_support", len(acc) * len(m.config))
        nums, wden = m._ints
        s, ipts = m.config.scaled
        if field is not None:
            ipts = m.config._pairs or [tuple([x for c in p for x in (c, 0)]) for p in ipts]
        if s != scale:
            ipts = [tuple(c * (scale // s) for c in p) for p in ipts]
        atoms = list(zip(ipts, nums))
        nxt: dict[tuple[int, ...], int] = {}
        for p, w in acc.items():
            for q, u in atoms:
                key = tuple(map(operator.add, p, q))
                nxt[key] = nxt.get(key, 0) + w * u
        acc = nxt
        den *= wden
    if field is None:
        pts = sorted(acc)
        return VectorMeasure._from_ints(PointConfig._from_scaled(norm, scale, pts), [acc[p] for p in pts], den)
    flat = list(acc)
    pts = _from_pairs(flat, field)
    unit, keys = _order_form(scale, pts)
    order = sorted(range(len(pts)), key=keys.__getitem__)
    config = PointConfig._from_scaled(norm, scale, [pts[i] for i in order],
                                      _keys=(unit, [keys[i] for i in order]), _pairs=[flat[i] for i in order])
    return VectorMeasure._from_ints(config, [acc[flat[i]] for i in order], den)


@dataclass(frozen=True)
class ConcentrationResult(_IntForm):
    """The concentration and its witness. ``concentration_q`` stores the
    witness's integer form ``_form = (s, s * witness_points)``, and
    ``witness_points`` is derived from it on first read."""

    value: Fraction
    witness: tuple[int, ...]  # indices into the measure's atoms
    witness_points: tuple[Point, ...]

    _derive = {"witness_points": lambda self: _unscaled(*self._form)}

    @classmethod
    def _from_form(cls, value: Fraction, witness: tuple[int, ...], s: int, ipts: Sequence[tuple]):
        """The result whose witness points are ``ipts / s``, stored as that integer form."""
        result = object.__new__(cls)
        result.__dict__.update(value=value, witness=witness, _form=(s, ipts))
        return result


def concentration_q(measure: VectorMeasure) -> ConcentrationResult:
    """Exact concentration at scale 1: maximum weight of a strict clique.

    The optimum over open sets of diameter at most 1 is attained by sets of
    atoms at pairwise distance strictly below 1, i.e. by cliques of the
    strict distance graph, never built: boxes in linf, planar l1 and on the
    line (``_box_search``), else a branch and bound (``_window_search``).
    """
    check("clique", len(measure.config))
    norm, (s, ipts), (nums, den) = measure.norm, measure.config.scaled, measure._ints
    if norm.kind == "linf" or norm.dimension == 1 or (norm.dimension, norm.exponent) == (2, 1):
        best, witness = _box_search(norm, s, ipts, nums)
    else:
        best, witness = _window_search(measure.config, nums)
    return ConcentrationResult._from_form(Fraction(best, den), witness, s, [ipts[i] for i in witness])


def _box_search(norm: NormSpec, s: int, ipts, nums) -> tuple[int, tuple[int, ...]]:
    """``_clique_search``'s weight and witness for a linf, planar l1 or lp(1),
    or one-dimensional measure, without the distance graph. In linf, points are
    near when every coordinate differs by less than 1 (planar l1 is linf in
    (x + y, x - y)); boxes have Helly number 2, so an optimal clique, which
    is maximal (the weights are positive), fills the half-open unit box at
    its coordinate minima. The sweep tries those anchors by +, - and < only,
    so Z[sqrt(m)] coordinates work too. As in the clique search, the witness
    is the greedy seed if optimal, else the least optimal sorted index tuple.
    """
    if norm.kind != "linf" and (norm.dimension, norm.exponent) == (2, 1):
        ipts = [(x + y, x - y) for x, y in ipts]
    last = norm.dimension - 1
    idx = sorted(range(len(ipts)), key=lambda i: ipts[i][0])
    keys = [ipts[i][0] for i in idx]
    # the greedy seed (descending weight, then index) from the points near the
    # heaviest in x: one joins if each coordinate is in (hi - s, lo + s)
    lo = hi = ipts[max(range(len(ipts)), key=nums.__getitem__)]
    near = idx[bisect_right(keys, lo[0] - s):bisect_left(keys, lo[0] + s)]
    seed = []
    for i in sorted(near, key=lambda i: (-nums[i], i)):
        p = ipts[i]
        if all(h - s < c < l + s for c, l, h in zip(p, lo, hi)):
            seed.append(i)
            lo, hi = tuple(map(min, lo, p)), tuple(map(max, hi, p))
    best, witness = sum(nums[i] for i in seed), None  # None while the seed is best

    def sweep(idx: list[int], k: int) -> None:
        nonlocal best, witness  # idx is sorted by coordinate k
        keys, n = [ipts[i][k] for i in idx], len(idx)
        j = total = 0
        for a, c in enumerate(keys):
            if a:
                total -= nums[idx[a - 1]]
            end = c + s
            while j < n and keys[j] < end:
                total += nums[idx[j]]
                j += 1
            if (a and not keys[a - 1] < c) or total < best + (witness is None):
                continue  # a repeated anchor, or no box in [c, c + s) can improve
            if k < last:
                sweep(sorted(idx[a:j], key=lambda i: ipts[i][k + 1]), k + 1)
            elif total > best or tuple(sorted(idx[a:j])) < witness:
                best, witness = total, tuple(sorted(idx[a:j]))

    sweep(idx, 0)
    return best, witness or tuple(sorted(seed))


class _SweptRows(dict):
    """Bitmask rows, each built by ``sweep(v)`` on first read."""

    def __init__(self, sweep):
        self.sweep = sweep

    def __missing__(self, v):
        row = self[v] = self.sweep(v)
        return row


def _window_search(config: PointConfig, nums) -> tuple[int, tuple[int, ...]]:
    """``_clique_search``'s weight and witness for a measure (sorted by x)
    without the graph. The window [x_v, x_v + 1) holds every clique rooted at
    v and bounds it; rows of near atoms above are swept on first read, by the
    greedy seed (near the heaviest atom) or for the roots the bound leaves."""
    norm, (s, ipts), (unit, keys) = config.norm, config.scaled, config._keys
    xs, near = [k[0] for k in keys], _row_test(norm, s, ipts, config._pairs)
    ends = [bisect_left(xs, x + unit, v + 1) for v, x in enumerate(xs)]
    pre = [0, *accumulate(nums)]
    x = xs[max(range(len(xs)), key=nums.__getitem__)]
    rows = _SweptRows(lambda v: sum(1 << b for b in near(v, range(v + 1, ends[v]))))
    seed: list[int] = []
    for i in sorted(range(bisect_right(xs, x - unit), bisect_left(xs, x + unit)), key=lambda i: (-nums[i], i)):
        if all(rows[min(u, i)] >> max(u, i) & 1 for u in seed):
            seed.append(i)
    return _branch_and_bound(rows, nums, [pre[e] - pre[v] for v, e in enumerate(ends)], seed)


def empirical_measure(
    measure: VectorMeasure, n: int, delta, seed: int
) -> VectorMeasure:
    """Uniform empirical measure of n draws from the (1+delta)-dilated input.

    Sampling is deterministic for a fixed seed: the generator's uniforms are
    converted to exact fractions and located in the exact cumulative weight
    table.
    """
    if n < 1:
        raise DomainError("need at least one sample")
    delta = as_fraction(delta)
    if delta <= 0:
        raise DomainError("delta must be positive")
    dilated = measure.dilate(1 + delta)
    nums, den = dilated._ints
    cumulative = list(accumulate(nums))  # over den
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        idx = bisect_right(cumulative, Fraction(rng.random()) * den)
        pts.append(dilated.points[min(idx, len(cumulative) - 1)])
    w = Fraction(1, n)
    return VectorMeasure(PointConfig(measure.norm, tuple(pts)), tuple(w for _ in pts))


# --- symmetrization and the direction/shift diagnostics ----------------------


def symmetrize(measure: VectorMeasure) -> VectorMeasure:
    """Distribution of X - X' for X' an independent copy of X: the product
    sum of X and -X, so it is bounded by the ``product_support`` cap."""
    return product_sum_measure([measure, measure.dilate(-1)])


@dataclass(frozen=True)
class HalaszDiagnostics:
    """Numerical direction/shift diagnostics for a family of plane measures.

    D is a numerical upper bound for the infimum over unit directions of the
    summed truncated second moments of the symmetrized measures (grid search
    plus one local refinement). mu is the largest total probability the
    symmetrized measures put in any unit ball centered at a sampled support
    point.
    """

    D: float
    mu: float
    best_direction: tuple[float, float]
    shifts: tuple[tuple[float, float], ...]
    best_center: tuple[float, float]

    def __post_init__(self):
        if self.D < 0 or self.mu < 0:
            raise InvariantViolation("diagnostics must be nonnegative")


def _float_over(c, scale: int) -> float:
    """float(c / scale) for an int or Z[sqrt(m)] value c, as the Fraction's or `QuadExt`'s."""
    return c / scale if isinstance(c, int) else c.a / scale + c.b / scale * math.sqrt(c.m)


def _truncated_second_moment(atoms, e: tuple[float, float], shift: float = 0.0) -> float:
    total = 0.0
    for x, y, w in atoms:
        t = x * e[0] + y * e[1] - shift
        total += w * min(t * t, 1.0)
    return total


def halasz_diagnostics(
    measures: Sequence[VectorMeasure],
    direction_samples: int = 180,
    center_samples: int = 256,
) -> HalaszDiagnostics:
    """Grid-with-refinement evaluation of the direction functional D and mu.

    Only the Euclidean plane is supported. Exact arithmetic is used for the
    unit-ball membership tests inside mu; the direction scan itself is float
    based and the returned D is an upper bound for the true infimum.
    """
    if not measures:
        raise DomainError("need at least one measure")
    if center_samples < 1:
        raise DomainError("center_samples must be at least 1")
    for m in measures:
        if not m.norm.is_hilbert or m.norm.dimension != 2:
            raise UnsupportedNorm("diagnostics need the Euclidean plane (l2, d=2)")
    sym = [symmetrize(m) for m in measures]
    # the atoms' stored integers, over one common scale and weight denominator
    scale = math.lcm(*(t.config.scaled[0] for t in sym))
    wden = math.lcm(*(t._ints[1] for t in sym))
    int_atoms = [[(tuple(c * (scale // s) for c in p), u * (wden // den)) for p, u in zip(ipts, nums)]
                 for (s, ipts), (nums, den) in ((t.config.scaled, t._ints) for t in sym)]
    float_atoms = [[(_float_over(x, scale), _float_over(y, scale), u / wden) for (x, y), u in atoms]
                   for atoms in int_atoms]

    def d_of(theta: float) -> float:
        e = (math.cos(theta), math.sin(theta))
        return sum(_truncated_second_moment(atoms, e) for atoms in float_atoms)

    # the first grid minimum, then one local refinement pass around it, kept
    # only on a strict gain
    samples = max(4, direction_samples)
    best_theta = min((math.pi * k / samples for k in range(samples)), key=d_of)
    theta = _ternary_min(d_of, best_theta - math.pi / samples, best_theta + math.pi / samples, 80)
    best_theta = min((best_theta, theta), key=d_of)
    best_val = d_of(best_theta)
    e = (math.cos(best_theta), math.sin(best_theta))

    # mu over candidate centers: support points of the symmetrized measures,
    # each ball test |p - y|^2 < 1 decided on the integer points
    candidates = sorted({p for atoms in int_atoms for p, _ in atoms})
    if len(candidates) > center_samples:
        stride = len(candidates) / center_samples
        candidates = [candidates[int(i * stride)] for i in range(center_samples)]
    flat = [a for atoms in int_atoms for a in atoms]
    limit = scale * scale
    mu_num, best_center = 0, None
    for cx, cy in candidates:  # each a support point, so its total is positive
        total = sum(u for (x, y), u in flat if (x - cx) ** 2 + (y - cy) ** 2 < limit)
        if total > mu_num:
            mu_num, best_center = total, (cx, cy)
    (best_center,) = _unscaled(scale, [best_center])

    # per-measure shifts realizing the 1-d truncated moment infimum along e
    shifts = []
    grid = 256
    for atoms in float_atoms:
        ts = [x * e[0] + y * e[1] for x, y, _ in atoms]
        lo_s, hi_s = min(ts) - 1.0, max(ts) + 1.0
        step = (hi_s - lo_s) / grid

        def moment(s: float) -> float:
            return _truncated_second_moment(atoms, e, s)

        # the first grid minimum; its refinement is kept unless strictly worse
        best_s = min((lo_s + (hi_s - lo_s) * k / grid for k in range(grid + 1)), key=moment)
        s_star = min((_ternary_min(moment, best_s - step, best_s + step, 60), best_s), key=moment)
        shifts.append((s_star * e[0], s_star * e[1]))

    return HalaszDiagnostics(best_val, mu_num / wden, e, tuple(shifts), tuple(map(float, best_center)))
