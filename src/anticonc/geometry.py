"""Finite point configurations and measures in small normed spaces.

Coordinates are exact rationals. Point configurations and measures also
accept coordinates from one real quadratic field Q(sqrt(m)) (`QuadExt`), for
distance graphs, concentrations and product sums; serialisation and
near-line fitting stay rational. The design rule of the module: every
comparison that feeds a combinatorial decision (is a pair an edge, is a pair
a block pair, does a functional separate two points) is decided exactly,
floats appear only in reported magnitudes. For the p-norms this is possible
because ``d(x, y) < 1`` is equivalent to ``sum |dx_i|^p < 1``, a comparison
inside the coordinate field whenever p is an integer.

Every "d < 1" decision over a point set goes through one kernel,
``_near_pairs``, on coordinates scaled to Z or Z[sqrt(m)]; ``dist_vs_one``
is the single-pair check.

Supported norms: l1, l2, linf and lp with integer p >= 1. Rational
non-integer p would require algebraic-number arithmetic for exact edge
decisions and is rejected.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .caps import Caps, resolve
from .errors import (
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    ResourceCapExceeded,
    UnsupportedNorm,
)
from .exact import _numerators, as_fraction, fraction_str, parse_vector, vector_str
from .perfect_graphs import DistGraph, max_clique
from .quadfield import QuadExt

Point = tuple[Fraction, ...]

_FLOAT_GUARD = 1e-9  # safety margin for the few non-exact certifications


@dataclass(frozen=True)
class NormSpec:
    """A norm on R^d: one of l1, l2, linf, lp (integer p)."""

    kind: str
    dimension: int
    p: Optional[Fraction] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainError("dimension must be >= 1")
        if self.kind not in ("l1", "l2", "linf", "lp"):
            raise UnsupportedNorm(f"unknown norm kind {self.kind!r}")
        if self.kind == "lp":
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
        """The integer power applied coordinatewise before summing."""
        if self.kind == "l2":
            return 2
        if self.kind == "lp":
            return int(self.p)
        return 1

    @property
    def is_hilbert(self) -> bool:
        return self.kind == "l2" or (self.kind == "lp" and self.p == 2)

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
        if isinstance(data, dict) and "lp" in data:
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


def norm_power(norm: NormSpec, vec: Sequence[Fraction]) -> Fraction:
    """Exact rational ||vec||^e with e = norm.exponent.

    For l1 and linf this is the norm itself; for l2 and lp it is the sum of
    coordinate powers, which compares against 1 the same way the distance
    does.
    """
    if norm.kind == "l1":
        return sum((abs(x) for x in vec), Fraction(0))
    if norm.kind == "linf":
        return max((abs(x) for x in vec), default=Fraction(0))
    e = norm.exponent
    return sum((abs(x) ** e for x in vec), Fraction(0))


def norm_float(norm: NormSpec, vec: Sequence[Fraction]) -> float:
    if norm.kind in ("l1", "linf"):
        return float(norm_power(norm, vec))
    return float(norm_power(norm, vec)) ** (1.0 / norm.exponent)


def dist_vs_one(norm: NormSpec, x: Point, y: Point) -> int:
    """Sign of d(x, y) - 1, decided exactly."""
    _check_dims(norm, x, y)
    power = norm_power(norm, tuple(a - b for a, b in zip(x, y)))
    if power < 1:
        return -1
    if power == 1:
        return 0
    return 1


@dataclass(frozen=True)
class Distance:
    """Distance value with an exactly decided comparison against 1."""

    value: float
    compare_one: int
    exact: Optional[Fraction]  # the distance itself when it is rational
    power_sum: Fraction  # ||x-y||^exponent, always rational

    @property
    def is_edge(self) -> bool:
        return self.compare_one < 0


def distance(norm: NormSpec, x, y) -> Distance:
    x = parse_vector(x)
    y = parse_vector(y)
    _check_dims(norm, x, y)
    diff = tuple(a - b for a, b in zip(x, y))
    power = norm_power(norm, diff)
    cmp_one = -1 if power < 1 else (0 if power == 1 else 1)
    if norm.kind in ("l1", "linf"):
        return Distance(float(power), cmp_one, power, power)
    return Distance(float(power) ** (1.0 / norm.exponent), cmp_one, None, power)


# --- configurations and measures ---------------------------------------------


@dataclass(frozen=True)
class PointConfig:
    """Ordered point sequence; duplicates allowed and kept.

    Coordinates are all rational or all `QuadExt` values with one m.
    """

    norm: NormSpec
    points: tuple[Point, ...]

    def __post_init__(self):
        pts = tuple(map(tuple, self.points))
        first = pts[0][0] if pts and pts[0] else None
        if isinstance(first, QuadExt):
            if any(not isinstance(c, QuadExt) or c.m != first.m for p in pts for c in p):
                raise DomainError("coordinates must be all rational or all in one Q(sqrt(m))")
        else:
            pts = tuple(tuple(map(as_fraction, p)) for p in pts)
        for p in pts:
            if len(p) != self.norm.dimension:
                raise DimensionMismatch("point dimension does not match norm")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "norm": self.norm.to_json(),
            "dim": self.norm.dimension,
            "points": [vector_str(p) for p in self.points],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PointConfig":
        norm = NormSpec.from_json(data["norm"], int(data["dim"]))
        return cls(norm, tuple(parse_vector(p) for p in data["points"]))


@dataclass(frozen=True)
class VectorMeasure:
    """Finitely supported probability measure; equal atoms are merged."""

    config: PointConfig
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(as_fraction(w) for w in self.weights)
        pts = self.config.points
        if len(ws) != len(pts):
            raise DomainError("weights do not align with points")
        if any(w < 0 for w in ws):
            raise DomainError("negative weight")
        nums, den = _numerators(ws)
        if sum(nums) != den:
            raise DomainError("weights must sum to exactly 1")
        if all(ws) and all(p < q for p, q in zip(pts, pts[1:])):
            object.__setattr__(self, "weights", ws)  # already merged and sorted
            return
        merged: dict[Point, Fraction] = {}
        for p, w in zip(pts, ws):
            if w:
                merged[p] = merged.get(p, 0) + w
        atoms = sorted(merged.items())
        config = PointConfig(self.config.norm, tuple(p for p, _ in atoms))
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "weights", tuple(w for _, w in atoms))

    @property
    def norm(self) -> NormSpec:
        return self.config.norm

    @property
    def points(self) -> tuple[Point, ...]:
        return self.config.points

    def atoms(self) -> Iterable[tuple[Point, Fraction]]:
        return zip(self.config.points, self.weights)

    def dilate(self, factor) -> "VectorMeasure":
        f = as_fraction(factor)
        pts = tuple(tuple(f * c for c in p) for p in self.config.points)
        return VectorMeasure(PointConfig(self.norm, pts), self.weights)

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
        norm = NormSpec.from_json(data["norm"], int(data["dim"]))
        pts = tuple(parse_vector(a["point"]) for a in data["atoms"])
        ws = tuple(as_fraction(a["weight"]) for a in data["atoms"])
        return cls(PointConfig(norm, pts), ws)


def _scaled_integers(points: Sequence[Point]) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm of all coordinate denominators, and the points times it: ints,
    or elements of Z[sqrt(m)] for `QuadExt` coordinates."""
    scale = math.lcm(*(c.denominator for p in points for c in p))
    return scale, [tuple(c.numerator * (scale // c.denominator) for c in p) for p in points]


def _near_pairs(norm: NormSpec, points: Sequence[Point]) -> frozenset[tuple[int, int]]:
    """Index pairs i < j with d(points[i], points[j]) < 1, decided on integers.

    The points are scaled once to integers (Z[sqrt(m)] for `QuadExt`
    coordinates, whose operations decide the same comparisons exactly) and
    swept in order of x; a row ends at the first x-gap of at least 1, exact
    because |dx_1| <= ||dx||.
    """
    _check_dims(norm, *points)
    scale, ipts = _scaled_integers(points)
    order = sorted(range(len(ipts)), key=lambda i: ipts[i][0])
    e = norm.exponent
    limit = scale**e
    agg = max if norm.kind == "linf" else sum
    near = set()
    for a, i in enumerate(order):
        p = ipts[i]
        for b in range(a + 1, len(order)):
            j = order[b]
            q = ipts[j]
            if q[0] - p[0] >= scale:
                break
            if agg([abs(u - v) ** e for u, v in zip(p, q)]) < limit:
                near.add((i, j) if i < j else (j, i))
    return frozenset(near)


def distance_graph(config: PointConfig) -> DistGraph:
    """Strict distance graph: edge exactly when d(x_i, x_j) < 1.

    Duplicate points are at distance 0 and therefore always adjacent.
    """
    return DistGraph(len(config.points), _near_pairs(config.norm, config.points), origin=config)


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
        return self.raw_gap_at_least(self.f_raw(x) - self.f_raw(y), threshold)

    def supports(self, x: Sequence[Fraction]) -> bool:
        """Exactly decide |f(x)| <= ||x||.

        Both sides raised to scale_root are rational: ||x|| ** scale_root is
        the coordinate power sum for l2/lp (scale_root equals the norm
        exponent there) and the norm itself for l1/linf (scale_root 1).
        """
        g = abs(self.f_raw(x))
        return g ** self.scale_root <= self.scale_pow * norm_power(self.norm, x)

    def attains_one_on_direction(self) -> bool:
        """Exactly decide f(direction / ||direction||) == 1."""
        g = self.f_raw(self.direction)
        if g <= 0:
            return False
        return g ** self.scale_root == self.scale_pow * norm_power(
            self.norm, self.direction
        )

    def verify_supporting(self, points: Iterable[Sequence[Fraction]]) -> None:
        """``supports`` at every point, on X = s x and C = t coeffs scaled to
        integers: |<C, X>| ** r * s ** e <= scale_pow * (st) ** r * ||X|| ** e,
        with r = scale_root and e the norm exponent."""
        points = list(points)
        s, ipts = _scaled_integers(points)
        t, (icoeffs,) = _scaled_integers([self.coeffs])
        r, e = self.scale_root, self.norm.exponent
        lhs_mul = self.scale_pow.denominator * s**e
        rhs_mul = self.scale_pow.numerator * (s * t) ** r
        agg = max if self.norm.kind == "linf" else sum
        for p, x in zip(points, ipts):
            dot = sum(map(operator.mul, icoeffs, x))
            if abs(dot) ** r * lhs_mul > rhs_mul * agg([abs(u) ** e for u in x]):
                raise InvariantViolation(f"functional exceeds the norm at point {p}")

    def to_json(self) -> dict:
        return {
            "direction": vector_str(self.direction),
            "base": vector_str(self.base),
            "coeffs": vector_str(self.coeffs),
            "scale_pow": fraction_str(self.scale_pow),
            "scale_root": self.scale_root,
        }


def supporting_functional(
    norm: NormSpec, direction, base=None
) -> LineFrame:
    """Norm-bounded linear functional equal to 1 on the unit direction.

    l2: normalized inner product with the direction. l1: sign vector of the
    direction. linf: sign-carrying coordinate functional at a maximal
    coordinate. lp: dual-exponent coefficients sign(d_i)|d_i|^(p-1).
    """
    d = parse_vector(direction)
    _check_dims(norm, d)
    if all(c == 0 for c in d):
        raise DomainError("direction must be nonzero")
    b = parse_vector(base) if base is not None else tuple(
        Fraction(0) for _ in range(norm.dimension)
    )
    _check_dims(norm, b)
    if norm.kind in ("l2", "lp"):
        e = norm.exponent
        coeffs = tuple(
            (1 if c > 0 else -1) * abs(c) ** (e - 1) if c != 0 else Fraction(0)
            for c in d
        )
        power_sum = norm_power(norm, d)  # = ||d||_p ** p
        # scale = ||d||_p ** (p-1), so scale ** p = power_sum ** (p-1)
        frame = LineFrame(norm, d, b, coeffs, power_sum ** (e - 1), e)
    elif norm.kind == "l1":
        coeffs = tuple(
            Fraction(1) if c > 0 else (Fraction(-1) if c < 0 else Fraction(0))
            for c in d
        )
        frame = LineFrame(norm, d, b, coeffs, Fraction(1), 1)
    else:  # linf
        j = max(range(len(d)), key=lambda i: (abs(d[i]), -i))
        coeffs = tuple(
            (Fraction(1) if d[j] > 0 else Fraction(-1)) if i == j else Fraction(0)
            for i in range(len(d))
        )
        frame = LineFrame(norm, d, b, coeffs, Fraction(1), 1)
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
    exact_sq: Optional[Fraction]  # squared deviation when the norm is l2
    exact: Optional[Fraction]  # deviation itself when rational (l1/linf, d=2)


def _candidate_directions(
    points: Sequence[tuple[int, ...]], d: int
) -> list[tuple[int, ...]]:
    """The axes, then the direction of every pairwise difference, first seen first.

    Directions are primitive integer vectors (coprime coordinates, first
    nonzero coordinate positive), so each line direction appears once.
    """
    out = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    seen = set(out)
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            diff = [a - b for a, b in zip(p, q)]
            g = math.gcd(*diff)
            if g == 0:
                continue
            if next(c for c in diff if c) < 0:
                g = -g
            cand = tuple(c // g for c in diff)
            if cand not in seen:
                seen.add(cand)
                out.append(cand)
    return out


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
                (ax, ay), (bx, by) = hull[-2:]
                if (bx - ax) * (y - ay) > (by - ay) * (x - ax):
                    break
                hull.pop()
            hull.append((x, y))
        hull.pop()
    return hull


def _point_line_dist_float(norm: NormSpec, x: Point, b: Point, v: Point) -> float:
    """Ternary search on the convex map t -> ||x - b - t v||."""
    xf = [float(c) for c in x]
    bf = [float(c) for c in b]
    vf = [float(c) for c in v]
    vn2 = sum(c * c for c in vf)
    center = sum((a - c) * d for a, c, d in zip(xf, bf, vf)) / vn2
    span = norm_float(norm, tuple(a - c for a, c in zip(x, b))) / math.sqrt(vn2) + 1.0
    lo, hi = center - span, center + span

    def val(t: float) -> float:
        diff = [a - c - t * d for a, c, d in zip(xf, bf, vf)]
        if norm.kind == "l1":
            return sum(abs(z) for z in diff)
        if norm.kind == "linf":
            return max(abs(z) for z in diff)
        e = norm.exponent
        return sum(abs(z) ** e for z in diff) ** (1.0 / e)

    for _ in range(200):
        if hi - lo < 1e-12:
            break
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if val(m1) <= val(m2):
            hi = m2
        else:
            lo = m1
    return val((lo + hi) / 2)


def near_line_fit(config: PointConfig, early_stop: bool = False) -> NearLineFit:
    """Search candidate lines and report the smallest maximal deviation.

    The points are scaled once to integers over the lcm of their
    denominators. Candidate directions are the coordinate axes plus all
    pairwise point differences, as primitive integer vectors. In the plane
    (l2, l1, linf) the deviation for a direction v has a closed form: half
    the spread of the determinants det(v, x) divided by ||v||_2 for l2, and
    by the dual norm of v for l1 (||v||_inf) and linf (||v||_1), taken over
    the convex hull's vertices since det(v, .) is linear. The keys are
    compared exactly by integer cross-multiplication, and the base point,
    centered exactly, is built in Fractions only when the best key improves.
    For l2 in any dimension the deviation comes from squared projections.
    Remaining cases fall back to per-point ternary search with a small
    certification margin.

    A direction replaces the best one only when its key is strictly
    smaller, so ties keep the earliest direction. With ``early_stop`` the
    scan returns the first such improvement whose deviation is certified
    below the norm's near-line radius. Only that fit's frame is built; it is
    checked once to be norm-bounded at every point. Q(sqrt(m)) coordinates
    raise `DomainError`.
    """
    norm = config.norm
    if len(config.points) == 0:
        raise DomainError("need at least one point")
    if isinstance(config.points[0][0], QuadExt):
        raise DomainError("near-line fitting needs rational coordinates")
    d = norm.dimension
    scale, ipts = _scaled_integers(config.points)
    planar = d == 2 and (norm.is_hilbert or norm.kind in ("l1", "linf"))
    best = None  # ((v, base), the other NearLineFit fields) of the best key
    best_key = None  # Fraction or float; planar keys as (num, den) of num / den
    hull = _hull(ipts) if planar else ()
    # off the plane every line passes through the centre of the bounding box
    mid = () if planar else tuple((min(c) + max(c)) / 2 for c in zip(*config.points))

    for v in _candidate_directions(ipts, d):
        exact_sq: Optional[Fraction] = None
        exact_dev: Optional[Fraction] = None
        if planar:
            v0, v1 = v
            dets = [v0 * y - v1 * x for x, y in hull]
            lo, hi = min(dets), max(dets)
            spread = hi - lo  # scale * (spread of det(v, x))
            s = v0 * v0 + v1 * v1
            if norm.is_hilbert:
                num, den = spread * spread, s
            elif norm.kind == "l1":
                num, den = spread, max(abs(v0), abs(v1))
            else:
                num, den = spread, abs(v0) + abs(v1)
            if best is not None and num * best_key[1] >= best_key[0] * den:
                continue
            best_key = (num, den)
            # the line det(v, x) = (lo + hi) / 2, through its point nearest 0
            base_den = 2 * scale * s
            base = (Fraction(-v1 * (lo + hi), base_den), Fraction(v0 * (lo + hi), base_den))
            if norm.is_hilbert:
                exact_sq = Fraction(num, 4 * den * scale * scale)
                dev_float = math.sqrt(float(exact_sq))
                certified = exact_sq < norm.near_line_radius_sq
            else:
                exact_dev = Fraction(num, 2 * den * scale)
                dev_float = float(exact_dev)
                certified = exact_dev * exact_dev < norm.near_line_radius_sq
        elif norm.is_hilbert:
            base = mid
            vv = sum(c * c for c in v)
            worst = Fraction(0)
            for p in config.points:
                r = tuple(a - b for a, b in zip(p, base))
                rr = sum(c * c for c in r)
                rv = sum(a * b for a, b in zip(r, v))
                dist_sq = rr - rv * rv / vv
                if dist_sq > worst:
                    worst = dist_sq
            if best is not None and worst >= best_key:
                continue
            best_key = exact_sq = worst
            dev_float = math.sqrt(float(worst))
            certified = worst < norm.near_line_radius_sq
        else:
            base = mid
            dev_float = max(
                _point_line_dist_float(norm, p, base, v) for p in config.points
            )
            if best is not None and dev_float >= best_key:
                continue
            best_key = dev_float
            certified = dev_float < norm.near_line_radius - _FLOAT_GUARD

        best = (v, base), (dev_float, certified, exact_sq, exact_dev)
        if early_stop and certified:
            break
    fit = NearLineFit(supporting_functional(norm, *best[0]), *best[1])
    fit.frame.verify_supporting(config.points)
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
    near-line radius of the frame's line the list is empty.
    """
    half = Fraction(1, 2)
    pts = config.points
    raws = [frame.f_raw(p) for p in pts]
    near = _near_pairs(config.norm, pts)
    n = len(pts)
    far = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in near]
    bad = tuple((i, j) for i, j in far if not frame.raw_gap_at_least(raws[i] - raws[j], half))
    return SeparationReport(len(far), bad)


# --- sums, concentration, sampling -------------------------------------------


def product_sum_measure(
    measures: Sequence[VectorMeasure], caps: Caps | None = None
) -> VectorMeasure:
    """Exact distribution of the sum of independent vector measures, convolved
    on coordinates and weights scaled to integers; Fractions are built at the end."""
    caps = resolve(caps)
    if not measures:
        raise DomainError("need at least one measure")
    norm = measures[0].norm
    for m in measures[1:]:
        if m.norm != norm:
            raise DomainError("summands must share the same norm and dimension")
    scale, ipts = _scaled_integers([p for m in measures for p in m.points])
    ipts = iter(ipts)
    acc, den = {(0,) * norm.dimension: 1}, 1  # integer points -> weight numerators
    for i, m in enumerate(measures):
        if i and len(acc) * len(m.points) > caps.product_support:
            raise ResourceCapExceeded(
                f"product support would exceed {caps.product_support}"
            )
        nums, wden = _numerators(m.weights)
        atoms = [(next(ipts), u) for u in nums]
        nxt: dict[tuple[int, ...], int] = {}
        for p, w in acc.items():
            for q, u in atoms:
                key = tuple(map(operator.add, p, q))
                nxt[key] = nxt.get(key, 0) + w * u
        acc = nxt
        den *= wden
    keys = sorted(acc)
    coord = {
        c: Fraction(c, scale) if isinstance(c, int) else c * Fraction(1, scale)
        for c in {c for p in keys for c in p}
    }
    return VectorMeasure(
        PointConfig(norm, tuple(tuple(coord[c] for c in p) for p in keys)),
        tuple(Fraction(acc[p], den) for p in keys),
    )


@dataclass(frozen=True)
class ConcentrationResult:
    value: Fraction
    witness: tuple[int, ...]  # indices into the measure's atoms
    witness_points: tuple[Point, ...]


def concentration_q(measure: VectorMeasure, caps: Caps | None = None) -> ConcentrationResult:
    """Exact concentration at scale 1: maximum weight of a strict clique.

    The optimum over open sets of diameter at most 1 is attained by sets of
    atoms at pairwise distance strictly below 1, i.e. by cliques of the
    strict distance graph, solved here by exact weighted branch and bound.
    """
    caps = resolve(caps)
    n = len(measure.points)
    if n > caps.clique:
        raise ResourceCapExceeded(f"support size {n} above the clique cap {caps.clique}")
    g = distance_graph(measure.config)
    value, witness = max_clique(g, weights=measure.weights, caps=caps)
    return ConcentrationResult(
        value, witness, tuple(measure.points[i] for i in witness)
    )


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
    cumulative: list[Fraction] = []
    acc = Fraction(0)
    for w in dilated.weights:
        acc += w
        cumulative.append(acc)
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        r = Fraction(rng.random())
        idx = bisect_right(cumulative, r)
        if idx >= len(cumulative):
            idx = len(cumulative) - 1
        pts.append(dilated.points[idx])
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
    best_center: Optional[tuple[float, float]]

    def __post_init__(self):
        if self.D < 0 or self.mu < 0:
            raise InvariantViolation("diagnostics must be nonnegative")


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
        if m.norm.kind != "l2" or m.norm.dimension != 2:
            raise UnsupportedNorm("diagnostics need the Euclidean plane (l2, d=2)")
    sym = [symmetrize(m) for m in measures]
    float_atoms = [
        [(float(p[0]), float(p[1]), float(w)) for p, w in s.atoms()] for s in sym
    ]

    def d_of(theta: float) -> float:
        e = (math.cos(theta), math.sin(theta))
        return sum(_truncated_second_moment(atoms, e) for atoms in float_atoms)

    samples = max(4, direction_samples)
    best_theta = 0.0
    best_val = d_of(0.0)
    for k in range(1, samples):
        theta = math.pi * k / samples
        val = d_of(theta)
        if val < best_val:
            best_val, best_theta = val, theta
    # one local refinement pass around the winning grid angle
    lo = best_theta - math.pi / samples
    hi = best_theta + math.pi / samples
    for _ in range(80):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if d_of(m1) <= d_of(m2):
            hi = m2
        else:
            lo = m1
    theta = (lo + hi) / 2
    if d_of(theta) < best_val:
        best_val, best_theta = d_of(theta), theta
    e = (math.cos(best_theta), math.sin(best_theta))

    # mu over candidate centers: support points of the symmetrized measures
    candidates: list[Point] = sorted({p for s in sym for p in s.points})
    if len(candidates) > center_samples:
        stride = len(candidates) / center_samples
        candidates = [candidates[int(i * stride)] for i in range(center_samples)]
    # each ball test |p - y|^2 < 1 is decided on the scaled integer points
    atoms = [a for s in sym for a in s.atoms()]
    scale, ipts = _scaled_integers([p for p, _ in atoms] + candidates)
    wnums, wden = _numerators([w for _, w in atoms])
    limit = scale * scale
    mu_num, best_center = 0, None
    for y, (cx, cy) in zip(candidates, ipts[len(atoms):]):
        total = sum(w for (x, z), w in zip(ipts, wnums) if (x - cx) ** 2 + (z - cy) ** 2 < limit)
        if total > mu_num:
            mu_num, best_center = total, y
    mu_best = Fraction(mu_num, wden)
    if best_center is None and candidates:
        best_center = candidates[0]

    # per-measure shifts realizing the 1-d truncated moment infimum along e
    shifts = []
    for atoms in float_atoms:
        ts = [x * e[0] + y * e[1] for x, y, _ in atoms]
        lo_s, hi_s = min(ts) - 1.0, max(ts) + 1.0
        grid = 256
        best_s = lo_s
        best_g = _truncated_second_moment(atoms, e, lo_s)
        for k in range(1, grid + 1):
            s = lo_s + (hi_s - lo_s) * k / grid
            g = _truncated_second_moment(atoms, e, s)
            if g < best_g:
                best_g, best_s = g, s
        a, b2 = best_s - (hi_s - lo_s) / grid, best_s + (hi_s - lo_s) / grid
        for _ in range(60):
            m1 = a + (b2 - a) / 3
            m2 = b2 - (b2 - a) / 3
            if _truncated_second_moment(atoms, e, m1) <= _truncated_second_moment(
                atoms, e, m2
            ):
                b2 = m2
            else:
                a = m1
        s_star = (a + b2) / 2
        if _truncated_second_moment(atoms, e, s_star) > best_g:
            s_star = best_s
        shifts.append((s_star * e[0], s_star * e[1]))

    return HalaszDiagnostics(
        D=best_val,
        mu=float(mu_best),
        best_direction=e,
        shifts=tuple(shifts),
        best_center=(float(best_center[0]), float(best_center[1]))
        if best_center is not None
        else None,
    )
