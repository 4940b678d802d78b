import dataclasses
import itertools
import math
import random
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from operator import mul

import pytest
from conftest import bench_mixes, caps_env
from hypothesis import given, settings, strategies as st

from anticonc.caps import Caps
from anticonc.chains import Block, iterated_decompose
from anticonc.errors import (
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    ResourceCapExceeded,
    UnsupportedNorm,
)
from anticonc.geometry import (
    _FLOAT_GUARD,
    ConcentrationResult,
    HalaszDiagnostics,
    LineFrame,
    NearLineFit,
    NormSpec,
    PointConfig,
    VectorMeasure,
    concentration_q,
    dist_vs_one,
    distance,
    distance_graph,
    empirical_measure,
    halasz_diagnostics,
    l1,
    l2,
    linf,
    lp,
    near_line_fit,
    _candidate_directions,
    _hull,
    _line_deviation,
    _near_masks,
    _scaled_integers,
    norm_float,
    norm_power,
    product_sum_measure,
    separation_check,
    supporting_functional,
    symmetrize,
)
from anticonc.exact import _numerators
from anticonc.perfect_graphs import DistGraph, block_decomposition
from anticonc.quadfield import QuadExt
from anticonc.geometry import _point_line_dist_float


def rational_point(rng, span=4, den=12):
    return (F(rng.randint(-span * den, span * den), den),
            F(rng.randint(-span * den, span * den), den))


class TestNormSpec:
    def test_radius_values(self):
        assert math.isclose(l2(2).near_line_radius, math.sqrt(3) / 4)
        assert l1(2).near_line_radius == 0.125
        assert linf(3).near_line_radius == 0.125
        assert math.isclose(lp(2, 2).near_line_radius, math.sqrt(3) / 4)

    def test_non_integer_p_rejected(self):
        with pytest.raises(UnsupportedNorm):
            lp(F(3, 2), 2)

    def test_json_roundtrip(self):
        spec = lp(3, 2)
        assert NormSpec.from_json(spec.to_json(), 2) == spec
        assert NormSpec.from_json("l1", 4) == l1(4)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("make", [l1, l2, linf, lambda d: lp(1, d), lambda d: lp(2, d), lambda d: lp(3, d)],
                             ids=["l1", "l2", "linf", "lp1", "lp2", "lp3"])
    def test_power_and_dual_kernels(self, make, d):
        # `_power` and `_dual` against the formulas each call site used to
        # write out, on every value type, and `_dual` against the support
        # function of the unit ball on integers
        norm, e = make(d), make(d).exponent
        rng = random.Random(90 + 10 * d + e)
        kinds = {
            "int": lambda m: rng.randint(-9, 9),
            "fraction": lambda m: F(rng.randint(-9, 9), rng.randint(1, 5)),
            "quad": lambda m: QuadExt.of(rng.randint(-6, 6), rng.randint(-4, 4), m),
            "float": lambda m: rng.uniform(-3, 3),
        }
        for kind, draw in kinds.items():
            for _ in range(40):
                m = rng.choice((2, 3))  # one field per vector
                vec = [draw(m) for _ in range(d)]
                powers = [abs(x) ** e for x in vec]
                want = max(powers) if norm.kind == "linf" else sum(powers, F(0) if kind == "fraction" else 0)
                got = norm._power(vec)
                assert got == want and type(got) is type(want)
                if kind == "float":  # the float search's formula, bit for bit
                    if norm.kind == "linf":
                        val = max(abs(z) for z in vec)
                    else:
                        val = sum(abs(z) for z in vec) if e == 1 else sum(abs(z) ** e for z in vec) ** (1.0 / e)
                    assert got ** (1.0 / e) == val
                dual = (sum(map(abs, vec)) if norm.kind == "linf" else max(map(abs, vec)) if e == 1
                        else sum(c * c for c in vec) if e == 2 else None)
                assert norm._dual(vec) == dual and type(norm._dual(vec)) is type(dual)
        for _ in range(40):
            v = [rng.randint(-9, 9) for _ in range(d)]
            if e > 2:
                assert norm._dual(v) is None
                continue
            if norm.is_hilbert:  # Cauchy-Schwarz, tight at v itself
                assert all(norm._dual(v) * norm._power(c) >= sum(map(mul, v, c)) ** 2
                           for c in itertools.product(range(-2, 3), repeat=d))
                assert norm._dual(v) == sum(map(mul, v, v))
            else:  # the largest <v, c> over the unit ball's vertices, all in {-1, 0, 1}^d
                ball = [c for c in itertools.product((-1, 0, 1), repeat=d) if norm._power(c) == 1]
                assert norm._dual(v) == max(sum(map(mul, v, c)) for c in ball)


class TestDistance:
    def test_zero(self):
        d = distance(l2(2), (0, 0), (0, 0))
        assert d.compare_one < 0 and d.value == 0.0

    def test_exact_unit_circle_point(self):
        # 9/25 + 16/25 is exactly 1: not an edge
        d = distance(l2(2), (0, 0), (F(3, 5), F(4, 5)))
        assert d.compare_one == 0
        assert d.power_sum == 1

    def test_l1_exact_value(self):
        d = distance(l1(2), (0, 0), (F(1, 4), F(1, 2)))
        assert d.exact == F(3, 4) and d.compare_one < 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            distance(l2(2), (0, 0, 0), (1, 1, 1))

    def test_lp3(self):
        d = distance(lp(3, 2), (0, 0), (F(1, 2), F(1, 2)))
        assert d.power_sum == F(1, 4)
        assert d.compare_one < 0

    @pytest.mark.parametrize("norm", [l1(3), l2(2), linf(2), lp(3, 2)], ids=lambda n: n.kind)
    def test_compare_one_is_dist_vs_one(self, norm):
        rng = random.Random(71)
        d = norm.dimension
        zero = (F(0),) * d
        pairs = [(zero, (F(t),) + zero[1:]) for t in (F(1, 2), 1, 2)]  # below, at, above 1
        for _ in range(60):
            x, y = (tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(d)) for _ in "xy")
            pairs.append((x, y))
        signs = {dist_vs_one(norm, x, y) for x, y in pairs}
        assert signs == {-1, 0, 1}
        for x, y in pairs:
            assert distance(norm, x, y).compare_one == dist_vs_one(norm, x, y)


class TestDistanceGraph:
    def test_collinear_integers_empty(self):
        cfg = PointConfig(l2(1), ((F(0),), (F(1),), (F(2),)))
        assert distance_graph(cfg).edges == frozenset()

    def test_close_triple_is_triangle(self):
        cfg = PointConfig(l2(1), ((F(0),), (F(2, 5),), (F(4, 5),)))
        assert len(distance_graph(cfg).edges) == 3

    def test_duplicates_always_adjacent(self):
        cfg = PointConfig(l2(2), ((F(5), F(5)), (F(5), F(5))))
        assert distance_graph(cfg).edges == frozenset([(0, 1)])


class TestSupportingFunctional:
    def test_l2_axis(self):
        frame = supporting_functional(l2(2), (1, 0))
        assert frame.coeffs == (F(1), F(0))
        assert frame.f_raw((F(7), F(3))) == 7
        assert frame.attains_one_on_direction()

    def test_linf_picks_max_coordinate(self):
        frame = supporting_functional(linf(2), (1, F(1, 2)))
        assert frame.coeffs == (F(1), F(0))
        assert frame.supports((F(-2), F(5)))

    def test_l1_sign_vector(self):
        frame = supporting_functional(l1(2), (F(1, 2), F(-1, 2)))
        assert frame.coeffs == (F(1), F(-1))
        assert frame.attains_one_on_direction()

    def test_zero_direction_rejected(self):
        with pytest.raises(DomainError):
            supporting_functional(l2(2), (0, 0))

    @pytest.mark.parametrize("make", [l1, l2, linf, lambda d: lp(1, d), lambda d: lp(2, d), lambda d: lp(3, d)],
                             ids=["l1", "l2", "linf", "lp1", "lp2", "lp3"])
    def test_consecutive_only_bounds_the_dual_norm(self, make):
        # a supporting functional has dual norm 1, so only consecutive block
        # points can be near; twice it has dual norm 2; lp(3) has no integer
        # dual exponent, so its blocks check every pair
        rng = random.Random(95)
        for d in (1, 2, 3, 4):
            norm = make(d)
            for _ in range(20):
                v = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
                if any(v):
                    frame = supporting_functional(norm, v)
                    doubled = dataclasses.replace(frame, coeffs=tuple(2 * c for c in frame.coeffs))
                    assert frame._consecutive_only == (norm.exponent <= 2)
                    assert not doubled._consecutive_only

    @pytest.mark.parametrize(
        "norm", [l2(2), l1(2), linf(2), lp(3, 2), l2(3), l1(3)]
    )
    def test_norm_bounded_on_random_points(self, norm):
        rng = random.Random(99)
        direction = tuple(
            F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(norm.dimension)
        )
        if all(c == 0 for c in direction):
            direction = (F(1),) * norm.dimension
        frame = supporting_functional(norm, direction)
        for _ in range(1000):
            x = tuple(
                F(rng.randint(-60, 60), rng.randint(1, 12))
                for _ in range(norm.dimension)
            )
            assert frame.supports(x)

    def test_gap_comparison_boundary(self):
        # axis frame: the gap is exactly the threshold
        axis = supporting_functional(l2(2), (1, 0))
        assert axis.gap_at_least((F(1, 2), F(0)), (F(0), F(0)), F(1, 2))
        assert not axis.gap_at_least((F(1, 2), F(0)), (F(0), F(0)), F(501, 1000))
        # diagonal frame has scale sqrt(2): the gap is 1/sqrt(2) ~ 0.7071,
        # and the exact squared comparison separates 70/100 from 71/100
        diag = supporting_functional(l2(2), (1, 1))
        x, y = (F(1, 2), F(1, 2)), (F(0), F(0))
        assert diag.gap_at_least(x, y, F(70, 100))
        assert not diag.gap_at_least(x, y, F(71, 100))


class TestNearLineFit:
    def test_identical_points(self):
        cfg = PointConfig(l2(2), ((F(1), F(1)),) * 3)
        fit = near_line_fit(cfg)
        assert fit.max_deviation == 0.0 and fit.certified

    def test_shallow_zigzag(self):
        cfg = PointConfig(
            l2(2), ((F(0), F(0)), (F(1), F(1, 10)), (F(2), F(-1, 10)))
        )
        fit = near_line_fit(cfg)
        assert fit.max_deviation <= 0.1 + 1e-12
        assert fit.certified

    def test_pentagon_not_near_line_l1(self):
        # rational approximation of a radius-1 regular pentagon
        pts = (
            (F(1), F(0)),
            (F(309, 1000), F(951, 1000)),
            (F(-809, 1000), F(588, 1000)),
            (F(-809, 1000), F(-588, 1000)),
            (F(309, 1000), F(-951, 1000)),
        )
        fit = near_line_fit(PointConfig(l1(2), pts))
        assert not fit.certified
        assert fit.max_deviation > 0.125

    def test_exact_l2_certificate(self):
        cfg = PointConfig(l2(2), ((F(0), F(3, 8)), (F(1), F(-3, 8))))
        fit = near_line_fit(cfg)
        assert fit.exact_sq is not None
        assert fit.certified  # 3/8 < sqrt(3)/4 fits after centering

    def test_boundary_not_certified(self):
        # rows exactly at +- 7/16 > sqrt(3)/4: every candidate line fails
        cfg = PointConfig(
            l2(2),
            (
                (F(0), F(7, 16)),
                (F(0), F(-7, 16)),
                (F(5), F(7, 16)),
                (F(5), F(-7, 16)),
                (F(10), F(0)),
            ),
        )
        fit = near_line_fit(cfg)
        assert not fit.certified

    @pytest.mark.parametrize("norm", [l1(2), linf(2)])
    def test_closed_form_matches_ternary_oracle(self, norm):
        # the exact plane formulas must agree with a direct per-point
        # ternary search along the fitted line
        from anticonc.geometry import _point_line_dist_float

        rng = random.Random({"l1": 404, "linf": 405}[norm.kind])
        for _ in range(20):
            pts = tuple(rational_point(rng, 3, 8) for _ in range(rng.randint(2, 7)))
            cfg = PointConfig(norm, pts)
            fit = near_line_fit(cfg)
            frame = fit.frame
            oracle = max(
                _point_line_dist_float(norm, p, frame.base, frame.direction)
                for p in pts
            )
            assert abs(fit.max_deviation - oracle) < 1e-9



# --- reference near-line scan ---------------------------------------------------
# The Fraction scan that the integer near_line_fit replaced, kept verbatim as
# the oracle: canonical Fraction directions, kappa from the breakpoints of the
# piecewise-linear objective, Fraction keys compared with strict <.


def _ref_canonical_direction(vec):
    if all(c == 0 for c in vec):
        return None
    denom_lcm = math.lcm(*(c.denominator for c in vec))
    ints = [int(c * denom_lcm) for c in vec]
    g = math.gcd(*(abs(i) for i in ints))
    ints = [i // g for i in ints]
    for i in ints:
        if i != 0:
            if i < 0:
                ints = [-j for j in ints]
            break
    return tuple(F(i) for i in ints)


def _ref_candidate_directions(config):
    d = config.norm.dimension
    seen = set()
    out = []
    for i in range(d):
        axis = tuple(F(1 if j == i else 0) for j in range(d))
        seen.add(axis)
        out.append(axis)
    pts = config.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            cand = _ref_canonical_direction(tuple(a - b for a, b in zip(pts[i], pts[j])))
            if cand is not None and cand not in seen:
                seen.add(cand)
                out.append(cand)
    return out


def _ref_kappa_exact_2d(norm, v):
    s = v[0] * v[0] + v[1] * v[1]
    w = (-v[1] / s, v[0] / s)
    cands = []
    if v[0] != 0:
        cands.append(w[0] / v[0])
    if v[1] != 0:
        cands.append(w[1] / v[1])
    if norm.kind == "linf":
        if v[0] != v[1]:
            cands.append((w[0] - w[1]) / (v[0] - v[1]))
        if v[0] != -v[1]:
            cands.append((w[0] + w[1]) / (v[0] + v[1]))
    best = None
    for t in cands:
        val = norm_power(norm, (w[0] - t * v[0], w[1] - t * v[1]))
        if best is None or val < best:
            best = val
    return best


def ref_near_line_fit(config, early_stop=False, extra=()):
    """The scan over the axes and the pair directions, then the directions
    ``extra``, each replacing the best fit only with a strictly smaller key."""
    norm = config.norm
    d = norm.dimension
    best = None
    best_key = None
    for v in _ref_candidate_directions(config) + list(extra):
        exact_sq = None
        exact_dev = None
        if d == 2 and (norm.is_hilbert or norm.kind in ("l1", "linf")):
            dets = [v[0] * p[1] - v[1] * p[0] for p in config.points]
            lo, hi = min(dets), max(dets)
            spread = hi - lo
            s = v[0] * v[0] + v[1] * v[1]
            mid = (lo + hi) / 2
            base = (-v[1] * mid / s, v[0] * mid / s)
            if norm.is_hilbert:
                exact_sq = spread * spread / (4 * s)
                dev_float = math.sqrt(float(exact_sq))
                key = exact_sq
                certified = exact_sq < norm.near_line_radius_sq
            else:
                kappa = _ref_kappa_exact_2d(norm, v)
                exact_dev = spread / 2 * kappa
                dev_float = float(exact_dev)
                key = exact_dev
                certified = exact_dev * exact_dev < norm.near_line_radius_sq
        elif norm.is_hilbert:
            base = tuple(
                (min(p[i] for p in config.points) + max(p[i] for p in config.points))
                / 2
                for i in range(d)
            )
            vv = sum(c * c for c in v)
            worst = F(0)
            for p in config.points:
                r = tuple(a - b for a, b in zip(p, base))
                rr = sum(c * c for c in r)
                rv = sum(a * b for a, b in zip(r, v))
                dist_sq = rr - rv * rv / vv
                if dist_sq > worst:
                    worst = dist_sq
            exact_sq = worst
            dev_float = math.sqrt(float(worst))
            key = worst
            certified = worst < norm.near_line_radius_sq
        else:
            base = tuple(
                (min(p[i] for p in config.points) + max(p[i] for p in config.points))
                / 2
                for i in range(d)
            )
            dev_float = max(
                _point_line_dist_float(norm, p, base, v) for p in config.points
            )
            key = dev_float
            certified = dev_float < norm.near_line_radius - _FLOAT_GUARD
        if best is None or key < best_key:
            frame = supporting_functional(norm, v, base)
            frame.verify_supporting(config.points)
            best = NearLineFit(frame, dev_float, certified, exact_sq, exact_dev)
            best_key = key
            if early_stop and certified:
                return best
    return best


def _over(den, pts):
    return tuple((F(x, den), F(y, den)) for x, y in pts)


# Sets whose key is constant, at its least value, over an arc of directions
# between two adjacent breakpoints of the norm: only the all-pairs scan knows
# which pair direction inside the arc it meets first.
CONSTANT_ARC_SETS = {
    "linf": (
        ((-1, 1), (-1, 0), (1, -1), (0, 1)),
        ((1, 1), (-1, -1), (-1, 0), (0, -1)),
        ((0, 0), (-1, 1), (0, -1), (1, 0)),
    ),
    "l1": (
        ((1, -1), (2, -2), (2, -1), (-2, 0)),
        ((1, 1), (2, 1), (-2, 0), (2, 2)),
        ((1, -1), (1, -2), (2, -2), (0, 2)),
    ),
}
# l1 sets whose fit is a pair direction next to a diagonal that is neither an
# axis nor a hull edge, (4, -3) and (4, 3): that happens only where the key is
# constant over the arc from a hull edge to the next breakpoint
DIAGONAL_NEIGHBOUR_SETS = (
    ((2, -1), (-2, 2), (0, 1), (0, 0)),
    ((-2, -2), (2, 1), (0, -1), (0, 1)),
)


def _parity_configs(norm, rng):
    """Point sets that stress ties, duplicates and degenerate spreads."""
    yield ((F(3, 7), F(-2, 5)),)
    yield ((F(1), F(1)),) * 4
    yield tuple((F(i, 3), F(i, 5)) for i in range(6))  # collinear, slanted
    yield tuple((F(0), F(i, 4)) for i in range(5))  # collinear, vertical
    # symmetric sets whose directions tie on the key
    yield ((F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1)))
    yield ((F(1), F(1)), (F(-1), F(1)), (F(-1), F(-1)), (F(1), F(-1)))
    yield tuple((F(x, 2), F(y, 2)) for x in (-1, 0, 1) for y in (-1, 0, 1))
    yield ((F(0), F(0)), (F(2), F(1, 4)), (F(4), F(0)), (F(2), F(-1, 4)), (F(2), F(-1, 4)))
    yield ((F(0), F(0)), (F(1), F(1, 4)), (F(2), F(0)))  # l1, linf: deviation exactly 1/8
    bound = 12 if norm.is_hilbert else 3
    for _ in range(25):
        n = rng.randint(2, 14)
        yield tuple(
            (F(rng.randint(0, 5 * n), 32), F(rng.randint(-bound, bound), 32))
            for _ in range(n)
        )
    for _ in range(15):
        yield tuple(rational_point(rng, 2, rng.choice((3, 8, 12))) for _ in range(rng.randint(2, 9)))
    yield from _hull_configs(norm, rng)
    for den in (1, 3):
        for pts in CONSTANT_ARC_SETS["linf"] + CONSTANT_ARC_SETS["l1"] + DIAGONAL_NEIGHBOUR_SETS:
            yield _over(den, pts)
    # strips along a diagonal, where pair directions crowd round the l1
    # breakpoint
    for sign, width in ((1, 1), (-1, 2), (1, 3)):
        yield _over(4, [(t + rng.randint(-width, width), sign * t + rng.randint(-width, width))
                        for t in (rng.randint(0, 40) for _ in range(9))])
    # two hull edges tie on the key (for l2 and linf); which one the scan
    # meets first depends on the order of the points
    for tri in itertools.permutations(((1, 1), (-1, 1), (0, -1))):
        yield _over(2, tri)
    # tied directions where the scan's first pair along the one it keeps is
    # not the first such pair to close (for l2, linf and l1)
    yield _over(3, ((-1, -1), (-1, 0), (0, 0), (2, -1), (1, 1), (1, -2)))
    yield _over(3, ((-2, -1), (0, 2), (1, -1), (-1, -1), (0, 1), (-1, 2)))
    yield _over(3, ((2, -1), (2, -2), (0, -1), (-2, 2), (-1, -1), (1, 2), (-2, 0)))


def _hull_configs(norm, rng):
    """Sets whose convex hull is a strict subset, and hull degeneracies."""
    bound = 12 if norm.is_hilbert else 3
    for n in (20, 27, 33, 40):  # strip sets: most points lie inside the hull
        yield tuple(
            (F(rng.randint(0, 32 * n // 6), 32), F(rng.randint(-bound, bound), 32))
            for _ in range(n)
        )
    yield tuple((F(i, 4), F(i * i, 64)) for i in range(-6, 7))  # every point on the hull
    yield tuple((F(x, 2), F(y, 3)) for x, y in ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)))
    corners = ((F(0), F(0)), (F(3), F(1, 8)), (F(3), F(-1, 8)), (F(0), F(-1, 4)))
    yield corners * 3 + ((F(1), F(0)), (F(2), F(-1, 16)))  # duplicate hull vertices
    yield tuple((F(i, 5), F(-2 * i, 7)) for i in range(25))[::-1]  # collinear, slanted
    yield tuple((F(2), F(i, 3)) for i in (4, -1, 0, 7, 2, 2))  # collinear, vertical
    yield ((F(0), F(0)), (F(3, 4), F(1, 8)))  # two distinct points
    yield ((F(1, 3), F(0)), (F(-2), F(1, 2))) * 3


class TestNearLineParity:
    """The integer scan returns exactly the fit of the Fraction reference."""

    @pytest.mark.parametrize("norm", [l2(2), l1(2), linf(2)], ids=lambda n: n.kind)
    @pytest.mark.parametrize("early_stop", [False, True])
    def test_planar_matches_reference(self, norm, early_stop):
        rng = random.Random(31)
        for pts in _parity_configs(norm, rng):
            cfg = PointConfig(norm, pts)
            assert near_line_fit(cfg, early_stop) == ref_near_line_fit(cfg, early_stop)

    @pytest.mark.parametrize("norm", [l2(3), lp(3, 2)], ids=["l2-3d", "l3-2d"])
    def test_other_branches_match_reference(self, norm):
        rng = random.Random(32)
        d = norm.dimension
        # a line whose direction starts with zero: the sign rule must look
        # past the first coordinate
        line = tuple((F(0),) * (d - 2) + (F(t, 3), F(-2 * t, 3) + F(t % 2, 8)) for t in range(4))
        configs = [line]
        for _ in range(6):
            configs.append(tuple(
                tuple(F(rng.randint(-24, 24), 16) for _ in range(d))
                for _ in range(rng.randint(1, 7))
            ))
        for pts in configs:
            cfg = PointConfig(norm, pts)
            for early_stop in (False, True):
                assert near_line_fit(cfg, early_stop) == ref_near_line_fit(cfg, early_stop)

    @settings(max_examples=300, deadline=None)
    @given(
        norm=st.sampled_from([l2(2), l1(2), linf(2)]),
        pts=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=12),
        den=st.sampled_from([1, 2, 3, 32]),
    )
    def test_random_planar_sets(self, norm, pts, den):
        cfg = PointConfig(norm, _over(den, pts))
        assert near_line_fit(cfg) == ref_near_line_fit(cfg)

    def test_benchmark_certify_block(self):
        # the configurations of the first block of the seed-0 certify job list
        mixes = bench_mixes()
        jobs = mixes.generate("certify", 0, mixes.BLOCK["certify"])
        configs = [PointConfig(NormSpec(job[1], 2), _over(mixes.CERTIFY_DEN, job[2]))
                   for job in jobs if job[0] == "certify"]
        assert len(configs) == 63
        for cfg in configs:
            assert near_line_fit(cfg) == ref_near_line_fit(cfg)


class TestPlanarDirections:
    """The planar fit scans all pairs only where the key is constant over an
    arc of directions at its least value."""

    @staticmethod
    def _count_scans(monkeypatch):
        import anticonc.geometry as geometry

        scans = []
        original = geometry._candidate_directions

        def counted(points, d):
            scans.append(len(points))
            return original(points, d)

        monkeypatch.setattr(geometry, "_candidate_directions", counted)
        return scans

    @pytest.mark.parametrize("norm", [l2(2), l1(2), linf(2)], ids=lambda n: n.kind)
    def test_strip_sets_skip_the_pair_scan(self, norm, monkeypatch):
        scans = self._count_scans(monkeypatch)
        rng = random.Random(45)
        for pts in list(_hull_configs(norm, rng))[:4]:
            cfg = PointConfig(norm, pts)
            fit = near_line_fit(cfg)
            assert scans == []
            assert fit == ref_near_line_fit(cfg)
            near_line_fit(cfg, early_stop=True)
            assert scans == [len(pts)]
            scans.clear()

    @pytest.mark.parametrize("kind", ["l1", "linf"])
    def test_constant_arc_sets_scan_all_pairs(self, kind, monkeypatch):
        scans = self._count_scans(monkeypatch)
        for pts in CONSTANT_ARC_SETS[kind]:
            cfg = PointConfig(NormSpec(kind, 2), _over(3, pts))
            fit = near_line_fit(cfg)
            assert scans == [len(pts)]
            assert fit == ref_near_line_fit(cfg)
            scans.clear()

    def test_l1_fit_next_to_a_diagonal(self, monkeypatch):
        scans = self._count_scans(monkeypatch)
        for pts, direction in zip(DIAGONAL_NEIGHBOUR_SETS, ((4, -3), (4, 3))):
            cfg = PointConfig(l1(2), _over(5, pts))
            scans.clear()
            fit = near_line_fit(cfg)
            assert scans == [len(pts)]
            assert fit.frame.direction == direction
            assert fit == ref_near_line_fit(cfg)
            hull = _hull(cfg.scaled[1])
            edges = {_ref_canonical_direction((F(b[0] - a[0]), F(b[1] - a[1])))
                     for a, b in zip(hull, hull[1:] + hull[:1])}
            assert direction not in edges


class TestBendDirections:
    """Where the dual norm bends (the diagonals for l1, the axes for linf) no
    direction has a smaller key than the axes and the pair directions: a
    reference scan that also tries the bends, after every pair, keeps the
    fit of `near_line_fit`."""

    BENDS = {"l1": ((F(1), F(1)), (F(1), F(-1))), "linf": ((F(1), F(0)), (F(0), F(1)))}

    @pytest.mark.parametrize("kind", ["l1", "linf"])
    def test_scanning_the_bends_moves_no_fit(self, kind):
        norm = NormSpec(kind, 2)
        sets = [*_parity_configs(norm, random.Random(31)), *_hull_configs(norm, random.Random(45)),
                *(_over(3, pts) for pts in CONSTANT_ARC_SETS["l1"] + CONSTANT_ARC_SETS["linf"]),
                *(_over(5, pts) for pts in DIAGONAL_NEIGHBOUR_SETS)]
        for pts in sets:
            cfg = PointConfig(norm, pts)
            assert near_line_fit(cfg) == ref_near_line_fit(cfg, extra=self.BENDS[kind])

    def test_a_diagonal_ties_the_fit(self):
        # so the bends must come after the pairs: on these l1 sets a diagonal
        # has the fit's deviation, and a scan meeting it first would keep it
        for pts in DIAGONAL_NEIGHBOUR_SETS:
            cfg = PointConfig(l1(2), _over(5, pts))
            devs = []
            for v in self.BENDS["l1"]:
                dets = [v[0] * y - v[1] * x for x, y in cfg.points]
                devs.append((max(dets) - min(dets)) / 2 * _ref_kappa_exact_2d(cfg.norm, v))
            fit = near_line_fit(cfg)
            assert fit.exact in devs and fit.frame.direction not in ((1, 1), (1, -1))


class TestHull:
    @pytest.mark.parametrize("norm", [l2(2), l1(2), linf(2)], ids=lambda n: n.kind)
    def test_spread_over_hull_equals_spread_over_points(self, norm):
        rng = random.Random(41)
        for pts in _hull_configs(norm, rng):
            _, ipts = _scaled_integers(pts)
            hull = _hull(ipts)
            assert set(hull) <= set(ipts) and len(set(hull)) == len(hull)
            for _ in range(25):
                v = (rng.randint(-9, 9), rng.randint(-9, 9))
                dets = [v[0] * y - v[1] * x for x, y in ipts]
                hull_dets = [v[0] * y - v[1] * x for x, y in hull]
                assert (min(hull_dets), max(hull_dets)) == (min(dets), max(dets))

    def test_vertex_counts(self):
        rng = random.Random(42)
        strips = list(_hull_configs(l2(2), rng))[:4]
        for pts in strips:
            _, ipts = _scaled_integers(pts)
            assert len(_hull(ipts)) < len(set(ipts))
        parabola = [(i, i * i) for i in range(-6, 7)]
        assert sorted(_hull(parabola)) == sorted(parabola)
        assert _hull([(3, 1)] * 4) == [(3, 1)]
        assert sorted(_hull([(2 * i, -i) for i in range(9)])) == [(0, 0), (16, -8)]
        assert sorted(_hull([(5, i) for i in (3, -2, 7, 7)])) == [(5, -2), (5, 7)]
        square = [(0, 0), (4, 0), (4, 4), (0, 4)]
        assert sorted(_hull(square * 2 + [(2, 2), (1, 3), (2, 0)])) == sorted(square)


class TestNearLineFitChecks:
    def test_quadratic_coordinates_rejected(self):
        from anticonc.scenarios import _octagon_points

        with pytest.raises(DomainError, match="rational coordinates"):
            near_line_fit(PointConfig(l2(2), tuple(_octagon_points())))

    @pytest.mark.parametrize("norm", [l2(2), l1(2), l2(3)], ids=["l2", "l1", "l2-3d"])
    def test_one_support_check_per_fit(self, norm, monkeypatch):
        calls = []
        original = LineFrame.verify_supporting

        def counted(frame, points):
            calls.append(frame)
            return original(frame, points)

        monkeypatch.setattr(LineFrame, "verify_supporting", counted)
        rng = random.Random(43)
        for _ in range(5):
            pts = tuple(
                tuple(F(rng.randint(-40, 40), 16) for _ in range(norm.dimension))
                for _ in range(12)
            )
            calls.clear()
            fit = near_line_fit(PointConfig(norm, pts))
            assert calls == [fit.frame]

    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize(
        "norm", [l2(2), l1(2), linf(2), l2(3)], ids=["l2", "l1", "linf", "l2-3d"]
    )
    def test_one_frame_built_per_fit(self, norm, early_stop, monkeypatch):
        import anticonc.geometry as geometry

        built = []
        original = geometry.supporting_functional

        def counted(norm, direction, base=None):
            built.append(direction)
            return original(norm, direction, base)

        monkeypatch.setattr(geometry, "supporting_functional", counted)
        rng = random.Random(44)
        for _ in range(5):
            pts = tuple(
                tuple(F(rng.randint(-40, 40), 16) for _ in range(norm.dimension))
                for _ in range(12)
            )
            built.clear()
            cfg = PointConfig(norm, pts)
            fit = near_line_fit(cfg, early_stop)
            assert len(built) == 1
            assert fit == ref_near_line_fit(cfg, early_stop)


def _hand_frame(norm, coeffs, scale_pow):
    zero = (F(0),) * norm.dimension
    return LineFrame(norm, (F(1),) + zero[1:], zero, tuple(coeffs), F(scale_pow), norm.exponent)


class TestVerifySupporting:
    def test_coefficients_above_the_norm_raise(self):
        # |(3/2, 1/3)|^2 = 85/36: a scale_pow of 7/3 = 84/36 is too small
        # exactly at the point along the coefficients, 5/2 is enough
        x = (F(3, 4), F(1, 6))
        far = [(F(1), F(0)), (F(0), F(-2, 7))]
        low = _hand_frame(l2(2), (F(3, 2), F(1, 3)), F(7, 3))
        low.verify_supporting(far)
        with pytest.raises(InvariantViolation):
            low.verify_supporting(far + [x])
        _hand_frame(l2(2), (F(3, 2), F(1, 3)), F(5, 2)).verify_supporting(far + [x])
        # l1: the dual norm is the largest |coefficient|
        with pytest.raises(InvariantViolation):
            _hand_frame(l1(2), (F(5, 4), F(1, 2)), F(6, 5)).verify_supporting([(F(1, 3), F(0))])
        _hand_frame(l1(2), (F(5, 4), F(-1, 2)), F(5, 4)).verify_supporting([(F(1, 3), F(-7, 9))])

    @pytest.mark.parametrize(
        "norm", [l2(2), l1(2), linf(2), lp(3, 2), l2(3), linf(3)], ids=lambda n: f"{n.kind}-{n.dimension}"
    )
    def test_matches_pointwise_supports(self, norm):
        rng = random.Random(44 + norm.dimension)
        for _ in range(40):
            coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(norm.dimension)]
            frame = _hand_frame(norm, coeffs, F(rng.randint(1, 30), rng.randint(1, 6)))
            pts = [
                tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(norm.dimension))
                for _ in range(rng.randint(1, 6))
            ]
            for p in pts:  # each point alone, ties at equality included
                try:
                    frame.verify_supporting([p])
                    ok = True
                except InvariantViolation:
                    ok = False
                assert ok == frame.supports(p)
            # a PointConfig is checked on its stored integer form, alike
            cfg = PointConfig(norm, tuple(pts))
            if all(frame.supports(p) for p in pts):
                frame.verify_supporting(pts)
                frame.verify_supporting(cfg)
            else:
                bad = next(p for p in pts if not frame.supports(p))
                for arg in (iter(pts), cfg):
                    with pytest.raises(InvariantViolation) as exc:
                        frame.verify_supporting(arg)
                    assert str(exc.value) == f"functional exceeds the norm at point {bad}"

    def test_equality_is_supported(self):
        frame = _hand_frame(l1(2), (F(1), F(-1)), 1)
        frame.verify_supporting([(F(2, 3), F(-1, 5)), (F(0), F(0))])  # |x - y| = |x| + |y|
        frame = _hand_frame(l2(2), (F(3, 5), F(4, 5)), 1)
        frame.verify_supporting([(F(6, 7), F(8, 7))])

    def test_points_of_another_dimension(self):
        pts = ((F(0), F(0)), (F(0), F(5)), (F(3), F(0)))
        line = supporting_functional(l2(1), (1,))
        for points in (pts, PointConfig(l2(2), pts)):
            with pytest.raises(DimensionMismatch, match="expected dimension 1, got 2"):
                line.verify_supporting(points)
            with pytest.raises(DimensionMismatch, match="expected dimension 3, got 2"):
                supporting_functional(linf(3), (0, 1, 1)).verify_supporting(points)
        with pytest.raises(DimensionMismatch, match="expected dimension 2, got 1"):
            supporting_functional(l2(2), (1, 0)).verify_supporting([(F(1), F(0)), (F(2),)])

    @pytest.mark.parametrize("point, got", [((F(5),), 1), ((F(5), F(0), F(100)), 3)])
    def test_supports_refuses_another_dimension(self, point, got):
        frame = supporting_functional(l2(2), (1, 0))
        with pytest.raises(DimensionMismatch, match=f"expected dimension 2, got {got}"):
            frame.supports(point)
        assert frame.supports((F(5), F(0)))

    def test_gap_at_least_refuses_another_dimension(self):
        frame = supporting_functional(l2(2), (1, 0))
        with pytest.raises(DimensionMismatch, match="expected dimension 2, got 1"):
            frame.gap_at_least((F(3),), (F(0), F(9)), F(1))
        with pytest.raises(DimensionMismatch, match="expected dimension 2, got 3"):
            frame.gap_at_least((F(3), F(0)), (F(0), F(0), F(9)), F(1))
        with pytest.raises(DimensionMismatch, match="expected dimension 2, got 1"):
            frame.gap_at_least((F(3),), (F(0), F(0), F(9)), F(1))
        assert frame.gap_at_least((F(3), F(0)), (F(0), F(9)), F(1))


class TestSeparationCheck:
    def test_unit_interval(self):
        frame = supporting_functional(l2(1), (F(1),))
        cfg = PointConfig(l2(1), ((F(0),), (F(1),)))
        rep = separation_check(frame, cfg)
        assert rep.ok and rep.pairs_checked == 1

    def test_l2_strip_pair(self):
        frame = supporting_functional(l2(2), (F(1), F(0)))
        cfg = PointConfig(
            l2(2), ((F(0), F(433, 1000)), (F(1), F(-433, 1000)))
        )
        rep = separation_check(frame, cfg)
        assert rep.ok and rep.pairs_checked == 1

    def test_l1_strip_pair(self):
        frame = supporting_functional(l1(2), (F(1), F(0)))
        cfg = PointConfig(l1(2), ((F(0), F(1, 8)), (F(17, 16), F(-1, 8))))
        rep = separation_check(frame, cfg)
        assert rep.ok

    def test_frame_of_another_dimension(self):
        cfg = PointConfig(l2(2), ((F(0), F(0)), (F(0), F(5)), (F(3), F(0))))
        with pytest.raises(DimensionMismatch, match="expected dimension 1, got 2"):
            separation_check(supporting_functional(l2(1), (1,)), cfg)
        with pytest.raises(DimensionMismatch, match="expected dimension 3, got 2"):
            separation_check(supporting_functional(l1(3), (1, 0, 2)), cfg)

    def test_violation_is_data(self):
        # two far points orthogonal to the frame: separation fails, reported
        frame = supporting_functional(l2(2), (F(1), F(0)))
        cfg = PointConfig(l2(2), ((F(0), F(0)), (F(0), F(2))))
        rep = separation_check(frame, cfg)
        assert not rep.ok and rep.violations == ((0, 1),)

    @pytest.mark.parametrize("norm", [l2(2), l1(2), linf(2)])
    def test_no_violations_after_certified_fit(self, norm):
        # whenever the fit certifies the configuration near its line, the
        # frame separates every pair at distance >= 1 by at least 1/2
        rng = random.Random({"l2": 431, "l1": 432, "linf": 433}[norm.kind])
        bound = 12 if norm.is_hilbert else 3
        for _ in range(25):
            pts = tuple(
                (F(rng.randint(0, 160), 32), F(rng.randint(-bound, bound), 32))
                for _ in range(rng.randint(2, 10))
            )
            cfg = PointConfig(norm, pts)
            fit = near_line_fit(cfg)
            assert fit.certified
            assert separation_check(fit.frame, cfg).ok


# --- reference: the per-pair Fraction loops the integer kernel replaced ------


def ref_distance_edges(norm, points):
    return {
        (i, j)
        for i in range(len(points))
        for j in range(i + 1, len(points))
        if dist_vs_one(norm, points[i], points[j]) < 0
    }


def ref_separation_check(frame, config):
    half = F(1, 2)
    pts = config.points
    raws = [frame.f_raw(p) for p in pts]
    checked = 0
    bad = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if dist_vs_one(config.norm, pts[i], pts[j]) >= 0:
                checked += 1
                if not frame.raw_gap_at_least(raws[i] - raws[j], half):
                    bad.append((i, j))
    return checked, tuple(bad)


KERNEL_NORMS = [
    norm(d)
    for d in (1, 2, 3)
    for norm in (l1, l2, linf, lambda d: lp(3, d), lambda d: lp(4, d))
]


def _kernel_configs(norm, rng):
    """Point sets at the edge and row-cut boundaries of the integer kernel."""
    d = norm.dimension
    zero = (F(0),) * d

    def axis(k, t):
        return tuple(F(t) if i == k else F(0) for i in range(d))

    yield ()
    yield (zero,)
    # distance exactly 1 along every axis: no edge; the x axis is also an
    # x-gap of exactly 1
    yield (zero,) + tuple(axis(k, 1) for k in range(d)) + tuple(axis(k, -1) for k in range(d))
    # x-gap exactly 1 with other coordinates apart (distance > 1), just below 1
    # (edge or not by norm), and equal x (the row cut never fires)
    for t in (F(1), F(96, 97), F(0)):
        yield tuple((F(k) * t,) + tuple(F(rng.randint(-3, 3), 7) for _ in range(d - 1)) for k in range(6))
    # rational points at distance exactly 1 off the axes
    if d >= 2:
        exact = {"l1": (F(1, 2), F(1, 2)), "l2": (F(3, 5), F(4, 5)), "linf": (F(1), F(1, 3))}
        if norm.kind in exact:
            p = exact[norm.kind] + (F(0),) * (d - 2)
            yield (zero, p, tuple(-c for c in p), tuple(c + 1 for c in p))
    if d == 3 and norm.kind == "l2":
        yield (zero, (F(1, 3), F(2, 3), F(2, 3)), (F(2, 3), F(-1, 3), F(2, 3)))
    # mixed denominators, negative coordinates and duplicates
    for _ in range(20):
        pts = [
            tuple(F(rng.randint(-24, 24), rng.choice((1, 2, 3, 4, 6, 7, 12))) for _ in range(d))
            for _ in range(rng.randint(2, 16))
        ]
        pts += rng.sample(pts, rng.randint(0, min(3, len(pts))))
        rng.shuffle(pts)
        yield tuple(pts)
    # dense clusters, many pairs near distance 1
    for _ in range(10):
        yield tuple(
            tuple(F(rng.randint(-8, 8), 8) for _ in range(d)) for _ in range(rng.randint(2, 24))
        )


def kernel_pairs(norm, s, ipts):
    """The index pairs i < j of the kernel's adjacency masks."""
    return DistGraph._from_masks(len(ipts), _near_masks(norm, s, ipts)[0]).edges


class TestNearPairsKernel:
    """The integer kernel decides every pair like the per-pair Fraction loop."""

    @pytest.mark.parametrize("norm", KERNEL_NORMS, ids=lambda n: f"{n.kind}{n.p or ''}-{n.dimension}d")
    def test_edges_match_reference(self, norm):
        rng = random.Random(500 + KERNEL_NORMS.index(norm))
        for pts in _kernel_configs(norm, rng):
            cfg = PointConfig(norm, pts)
            want = ref_distance_edges(norm, cfg.points)
            assert kernel_pairs(norm, *cfg.scaled) == want
            g = distance_graph(cfg)
            assert g.n == len(pts) and g.edges == want

    @pytest.mark.parametrize("norm", KERNEL_NORMS, ids=lambda n: f"{n.kind}{n.p or ''}-{n.dimension}d")
    def test_separation_matches_reference(self, norm):
        rng = random.Random(600 + KERNEL_NORMS.index(norm))
        d = norm.dimension
        directions = [(F(1),) + (F(0),) * (d - 1), tuple(F(rng.randint(1, 5), 4) for _ in range(d))]
        for pts in _kernel_configs(norm, rng):
            cfg = PointConfig(norm, pts)
            for v in directions:
                frame = supporting_functional(norm, v)
                rep = separation_check(frame, cfg)
                assert (rep.pairs_checked, rep.violations) == ref_separation_check(frame, cfg)

    def test_boundary_pairs(self):
        # exactly 1 apart: no edge; a hair closer: an edge
        for norm in (l1(2), l2(2), linf(2), lp(3, 2)):
            cfg = PointConfig(norm, ((F(0), F(0)), (F(1), F(0)), (F(0), F(-1)), (F(-1, 2), F(1, 2))))
            want = {(0, 3)} if norm.kind != "l1" else set()
            assert distance_graph(cfg).edges == want
        cfg = PointConfig(l2(2), ((F(0), F(0)), (F(3, 5), F(4, 5)), (F(3, 5), F(799, 1000))))
        assert distance_graph(cfg).edges == {(0, 2), (1, 2)}

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernel_pairs(l2(2), *_scaled_integers(((F(0), F(0)), (F(1),))))

    def test_block_rejects_close_pair(self):
        frame = supporting_functional(l2(2), (F(1), F(0)))
        # functional gaps are fine, but points 1, 2 and 2, 3 are 0.95 apart;
        # the error names the first close pair
        pts = [(F(0), F(0)), (F(2), F(0)), (F(29, 10), F(3, 10)), (F(38, 10), F(0))]
        with pytest.raises(InvariantViolation, match="points 1 and 2 are at distance below 1"):
            Block.from_points(pts, frame)
        Block.from_points(pts[:2] + pts[3:], frame)


# --- reference: the all-pairs QuadExt check the scenarios ran before the
# kernel took Q(sqrt(m)) coordinates; every decision goes through sign() ---


def ref_quad_edges(norm, points):
    """Pairs i < j with ||p_i - p_j||^e < 1, all pairs, decided by sign()."""
    edges = set()
    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            m = p[0].m
            mags = []
            for u, v in zip(p, points[j]):
                dx = u - v
                mags.append(dx if dx.sign() >= 0 else -dx)
            power = QuadExt.of(0, 0, m)
            for x in mags:
                if norm.kind == "linf":
                    if (x - power).sign() > 0:
                        power = x
                    continue
                term = QuadExt.of(1, 0, m)
                for _ in range(norm.exponent):
                    term = term * x
                power = power + term
            if (power - QuadExt.of(1, 0, m)).sign() < 0:
                edges.add((i, j))
    return edges


def ref_quad_sum(a, b):
    """Brute-force dictionary sum of two Q(sqrt(m)) measures."""
    acc = {}
    for p, w in a.atoms():
        for q, u in b.atoms():
            key = (p[0] + q[0], p[1] + q[1])
            acc[key] = acc.get(key, F(0)) + w * u
    return acc


def _quad_units(norm, m):
    """Vectors of norm exactly 1 in Q(sqrt(m))^2 with an irrational coordinate."""
    r = QuadExt.of(0, 1, m)
    half = F(1, 2)
    if norm.kind == "l1":
        return [(r - 1, -r + 2), (-r + 2, -r + 1)]
    if norm.kind == "linf":
        return [(QuadExt.of(1, 0, m), r * F(1, 4)), (r * F(-1, 4), QuadExt.of(-1, 0, m))]
    if m == 2:
        return [(r * half, r * half), (r * half, r * -half)]
    return [(QuadExt.of(half, 0, 3), r * half), (r * half, QuadExt.of(-half, 0, 3))]


def _quad_configs(norm, m, rng):
    """Random Q(sqrt(m)) point sets, with pairs exactly 1 apart (the x-gap
    exactly 1 for linf), a hair closer and a hair farther, and duplicates."""
    def coord():
        return QuadExt.of(F(rng.randint(-12, 12), 4), F(rng.randint(-6, 6), rng.choice((1, 2, 4))), m)

    units = _quad_units(norm, m)
    for _ in range(25):
        pts = [(coord(), coord()) for _ in range(rng.randint(1, 10))]
        for p in rng.sample(pts, min(3, len(pts))):
            u = rng.choice(units)
            for t in (F(1), F(96, 97), F(98, 97)):
                pts.append((p[0] + u[0] * t, p[1] + u[1] * t))
        pts += rng.sample(pts, min(2, len(pts)))
        rng.shuffle(pts)
        yield tuple(pts)


QUAD_CASES = [(norm, m) for m in (2, 3) for norm in (l2(2), l1(2), linf(2))]


class TestQuadKernel:
    """The one kernel decides Q(sqrt(m)) pairs like the all-pairs QuadExt check."""

    @pytest.mark.parametrize("norm, m", QUAD_CASES, ids=lambda c: getattr(c, "kind", c))
    def test_edges_match_reference(self, norm, m):
        rng = random.Random(900 + 10 * m + QUAD_CASES.index((norm, m)))
        for pts in _quad_configs(norm, m, rng):
            assert distance_graph(PointConfig(norm, pts)).edges == ref_quad_edges(norm, pts)

    def test_units_are_exactly_one(self):
        for norm, m in QUAD_CASES:
            for u in _quad_units(norm, m):
                cfg = PointConfig(norm, ((QuadExt.of(0, 0, m),) * 2, u))
                assert distance_graph(cfg).edges == set()
                shrunk = tuple(c * F(999, 1000) for c in u)
                cfg = PointConfig(norm, ((QuadExt.of(0, 0, m),) * 2, shrunk))
                assert distance_graph(cfg).edges == {(0, 1)}

    @pytest.mark.parametrize("m", [2, 3])
    def test_product_sum_matches_brute_force(self, m):
        rng = random.Random(950 + m)
        for _ in range(5):
            ms = []
            for _ in range(2):
                pts = next(_quad_configs(l2(2), m, rng))
                raw = [rng.randint(1, 5) for _ in pts]
                ms.append(VectorMeasure(PointConfig(l2(2), pts), tuple(F(r, sum(raw)) for r in raw)))
            s = product_sum_measure(ms)
            assert dict(s.atoms()) == ref_quad_sum(*ms)
            floats = [tuple(map(float, p)) for p in s.points]
            assert floats == sorted(floats) and len(set(s.points)) == len(s.points)
            assert concentration_q(s).value <= min(concentration_q(x).value for x in ms)

    def test_measure_merges_and_sorts(self):
        r = QuadExt.of(0, 1, 2)
        one = QuadExt.of(1, 0, 2)
        m = VectorMeasure(PointConfig(l2(2), ((r, one), (one, r), (r, one))), (F(1, 4), F(1, 4), F(1, 2)))
        assert m.points == ((one, r), (r, one)) and m.weights == (F(1, 4), F(3, 4))
        assert m.dilate(-1).points == ((-r, -one), (-one, -r))

    def test_one_field_per_config(self):
        with pytest.raises(DomainError):
            PointConfig(l2(2), ((QuadExt.of(1, 1, 2), QuadExt.of(0, 0, 3)),))
        with pytest.raises(DomainError):
            PointConfig(l2(2), ((QuadExt.of(1, 1, 2), F(0)),))
        with pytest.raises(DomainError):
            PointConfig(l2(2), ((QuadExt.of(1, 1, 2), QuadExt.of(0, 0, 2)), (F(0), F(1))))
        with pytest.raises(TypeError):  # a rational first coordinate: rationals only
            PointConfig(l2(2), ((F(0), QuadExt.of(1, 1, 2)),))

    def test_to_json_rejects_quadratic_coordinates(self):
        cfg = PointConfig(l2(2), ((QuadExt.of(1, 1, 2), QuadExt.of(0, 0, 2)),))
        with pytest.raises(TypeError):
            cfg.to_json()
        m = VectorMeasure(cfg, (F(1),))
        with pytest.raises(TypeError):
            m.to_json()


# --- the integer-pair kernels against QuadExt arithmetic ---

PAIR_FIELDS = (2, 3, 5, 6, 7)


def ref_quad_row(s, pts):
    """The planar l2 row test as it ran on `QuadExt` values: dx^2 + dy^2 < s^2."""
    ss = s * s
    return lambda a, row: [b for b in row if (pts[b][0] - pts[a][0]) ** 2 + (pts[b][1] - pts[a][1]) ** 2 < ss]


def _pair_branch(m, s, p, q):
    """Which case of the rule "2t sqrt(m) < r" decides the pair p, q."""
    (a, b), (c, d) = [(v.a - u.a, v.b - u.b) for u, v in zip(p, q)]
    r, t = s * s - a * a - c * c - m * (b * b + d * d), a * b + c * d
    if t < 0:
        return "t<0, r>=0" if r >= 0 else "t<0, m4t2>r2" if 4 * m * t * t > r * r else "t<0, m4t2<r2"
    return "t>=0, r<=0" if r <= 0 else "t>=0, m4t2<r2" if 4 * m * t * t < r * r else "t>=0, m4t2>r2"


def _pair_configs(m, rng):
    """Random Q(sqrt(m)) point sets, dense enough that every sign case of the
    pair rule occurs, with unit chords and near-unit chords added."""
    r = QuadExt.of(0, 1, m)
    for _ in range(30):
        den = rng.choice((1, 2, 3, 4, 6))
        pts = [(QuadExt.of(F(rng.randint(-5, 5), den), F(rng.randint(-3, 3), den), m),
                QuadExt.of(F(rng.randint(-5, 5), den), F(rng.randint(-3, 3), den), m))
               for _ in range(rng.randint(2, 12))]
        p = rng.choice(pts)
        # (1/2) (1, 1) scaled by sqrt(2) has length 1 in Q(sqrt(2)); in every
        # field the axis and (3/5, 4/5) are unit chords with irrational anchors
        units = [(QuadExt.of(1, 0, m), QuadExt.of(0, 0, m)), (QuadExt.of(F(3, 5), 0, m), QuadExt.of(F(-4, 5), 0, m))]
        if m == 2:
            units.append((r * F(1, 2), r * F(1, 2)))
        for u in units:
            for t in (F(1), F(96, 97), F(98, 97)):
                pts.append((p[0] + u[0] * t, p[1] + u[1] * t))
        yield tuple(pts)


class TestPairKernel:
    """The integer-pair l2 test, the floor keys and product sums on flat int
    tuples decide as the `QuadExt` arithmetic they replace."""

    @pytest.mark.parametrize("m", PAIR_FIELDS)
    def test_row_test_matches_quadext(self, m):
        from anticonc.geometry import _row_test

        rng, branches = random.Random(3200 + m), set()
        for pts in _pair_configs(m, rng):
            s, ipts = _scaled_integers(pts)
            near, want = _row_test(l2(2), s, ipts), ref_quad_row(s, ipts)
            for a in range(len(ipts)):
                row = [b for b in range(len(ipts)) if b != a]
                assert near(a, row) == want(a, row)
                branches.update(_pair_branch(m, s, ipts[a], ipts[b]) for b in row)
            assert distance_graph(PointConfig(l2(2), pts)).edges == ref_quad_edges(l2(2), pts)
        assert branches == {"t<0, r>=0", "t<0, m4t2>r2", "t<0, m4t2<r2",
                            "t>=0, r<=0", "t>=0, m4t2<r2", "t>=0, m4t2>r2"}

    def test_exact_unit_chords(self):
        from anticonc.geometry import _row_test
        from anticonc.scenarios import _octagon_points, _sharpness_points

        # the octagon's three-step chord is exactly 1: t = r = 0, not near
        s, ipts = _scaled_integers(_octagon_points())
        near = _row_test(l2(2), s, ipts)
        assert [(a, (a + 3) % 8) for a in range(8) if near(a, [(a + 3) % 8])] == []
        assert _pair_branch(2, s, ipts[0], ipts[3]) == "t>=0, r<=0"
        assert all(near(a, [(a + k) % 8]) for a in range(8) for k in (1, 2))
        # at epsilon 0 every critical pair of the sharpness points is exactly 1
        pts = _sharpness_points(F(0))
        s, ipts = _scaled_integers(pts)
        near, want = _row_test(l2(2), s, ipts), ref_quad_row(s, ipts)
        critical = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (1, 4)]
        for a, b in critical:
            assert sum(((u - v) ** 2 for u, v in zip(pts[a], pts[b])), QuadExt.of(0, 0, 3)) == 1
            assert near(a, [b]) == want(a, [b]) == []
        assert distance_graph(PointConfig(l2(2), pts)).edges == set()

    @pytest.mark.parametrize("m", PAIR_FIELDS)
    def test_floor_keys_order_values_and_steps(self, m):
        from anticonc.quadfield import _floor_keys

        rng = random.Random(3300 + m)
        for _ in range(20):
            values = [QuadExt(rng.randint(-30, 30), rng.randint(-12, 12), m) for _ in range(12)]
            values += rng.sample(values, 3)
            reach = rng.randint(0, 9)
            k, keys = _floor_keys(values, reach)
            for (x, kx), (y, ky) in itertools.product(zip(values, keys), repeat=2):
                for t in range(-reach, reach + 1):
                    sign = (y - x - t).sign()
                    assert (kx + (t << k) < ky, kx + (t << k) == ky) == (sign > 0, sign == 0)

    @pytest.mark.parametrize("m", PAIR_FIELDS)
    def test_product_sum_matches_quadext_convolution(self, m):
        rng = random.Random(3400 + m)
        for _ in range(4):
            ms = []
            for pts in itertools.islice(_pair_configs(m, rng), 2):
                pts = pts[:4] + pts[-3:]  # a few random points and unit chords
                raw = [rng.randint(1, 5) for _ in pts]
                ms.append(VectorMeasure(PointConfig(l2(2), pts), tuple(F(u, sum(raw)) for u in raw)))
            ms.append(VectorMeasure.uniform(l2(2), [(0, 0), (F(1, 3), 1)]))  # rational summands join
            acc = {((QuadExt.of(0, 0, m),) * 2): F(1)}
            for x in ms:
                nxt = {}
                for p, w in acc.items():
                    for q, u in x.atoms():
                        key = (p[0] + q[0], p[1] + q[1])
                        nxt[key] = nxt.get(key, 0) + w * u
                acc = nxt
            total = product_sum_measure(ms)
            assert list(total.atoms()) == sorted(acc.items())
            assert_matches_graph_search(total)

    def test_product_sum_refuses_two_fields(self):
        a = VectorMeasure.uniform(l2(2), [(0, 0)])
        two, three = (VectorMeasure(PointConfig(l2(2), ((QuadExt.of(0, 1, m),) * 2,)), (1,)) for m in (2, 3))
        with pytest.raises(DomainError, match=r"one Q\(sqrt\(m\)\)"):
            product_sum_measure([a, two, three])

    @pytest.mark.parametrize("norm", [l1(2), linf(2), lp(3, 2), l2(3), l1(3), linf(3), l2(1)],
                             ids=lambda n: f"{n.kind}{n.p or ''}-{n.dimension}d")
    def test_other_norms_keep_their_answers(self, norm):
        # the norms that still decide Q(sqrt(m)) points by `QuadExt`
        # arithmetic: graphs, concentrations and product sums as before
        from anticonc.perfect_graphs import max_clique

        rng = random.Random(3500 + norm.dimension * 10 + norm.exponent)
        for m in PAIR_FIELDS:
            for _ in range(4):
                pts = [tuple(QuadExt.of(F(rng.randint(-4, 4), 2), F(rng.randint(-2, 2), 2), m)
                             for _ in range(norm.dimension)) for _ in range(rng.randint(1, 9))]
                cfg = PointConfig(norm, pts)
                ref = ref_quad_edges(norm, pts)
                assert distance_graph(cfg).edges == ref
                measure = VectorMeasure(cfg, [F(1, len(pts))] * len(pts))
                res = concentration_q(measure)
                sub = ref_quad_edges(norm, measure.points)
                g = DistGraph(len(measure.points), sub)
                assert (res.value, res.witness) == max_clique(g, measure.weights)
                total = product_sum_measure([measure, measure])
                assert concentration_q(total).value == max_clique(
                    DistGraph(len(total.points), ref_quad_edges(norm, total.points)), total.weights)[0]


# --- reference: the kernel before the planar sweep, rows cut by a linear
# scan and one generic per-pair test in every dimension ---


def refkernel_pairs(norm, points):
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


PLANAR_NORMS = [l1(2), l2(2), linf(2), lp(3, 2), lp(4, 2)]
PLANAR_CASES = [(norm, m) for m in (None, 2, 3) for norm in PLANAR_NORMS]


def _planar_configs(norm, m, rng):
    """Planar point sets at the row ends and edge tests of the sweep, over Q
    (m None) or with a shared irrational part in Q(sqrt(m))."""
    def c(a, b=0):
        return F(a) if m is None else QuadExt.of(a, b, m)

    def shifted(pts, b=1):
        return tuple((c(x, b), c(y, -b)) for x, y in pts)

    yield ()
    yield shifted([(0, 0)])
    # one column of equal x, dy crossing +-1
    yield shifted([(1, F(k, 3)) for k in range(-4, 5)])
    # x-gaps exactly 1 and 1 - 1/97: with dy 0 and +-1/2 the first gap is
    # exactly 1 in every norm, the second below 1 only with dy 0 (or linf)
    for gap in (F(1), F(96, 97)):
        yield shifted([(k * gap, F(rng.choice((-1, 0, 1)), 2)) for k in range(8)])
        yield shifted([(k * gap, F(rng.randint(-6, 6), 7)) for k in range(8)])
    # pairs exactly at distance 1 (the axes in every norm, and off them), with
    # negative dy, a hair closer and a hair farther
    units = [(1, 0), (0, 1), (0, -1)]
    units += {"l1": [(F(1, 3), F(-2, 3))], "l2": [(F(3, 5), F(-4, 5))],
              "linf": [(F(1, 3), -1), (F(1, 2), 1)]}.get(norm.kind, [])
    for x, y in units:
        for t in (F(1), F(96, 97), F(98, 97)):
            yield shifted([(0, 0), (x * t, y * t), (1 + x * t, 1 + y * t), (1, 1)])
    if m is not None and norm.kind != "lp":
        for u in _quad_units(norm, m):
            yield ((c(0), c(0)), u, tuple(ui * F(96, 97) for ui in u), (c(-1), u[1]))
    # random sets with duplicates, negative coordinates and mixed denominators
    for _ in range(15):
        pts = [
            (F(rng.randint(-24, 24), rng.choice((1, 2, 3, 4, 8))),
             F(rng.randint(-24, 24), rng.choice((1, 3, 8))))
            for _ in range(rng.randint(2, 14))
        ]
        pts += rng.sample(pts, rng.randint(0, min(3, len(pts))))
        rng.shuffle(pts)
        yield shifted(pts, rng.randint(-2, 2))


class TestPlanarSweep:
    """The planar sweep returns the pair set of the kernel before it."""

    @pytest.mark.parametrize("norm, m", PLANAR_CASES, ids=[f"{n.kind}{n.p or ''}-{m or 'Q'}" for n, m in PLANAR_CASES])
    def test_matches_previous_kernel(self, norm, m):
        rng = random.Random(1400 + PLANAR_CASES.index((norm, m)))
        for pts in _planar_configs(norm, m, rng):
            want = refkernel_pairs(norm, pts)
            assert kernel_pairs(norm, *_scaled_integers(pts)) == want
            if m is None:
                assert want == ref_distance_edges(norm, pts)

    def test_row_end_at_gap_one(self):
        # (1, 1/2) is exactly 1 from the origin in linf: the row ends before it
        for norm in PLANAR_NORMS:
            pts = ((F(0), F(0)), (F(1), F(1, 2)), (F(1), F(0)), (F(2, 3), F(-1, 3)))
            want = {(1, 2), (2, 3)} | ({(0, 3), (1, 3)} if norm.kind != "l1" else set())
            assert kernel_pairs(norm, *_scaled_integers(pts)) == want

    def test_exactly_one_off_axis(self):
        cases = {"l1": (F(1, 3), F(-2, 3)), "l2": (F(3, 5), F(-4, 5)), "linf": (F(1, 3), F(-1))}
        for norm in (l1(2), l2(2), linf(2)):
            x, y = cases[norm.kind]
            assert kernel_pairs(norm, *_scaled_integers(((F(0), F(0)), (x, y)))) == set()
            assert kernel_pairs(norm, *_scaled_integers(((F(0), F(0)), (x * F(96, 97), y * F(96, 97))))) == {(0, 1)}

    @pytest.mark.parametrize("d", [1, 3])
    def test_other_dimensions_match_previous_kernel(self, d):
        rng = random.Random(1420 + d)
        for norm in (l1(d), l2(d), linf(d), lp(3, d)):
            for _ in range(15):
                pts = [tuple(F(rng.randint(-12, 12), rng.choice((1, 2, 4))) for _ in range(d))
                       for _ in range(rng.randint(0, 14))]
                pts += rng.sample(pts, min(2, len(pts)))
                assert kernel_pairs(norm, *_scaled_integers(pts)) == refkernel_pairs(norm, pts)


def _block_frames():
    """Frames from supporting_functional, and hand-built ones whose
    coefficients have dual norm above 1 (not bounded by the norm) or are all
    zero with a zero scale (every gap passes)."""
    for norm in PLANAR_NORMS:
        for v in ((1, 0), (2, 1), (1, -3)):
            yield supporting_functional(norm, v)
    yield _hand_frame(l2(2), (F(2), F(0)), 1)
    yield _hand_frame(l2(2), (F(1), F(1)), F(3, 2))
    yield _hand_frame(l1(2), (F(3, 2), F(0)), 1)
    yield _hand_frame(linf(2), (F(1), F(1)), 1)
    yield _hand_frame(lp(3, 2), (F(1), F(1)), 1)
    yield _hand_frame(l2(2), (F(0), F(0)), 0)


def _block_points(frame, rng):
    """Random grid points, thinned greedily to functional gaps >= 1/2."""
    pts = sorted(
        {(F(rng.randint(-24, 24), 8), F(rng.randint(-12, 12), 8)) for _ in range(rng.randint(1, 14))},
        key=lambda p: (frame.f_raw(p), p),
    )
    kept = pts[:1]
    for p in pts[1:]:
        if frame.gap_at_least(p, kept[-1], F(1, 2)):
            kept.append(p)
    return kept


class TestBlockNearCheck:
    """Block names the pair the full sweep would name first, or none."""

    def test_matches_full_sweep(self):
        rng = random.Random(1450)
        for frame in _block_frames():
            for _ in range(40):
                pts = _block_points(frame, rng)
                near = refkernel_pairs(frame.norm, pts)
                if not near:
                    Block.from_points(pts, frame)
                    continue
                i, j = min(near)
                with pytest.raises(InvariantViolation, match=f"^points {i} and {j} are at distance"):
                    Block.from_points(pts, frame)

    def test_unbounded_functional_catches_non_consecutive_pair(self):
        # f(x, y) = 2x: gaps and consecutive distances are fine, but the
        # first and last points are 0.6 apart
        frame = _hand_frame(l2(2), (F(2), F(0)), 1)
        pts = [(F(0), F(0)), (F(3, 10), F(1)), (F(6, 10), F(0))]
        with pytest.raises(InvariantViolation, match="points 0 and 2 are at distance below 1"):
            Block.from_points(pts, frame)

    def test_zero_functional_keeps_full_sweep(self):
        # a zero functional with a zero scale passes every gap check, so
        # points two apart are not kept apart by it
        frame = _hand_frame(l2(2), (F(0), F(0)), 0)
        pts = ((F(0), F(0)), (F(5), F(0)), (F(0), F(1, 2)))
        with pytest.raises(InvariantViolation, match="points 0 and 2 are at distance below 1"):
            Block(pts, (F(0),) * 3, frame)

    def test_lp3_frame(self):
        frame = supporting_functional(lp(3, 2), (F(1), F(0)))
        pts = [(F(0), F(0)), (F(1), F(0)), (F(2), F(3, 4)), (F(5, 2), F(0))]
        with pytest.raises(InvariantViolation, match="points 2 and 3 are at distance below 1"):
            Block.from_points(pts, frame)
        Block.from_points(pts[:3], frame)


class TestProductSum:
    def test_point_masses(self):
        a = VectorMeasure.uniform(l2(2), [(1, 2)])
        b = VectorMeasure.uniform(l2(2), [(3, 4)])
        s = product_sum_measure([a, b])
        assert s.points == ((F(4), F(6)),) and s.weights == (F(1),)

    def test_grid(self):
        a = VectorMeasure.uniform(l2(2), [(0, 0), (1, 0)])
        b = VectorMeasure.uniform(l2(2), [(0, 0), (0, 1)])
        s = product_sum_measure([a, b])
        assert len(s.points) == 4
        assert all(w == F(1, 4) for w in s.weights)

    def test_merging(self):
        a = VectorMeasure.uniform(l2(1), [(0,), (1,)])
        s = product_sum_measure([a, a])
        assert s.points == ((F(0),), (F(1),), (F(2),))
        assert s.weights == (F(1, 4), F(1, 2), F(1, 4))

    def test_cap(self):
        a = VectorMeasure.uniform(l2(1), [(i,) for i in range(30)])
        with caps_env(product_support=100), pytest.raises(ResourceCapExceeded):
            product_sum_measure([a, a])

    def test_norm_mismatch(self):
        a = VectorMeasure.uniform(l2(2), [(0, 0)])
        b = VectorMeasure.uniform(l1(2), [(0, 0)])
        with pytest.raises(DomainError):
            product_sum_measure([a, b])

    @pytest.mark.parametrize("pair", [(l1, lambda d: lp(1, d)), (l2, lambda d: lp(2, d))],
                             ids=["l1-lp1", "l2-lp2"])
    def test_one_norm_under_two_names(self, pair):
        a, b = (VectorMeasure.uniform(make(2), [(0, 0), (1, F(1, 3))]) for make in pair)
        c = VectorMeasure.uniform(pair[1](2), [(0, 0), (F(1, 2), 1), (2, 0)])
        for ms in ([a, c], [b, c], [c, a, b]):
            s = product_sum_measure(ms)
            want = product_sum_measure([m if m.norm == ms[0].norm else VectorMeasure(
                PointConfig(ms[0].norm, m.points), m.weights) for m in ms])
            assert s == want and s.norm == ms[0].norm
        for other in (linf(2), l2(2) if pair[0] is l1 else l1(2), pair[0](3)):
            with pytest.raises(DomainError, match="summands must share the same norm and dimension"):
                product_sum_measure([a, VectorMeasure.uniform(other, [(0,) * other.dimension])])


def ref_normalise(points, weights):
    """The Fraction merge ``VectorMeasure`` always ran: drop zero weights,
    add up equal atoms, sort; the result as (points, weights)."""
    assert sum(weights, F(0)) == 1 and all(w >= 0 for w in weights)
    merged = {}
    for p, w in zip(points, weights):
        if w == 0:
            continue
        merged[p] = merged.get(p, F(0)) + w
    atoms = sorted(merged.items())
    return tuple(p for p, _ in atoms), tuple(w for _, w in atoms)


def ref_product_sum(measures, cap=Caps().product_support):
    """The Fraction dictionary convolution, as (points, weights)."""
    acc = dict(measures[0].atoms())
    for m in measures[1:]:
        if len(acc) * len(m.points) > cap:
            raise ResourceCapExceeded("product support")
        nxt = {}
        for p, w in acc.items():
            for q, u in m.atoms():
                key = tuple(a + b for a, b in zip(p, q))
                nxt[key] = nxt.get(key, F(0)) + w * u
        acc = nxt
    atoms = sorted(acc.items())
    return tuple(p for p, _ in atoms), tuple(w for _, w in atoms)


def ref_symmetrize(measure):
    """The double loop ``symmetrize`` ran before it became a product sum."""
    atoms = {}
    for p, w in measure.atoms():
        for q, u in measure.atoms():
            key = tuple(a - b for a, b in zip(p, q))
            atoms[key] = atoms.get(key, F(0)) + w * u
    items = sorted(atoms.items())
    return tuple(p for p, _ in items), tuple(w for _, w in items)


def raw_atoms(rng, d, size, zeros=False):
    """Unsorted atoms with negative coordinates, denominators 1-12, repeats
    and (optionally) zero weights; the weights sum to 1."""
    pts = [tuple(F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(d))
           for _ in range(size)]
    pts += rng.sample(pts, min(2, size))  # duplicate atoms
    ws = [F(rng.randint(0 if zeros else 1, 9), rng.randint(1, 12)) for _ in pts]
    if not any(ws):
        ws[0] = F(1)
    total = sum(ws, F(0))
    return pts, [w / total for w in ws]


def seeded_measure(rng, d, size, zeros=False):
    pts, ws = raw_atoms(rng, d, size, zeros)
    return VectorMeasure(PointConfig(l2(d), tuple(pts)), tuple(ws))


class TestIntegerProductSum:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_fraction_reference(self, d):
        rng = random.Random(700 + d)
        for _ in range(25):
            ms = [seeded_measure(rng, d, rng.randint(1, 7), zeros=True)
                  for _ in range(rng.randint(1, 4))]
            s = product_sum_measure(ms)
            assert (s.points, s.weights) == ref_product_sum(ms)

    def test_same_measure_twice(self):
        rng = random.Random(71)
        for d in (1, 2, 3):
            m = seeded_measure(rng, d, 9)
            for ms in ([m, m], [m, m, m], [m, m.dilate(-1), m]):
                s = product_sum_measure(ms)
                assert (s.points, s.weights) == ref_product_sum(ms)

    def test_cap_boundary(self):
        # the cap applies to the merged support so far times the next size:
        # {0, 1} + {0, 1} has 3 atoms, so a third {0, 1} asks for 3 * 2 = 6
        a = VectorMeasure.uniform(l2(1), [(0,), (1,)])
        with caps_env(product_support=6):
            s = product_sum_measure([a, a, a])
        assert (s.points, s.weights) == ref_product_sum([a, a, a], 6)
        with caps_env(product_support=5), pytest.raises(ResourceCapExceeded):
            product_sum_measure([a, a, a])
        rng = random.Random(72)
        b, c = seeded_measure(rng, 2, 6), seeded_measure(rng, 2, 5)
        edge = len(b.points) * len(c.points)
        with caps_env(product_support=edge):
            product_sum_measure([b, c])
        with caps_env(product_support=edge - 1), pytest.raises(ResourceCapExceeded):
            product_sum_measure([b, c])


class TestVectorMeasureNormalisation:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_fraction_merge(self, d):
        rng = random.Random(800 + d)
        for _ in range(40):
            pts, ws = raw_atoms(rng, d, rng.randint(1, 10), zeros=rng.random() < 0.5)
            for order in ("raw", "sorted", "distinct"):
                if order == "sorted":  # sorted, but duplicates and zeros stay
                    pts, ws = map(list, zip(*sorted(zip(pts, ws))))
                if order == "distinct":  # strictly increasing, zeros stay
                    merged = dict(zip(pts, [F(0)] * len(pts)))
                    for p, w in zip(pts, ws):
                        merged[p] += w
                    pts, ws = list(merged), list(merged.values())
                m = VectorMeasure(PointConfig(l2(d), tuple(pts)), tuple(ws))
                assert (m.points, m.weights) == ref_normalise(tuple(pts), tuple(ws))
                again = VectorMeasure(PointConfig(l2(d), m.points), m.weights)
                assert (again.points, again.weights) == (m.points, m.weights)

    def test_merged_input_kept(self):
        rng = random.Random(81)
        m = seeded_measure(rng, 2, 12)
        again = VectorMeasure(m.config, m.weights)
        assert (again.points, again.weights) == (m.points, m.weights)

    @pytest.mark.parametrize("eps", [F(1, 10**9), F(-1, 10**9)])
    def test_near_one_rejected(self, eps):
        pts = ((F(0), F(0)), (F(1, 3), F(0)), (F(2), F(1, 7)))
        ws = (F(1, 3), F(1, 3), F(1, 3) + eps)
        with pytest.raises(DomainError, match="sum to exactly 1"):
            VectorMeasure(PointConfig(l2(2), pts), ws)
        with pytest.raises(DomainError, match="sum to exactly 1"):
            VectorMeasure(PointConfig(l2(2), pts[::-1]), ws[::-1])

    @pytest.mark.parametrize("field", ["Q", "Q(sqrt2)"])
    def test_integer_order_check_matches_fraction_order(self, field):
        # the sort and merge run on the integer form and must give the
        # Fraction order
        rng = random.Random(1180 + (field != "Q"))
        norm = l2(2)
        cases = []
        for _ in range(40):
            if field == "Q":
                pts, ws = raw_atoms(rng, 2, rng.randint(1, 8), zeros=rng.random() < 0.3)
            else:
                pts = list(next(_quad_configs(norm, 2, rng)))
                raw = [rng.randint(0 if rng.random() < 0.3 else 1, 5) for _ in pts]
                raw[0] = raw[0] or 1
                ws = [F(r, sum(raw)) for r in raw]
            cases.append((pts, ws))
            cases.append(tuple(map(list, zip(*sorted(zip(pts, ws))))))
            distinct = dict(sorted(zip(pts, ws)))  # strictly increasing
            total = sum(distinct.values(), F(0))
            cases.append((list(distinct), [w / total for w in distinct.values()]))
        # orders that the integers' numerators alone would get wrong: 1/3 < 1/2
        # scales to 2 < 3, and the first coordinates tie at -1/4
        cases.append(([(F(1, 3), F(0)), (F(1, 2), F(-5))], [F(1, 2)] * 2))
        cases.append(([(F(1, 2), F(0)), (F(1, 3), F(5))], [F(1, 2)] * 2))
        cases.append(([(F(-1, 4), F(-1, 3)), (F(-1, 4), F(-1, 6))], [F(1, 2)] * 2))
        cases.append(([(F(-1, 4), F(-1, 6)), (F(-1, 4), F(-1, 3))], [F(1, 2)] * 2))
        for pts, ws in cases:
            m = VectorMeasure(PointConfig(norm, tuple(pts)), tuple(ws))
            assert (m.points, m.weights) == ref_normalise(tuple(pts), tuple(ws))
            _assert_stored_form(m.config)

    @pytest.mark.parametrize("field", ["Q", "Q(sqrt2)"])
    def test_negative_weight_rejected(self, field):
        def c(a):
            return F(a) if field == "Q" else QuadExt.of(a, 1, 2)

        pts = ((c(0), c(0)), (c(1), c(0)), (c(0), c(0)))
        # the sign is checked before the sum: the last weights add up to 1/2
        for ws in ((F(3, 2), F(-1, 2), F(0)), (F(1, 2), F(1), F(-1, 2)), (F(-1, 2), F(1, 2), F(1, 2))):
            for order in (1, -1):
                with pytest.raises(DomainError, match="negative weight"):
                    VectorMeasure(PointConfig(l2(2), pts[::order]), ws[::order])


def _assert_stored_form(config):
    """The stored integer form is a fresh ``_scaled_integers`` of the points
    times one positive int."""
    scale, ipts = config.scaled
    fresh_scale, fresh = _scaled_integers(config.points)
    assert scale > 0 and scale % fresh_scale == 0
    k = scale // fresh_scale
    assert ipts == tuple(tuple(c * k for c in p) for p in fresh)


class TestStoredIntegerForm:
    """Configs built from integers keep a form equal to a fresh one, and
    measures equal to those the public constructor builds."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_product_sums(self, d):
        rng = random.Random(1240 + d)
        for _ in range(20):
            ms = [seeded_measure(rng, d, rng.randint(1, 7), zeros=True)
                  for _ in range(rng.randint(1, 4))]
            s = product_sum_measure(ms)
            assert "scaled" in s.config.__dict__  # supplied, not recomputed
            _assert_stored_form(s.config)
            assert s == VectorMeasure(PointConfig(l2(d), s.points), s.weights)
            for m in ms:
                _assert_stored_form(m.config)

    def test_octagon_sum(self):
        from anticonc.scenarios import _octagon_points

        octagon = VectorMeasure(PointConfig(l2(2), _octagon_points()), (F(1, 8),) * 8)
        for ms in ([octagon, octagon], [octagon, octagon.dilate(-1)], [octagon] * 3):
            s = product_sum_measure(ms)
            _assert_stored_form(s.config)
            assert s == VectorMeasure(PointConfig(l2(2), s.points), s.weights)

    def test_large_scale_kept(self):
        # summands over quarters whose sum needs only halves: the sum keeps
        # the summands' scale, twice the fresh one
        a = VectorMeasure.uniform(l1(1), [(F(1, 4),), (F(3, 4),)])
        s = product_sum_measure([a, a])
        assert s.config.scaled == (4, ((2,), (4,), (6,)))
        assert _scaled_integers(s.points) == (2, ((1,), (2,), (3,)))
        assert s == VectorMeasure(PointConfig(l1(1), s.points), s.weights)
        assert distance_graph(s.config).edges == ref_distance_edges(l1(1), s.points)
        assert concentration_q(s).value == F(3, 4)

    @pytest.mark.parametrize("norm", [l2(2), l1(2), linf(2)], ids=lambda n: n.kind)
    def test_block_decompositions(self, norm, monkeypatch):
        from anticonc import geometry
        from anticonc.perfect_graphs import block_decomposition

        seen = []
        original = geometry.distance_graph

        def recorded(config):
            seen.append(config)
            return original(config)

        monkeypatch.setattr(geometry, "distance_graph", recorded)
        rng = random.Random(1250)
        for _ in range(8):
            pts = tuple((F(rng.randint(0, 96), 16), F(rng.randint(-2, 2), 16))
                        for _ in range(rng.randint(1, 16)))
            cfg = PointConfig(norm, pts)
            frame = near_line_fit(cfg).frame
            seen.clear()
            blocks = block_decomposition(cfg, frame)
            # the subject itself is graphed: no re-sorted copy is built
            (config,) = seen
            assert config is cfg
            _assert_stored_form(config)
            assert sorted(p for b in blocks for p in b.points) == sorted(pts)


class TestScaledOnce:
    """Counts ``_scaled_integers`` calls: the integer form of a point set is
    computed once and then read."""

    @pytest.fixture
    def scaled_calls(self, monkeypatch):
        from anticonc import geometry

        calls = []
        original = geometry._scaled_integers

        def counted(points):
            calls.append(tuple(points))
            return original(points)

        monkeypatch.setattr(geometry, "_scaled_integers", counted)
        return calls

    @pytest.mark.parametrize("norm", [l2(2), l1(2), linf(2)], ids=lambda n: n.kind)
    def test_fit_graph_blocks_scale_once(self, norm, scaled_calls):
        from anticonc.perfect_graphs import block_decomposition

        rng = random.Random(1260)
        for _ in range(6):
            pts = tuple((F(rng.randint(0, 96), 32), F(rng.randint(-3, 3), 32))
                        for _ in range(rng.randint(3, 20)))
            scaled_calls.clear()
            cfg = PointConfig(norm, pts)
            fit = near_line_fit(cfg)
            graph = distance_graph(cfg)
            block_decomposition(cfg, fit.frame)
            separation_check(fit.frame, cfg)
            assert graph.edges  # so no block holds every point
            whole = [c for c in scaled_calls if sorted(c) == sorted(pts)]
            assert whole == [pts]

    def test_product_sum_and_concentration_never_rescale(self, scaled_calls):
        from anticonc.scenarios import _octagon_points

        rng = random.Random(1270)
        groups = [[seeded_measure(rng, d, rng.randint(2, 8)) for _ in range(3)] for d in (1, 2, 3)]
        octagon = VectorMeasure(PointConfig(l2(2), _octagon_points()), (F(1, 8),) * 8)
        groups.append([octagon, octagon])
        groups.append([octagon, octagon.dilate(-1)])
        built = len(scaled_calls)
        for ms in groups:
            for m in ms:
                concentration_q(m)
            concentration_q(product_sum_measure(ms))
        assert len(scaled_calls) == built


def _quad_measures(rng, count):
    """``count`` measures of 1-5 distinct Q(sqrt(2)) atoms with weights 1-5
    over their sum."""
    configs = _quad_configs(l2(2), 2, rng)
    out = []
    for _ in range(count):
        pts = sorted(set(next(configs)))[:rng.randint(1, 5)]
        raw = [rng.randint(1, 5) for _ in pts]
        out.append(VectorMeasure(PointConfig(l2(2), tuple(pts)), tuple(F(r, sum(raw)) for r in raw)))
    return out


class TestIntegerWeights:
    """A measure keeps its weights as integers over their lcm; one built
    from integers equals the public one, and a product sum derives Fraction
    points and weights only where they are read."""

    def test_integer_weights_are_the_lcm_form(self):
        rng = random.Random(1300)
        for d in (1, 2, 3):
            for _ in range(20):
                m = seeded_measure(rng, d, rng.randint(1, 8), zeros=rng.random() < 0.5)
                nums, den = _numerators(m.weights)
                assert m._ints == (tuple(nums), den)

    @pytest.mark.parametrize("field", ["Q", "Q(sqrt2)"])
    def test_from_ints_equals_public(self, field):
        rng = random.Random(1310 + (field != "Q"))
        if field == "Q":
            measures = [seeded_measure(rng, d, rng.randint(1, 8), zeros=True)
                        for d in (1, 2, 3) for _ in range(8)]
        else:
            measures = _quad_measures(rng, 12)
        for m in measures:
            nums, den = m._ints
            k = rng.randint(1, 6)  # a common factor, reduced away
            built = VectorMeasure._from_ints(
                PointConfig._from_scaled(m.norm, *m.config.scaled), [u * k for u in nums], den * k)
            assert "weights" not in built.__dict__ and "points" not in built.config.__dict__
            assert built._ints == m._ints
            assert built == m and m == built and hash(built) == hash(m)
            assert repr(built) == repr(m)
            if field == "Q":  # Q(sqrt(m)) values have no wire format
                assert built.to_json() == m.to_json()

    def test_from_ints_checks_the_integers(self):
        config = PointConfig._from_scaled(l2(1), 2, [(0,), (1,), (5,)])
        assert VectorMeasure._from_ints(config, [1, 2, 3], 6).weights == (F(1, 6), F(1, 3), F(1, 2))
        for nums, den, match in (([1, 2], 3, "align"), ([0, 3, 3], 6, "positive"),
                                 ([-1, 4, 3], 6, "positive"), ([1, 2, 2], 6, "sum to exactly 1")):
            with pytest.raises(DomainError, match=match):
                VectorMeasure._from_ints(config, nums, den)
        for ipts in ([(0,), (5,), (1,)], [(0,), (1,), (1,)]):
            with pytest.raises(InvariantViolation, match="strictly increasing"):
                VectorMeasure._from_ints(PointConfig._from_scaled(l2(1), 2, ipts), [1, 2, 3], 6)

    def test_quadratic_product_sums_match_reference(self):
        rng = random.Random(1320)
        for _ in range(10):
            ms = _quad_measures(rng, rng.randint(1, 3))
            if rng.random() < 0.3:
                ms.append(ms[0].dilate(-1))
            s = product_sum_measure(ms)
            assert (s.points, s.weights) == ref_product_sum(ms)

    def test_sum_derives_only_the_witness_points(self, monkeypatch):
        from anticonc import geometry
        from anticonc.scenarios import _octagon_points

        derived = []
        original = geometry._unscaled

        def counted(scale, ipts):
            derived.extend(ipts)
            return original(scale, ipts)

        monkeypatch.setattr(geometry, "_unscaled", counted)
        rng = random.Random(1330)
        octagon = VectorMeasure(PointConfig(l2(2), _octagon_points()), (F(1, 8),) * 8)
        groups = [[seeded_measure(rng, d, rng.randint(2, 6)) for _ in range(3)] for d in (1, 2, 3)]
        groups += [[octagon, octagon], _quad_measures(rng, 3)]
        for ms in groups:
            derived.clear()
            total = product_sum_measure(ms)
            results = [concentration_q(m) for m in ms + [total]]
            assert "points" not in total.config.__dict__ and "weights" not in total.__dict__
            assert derived == []  # witness points too are derived on first read
            for r in results:
                assert r.witness_points
            assert derived == [m.config.scaled[1][i] for m, r in zip(ms + [total], results) for i in r.witness]
            assert results[-1].witness_points == tuple(total.points[i] for i in results[-1].witness)


class TestKeptPoints:
    """A public rational config keeps the Fraction points it was given, and a
    measure carries them through its merge, drop and sort; Q(sqrt(m)) configs
    and concentration witnesses derive their points on first read."""

    @pytest.fixture
    def unscaled(self, monkeypatch):
        from anticonc import geometry

        calls = []
        original = geometry._unscaled
        monkeypatch.setattr(geometry, "_unscaled", lambda s, ipts: calls.append(ipts) or original(s, ipts))
        return calls, original

    def test_public_config_keeps_its_points(self, unscaled):
        calls, original = unscaled
        rng = random.Random(1360)
        for d in (1, 2, 3):
            for _ in range(10):
                pts = [tuple(F(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(d))
                       for _ in range(rng.randint(0, 6))]
                cfg = PointConfig(l2(d), [[str(c) for c in p] for p in pts])  # coerced once, then kept
                assert cfg.points == tuple(pts) == original(*cfg.scaled)
        assert calls == []

    def test_measure_carries_the_kept_points(self, unscaled):
        calls, original = unscaled
        rng = random.Random(1361)
        for d in (1, 2, 3):
            for _ in range(20):
                pts, ws = raw_atoms(rng, d, rng.randint(1, 8), zeros=True)
                m = VectorMeasure(PointConfig(l2(d), pts), ws)
                kept = m.config.__dict__["points"]
                assert kept == original(*m.config.scaled)
                assert list(kept) == sorted({p for p, w in zip(pts, ws) if w})  # merged, dropped, sorted
        assert calls == []

    def test_quadratic_configs_derive_their_points(self, unscaled):
        calls, original = unscaled
        rng = random.Random(1362)
        for m in _quad_measures(rng, 6):
            cfg = PointConfig(l2(2), m.points)
            assert "points" not in cfg.__dict__
            measure = VectorMeasure(cfg, m.weights)
            assert "points" not in measure.config.__dict__
            assert measure.points == m.points and calls[-1] == measure.config.scaled[1]

    def test_witness_points_on_first_read(self, unscaled):
        calls, original = unscaled
        rng = random.Random(1363)
        for m in [seeded_measure(rng, d, rng.randint(1, 6)) for d in (1, 2, 3)] + _quad_measures(rng, 4):
            r = concentration_q(m)
            assert "witness_points" not in r.__dict__ and not calls
            h, text = hash(r), repr(r)
            public = ConcentrationResult(r.value, r.witness, tuple(m.points[i] for i in r.witness))
            assert r == public and public == r and h == hash(public) and text == repr(public)
            calls.clear()


class TestConfigMeasureIdentity:
    """Configs and measures built from integers are the dataclasses the
    public constructors give: same equality, hash, repr, length, JSON and
    frozenness."""

    @staticmethod
    def _configs(rng):
        for d in (1, 2, 3):
            for _ in range(8):
                pts = [tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3, 8))) for _ in range(d))
                       for _ in range(rng.randint(0, 7))]
                yield PointConfig(l2(d), tuple(pts + pts[:rng.randint(0, 2)]))
        for _ in range(4):
            yield PointConfig(l2(2), next(_quad_configs(l2(2), 2, rng)))

    @staticmethod
    def assert_same(built, public, h, r):
        assert built == public and public == built
        assert h == hash(public) == hash(built) and r == repr(public) == repr(built)

    def test_configs(self):
        rng = random.Random(1340)
        for cfg in self._configs(rng):
            s, ipts = cfg.scaled
            k = rng.randint(1, 4)  # a larger scale than the least is kept
            for built in (PointConfig._from_scaled(cfg.norm, s, ipts),
                          PointConfig._from_scaled(cfg.norm, k * s, [tuple(k * c for c in p) for p in ipts])):
                h, r = hash(built), repr(built)  # before anything else is read
                for public in (PointConfig(cfg.norm, cfg.points), PointConfig(norm=cfg.norm, points=cfg.points)):
                    self.assert_same(built, public, h, r)
                    assert len(built) == len(public) == len(cfg.points)
                    if not (ipts and isinstance(ipts[0][0], QuadExt)):  # no wire format for Q(sqrt(m))
                        assert built.to_json() == public.to_json()

    def test_measures(self):
        rng = random.Random(1350)
        for cfg in self._configs(rng):
            if not len(cfg):
                continue
            raw = [rng.randint(0, 4) for _ in cfg.points]
            raw[0] += 1
            ws = tuple(F(u, sum(raw)) for u in raw)
            m = VectorMeasure(cfg, ws)
            built = VectorMeasure._from_ints(PointConfig._from_scaled(cfg.norm, *m.config.scaled), *m._ints)
            h, r = hash(built), repr(built)
            for public in (VectorMeasure(cfg, ws), VectorMeasure(config=cfg, weights=ws)):
                self.assert_same(built, public, h, r)
                assert len(built.config) == len(public.config) == len(m.points)
                if not isinstance(cfg.scaled[1][0][0], QuadExt):
                    assert built.to_json() == public.to_json()

    def test_frozen(self):
        cfg = PointConfig(l2(2), ((F(1, 2), F(0)), (F(3), F(1, 3))))
        scaled = PointConfig._from_scaled(l2(2), 6, [(3, 0), (18, 2)])
        m = VectorMeasure(cfg, (F(1, 4), F(3, 4)))
        from_ints = VectorMeasure._from_ints(scaled, [1, 3], 4)
        for obj, names in ((cfg, ("points", "scaled", "norm")), (scaled, ("points", "scaled", "norm")),
                           (m, ("weights", "_ints", "config")), (from_ints, ("weights", "_ints", "config"))):
            for name in names:
                with pytest.raises(FrozenInstanceError):
                    setattr(obj, name, None)
                with pytest.raises(FrozenInstanceError):
                    delattr(obj, name)
            with pytest.raises(AttributeError):
                obj.no_such_field
        assert cfg == scaled and m == from_ints


class TestGraphedOnce:
    """Counts ``_near_masks`` sweeps: a config's distance graph is built once
    and shared by every reader, and the block decomposition builds no
    re-sorted config."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        from anticonc import geometry

        calls = []
        original = geometry._near_masks

        def counted(norm, s, ipts):
            calls.append(tuple(ipts))
            return original(norm, s, ipts)

        monkeypatch.setattr(geometry, "_near_masks", counted)
        return calls

    @pytest.mark.parametrize("norm", [l2(2), l1(2), linf(2)], ids=lambda n: n.kind)
    def test_certify_sequence_sweeps_once(self, norm, sweeps, monkeypatch):
        from anticonc.perfect_graphs import block_decomposition

        built = []
        original = PointConfig._from_scaled.__func__

        def recorded(cls, *args):
            built.append(args)
            return original(cls, *args)

        rng = random.Random(1280)
        for distinct in (True, False):
            for _ in range(6):
                pts = [(F(rng.randint(0, 96), 32), F(rng.randint(-3, 3), 32))
                       for _ in range(rng.randint(3, 20))]
                pts = sorted(set(pts)) if distinct else pts + pts[:2]
                cfg = PointConfig(norm, tuple(pts))
                measure = VectorMeasure(cfg, (F(1, len(pts)),) * len(pts))
                sweeps.clear()
                fit = near_line_fit(cfg)
                graph = distance_graph(cfg)
                with monkeypatch.context() as mp:
                    mp.setattr(PointConfig, "_from_scaled", classmethod(recorded))
                    block_decomposition(cfg, fit.frame)
                separation_check(fit.frame, cfg)
                concentration_q(measure)
                assert distance_graph(cfg) is graph and built == []
                # concentration sweeps no graph in any norm: a multiset's
                # measure merges into a config of its own, left without one
                assert sweeps == [cfg.scaled[1]]
                assert distinct or "_graph" not in measure.config.__dict__

    def test_block_decomposition_sweeps_its_subject(self, sweeps):
        from anticonc.perfect_graphs import block_decomposition

        cfg = PointConfig(l2(2), tuple((F(k, 3), F(0)) for k in range(7))[::-1])
        frame = supporting_functional(l2(2), (F(1), F(0)))
        assert len(block_decomposition(cfg, frame)) == 3
        assert sweeps == [cfg.scaled[1]] and "_graph" in cfg.__dict__


class TestSymmetrizeProductSum:
    def test_matches_double_loop(self):
        rng = random.Random(90)
        for d in (1, 2, 3):
            for _ in range(15):
                m = seeded_measure(rng, d, rng.randint(1, 9), zeros=True)
                s = symmetrize(m)
                assert (s.points, s.weights) == ref_symmetrize(m)

    def test_respects_product_support_cap(self):
        m = VectorMeasure.uniform(l2(2), [(0, 0), (1, 0), (0, 1)])
        with caps_env(product_support=8), pytest.raises(ResourceCapExceeded):
            symmetrize(m)
        with caps_env(product_support=9):
            assert len(symmetrize(m).points) == 7


class TestConcentrationQ:
    def test_point_mass(self):
        m = VectorMeasure.uniform(l2(2), [(5, 5)])
        assert concentration_q(m).value == 1

    def test_spread_integers(self):
        m = VectorMeasure.uniform(l2(1), [(0,), (1,), (2,)])
        res = concentration_q(m)
        assert res.value == F(1, 3) and len(res.witness) == 1

    def test_full_mass_in_small_cluster(self):
        # every atom inside a set of strict diameter below 1: value is 1
        m = VectorMeasure.uniform(l2(2), [(0, 0), (F(1, 4), 0), (0, F(1, 4))])
        res = concentration_q(m)
        assert res.value == 1 and len(res.witness) == 3

    def test_sum_never_concentrates_more(self):
        rng = random.Random(31)
        for _ in range(15):
            pts_a = [rational_point(rng, 2, 8) for _ in range(rng.randint(1, 4))]
            pts_b = [rational_point(rng, 2, 8) for _ in range(rng.randint(1, 4))]
            a = VectorMeasure.uniform(l2(2), pts_a)
            b = VectorMeasure.uniform(l2(2), pts_b)
            s = product_sum_measure([a, b])
            qs = concentration_q(s).value
            qa = concentration_q(a).value
            qb = concentration_q(b).value
            assert qs <= min(qa, qb)

    def test_cap(self):
        # the box sweep and the clique search keep one cap and one message
        for norm in (l2(1), l1(2), linf(2), linf(3), l2(2), lp(3, 2)):
            m = VectorMeasure.uniform(norm, [(F(i, 100),) * norm.dimension for i in range(20)])
            with caps_env(clique=10), pytest.raises(ResourceCapExceeded, match="^clique needs 20, cap is 10$"):
                concentration_q(m)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_box_path_matches_clique_search(self, data):
        # linf, planar l1 and the line take the box sweep; the clique search
        # on the distance graph is the oracle for the value, the witness and
        # its points. Small spans give dense grids, duplicates and ties.
        from anticonc.perfect_graphs import max_clique

        norm = data.draw(st.sampled_from([l1(2), linf(2), linf(3), l1(1), l2(1)]), label="norm")
        den = data.draw(st.sampled_from([1, 2, 3, 4]), label="den")
        ints = st.integers(0, data.draw(st.integers(0, 12), label="span"))
        if data.draw(st.booleans(), label="sqrt2"):
            coord = st.builds(lambda a, b: QuadExt.of(F(a, den), F(b, den), 2), ints, st.integers(-2, 2))
        else:
            coord = st.builds(lambda a: F(a, den), ints)
        pts = data.draw(st.lists(st.tuples(*[coord] * norm.dimension), min_size=1, max_size=24))
        raw = data.draw(st.lists(st.integers(0, 3), min_size=len(pts), max_size=len(pts)))
        raw[0] = raw[0] or 1
        m = VectorMeasure(PointConfig(norm, pts), tuple(F(r, sum(raw)) for r in raw))
        res = concentration_q(m)
        value, witness = max_clique(distance_graph(m.config), weights=m.weights)
        assert (res.value, res.witness) == (value, witness)
        assert res.witness_points == tuple(m.points[i] for i in witness)

    def test_box_witness_past_the_greedy_seed(self):
        # the heaviest atom and its lowest-index neighbour make the greedy
        # seed, weight 5; the box [0, 1) holds weight 7 and is the witness
        m = VectorMeasure(PointConfig(l1(2), [(F(-9, 10), 0), (0, 0), (F(9, 10), 0), (F(19, 20), 0)]),
                          (F(2, 9), F(3, 9), F(2, 9), F(2, 9)))
        res = concentration_q(m)
        assert (res.value, res.witness) == (F(7, 9), (1, 2, 3))
        # two optimal boxes over a seed of weight 2: the sweep meets {1, 3}
        # (lower in y) first, but the witness is the least tuple, (1, 2)
        pts = [(0, F(3, 4)), (F(5, 4), F(3, 4)), (F(5, 4), F(5, 4)), (F(3, 2), F(1, 4))]
        m = VectorMeasure(PointConfig(linf(2), pts), (F(2, 7), F(1, 7), F(2, 7), F(2, 7)))
        res = concentration_q(m)
        assert (res.value, res.witness) == (F(3, 7), (1, 2))

    def test_witness_is_the_least_optimal_tuple(self):
        # two cliques of weight 6/26: {1, 2, 4} and {2, 3}. A greedy seed grown
        # inside the unit box anchored at {2, 3}'s minima would return (2, 3);
        # the measure's greedy seed {0} is lighter, so the witness is the
        # least optimal sorted tuple
        t = F(1, 3)
        pts = [(0, t, t), (t, 0, 4 * t), (t, t, 5 * t), (t, 2 * t, 5 * t), (2 * t, 0, 5 * t),
               (2 * t, 4 * t, 4 * t), (1, t, 0), (1, 4 * t, 2 * t), (5 * t, 1, 4 * t)]
        m = VectorMeasure(PointConfig(l1(3), pts), tuple(F(w, 26) for w in (5, 3, 2, 4, 1, 4, 2, 1, 4)))
        res = concentration_q(m)
        assert (res.value, res.witness) == (F(3, 13), (1, 2, 4))

    @pytest.mark.parametrize("norm", [l1(2), linf(2), linf(3), l2(1), l2(2), lp(3, 2), l2(3), l1(3)],
                             ids=lambda n: f"{n.kind}-d{n.dimension}")
    def test_box_path_builds_no_graph(self, norm, monkeypatch):
        # no norm builds a distance graph: the box sweep and the window search
        # decide their own pairs and leave no graph on the config
        from anticonc import geometry

        counts = {"_near_masks": 0, "distance_graph": 0}
        for name, original in [(name, getattr(geometry, name)) for name in counts]:
            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(geometry, name, counted)
        rng = random.Random(1300)
        pts = [tuple(F(rng.randint(-8, 8), 4) for _ in range(norm.dimension)) for _ in range(12)]
        m = VectorMeasure.uniform(norm, pts)
        concentration_q(m)
        assert counts == dict.fromkeys(counts, 0) and "_graph" not in m.config.__dict__

    def test_matches_max_clique(self):
        # the integer search on the measure's numerators gives max_clique's
        # value and witness
        from anticonc.perfect_graphs import max_clique

        rng = random.Random(1290)
        measures = []
        for norm in (l2(1), l1(2), linf(2), l2(2), lp(3, 2), l2(3)):
            for _ in range(8):
                pts = [tuple(F(rng.randint(-8, 8), rng.choice((2, 3, 4))) for _ in range(norm.dimension))
                       for _ in range(rng.randint(1, 14))]
                measures.append((norm, pts + rng.sample(pts, min(2, len(pts)))))
        measures += [(l2(2), pts) for pts in _quad_configs(l2(2), 2, rng)]
        for norm, pts in measures:
            raw = [rng.randint(0, 6) for _ in pts]
            raw[0] = raw[0] or 1
            m = VectorMeasure(PointConfig(norm, tuple(pts)), tuple(F(r, sum(raw)) for r in raw))
            res = concentration_q(m)
            value, witness = max_clique(distance_graph(m.config), weights=m.weights)
            assert (res.value, res.witness) == (value, witness)
            assert res.witness_points == tuple(m.points[i] for i in witness)


def assert_matches_graph_search(m):
    """``concentration_q`` gives the value, witness and witness points of the
    clique search on the distance graph of the measure's config."""
    from anticonc.perfect_graphs import max_clique

    res = concentration_q(m)
    value, witness = max_clique(distance_graph(m.config), weights=m.weights)
    assert (res.value, res.witness) == (value, witness)
    assert res.witness_points == tuple(m.points[i] for i in witness)


def bench_l2_measures():
    """The seed-0 ``sums`` l2 measures of a 20 s run, summands then sum per
    job, and the seed-0 ``certify`` l2 products ``jones_bound`` concentrates."""
    from anticonc import chains

    mixes, sums, products = bench_mixes(), [], []
    for job in mixes.generate("sums", 0, mixes.job_count("sums", 20)):
        if job[0] == "vsum" and job[1] == "l2":
            ms = [VectorMeasure(PointConfig(l2(2), _over(mixes.SUMS_DEN, pts)), tuple(F(w, sum(ws)) for w in ws))
                  for pts, ws in job[2]]
            sums += ms + [product_sum_measure(ms)]
    original = chains.concentration_q
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chains, "concentration_q", lambda m: products.append(m) or original(m))
        for job in mixes.generate("certify", 0, mixes.job_count("certify", 20)):
            if job[0] == "certify" and job[1] == "l2":
                cfg = PointConfig(l2(2), _over(mixes.CERTIFY_DEN, job[2]))
                chains.jones_bound(block_decomposition(cfg, near_line_fit(cfg).frame)[:3])
    return sums, products


class TestWindowSearch:
    """l2, lp with p >= 3 and l1 off the plane: the clique search bounded by
    x-windows on rows swept on demand equals the search on the graph."""

    @pytest.mark.parametrize("norm", [l2(2), l2(3), lp(3, 2), lp(3, 3), lp(4, 2), l1(3)],
                             ids=lambda n: f"{n.kind}{n.p or ''}-d{n.dimension}")
    def test_seeded_measures(self, norm):
        rng = random.Random(2900 + norm.dimension + 10 * norm.exponent)
        for _ in range(60):
            span, den = rng.randint(1, 8), rng.choice((1, 2, 3, 4, 8))
            pts = [tuple(F(rng.randint(0, span * den), den) for _ in range(norm.dimension))
                   for _ in range(rng.randint(1, 30))]
            pts += rng.sample(pts, rng.randint(0, min(4, len(pts))))  # a multiset: merged atoms
            raw = [rng.randint(1, 4) for _ in pts]
            assert_matches_graph_search(VectorMeasure(PointConfig(norm, pts), tuple(F(r, sum(raw)) for r in raw)))

    def test_quadratic_measures(self):
        from anticonc.scenarios import _contrast_octagon_points, _octagon_points

        rng = random.Random(2901)
        for pts in [_octagon_points(), _contrast_octagon_points(), *_quad_configs(l2(2), 2, rng)]:
            raw = [rng.randint(1, 3) for _ in pts]
            for ws in ((1,) * len(pts), raw):
                assert_matches_graph_search(VectorMeasure(PointConfig(l2(2), pts), tuple(F(w, sum(ws)) for w in ws)))
        octagon = VectorMeasure(PointConfig(l2(2), _octagon_points()), (F(1, 8),) * 8)
        assert_matches_graph_search(product_sum_measure([octagon, octagon]))

    @pytest.mark.parametrize("norm", [l2(2), lp(3, 2), l2(3)], ids=lambda n: f"{n.kind}{n.p or ''}-d{n.dimension}")
    def test_ties_past_the_greedy_seed(self, norm):
        # on x = -19/10 ... 19/10: the seed {-19/20, 0} weighs 5, and the
        # cliques {-19/10, -3/2, -19/20} and {19/20, 3/2, 19/10} weigh 6 each;
        # the least sorted tuple wins
        xs = (F(-19, 10), F(-3, 2), F(-19, 20), F(0), F(19, 20), F(3, 2), F(19, 10))
        pad = (F(1, 10),) * (norm.dimension - 1)
        pts = [(x, *pad) for x in xs]
        m = VectorMeasure(PointConfig(norm, pts), tuple(F(w, 15) for w in (2, 2, 2, 3, 2, 2, 2)))
        res = concentration_q(m)
        assert (res.value, res.witness) == (F(2, 5), (0, 1, 2))
        assert_matches_graph_search(m)
        # a lighter left wing: {0, 1, 2} ties with the seed {2, 3}, which
        # stays the witness, as in the graph search
        m = VectorMeasure(PointConfig(norm, pts[:5]), tuple(F(w, 10) for w in (2, 1, 2, 3, 2)))
        assert concentration_q(m).witness == (2, 3)
        assert_matches_graph_search(m)

    def test_bench_measures(self):
        sums, products = bench_l2_measures()
        assert (len(sums), len(products)) == (98, 42)
        for m in sums + products:
            assert_matches_graph_search(m)

    def test_prunes_the_largest_bench_sum(self, monkeypatch):
        # the window bound drops most roots unswept: a search that swept
        # every row of the largest seed-0 sums l2 sum would fail here
        from anticonc import geometry

        m = max(bench_l2_measures()[0], key=lambda m: len(m.config))
        swept = []

        class Counted(geometry._SweptRows):
            def __missing__(self, v):
                swept.append(v)
                return super().__missing__(v)

        monkeypatch.setattr(geometry, "_SweptRows", Counted)
        concentration_q(m)
        assert len(m.config) == 400 and 0 < len(swept) < 200


class TestEmpiricalMeasure:
    def test_point_mass_dilates(self):
        m = VectorMeasure.uniform(l2(2), [(2, 0)])
        emp = empirical_measure(m, 7, F(1, 100), seed=5)
        assert emp.points == ((F(101, 50), F(0)),)
        assert emp.weights == (F(1),)

    def test_uniform_weights(self):
        m = VectorMeasure.uniform(l2(2), [(0, 0), (3, 0)])
        emp = empirical_measure(m, 4, F(1, 100), seed=1)
        assert sum(emp.weights) == 1
        assert all(w.denominator in (1, 2, 4) for w in emp.weights)

    def test_deterministic(self):
        m = VectorMeasure.uniform(l2(2), [(0, 0), (3, 0), (0, 3)])
        a = empirical_measure(m, 50, F(1, 10), seed=123)
        b = empirical_measure(m, 50, F(1, 10), seed=123)
        assert a == b
        c = empirical_measure(m, 50, F(1, 10), seed=124)
        assert a != c  # overwhelmingly likely draw difference

    def test_octagon_statistical_bound(self):
        # rationalized octagon, slightly inflated so the long chord stays a
        # non-edge; the empirical concentration stays near 3/8
        r = F(5412, 10000) * F(1000001, 1000000)
        c = F(7071, 10000)
        pts = [
            (r, F(0)), (r * c, r * c), (F(0), r), (-r * c, r * c),
            (-r, F(0)), (-r * c, -r * c), (F(0), -r), (r * c, -r * c),
        ]
        m = VectorMeasure.uniform(l2(2), pts)
        assert concentration_q(m).value == F(3, 8)
        emp = empirical_measure(m, 4096, F(1, 100), seed=0)
        q = concentration_q(emp).value
        assert q <= F(3, 8) + F(5, 100)

    def test_validation(self):
        m = VectorMeasure.uniform(l2(2), [(0, 0)])
        with pytest.raises(DomainError):
            empirical_measure(m, 0, F(1, 10), seed=0)
        with pytest.raises(DomainError):
            empirical_measure(m, 5, F(0), seed=0)


def ref_halasz_mu(measures, center_samples):
    """mu and its centre by a Fraction loop over every candidate and atom."""
    sym = [symmetrize(m) for m in measures]
    candidates = sorted({p for s in sym for p in s.points})
    if len(candidates) > center_samples:
        stride = len(candidates) / center_samples
        candidates = [candidates[int(i * stride)] for i in range(center_samples)]
    mu_best, best_center = F(0), None
    for y in candidates:
        total = F(0)
        for s in sym:
            for p, w in s.atoms():
                if (p[0] - y[0]) ** 2 + (p[1] - y[1]) ** 2 < 1:
                    total += w
        if total > mu_best:
            mu_best, best_center = total, y
    return mu_best, best_center or candidates[0]


class TestHalasz:
    @pytest.mark.parametrize(
        "seed, den, atoms, samples",
        [(0, 16, 6, 256), (1, 4, 6, 8), (2, 7, 6, 20), (3, 3, 6, 3), (4, 16, 6, 40),
         (5, 2, 6, 1), (6, 16, 9, 256)],
    )
    def test_mu_matches_fraction_loop(self, seed, den, atoms, samples):
        rng = random.Random(seed)
        ms = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, atoms)
            pts = tuple((F(rng.randint(-den, den), den), F(rng.randint(-den, den), den))
                        for _ in range(size))
            ws = [rng.randint(1, 5) for _ in range(size)]
            ms.append(VectorMeasure(PointConfig(l2(2), pts), tuple(F(w, sum(ws)) for w in ws)))
        mu, centre = ref_halasz_mu(ms, samples)
        diag = halasz_diagnostics(ms, 8, samples)
        assert diag.mu == float(mu)
        assert diag.best_center == (float(centre[0]), float(centre[1]))

    def test_point_masses(self):
        ms = [VectorMeasure.uniform(l2(2), [(1, 2)]) for _ in range(5)]
        diag = halasz_diagnostics(ms, 60, 32)
        assert diag.D == 0.0 and diag.mu == 5.0

    def test_horizontal_family(self):
        ms = [VectorMeasure.uniform(l2(2), [(0, 0), (2, 0)]) for _ in range(4)]
        diag = halasz_diagnostics(ms, 90, 64)
        assert diag.D < 1e-12
        assert abs(abs(diag.best_direction[1]) - 1.0) < 1e-6

    def test_cross_family_matches_brute_oracle(self):
        pts = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        ms = [VectorMeasure.uniform(l2(2), pts) for _ in range(8)]
        diag = halasz_diagnostics(ms, 360, 64)
        # brute-force oracle: enumerate the 16 symmetrized outcomes per
        # measure over a fine angle grid
        sym = symmetrize(ms[0])
        atoms = [(float(p[0]), float(p[1]), float(w)) for p, w in sym.atoms()]

        def d_of(theta):
            e = (math.cos(theta), math.sin(theta))
            one = sum(
                w * min((x * e[0] + y * e[1]) ** 2, 1.0) for x, y, w in atoms
            )
            return 8 * one

        brute = min(d_of(math.pi * k / 4096) for k in range(4096))
        assert diag.D <= brute + 1e-9

    def test_rejects_other_norms(self):
        with pytest.raises(UnsupportedNorm):
            halasz_diagnostics([VectorMeasure.uniform(l1(2), [(0, 0)])])

    def test_reads_the_stored_integers(self, monkeypatch):
        from anticonc import geometry
        from anticonc.scenarios import _octagon_points

        calls = []
        original = geometry._scaled_integers

        def counted(points):
            calls.append(tuple(points))
            return original(points)

        monkeypatch.setattr(geometry, "_scaled_integers", counted)
        rng = random.Random(1360)
        octagon = VectorMeasure(PointConfig(l2(2), _octagon_points()), (F(1, 8),) * 8)
        families = [[seeded_measure(rng, 2, rng.randint(1, 6)) for _ in range(3)], [octagon, octagon]]
        for ms in families:
            calls.clear()
            diag = halasz_diagnostics(ms, 20, 16)
            assert calls == []  # no point set is scaled again
            assert diag.mu > 0 and diag.best_center is not None

    def test_symmetrize(self):
        m = VectorMeasure.uniform(l2(2), [(0, 0), (1, 0)])
        s = symmetrize(m)
        assert dict(s.atoms()) == {
            (F(-1), F(0)): F(1, 4),
            (F(0), F(0)): F(1, 2),
            (F(1), F(0)): F(1, 4),
        }


class TestVectorMeasure:
    def test_duplicates_merged(self):
        m = VectorMeasure(
            PointConfig(l2(2), ((F(0), F(0)), (F(0), F(0)), (F(1), F(0)))),
            (F(1, 4), F(1, 4), F(1, 2)),
        )
        assert m.points == ((F(0), F(0)), (F(1), F(0)))
        assert m.weights == (F(1, 2), F(1, 2))

    def test_weight_validation(self):
        with pytest.raises(DomainError):
            VectorMeasure(PointConfig(l2(1), ((F(0),),)), (F(1, 2),))

    def test_json_roundtrip(self):
        m = VectorMeasure.uniform(lp(3, 2), [(0, 0), (F(1, 3), F(2, 3))])
        assert VectorMeasure.from_json(m.to_json()) == m

    def test_dilate(self):
        m = VectorMeasure.uniform(l2(2), [(1, 1)])
        assert m.dilate(F(3, 2)).points == ((F(3, 2), F(3, 2)),)

    def test_dilate_on_the_integer_form(self, monkeypatch):
        from anticonc import geometry

        rng = random.Random(1370)
        measures = [seeded_measure(rng, d, rng.randint(1, 6)) for d in (1, 2, 3) for _ in range(4)]
        measures += _quad_measures(rng, 4)
        expected = {}
        for m in measures:  # the reference scales Fraction points afresh
            for f in (F(3, 2), F(-2, 3), F(0), F(5), F(-1)):
                pts = tuple(tuple(f * c for c in p) for p in m.points)
                expected[id(m), f] = VectorMeasure(PointConfig(m.norm, pts), m.weights)
        calls = []
        original = geometry._scaled_integers
        monkeypatch.setattr(geometry, "_scaled_integers", lambda pts: calls.append(pts) or original(pts))
        for m in measures:
            for f in (F(3, 2), F(-2, 3), F(0), F(5), F(-1)):
                assert m.dilate(f) == expected[id(m), f]
        assert calls == []

    def test_norm_float(self):
        assert norm_float(l2(2), (F(3), F(4))) == 5.0
        assert norm_float(l1(2), (F(3), F(4))) == 7.0
        assert norm_float(linf(2), (F(3), F(4))) == 4.0


# lp(1) is the l1 norm and lp(2) the l2 norm: each pair must give one answer
ONE_NORM_PAIRS = [(lambda d: lp(1, d), l1), (lambda d: lp(2, d), l2)]


def _fields(obj, skip=()):
    """The dataclass fields of obj except those named in ``skip``."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in skip}


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except (InvariantViolation, ResourceCapExceeded) as e:
        return type(e), str(e)


def _one_norm_configs(rng, d):
    """Rational point sets in a strip or a wide cloud, with duplicates."""
    for k in range(8 if d < 3 else 3):
        n = rng.randint(1, 12 if d < 3 else 6)
        den = rng.choice((1, 4, 8, 32))
        half = den // 8 if k % 2 else 2 * den
        pts = [(F(rng.randint(0, 6 * den), den), *(F(rng.randint(-half, half), den) for _ in range(d - 1)))
               for _ in range(n)]
        pts += rng.sample(pts, rng.randint(0, min(2, n)))
        rng.shuffle(pts)
        yield pts


class TestOneNormOneAnswer:
    """lp(1) gives l1's results and lp(2) gives l2's on every path; where a
    result holds its norm, every other field is compared."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("pair", ONE_NORM_PAIRS, ids=["lp1-l1", "lp2-l2"])
    def test_rational_configs(self, pair, d):
        a, b = pair[0](d), pair[1](d)
        rng = random.Random(2500 + 10 * d + ONE_NORM_PAIRS.index(pair))
        for pts in _one_norm_configs(rng, d):
            ca, cb = PointConfig(a, pts), PointConfig(b, pts)
            assert distance_graph(ca).masks == distance_graph(cb).masks
            raw = [rng.randint(1, 5) for _ in pts]
            ra, rb = (concentration_q(VectorMeasure(c, [F(r, sum(raw)) for r in raw])) for c in (ca, cb))
            assert (ra.value, ra.witness, ra.witness_points) == (rb.value, rb.witness, rb.witness_points)
            for early_stop in (False, True):
                fa, fb = near_line_fit(ca, early_stop), near_line_fit(cb, early_stop)
                assert _fields(fa, ("frame",)) == _fields(fb, ("frame",))
                assert _fields(fa.frame, ("norm",)) == _fields(fb.frame, ("norm",))
                sa, sb = separation_check(fa.frame, ca), separation_check(fb.frame, cb)
                assert (sa.pairs_checked, sa.violations) == (sb.pairs_checked, sb.violations)
                ba, bb = (_outcome(block_decomposition, c, f.frame) for c, f in ((ca, fa), (cb, fb)))
                if isinstance(bb, tuple):
                    assert ba == bb
                    continue
                assert [x.points for x in ba] == [x.points for x in bb]
                da, db = (_outcome(iterated_decompose, blocks[:3]) for blocks in (ba, bb))
                assert (da if isinstance(da, tuple) else da.sizes) == (db if isinstance(db, tuple) else db.sizes)
            for _ in range(4):
                x, y = rng.choice(pts), rng.choice(pts)
                assert distance(a, x, y) == distance(b, x, y)
                v = [F(rng.randint(-3, 3), rng.randint(1, 4)) * rng.randint(0, 1) for _ in range(d)]
                if any(v):
                    fa, fb = supporting_functional(a, v, x), supporting_functional(b, v, x)
                    assert _fields(fa, ("norm",)) == _fields(fb, ("norm",))

    @pytest.mark.parametrize("pair", ONE_NORM_PAIRS, ids=["lp1-l1", "lp2-l2"])
    def test_quadratic_points(self, pair):
        a, b = pair[0](2), pair[1](2)
        rng = random.Random(2600 + ONE_NORM_PAIRS.index(pair))
        for pts in _quad_configs(b, 2, rng):
            ca, cb = PointConfig(a, pts), PointConfig(b, pts)
            assert distance_graph(ca).masks == distance_graph(cb).masks
            raw = [rng.randint(1, 5) for _ in pts]
            ra, rb = (concentration_q(VectorMeasure(c, [F(r, sum(raw)) for r in raw])) for c in (ca, cb))
            assert (ra.value, ra.witness, ra.witness_points) == (rb.value, rb.witness, rb.witness_points)

    def test_planar_lp1_fit_is_exact(self):
        rng = random.Random(1)
        pts = [(F(rng.randint(0, 200), 32), F(rng.randint(-3, 3), 32)) for _ in range(30)]
        fit = near_line_fit(PointConfig(lp(1, 2), pts))
        assert (fit.max_deviation, fit.exact) == (0.09375, F(3, 32))

    def test_halasz_diagnostics(self):
        rng = random.Random(2700)
        for _ in range(3):
            pts = [rational_point(rng, 2) for _ in range(rng.randint(1, 5))]
            da, db = (halasz_diagnostics([VectorMeasure.uniform(n, pts)], 24, 16) for n in (lp(2, 2), l2(2)))
            assert da == db


def _ref_line_deviation(norm, r, v):
    """min over t of ||r - t v||, squared for exponent 2, by brute force in
    Fractions: the least power sum over the breakpoints r_j / v_j, the
    crossings of |r_j - t v_j| with |r_k - t v_k| and the projection
    <r, v> / <v, v>, as `_ref_kappa_exact_2d` does in the plane."""
    d = len(v)
    ts = {F(r[j], v[j]) for j in range(d) if v[j]} | {F(sum(map(mul, r, v)), sum(c * c for c in v))}
    for j, k in itertools.combinations(range(d), 2):
        for sign in (1, -1):
            if v[j] != sign * v[k]:
                ts.add(F(r[j] - sign * r[k], v[j] - sign * v[k]))
    return min(norm_power(norm, [a - t * b for a, b in zip(r, v)]) for t in ts)


def _off_plane_configs(rng, d, count):
    """Near-line and random rational sets in dimension d, some with a zero
    second coordinate throughout, some with a duplicate."""
    for k in range(count):
        den = rng.choice((1, 4, 8, 32))
        half = max(1, den // 8) if k % 2 else 2 * den
        pts = [(F(rng.randint(0, 6 * den), den), *(F(rng.randint(-half, half), den) for _ in range(d - 1)))
               for _ in range(rng.randint(1, 7))]
        if k % 3 == 0 and d > 2:
            pts = [(p[0], F(0), *p[2:]) for p in pts]
        yield pts + pts[:k % 2]


EXACT_NORMS = [l1, linf, l2, lambda d: lp(1, d), lambda d: lp(2, d)]


class TestOffPlaneFit:
    """In every dimension, linf and exponents 1 and 2 fit by the exact
    point-to-line rule `_line_deviation` on the 2x2 minors."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("make", EXACT_NORMS, ids=["l1", "linf", "l2", "lp1", "lp2"])
    def test_kernel_matches_brute_force(self, make, d):
        norm = make(d)
        rng = random.Random(2800 + d)
        for _ in range(150):
            r = [rng.randint(-9, 9) for _ in range(d)]
            v = [rng.randint(-4, 4) * rng.randint(0, 1) for _ in range(d)]  # zeros in half the slots
            if any(v):
                assert _line_deviation(norm, r, v) == _ref_line_deviation(norm, r, v)

    @pytest.mark.parametrize("d", [1, 3, 4])
    @pytest.mark.parametrize("norm", [l1, linf], ids=["l1", "linf"])
    def test_exact_deviation_matches_ternary_oracle(self, norm, d):
        rng = random.Random(2810 + d)
        for pts in _off_plane_configs(rng, d, 12):
            cfg = PointConfig(norm(d), pts)
            for early_stop in (False, True):
                fit = near_line_fit(cfg, early_stop)
                frame = fit.frame
                oracle = max(_point_line_dist_float(cfg.norm, p, frame.base, frame.direction) for p in pts)
                assert fit.max_deviation == float(fit.exact) and fit.exact_sq is None
                assert abs(fit.max_deviation - oracle) < 1e-9
                assert fit.certified == (fit.exact < F(1, 8))

    @pytest.mark.parametrize("make, n", [(l1, 24), (linf, 24), (l2, 24), (lambda d: lp(3, d), 8)],
                             ids=["l1", "linf", "l2", "lp3"])
    def test_direction_dropped_at_the_best_key(self, make, n, monkeypatch):
        # a direction stops at the first point whose deviation reaches the best
        # key so far, so far fewer than points x directions are scored, and the
        # fit is still the earliest direction of least key
        import anticonc.geometry as geometry

        rng = random.Random(2840)
        cfg = PointConfig(make(3), [(F(rng.randint(0, 32 * n), 32), *(F(rng.randint(-3, 3), 32) for _ in "yz"))
                                    for _ in range(n)])
        dirs = list(_candidate_directions(cfg.scaled[1], 3))
        name = "_line_deviation" if cfg.norm.exponent <= 2 else "_point_line_dist_float"
        scored, original = [], getattr(geometry, name)
        monkeypatch.setattr(geometry, name, lambda *args: scored.append(args) or original(*args))
        fit = near_line_fit(cfg)
        assert 0 < len(scored) < n * len(dirs) // 2
        s, mid = cfg.scaled[0], fit.frame.base
        if name == "_line_deviation":
            rel = [[int(2 * s * (c - m)) for c, m in zip(p, mid)] for p in cfg.points]
            keys = [max(original(cfg.norm, r, v) for r in rel) for v in dirs]
            assert (fit.max_deviation, fit.certified, fit.exact_sq, fit.exact) == geometry._fit_fields(
                cfg.norm, s, min(keys))
        else:
            keys = [max(original(cfg.norm, p, mid, v) for p in cfg.points) for v in dirs]
            assert fit.max_deviation == min(keys)
        assert fit.frame.direction == dirs[keys.index(min(keys))]

    def test_no_float_search_and_no_fraction_points(self, monkeypatch):
        import anticonc.geometry as geometry

        floats, derived = [], []
        original = geometry._point_line_dist_float
        monkeypatch.setattr(geometry, "_point_line_dist_float",
                            lambda *args: floats.append(args) or original(*args))
        monkeypatch.setitem(PointConfig._derive, "points",
                            lambda self: derived.append(self) or geometry._unscaled(*self.scaled))

        def unkept(norm, pts):  # a public config keeps its points: build one that must derive them
            return PointConfig._from_scaled(norm, *PointConfig(norm, pts).scaled)

        rng = random.Random(2830)
        for d in (1, 2, 3, 4):
            for pts in _off_plane_configs(rng, d, 4):
                for make in EXACT_NORMS:
                    for early_stop in (False, True):
                        near_line_fit(unkept(make(d), pts), early_stop)
        assert floats == [] and derived == []
        near_line_fit(unkept(lp(3, 3), [(1, 0, 0), (0, 1, 0)]))  # p >= 3 still searches in floats
        assert floats and derived

    @pytest.mark.parametrize("pts, tied", [
        (((5, -1, -1), (9, 0, 0), (19, -1, 1), (16, -1, 0)), ((7, 0, 1), (11, 0, 1))),
        (((13, -1, 1, 0), (16, -1, 0, 0), (24, 0, 1, -1), (2, 1, 0, 1), (24, 0, 0, -1)),
         ((22, -1, 1, -2), (22, -1, 0, -2))),
    ], ids=["3d", "4d"])
    def test_exact_tie_keeps_the_earliest_direction(self, pts, tied):
        # two directions share the least deviation exactly; the float search
        # along the earlier one lands above the later one's
        cfg = PointConfig(linf(len(pts[0])), [tuple(F(c, 8) for c in p) for p in pts])
        fit = near_line_fit(cfg)
        mid = fit.frame.base
        dirs = list(_candidate_directions(cfg.scaled[1], cfg.norm.dimension))
        keys = [max(_ref_line_deviation(cfg.norm, [a - b for a, b in zip(p, mid)], v) for p in cfg.points)
                for v in dirs]
        assert [keys[dirs.index(v)] for v in tied] == [min(keys)] * 2 == [fit.exact] * 2
        assert fit.frame.direction == dirs[keys.index(min(keys))] == tied[0] and fit.certified
        floats = [max(_point_line_dist_float(cfg.norm, p, mid, v) for p in cfg.points) for v in tied]
        assert floats[0] > floats[1]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: NormSpec("l3", 2), UnsupportedNorm, "unknown norm kind 'l3'"),
        (lambda: lp(F(1, 2), 2), UnsupportedNorm, "lp norm needs p >= 1"),
        (lambda: NormSpec("l2", 2, 3), DomainError, "p is only meaningful for lp norms"),
        (lambda: VectorMeasure(PointConfig(l2(2), ((0, 0), (1, 0))), (F(1),)), DomainError,
         "weights do not align with points"),
        (lambda: near_line_fit(PointConfig(l2(2), ())), DomainError, "need at least one point"),
        (lambda: product_sum_measure([]), DomainError, "need at least one measure"),
        (lambda: halasz_diagnostics([]), DomainError, "need at least one measure"),
        (lambda: HalaszDiagnostics(-1.0, 0.0, (1.0, 0.0), (), (0.0, 0.0)), InvariantViolation,
         "diagnostics must be nonnegative"),
    ],
    ids=["norm-kind", "lp-below-1", "p-not-lp", "weights-misaligned", "empty-fit", "empty-sum",
         "empty-halasz", "negative-d"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
