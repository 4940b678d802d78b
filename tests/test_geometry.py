import math
import random
from fractions import Fraction as F

import pytest

from anticonc.caps import Caps
from anticonc.chains import Block
from anticonc.errors import (
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    ResourceCapExceeded,
    UnsupportedNorm,
)
from anticonc.geometry import (
    _FLOAT_GUARD,
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
    _hull,
    _near_pairs,
    _scaled_integers,
    norm_float,
    norm_power,
    product_sum_measure,
    separation_check,
    supporting_functional,
    symmetrize,
)
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


def ref_near_line_fit(config, early_stop=False):
    norm = config.norm
    d = norm.dimension
    best = None
    best_key = None
    for v in _ref_candidate_directions(config):
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
            if all(frame.supports(p) for p in pts):
                frame.verify_supporting(pts)
            else:
                with pytest.raises(InvariantViolation):
                    frame.verify_supporting(iter(pts))

    def test_equality_is_supported(self):
        frame = _hand_frame(l1(2), (F(1), F(-1)), 1)
        frame.verify_supporting([(F(2, 3), F(-1, 5)), (F(0), F(0))])  # |x - y| = |x| + |y|
        frame = _hand_frame(l2(2), (F(3, 5), F(4, 5)), 1)
        frame.verify_supporting([(F(6, 7), F(8, 7))])


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


class TestNearPairsKernel:
    """The integer kernel decides every pair like the per-pair Fraction loop."""

    @pytest.mark.parametrize("norm", KERNEL_NORMS, ids=lambda n: f"{n.kind}{n.p or ''}-{n.dimension}d")
    def test_edges_match_reference(self, norm):
        rng = random.Random(500 + KERNEL_NORMS.index(norm))
        for pts in _kernel_configs(norm, rng):
            cfg = PointConfig(norm, pts)
            want = ref_distance_edges(norm, cfg.points)
            assert _near_pairs(norm, cfg.points) == want
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
            _near_pairs(l2(2), ((F(0), F(0)), (F(1),)))

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
        with pytest.raises(ResourceCapExceeded):
            product_sum_measure([a, a], Caps(product_support=100))

    def test_norm_mismatch(self):
        a = VectorMeasure.uniform(l2(2), [(0, 0)])
        b = VectorMeasure.uniform(l1(2), [(0, 0)])
        with pytest.raises(DomainError):
            product_sum_measure([a, b])


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
        s = product_sum_measure([a, a, a], Caps(product_support=6))
        assert (s.points, s.weights) == ref_product_sum([a, a, a], 6)
        with pytest.raises(ResourceCapExceeded):
            product_sum_measure([a, a, a], Caps(product_support=5))
        rng = random.Random(72)
        b, c = seeded_measure(rng, 2, 6), seeded_measure(rng, 2, 5)
        edge = len(b.points) * len(c.points)
        product_sum_measure([b, c], Caps(product_support=edge))
        with pytest.raises(ResourceCapExceeded):
            product_sum_measure([b, c], Caps(product_support=edge - 1))


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
        assert again.config is m.config  # strictly increasing, no zero: kept as is

    @pytest.mark.parametrize("eps", [F(1, 10**9), F(-1, 10**9)])
    def test_near_one_rejected(self, eps):
        pts = ((F(0), F(0)), (F(1, 3), F(0)), (F(2), F(1, 7)))
        ws = (F(1, 3), F(1, 3), F(1, 3) + eps)
        with pytest.raises(DomainError, match="sum to exactly 1"):
            VectorMeasure(PointConfig(l2(2), pts), ws)
        with pytest.raises(DomainError, match="sum to exactly 1"):
            VectorMeasure(PointConfig(l2(2), pts[::-1]), ws[::-1])


class TestSymmetrizeProductSum:
    def test_matches_double_loop(self):
        rng = random.Random(90)
        for d in (1, 2, 3):
            for _ in range(15):
                m = seeded_measure(rng, d, rng.randint(1, 9), zeros=True)
                s = symmetrize(m)
                assert (s.points, s.weights) == ref_symmetrize(m)

    def test_respects_product_support_cap(self, monkeypatch):
        m = VectorMeasure.uniform(l2(2), [(0, 0), (1, 0), (0, 1)])
        monkeypatch.setenv("ANTICONC_CAPS", '{"product_support": 8}')
        with pytest.raises(ResourceCapExceeded):
            symmetrize(m)
        monkeypatch.setenv("ANTICONC_CAPS", '{"product_support": 9}')
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
        m = VectorMeasure.uniform(l2(1), [(F(i, 100),) for i in range(20)])
        with pytest.raises(ResourceCapExceeded):
            concentration_q(m, Caps(clique=10))


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

    def test_norm_float(self):
        assert norm_float(l2(2), (F(3), F(4))) == 5.0
        assert norm_float(l1(2), (F(3), F(4))) == 7.0
        assert norm_float(linf(2), (F(3), F(4))) == 4.0
