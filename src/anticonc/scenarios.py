"""Bundled verification scenarios.

Three scenarios ship with the package: the octagon counterexample (the sum
of two octagon-uniform vectors keeps concentration 3/8, strictly above the
lattice t-value), the five-point sharpness configuration showing the
Euclidean strip half-width cannot be raised, and a randomized check that
near-line sums never beat the lattice t-value.

Octagon coordinates live in Q(sqrt(2)) and the sharpness points in
Q(sqrt(3)). Both scenarios pass them as `QuadExt` coordinates to the same
``distance_graph``, ``concentration_q`` and ``product_sum_measure`` as
rational points, so every edge decision is exact. The strict comparison
against 1 matters: the critical chords of both configurations have length
exactly 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import DomainError, ResourceCapExceeded
from .exact import as_fraction, fraction_str
from .geometry import (
    NormSpec,
    PointConfig,
    VectorMeasure,
    concentration_q,
    distance_graph,
    l2,
    product_sum_measure,
)
from .lattice import t_value
from .perfect_graphs import find_odd_hole, is_berge
from .quadfield import QuadExt

QuadPoint = tuple[QuadExt, QuadExt]


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        def conv(v):
            if isinstance(v, Fraction):
                return fraction_str(v)
            if isinstance(v, dict):
                return {k: conv(u) for k, u in v.items()}
            if isinstance(v, (list, tuple)):
                return [conv(u) for u in v]
            return v

        return {"name": self.name, "pass": self.passed, "details": conv(self.details)}


# --- octagon and sharpness points in Q(sqrt(2)) and Q(sqrt(3)) ---------------


def _octagon_points() -> list[QuadPoint]:
    """Regular octagon 1 wide across its flats, in cyclic order.

    Its vertices are (+-1/2, +-h) and (+-h, +-1/2) with h = (sqrt(2) - 1)/2,
    so the three-step chord, from (1/2, h) to (-1/2, h), is exactly 1.
    """
    half = QuadExt.of(Fraction(1, 2), 0, 2)
    h = QuadExt.of(Fraction(-1, 2), Fraction(1, 2), 2)
    return [(half, h), (h, half), (-h, half), (-half, h),
            (-half, -h), (-h, -half), (h, -half), (half, -h)]


def _contrast_octagon_points() -> list[QuadPoint]:
    """The unit-circumradius regular octagon scaled by 1/2."""
    half = QuadExt.of(Fraction(1, 2), 0, 2)
    zero = QuadExt.of(0, 0, 2)
    q = QuadExt.of(0, Fraction(1, 4), 2)  # sqrt(2)/4
    return [(half, zero), (q, q), (zero, half), (-q, q),
            (-half, zero), (-q, -q), (zero, -half), (q, -q)]


def run_octagon_scenario() -> ScenarioResult:
    """Octagon counterexample, all comparisons exact in Q(sqrt(2)).

    The regular octagon 1 wide across its flats has its three-step chord
    exactly 1 (not an edge), so its distance graph is the circulant with
    steps {1, 2}. The concentration of one vertex-uniform vector and of the
    sum of two independent copies both equal 3/8, strictly above the exact
    t-value of (3/8, 3/8). A contrast octagon of circumradius 1/2 grows a
    4-clique.
    """
    norm = l2(2)
    config = PointConfig(norm, _octagon_points())
    weights = (Fraction(1, 8),) * 8

    g = distance_graph(config)
    expected_edges = frozenset(
        (min(i, (i + s) % 8), max(i, (i + s) % 8)) for i in range(8) for s in (1, 2)
    )
    circulant_ok = g.edges == expected_edges

    octagon = VectorMeasure(config, weights)
    q_single = concentration_q(octagon).value
    total = product_sum_measure([octagon, octagon])
    q_sum = concentration_q(total).value
    zero, (nums, den) = QuadExt.of(0, 0, 2), total._ints  # the centre is 0 on the integer form too
    center_weight = Fraction(dict(zip(total.config.scaled[1], nums)).get((zero, zero), 0), den)

    alpha = Fraction(3, 8)
    t_both = t_value([alpha, alpha])

    # contrast case: circumradius 1/2 pulls the three-step chord below 1
    contrast = VectorMeasure(PointConfig(norm, _contrast_octagon_points()), weights)
    contrast_q = concentration_q(contrast).value

    passed = (
        circulant_ok
        and q_single == alpha
        and q_sum == alpha
        and t_both < alpha
        and contrast_q > alpha
        and center_weight == Fraction(8, 64)
    )
    return ScenarioResult(
        "octagon",
        passed,
        {
            "circulant_steps_1_2": circulant_ok,
            "q_single": q_single,
            "q_sum": q_sum,
            "sum_support_size": len(total.config),
            "center_weight": center_weight,
            "t_value": t_both,
            "t_below_alpha": t_both < alpha,
            "contrast_radius_half_q": contrast_q,
        },
    )


def _sharpness_points(epsilon: Fraction, below_threshold: bool = False) -> list[QuadPoint]:
    """Five points around a unit rhombus pair, perturbed and recentered.

    The middle bottom point drops by 2*epsilon and everything shrinks by
    (1 - epsilon): the five cycle distances fall strictly below 1 while the
    two inner chords rise strictly above 1, so the distance graph becomes an
    induced five-cycle. The final vertical shift centers the strip, pushing
    the worst deviation just above sqrt(3)/4.

    With ``below_threshold`` the middle point stays on the bottom row and the
    shift recenters the rows at +-(1 - epsilon) sqrt(3)/4, strictly inside
    the threshold.
    """
    zero = QuadExt.of(0, 0, 3)
    one = QuadExt.of(1, 0, 3)
    half = QuadExt.of(Fraction(1, 2), 0, 3)
    rt3_half = QuadExt.of(0, Fraction(1, 2), 3)  # sqrt(3)/2
    drop = zero if below_threshold else QuadExt.of(-2 * epsilon, 0, 3)
    base: list[QuadPoint] = [(-one, zero), (zero, drop), (one, zero),
                             (half, rt3_half), (-half, rt3_half)]
    s = QuadExt.of(1 - epsilon, 0, 3)
    shift = QuadExt.of(0, Fraction(-1, 4), 3)  # -sqrt(3)/4
    if below_threshold:
        shift = s * shift
    return [(s * x, s * y + shift) for x, y in base]


def run_sharpness_scenario(epsilon, strip_samples: int = 0, seed: int = 0) -> ScenarioResult:
    """Just above the Euclidean strip threshold an odd hole appears.

    For positive epsilon below 1/100 the perturbed five-point set deviates
    from every horizontal line by more than sqrt(3)/4 and its distance graph
    is an induced C5; at epsilon zero every critical distance is exactly 1
    and the graph loses all edges (strictness of the comparison). The same
    points compressed to strictly below the threshold stay Berge, as do
    random configurations in a strip of half-width 0.43.
    """
    eps = as_fraction(epsilon)
    if not (0 <= eps < Fraction(1, 100)):
        raise DomainError("epsilon must lie in [0, 1/100)")
    if isinstance(strip_samples, bool) or not isinstance(strip_samples, int) or strip_samples < 0:
        raise DomainError(f"strip_samples must be an int >= 0, got {strip_samples!r}")
    pts = _sharpness_points(eps)
    g = distance_graph(PointConfig(l2(2), pts))
    hole = find_odd_hole(g)

    max_abs_y = max(abs(y) for _, y in pts)
    above_threshold = max_abs_y > QuadExt.of(0, Fraction(1, 4), 3)

    details: dict = {
        "epsilon": eps,
        "edge_count": len(g.edges),
        "hole_found": hole is not None,
        "deviation_above_threshold": above_threshold,
        "max_abs_y_float": float(max_abs_y),
    }
    if eps == 0:
        # every cycle distance is exactly 1: strictness kills all edges
        passed = len(g.edges) == 0 and hole is None
        details["degenerate_no_edges"] = len(g.edges) == 0
    else:
        passed = hole is not None and len(hole.cycle) == 5 and above_threshold
        if hole is not None:
            details["hole"] = list(hole.cycle)

        # the unperturbed configuration, compressed strictly below the
        # threshold, must stay Berge
        safe = _sharpness_points(eps, below_threshold=True)
        berge, _ = is_berge(distance_graph(PointConfig(l2(2), safe)))
        details["below_threshold_berge"] = berge
        passed = passed and berge

    if strip_samples > 0:
        rng = random.Random(seed)
        berge_all = True
        for _ in range(strip_samples):
            config = _random_strip_config(rng)
            ok, _ = is_berge(distance_graph(config))
            if not ok:
                berge_all = False
                break
        details["strip_samples"] = strip_samples
        details["strip_all_berge"] = berge_all
        passed = passed and berge_all

    return ScenarioResult("sharpness", passed, details)


def _random_strip_config(rng: random.Random) -> PointConfig:
    """5 to 10 points on a 1/32 grid with x in [0, 5], in the strip |y| <= 0.43."""
    den = 32
    bound_y = 13  # floor(0.43 * 32); keeps |y| <= 0.43 exactly
    pts = [(rng.randint(0, 5 * den), rng.randint(-bound_y, bound_y)) for _ in range(rng.randint(5, 10))]
    return PointConfig._from_scaled(l2(2), den, pts)  # the points times 32


# --- randomized near-line verification ---------------------------------------


_DEFAULT_GENERATOR = {
    "count": 50,
    "max_summands": 4,
    "max_atoms": 3,
    "norms": ["l2", "l1", "linf"],
    "strip_scale": "9/10",
    "x_span": 4,
    "denominator": 16,
    "extremal_cases": 10,
    "seed": 0,
}


def _strip_bound(norm: NormSpec, scale: Fraction, den: int) -> int:
    """Largest integer b with b/den strictly below scale * near-line radius,
    for a scale in (0, 1]: b^2 < scale^2 r^2 den^2, decided exactly."""
    return math.isqrt(math.ceil(scale * scale * norm.near_line_radius_sq * den * den) - 1)


def _norm_by_name(name: str) -> NormSpec:
    if name not in ("l2", "l1", "linf"):
        raise DomainError(f"unknown norm name {name!r}")
    return NormSpec(name, 2)


def _random_near_line_measure(
    rng: random.Random, norm: NormSpec, gen: dict
) -> VectorMeasure:
    den = gen["denominator"]
    bound_y = _strip_bound(norm, as_fraction(gen["strip_scale"]), den)
    n_atoms = rng.randint(1, gen["max_atoms"])
    pts = []
    for _ in range(n_atoms):
        x = Fraction(rng.randint(0, gen["x_span"] * den), den)
        y = Fraction(rng.randint(-bound_y, bound_y), den)
        pts.append((x, y))
    raw = [rng.randint(1, 5) for _ in pts]
    total = sum(raw)
    weights = [Fraction(r, total) for r in raw]
    return VectorMeasure(PointConfig(norm, tuple(pts)), tuple(weights))


def run_verify_theorem22(
    generator: Optional[dict] = None, seed: Optional[int] = None
) -> ScenarioResult:
    """Exact concentration of near-line sums against the lattice t-value.

    Every instance draws up to four independent measures with rational atoms
    inside a strip strictly below the norm's near-line radius, computes each
    summand's concentration exactly, and checks that the concentration of
    the exact sum distribution never exceeds the t-value of those
    concentrations. Uniform arithmetic progressions spaced exactly 1 along
    the axis realize equality.

    The generator dict may carry its own "seed" so property runs are
    shareable as one JSON file; an explicit ``seed`` argument wins. An
    instance refused by a cap is counted in ``skipped``; when caps refuse
    every one of at least one instance, nothing was checked and the run
    raises `ResourceCapExceeded`, naming the cap of the last refusal.
    """
    gen = dict(_DEFAULT_GENERATOR)
    if generator:
        unknown = set(generator) - set(gen)
        if unknown:  # a mistyped key would quietly leave its field at the default
            raise DomainError(f"unknown generator fields: {sorted(unknown)}")
        gen.update(generator)
    # checked before any draw: a bad field would stop the run or pass it unrun
    for field, least in (("count", 0), ("max_summands", 1), ("max_atoms", 1), ("x_span", 0),
                         ("denominator", 1), ("extremal_cases", 0)):
        if isinstance(gen[field], bool) or not isinstance(gen[field], int) or gen[field] < least:
            raise DomainError(f"generator field {field!r} must be an int >= {least}, got {gen[field]!r}")
    if isinstance(gen["seed"], bool) or not isinstance(gen["seed"], int):
        raise DomainError(f"generator field 'seed' must be an int, got {gen['seed']!r}")
    if not 0 < as_fraction(gen["strip_scale"]) <= 1:  # a share of the near-line radius
        raise DomainError(f"generator field 'strip_scale' must be in (0, 1], got {gen['strip_scale']!r}")
    if not isinstance(gen["norms"], (list, tuple)) or not gen["norms"]:
        raise DomainError(f"generator field 'norms' must be a non-empty list, got {gen['norms']!r}")
    norms = [_norm_by_name(name) for name in gen["norms"]]
    if seed is None:
        seed = gen["seed"]
    rng = random.Random(seed)
    failures = []
    margins = []
    skipped = 0
    for idx in range(gen["count"]):
        norm = norms[idx % len(norms)]
        n = rng.randint(1, gen["max_summands"])
        measures = [_random_near_line_measure(rng, norm, gen) for _ in range(n)]
        try:
            alphas = [concentration_q(m).value for m in measures]
            total = product_sum_measure(measures)
            q_sum = concentration_q(total).value
        except ResourceCapExceeded as exc:
            skipped += 1
            if skipped == gen["count"]:
                raise ResourceCapExceeded(
                    f"no instance was checked: all {skipped} were refused, the last by {exc}"
                ) from None
            continue
        t = t_value(alphas)
        if q_sum > t:
            failures.append(
                {
                    "instance": idx,
                    "norm": norm.kind,
                    "alphas": [fraction_str(a) for a in alphas],
                    "q_sum": fraction_str(q_sum),
                    "t": fraction_str(t),
                }
            )
        else:
            margins.append(float(t - q_sum))

    equality_ok = True
    for _ in range(gen["extremal_cases"]):
        n = rng.randint(1, 3)
        ks = [rng.randint(1, 4) for _ in range(n)]
        norm = l2(2)
        measures = [
            VectorMeasure.uniform(norm, [(Fraction(j), Fraction(0)) for j in range(k)])
            for k in ks
        ]
        alphas = [concentration_q(m).value for m in measures]
        if alphas != [Fraction(1, k) for k in ks]:
            equality_ok = False
            break
        total = product_sum_measure(measures)
        q_sum = concentration_q(total).value
        if q_sum != t_value(alphas):
            equality_ok = False
            break

    passed = not failures and equality_ok
    return ScenarioResult(
        "verify-theorem22",
        passed,
        {
            "instances": gen["count"],
            "skipped": skipped,
            "failures": failures,
            "min_margin": min(margins) if margins else None,
            "equality_cases_ok": equality_ok,
        },
    )
