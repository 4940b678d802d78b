"""Independent correctness oracles for benchmark jobs.

None of these call anticonc; they work from the raw job spec. Exact
t-values come from an integer box-filter recurrence over a common
denominator, clique values from networkx on a graph built here with integer
power-sum comparisons, and sums of measures from a dictionary convolution.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

import networkx as nx
import numpy as np

from mixes import CERTIFY_DEN, SUMS_DEN

FLOAT_RTOL = 1e-9


def _extremal_factor(alpha: Fraction) -> tuple[int, int, int, int]:
    """(k, inner, outer, den): the extremal measure of ``alpha`` puts
    inner/den on each of the k atoms at half-integer slots -(k-1), ..., k-1
    (step 2) and outer/den on each of the k+1 atoms at slots -k, ..., k."""
    k = alpha.denominator // alpha.numerator
    p = k * (alpha * (k + 1) - 1)
    inner = p / k
    outer = (1 - p) / (k + 1)
    den = math.lcm(inner.denominator, outer.denominator)
    return k, int(inner * den), int(outer * den), den


def _stride2_box(acc: list[int], k: int) -> list[int]:
    """``acc`` convolved with k unit atoms two slots apart, by prefix sums."""
    s = acc + [0] * (2 * k - 2)
    for i in range(2, len(s)):
        s[i] += s[i - 2]
    return [s[i] - s[i - 2 * k] if i >= 2 * k else s[i] for i in range(len(s))]


def t_value(alphas) -> Fraction:
    """Mass of the sum of extremal variables on {0, 1/2}, exactly."""
    acc, offset, den = [1], 0, 1
    for a in alphas:
        k, inner, outer, d = _extremal_factor(Fraction(a))
        out = [outer * w for w in _stride2_box(acc, k + 1)]
        if inner:
            for i, w in enumerate(_stride2_box(acc, k)):
                out[i + 1] += inner * w
        acc, offset, den = out, offset - k, den * d

    def at(slot: int) -> int:
        i = slot - offset
        return acc[i] if 0 <= i < len(acc) else 0

    return Fraction(at(0) + at(1), den)


def _factor_floats(alpha: Fraction) -> np.ndarray:
    k, inner, outer, d = _extremal_factor(alpha)
    f = np.zeros(2 * k + 1)
    f[0::2] = outer / d
    f[1::2] = inner / d
    return f


def t_value_float(alphas) -> float:
    factors = {a: _factor_floats(a) for a in set(alphas)}
    acc = np.ones(1)
    offset = 0
    for a in alphas:
        acc = np.convolve(acc, factors[a])
        offset -= len(factors[a]) // 2
    return float(acc[-offset] + acc[1 - offset])


def variance(alphas) -> Fraction:
    total = Fraction(0)
    for a in alphas:
        k, inner, outer, d = _extremal_factor(a)
        moment = sum(outer * s * s for s in range(-k, k + 1, 2))
        moment += sum(inner * s * s for s in range(1 - k, k, 2))
        total += Fraction(moment, 4 * d)
    return total


def _close(norm: str, dx: int, dy: int, scale: int) -> bool:
    """Exactly decide ||(dx, dy)|| < scale for integers."""
    dx, dy = abs(dx), abs(dy)
    if norm == "l2":
        return dx * dx + dy * dy < scale * scale
    if norm == "l1":
        return dx + dy < scale
    return max(dx, dy) < scale


def _box_clique(points, weights, scale: int) -> int:
    """Heaviest set whose x-range and y-range are both below ``scale``.

    Such a set lies in the window anchored at its smallest x and largest y,
    so sliding a window over the points sorted by y, for every smallest x,
    finds it.
    """
    ranked = sorted(zip(points, weights))
    best = 0
    for a, ((xa, _), _) in enumerate(ranked):
        column = []
        for (x, y), w in ranked[a:]:
            if x - xa >= scale:
                break
            column.append((y, w))
        column.sort()
        lo = total = 0
        for y, w in column:
            total += w
            while y - column[lo][0] >= scale:
                total -= column[lo][1]
                lo += 1
            best = max(best, total)
    return best


def _disk_clique(points, weights, scale: int) -> int:
    """Heaviest set at pairwise l2 distance below ``scale``.

    |dx| is at most the distance, so a clique spans less than ``scale`` in
    x. The heaviest clique whose first point in (x, index) order is ``i``
    lies among the later neighbours of ``i``, a small graph that networkx
    solves exactly.
    """
    order = sorted(range(len(points)), key=lambda i: (points[i][0], i))
    best = 0
    for pos, i in enumerate(order):
        xi, yi = points[i]
        graph = nx.Graph()
        for j in order[pos + 1:]:
            xj, yj = points[j]
            if xj - xi >= scale:
                break
            if _close("l2", xi - xj, yi - yj, scale):
                graph.add_node(j, w=weights[j])
        nodes = list(graph)
        for a, j in enumerate(nodes):
            for k in nodes[a + 1:]:
                if _close("l2", points[j][0] - points[k][0], points[j][1] - points[k][1], scale):
                    graph.add_edge(j, k)
        rest = nx.max_weight_clique(graph, weight="w")[1] if nodes else 0
        best = max(best, weights[i] + rest)
    return best


def clique_value(norm: str, points, scale: int, weights=None) -> Fraction:
    """Largest total weight of points at pairwise distance below 1, the
    points being integer vectors over ``scale``; unit weights by default.

    In linf a clique is a set with both coordinate ranges below 1; l1 is
    linf after turning the plane by 45 degrees, (x, y) -> (x + y, x - y).
    """
    if weights is None:
        weights = [1] * len(points)
    common = math.lcm(*(Fraction(w).denominator for w in weights))
    iw = [int(w * common) for w in weights]
    if norm == "l2":
        return Fraction(_disk_clique(points, iw, scale), common)
    if norm == "l1":
        points = [(x + y, x - y) for x, y in points]
    return Fraction(_box_clique(points, iw, scale), common)


def sum_distribution(summands) -> dict[tuple[int, int], Fraction]:
    """Law of the sum of independent measures given as (points, int weights)."""
    acc: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    for points, weights in summands:
        total = sum(weights)
        nxt: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
        for (x, y), w in acc.items():
            for (u, v), c in zip(points, weights):
                nxt[(x + u, y + v)] += w * Fraction(c, total)
        acc = nxt
    return acc


def _certify(spec, res) -> str | None:
    _, norm, points = spec
    d = res.data
    if not d["certified"]:
        return "near-line fit not certified inside the strip"
    if not d["berge"]:
        return "near-line distance graph reported not Berge"
    omega = clique_value(norm, points, CERTIFY_DEN)
    if d["omega"] != omega:
        return f"omega {d['omega']} != oracle {omega}"
    if d["chi"] != omega:
        return f"chi {d['chi']} != omega {omega}"
    if len(d["block_sizes"]) != omega or sum(d["block_sizes"]) != len(points):
        return f"blocks {d['block_sizes']} do not split {len(points)} points into omega"
    ks = d["head_sizes"]
    t = t_value([Fraction(1, k) for k in ks])
    if not d["chains"] == d["layer"] == t * math.prod(ks):
        return f"chains {d['chains']}, middle layer {d['layer']}, oracle {t * math.prod(ks)}"
    jones = d["jones"]
    if not jones.ok or jones.bound != t:
        return f"jones bound {jones.bound} (ok={jones.ok}) != oracle {t}"
    return None


def _scenario(spec, res) -> str | None:
    return None if res.data["passed"] else f"{spec[0]} scenario did not pass"


def _vsum(spec, res) -> str | None:
    _, norm, summands = spec
    d = res.data
    for i, (points, weights) in enumerate(summands):
        total = sum(weights)
        want = clique_value(norm, points, SUMS_DEN, [Fraction(w, total) for w in weights])
        if d["alphas"][i] != want:
            return f"summand {i}: concentration {d['alphas'][i]} != oracle {want}"
    law = sum_distribution(summands)
    got = {
        tuple(int(c * SUMS_DEN) for c in p): w for p, w in d["total"].atoms()
    }
    if got != law:
        return "product sum measure differs from the oracle distribution"
    support = list(law)
    q_sum = clique_value(norm, support, SUMS_DEN, [law[p] for p in support])
    if d["q_sum"] != q_sum:
        return f"sum concentration {d['q_sum']} != oracle {q_sum}"
    t = t_value(d["alphas"])
    if d["t"] != t:
        return f"t-value {d['t']} != oracle {t}"
    if q_sum > t:
        return f"sum concentration {q_sum} above the t-value {t}"
    return None


def _window(spec, res) -> str | None:
    alphas = [Fraction(n, d) for n, d in spec[1]]
    window, params = res.data["window"], res.data["params"]
    t = t_value_float(alphas)
    for name, got in (("clt_window", window.extras["t"]), ("main_bound", params.t.value)):
        if not math.isclose(got, t, rel_tol=FLOAT_RTOL):
            return f"{name} t-value {got} != oracle {t}"
    v = variance(alphas)
    if window.extras["v_star"] != v:
        return f"V* {window.extras['v_star']} != oracle {v}"
    return None


def _tvalue(spec, res) -> str | None:
    alphas = [Fraction(n, d) for n, d in spec[2]]
    t = t_value(alphas)
    if res.data["t"] != t:
        return f"t-value {res.data['t']} != oracle {t}"
    layer = res.data["layer"]
    if layer is not None and Fraction(layer, math.prod(a.denominator for a in alphas)) != t:
        return f"middle layer {layer} disagrees with the t-value {t}"
    return None


_CHECKS = {
    "certify": _certify,
    "sharpness": _scenario,
    "vsum": _vsum,
    "window": _window,
    "octagon": _scenario,
    "tvalue": _tvalue,
}


def check(spec: tuple, result) -> str | None:
    """None when the job's outputs are right, else what is wrong."""
    return _CHECKS[spec[0]](spec, result)
