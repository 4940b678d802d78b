"""Exact algorithms on small simple graphs.

Strict distance graphs of near-line point sets are Berge, hence perfect; the
solvers here certify that on concrete instances: maximum (weighted) clique by
branch and bound with greedy colouring bounds (at the root, one colouring of
the whole graph bounds every suffix of vertices; the witness is the greedy
seed when optimal, else the first best leaf in branch order), chromatic number by
backtracking with a clique lower bound, and shortest odd holes by an
iterative-deepening search over induced paths. That search skips vertices
that share no hole with the path (simplicial ones, Dirac 1961; in the
complement, those beyond distance 2 in g, as odd antiholes have diameter 2,
Nikolopoulos and Palios 2004), prunes each path by a breadth-first bound on
the steps left to a vertex that could close it, and stops deepening once no
path can grow into a longer hole. Each rule drops only branches without a
hole of the length searched, so witnesses and None answers are exact.
Everything is deterministic: vertices lowest index first, colours lowest first.

Adjacency is kept both as an edge set (for serialization) and as per-vertex
bitmasks (for the solvers); n stays in the low hundreds by design.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import or_
from typing import Any, Optional, Sequence

from .caps import Caps, resolve
from .errors import DomainError, InvariantViolation, ResourceCapExceeded
from .exact import _numerators, as_fraction


@dataclass(frozen=True, eq=False)
class DistGraph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]
    origin: Any = None  # optional back-reference to the point configuration

    def __post_init__(self):
        n = self.n
        canonical = isinstance(self.edges, frozenset)
        for u, v in self.edges:
            if not 0 <= u < v < n:
                if u == v:
                    raise DomainError("self-loop in graph")
                if not (0 <= u < n and 0 <= v < n):
                    raise DomainError("edge endpoint out of range")
                canonical = False
        if not canonical:
            object.__setattr__(self, "edges", frozenset((min(e), max(e)) for e in self.edges))

    def __eq__(self, other):
        return (
            isinstance(other, DistGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        m = [0] * self.n
        for u, v in self.edges:
            m[u] |= 1 << v
            m[v] |= 1 << u
        return tuple(m)

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def complement(self) -> "DistGraph":
        comp = frozenset(
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if (u, v) not in self.edges
        )
        return DistGraph(self.n, comp)

    def induced(self, vertices: Sequence[int]) -> "DistGraph":
        order = list(vertices)
        pos = {v: i for i, v in enumerate(order)}
        sub = frozenset(
            (pos[u], pos[v])
            for u, v in self.edges
            if u in pos and v in pos
        )
        return DistGraph(len(order), sub)

    def to_json(self) -> dict:
        return {"n": self.n, "edges": sorted(list(e) for e in self.edges)}

    @classmethod
    def from_json(cls, data: dict) -> "DistGraph":
        return cls(int(data["n"]), frozenset(tuple(e) for e in data["edges"]))


@dataclass(frozen=True)
class ColoringCertificate:
    num_colors: int
    classes: tuple[tuple[int, ...], ...]

    def verify(self, g: DistGraph) -> bool:
        seen = sorted(v for cls in self.classes for v in cls)
        if seen != list(range(g.n)):
            return False
        if len(self.classes) != self.num_colors:
            return False
        for cls in self.classes:
            for i, u in enumerate(cls):
                for v in cls[i + 1 :]:
                    if g.has_edge(u, v):
                        return False
        return True

    def to_json(self) -> dict:
        return {"colors": self.num_colors, "classes": [list(c) for c in self.classes]}


@dataclass(frozen=True)
class HoleWitness:
    cycle: tuple[int, ...]
    in_complement: bool

    def __post_init__(self):
        if len(self.cycle) < 5 or len(self.cycle) % 2 == 0:
            raise InvariantViolation("hole witness must be an odd cycle of length >= 5")

    def verify(self, g: DistGraph) -> bool:
        """Check the cycle is induced in g (or in its complement if flagged)."""
        k = len(self.cycle)
        if len(set(self.cycle)) != k:
            return False
        for i in range(k):
            for j in range(i + 1, k):
                adjacent = g.has_edge(self.cycle[i], self.cycle[j]) != self.in_complement
                on_cycle = j - i == 1 or (i == 0 and j == k - 1)
                if adjacent != on_cycle:
                    return False
        return True


# --- maximum weight clique --------------------------------------------------


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _greedy_color_bound(cand: int, masks: Sequence[int], iw: Sequence[int]) -> int:
    """Upper bound: a clique takes at most one vertex per colour class."""
    total = 0
    uncolored = cand
    while uncolored:
        avail = uncolored
        cmax = 0
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            if iw[v] > cmax:
                cmax = iw[v]
            avail &= ~masks[v]
            avail ^= low
            uncolored &= ~low
        total += cmax
    return total


def _suffix_color_bounds(masks: Sequence[int], iw: Sequence[int]) -> list[int]:
    """suffix[v] bounds every clique inside {v ... n-1}: one greedy colouring
    of all vertices in index order, summing each class's heaviest member >= v."""
    n = len(iw)
    color, uncolored, c = [0] * n, (1 << n) - 1, 0
    while uncolored:
        avail = uncolored
        while avail:
            v = (avail & -avail).bit_length() - 1
            color[v] = c
            avail &= ~masks[v] & ~(1 << v)
            uncolored &= ~(1 << v)
        c += 1
    heaviest, total, suffix = [0] * c, 0, [0] * n
    for v in range(n - 1, -1, -1):
        gain = iw[v] - heaviest[color[v]]
        if gain > 0:
            heaviest[color[v]] = iw[v]
            total += gain
        suffix[v] = total
    return suffix


def max_clique(
    g: DistGraph,
    weights: Optional[Sequence[Fraction]] = None,
    caps: Caps | None = None,
) -> tuple[Fraction, tuple[int, ...]]:
    """Exact maximum weight clique; unit weights when none are given.

    Branch and bound over bitmask candidate sets, lowest vertex first, on
    integer weights. The root's candidates are a suffix {v ... n-1}, bounded
    by one greedy colouring of the whole graph; deeper nodes colour their own.
    The best changes only on a strict gain, so the witness is the greedy seed
    when that is optimal, else the first maximum-weight leaf in branch order.
    """
    caps = resolve(caps)
    if g.n > caps.clique:
        raise ResourceCapExceeded(f"clique solver capped at {caps.clique} vertices")
    if g.n == 0:
        return Fraction(0), ()
    if weights is None:
        fw = [Fraction(1)] * g.n
    else:
        fw = [as_fraction(w) for w in weights]
        if len(fw) != g.n:
            raise DomainError("weight vector length mismatch")
        if any(w < 0 for w in fw):
            raise DomainError("negative clique weight")
    iw, denom = _numerators(fw)
    masks = g.masks

    # greedy seed: descending weight, then index
    order = sorted(range(g.n), key=lambda v: (-iw[v], v))
    seed: list[int] = []
    seed_mask = 0
    for v in order:
        if all(masks[v] >> u & 1 for u in seed):
            seed.append(v)
            seed_mask |= 1 << v
    best_w = sum(iw[v] for v in seed)
    best_set = sorted(seed)

    # depth-first on an explicit stack, lowest vertex first; a node is
    # dropped once its colour bound cannot beat the best clique
    suffix = _suffix_color_bounds(masks, iw)
    cur: list[int] = []  # the vertices branched on down to the top open node
    stack = [[(1 << g.n) - 1, 0]]  # open nodes: [candidates left, clique weight]
    while stack:
        rest, cur_w = stack[-1]
        low = rest & -rest
        v = low.bit_length() - 1
        bound = cur_w + _greedy_color_bound(rest, masks, iw) if cur else suffix[v]
        if not rest or bound <= best_w:
            stack.pop()
            if cur:
                cur.pop()
            continue
        stack[-1][0] = rest ^ low
        cand = (rest ^ low) & masks[v]
        if cand:
            cur.append(v)
            stack.append([cand, cur_w + iw[v]])
        elif cur_w + iw[v] > best_w:
            best_w = cur_w + iw[v]
            best_set = sorted(cur + [v])

    return Fraction(best_w, denom), tuple(best_set)


# --- chromatic number -------------------------------------------------------


def _dsatur_greedy(g: DistGraph) -> list[int]:
    masks = g.masks
    colors = [-1] * g.n
    neighbor_colors: list[set[int]] = [set() for _ in range(g.n)]
    uncolored = set(range(g.n))
    degree = [m.bit_count() for m in masks]
    while uncolored:
        # highest saturation, then highest degree, then lowest index
        v = min(
            uncolored,
            key=lambda u: (-len(neighbor_colors[u]), -degree[u], u),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        uncolored.remove(v)
        for u in _iter_bits(masks[v]):
            if colors[u] == -1:
                neighbor_colors[u].add(c)
    return colors


def _classes_from_colors(colors: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    k = max(colors) + 1 if colors else 0
    classes: list[list[int]] = [[] for _ in range(k)]
    for v, c in enumerate(colors):
        classes[c].append(v)
    return tuple(tuple(c) for c in classes)


def chromatic_number(g: DistGraph, caps: Caps | None = None) -> ColoringCertificate:
    """Optimal colouring certificate by exact branch and bound.

    DSATUR greedy supplies the upper bound, the clique number the lower
    bound; backtracking assigns vertices in index order trying colours in
    ascending order, which makes the certificate deterministic.
    """
    caps = resolve(caps)
    if g.n > caps.coloring:
        raise ResourceCapExceeded(f"coloring solver capped at {caps.coloring} vertices")
    if g.n == 0:
        return ColoringCertificate(0, ())
    greedy = _dsatur_greedy(g)
    best_k = max(greedy) + 1
    best_colors = greedy[:]
    # any valid clique lower bound keeps the search exact; the exact clique
    # number just lets it stop earlier
    if g.n <= caps.clique:
        lb = int(max_clique(g, caps=caps)[0])
    else:
        lb = 1
    if lb < best_k:
        masks = g.masks
        colors = [-1] * g.n
        # one stack level per vertex: cand[v] holds the colours v may still try
        # (-1 before v is opened), used[v] the number of colours used below v
        cand = [-1] * g.n
        used = [0] * g.n
        v = 0
        while v >= 0:
            if cand[v] < 0:
                forbidden = 0
                for u in _iter_bits(masks[v]):
                    if colors[u] >= 0:
                        forbidden |= 1 << colors[u]
                cand[v] = ((1 << min(used[v] + 1, best_k - 1)) - 1) & ~forbidden
            colors[v] = -1
            if not cand[v]:
                cand[v] = -1
                v -= 1
                continue
            c = (cand[v] & -cand[v]).bit_length() - 1
            cand[v] &= cand[v] - 1
            colors[v] = c
            now_used = max(used[v], c + 1)
            if now_used >= best_k:
                continue
            if v + 1 == g.n:
                best_k, best_colors = now_used, colors[:]
                if best_k == lb:
                    break
                continue
            v += 1
            used[v] = now_used
    cert = ColoringCertificate(best_k, _classes_from_colors(best_colors))
    if not cert.verify(g):
        raise InvariantViolation("colouring certificate failed self-check")
    return cert


# --- odd holes --------------------------------------------------------------


def _closer_distance(
    masks: Sequence[int], start: int, allowed: int, closers: int
) -> Optional[int]:
    """Fewest edges from start to a vertex of closers, stepping only on allowed vertices.

    Breadth-first search over bitmasks; None when no closer is reachable.
    """
    frontier = 1 << start
    dist = 0
    while frontier and closers:
        dist += 1
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        if reach & closers:
            return dist
        frontier = reach & allowed
        allowed &= ~frontier
    return None


def _induced_odd_cycle(
    masks: Sequence[int], n: int, length: int, reach: Sequence[int]
) -> tuple[Optional[tuple[int, ...]], bool]:
    """Find an induced cycle of exactly this length.

    Depth-first search over induced paths anchored at the cycle's minimum
    vertex s, on vertices in ``reach`` of every path vertex (reach[v] holds
    every vertex sharing a hole with v): interior vertices must avoid the
    neighbourhoods of all path vertices before the current endpoint
    (including s), the closing vertex must additionally be adjacent to s.
    The closing vertex must exceed the second one, which breaks symmetry.

    Every path shorter than length - 1 is pruned by ``_closer_distance``
    from its end. The walk steps only on vertices a completion may still
    use: above s, in reach, outside N(s), outside the neighbourhoods of the
    earlier interior vertices and off the path. It ends at a legal closer:
    adjacent to s, above the second vertex, in reach, outside those
    neighbourhoods and off the path. Returns the cycle (or None) and whether
    a longer hole may exist: true when some path reached length - 1 vertices
    or some branch was dropped for distance alone.
    """
    deeper = False
    for s in range(n):
        above = reach[s] & ~((1 << (s + 1)) - 1)
        n_s = masks[s] & above
        for p1 in _iter_bits(n_s):
            closer_base = n_s & ~((1 << (p1 + 1)) - 1)
            # stack entries: (path, path mask, N(p_1..p_{t-1}) | ~reach(same))
            stack = [([s, p1], (1 << s) | (1 << p1), 0)]
            while stack:
                path, pmask, forbid = stack.pop()
                last = path[-1]
                closers = closer_base & reach[last] & ~forbid & ~pmask
                if len(path) == length - 1:
                    deeper = True
                    closers &= masks[last]
                    if closers:
                        low = closers & -closers
                        return tuple(path) + (low.bit_length() - 1,), True
                    continue
                allowed = above & reach[last] & ~n_s & ~forbid & ~pmask
                dist = _closer_distance(masks, last, allowed, closers)
                if dist is None:
                    continue
                if dist > length - len(path):
                    deeper = True
                    continue
                new_forbid = forbid | masks[last] | ~reach[last]
                for v in _iter_bits(masks[last] & allowed):
                    stack.append((path + [v], pmask | (1 << v), new_forbid))
    return None, deeper


def _strip_simplicial(masks: Sequence[int], live: int) -> int:
    """live less its simplicial vertices, removed until none is left; only
    the neighbours of a removed vertex can become simplicial."""
    pending = live
    while pending:
        low = pending & -pending
        pending ^= low
        nb = masks[low.bit_length() - 1] & live
        if all(nb & ~masks[u] == 1 << u for u in _iter_bits(nb)):
            live ^= low
            pending |= nb
    return live


def _shortest_odd_hole(
    g: DistGraph, check_complement: bool, caps: Caps | None, first: int
) -> Optional[HoleWitness]:
    """Shortest odd hole of length >= first; see ``find_odd_hole``."""
    caps = resolve(caps)
    if g.n > caps.odd_hole:
        raise ResourceCapExceeded(f"odd-hole search capped at {caps.odd_hole} vertices")
    n, gm, full = g.n, g.masks, (1 << g.n) - 1
    if check_complement:
        masks = [full ^ m ^ (1 << v) for v, m in enumerate(gm)]
        # the closed radius-2 ball in g around each vertex
        reach = [reduce(or_, [gm[u] for u in _iter_bits(m)], m | 1 << v) for v, m in enumerate(gm)]
    else:
        masks = gm
        live = _strip_simplicial(gm, full)
        reach = [live if live >> v & 1 else 0 for v in range(n)]
    for length in range(first, n + 1, 2):
        cycle, deeper = _induced_odd_cycle(masks, n, length, reach)
        if cycle is not None:
            witness = HoleWitness(cycle, check_complement)
            if not witness.verify(g):
                raise InvariantViolation("odd-hole witness failed self-check")
            return witness
        if not deeper:
            break
    return None


def find_odd_hole(
    g: DistGraph, check_complement: bool = False, caps: Caps | None = None
) -> Optional[HoleWitness]:
    """Shortest odd induced cycle of length >= 5, or None.

    With ``check_complement`` the search runs in the complement graph. A
    None answer for both orientations certifies the graph Berge and hence
    perfect.

    Lengths 5, 7, ... are tried in turn by a depth-first search over induced
    paths (the chordless-path pruning of Uno and Satoh, 2014), on vertices
    that may share a hole with every path vertex: in g, those left after
    removing simplicial vertices (live neighbourhood a clique) repeatedly,
    as a hole's vertex has two non-adjacent neighbours; in the complement,
    those within distance 2 in g, as an antihole of length >= 5 has
    diameter 2. A path is dropped when a breadth-first search from its end,
    through vertices a completion may still use, reaches no vertex that
    could close it, or reaches one only after more steps than the length
    leaves. Any completion is such a walk, so a dropped branch holds no
    cycle of the current length, and the order of the rest is unchanged:
    the witness is the one the unpruned search returns. Deepening stops
    after a length at which no path reached length - 1 vertices and no
    branch was dropped for distance alone. That is exact: a longer hole
    keeps to the same vertices and the rest of it is a walk to a closer, so
    its prefixes are never dropped as unreachable, and one of them would
    have been dropped for distance or reached length - 1 vertices.
    """
    return _shortest_odd_hole(g, check_complement, caps, 5)


def is_berge(g: DistGraph, caps: Caps | None = None) -> tuple[bool, Optional[HoleWitness]]:
    witness = _shortest_odd_hole(g, False, caps, 5)
    if witness is None:
        # C5 is self-complementary, so the complement has no C5 either
        witness = _shortest_odd_hole(g, True, caps, 7)
    return witness is None, witness


# --- near-line perfection and block decomposition ---------------------------


@dataclass(frozen=True)
class PerfectionReport:
    near_line_certified: bool
    max_deviation: float
    threshold: float
    berge: bool
    hole: Optional[HoleWitness]
    omega: int
    chi: int
    subgraphs_checked: int
    subgraphs_ok: int

    @property
    def ok(self) -> bool:
        return (
            self.near_line_certified
            and self.berge
            and self.omega == self.chi
            and self.subgraphs_ok == self.subgraphs_checked
        )


def verify_perfection_near_line(
    config,
    subgraph_samples: int = 20,
    seed: int = 0,
    caps: Caps | None = None,
) -> PerfectionReport:
    """Certify Berge plus omega == chi for a near-line point configuration.

    The near-line precondition is checked first and reported rather than
    silently assumed; the graph checks run either way so a violating input
    shows exactly what breaks.
    """
    from .geometry import distance_graph, near_line_fit

    caps = resolve(caps)
    fit = near_line_fit(config, early_stop=True)
    g = distance_graph(config)
    berge, hole = is_berge(g, caps)
    omega = int(max_clique(g, caps=caps)[0])
    chi = chromatic_number(g, caps).num_colors
    rng = random.Random(seed)
    ok = 0
    for _ in range(subgraph_samples):
        size = rng.randint(1, g.n) if g.n >= 1 else 0
        verts = sorted(rng.sample(range(g.n), size))
        sub = g.induced(verts)
        w = int(max_clique(sub, caps=caps)[0])
        c = chromatic_number(sub, caps).num_colors
        if w == c:
            ok += 1
    return PerfectionReport(
        near_line_certified=fit.certified,
        max_deviation=fit.max_deviation,
        threshold=config.norm.near_line_radius,
        berge=berge,
        hole=hole,
        omega=omega,
        chi=chi,
        subgraphs_checked=subgraph_samples,
        subgraphs_ok=ok,
    )


def to_uniform_multiset(measure, cap: int | None = None):
    """Clear denominators of a rational-weight measure into a point multiset.

    Each atom is replicated weight * lcm(denominators) times; the uniform
    distribution on the returned configuration (duplicates preserved) equals
    the original measure.
    """
    from .geometry import PointConfig

    caps_val = cap if cap is not None else resolve(None).replicas
    denom = math.lcm(*(w.denominator for w in measure.weights))
    counts = [int(w * denom) for w in measure.weights]
    total = sum(counts)
    if total > caps_val:
        raise ResourceCapExceeded(
            f"denominator clearing needs {total} replicas, cap is {caps_val}"
        )
    points = []
    for point, count in zip(measure.config.points, counts):
        points.extend([point] * count)
    return PointConfig(measure.config.norm, tuple(points))


def block_decomposition(subject, frame, alpha=None, caps: Caps | None = None):
    """Split a uniform multiset into pairwise-separated blocks.

    Colour classes of an optimal colouring of the strict distance graph:
    each class has pairwise distances >= 1 and the class count equals the
    clique number, hence is at most alpha * |S| when the concentration of
    the multiset is at most alpha.

    ``subject`` is a point configuration (multiset; duplicates kept) or a
    vector measure with all-equal weights. Measures with general rational
    weights are rejected; callers split them with ``to_uniform_multiset``.
    """
    from .chains import Block
    from .geometry import PointConfig, VectorMeasure, distance_graph

    caps = resolve(caps)
    if isinstance(subject, VectorMeasure):
        weights = subject.weights
        if any(w != weights[0] for w in weights):
            raise DomainError(
                "block decomposition needs a uniform multiset; "
                "clear denominators with to_uniform_multiset first"
            )
        config_in = subject.config
    elif isinstance(subject, PointConfig):
        config_in = subject
    else:
        raise DomainError("expected a PointConfig or a uniform VectorMeasure")
    points = list(config_in.points)
    raws = [frame.f_raw(p) for p in points]
    # canonical processing order: sort along the frame so colour classes and
    # greedy bounds follow the line geometry
    order = sorted(range(len(points)), key=lambda i: (raws[i], points[i]))
    sorted_points = [points[i] for i in order]
    config = PointConfig(config_in.norm, tuple(sorted_points))
    g = distance_graph(config)
    cert = chromatic_number(g, caps)
    omega = int(max_clique(g, caps=caps)[0])
    if cert.num_colors != omega:
        raise InvariantViolation(
            f"distance graph is not perfect here: chi={cert.num_colors}, omega={omega}"
        )
    if alpha is not None:
        bound = as_fraction(alpha) * len(points)
        if cert.num_colors > bound:
            raise InvariantViolation(
                f"colouring uses {cert.num_colors} classes, above alpha*|S| = {bound}"
            )
    # each class lists its vertices in increasing order, hence increasing f
    return [
        Block(tuple(sorted_points[v] for v in cls), tuple(raws[order[v]] for v in cls), frame)
        for cls in cert.classes
    ]
