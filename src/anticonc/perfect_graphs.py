"""Exact algorithms on small simple graphs.

Strict distance graphs of near-line point sets are Berge, hence perfect; the
solvers here certify that on concrete instances: maximum (weighted) clique by
branch and bound with greedy colouring bounds (at the root, one colouring of
the whole graph bounds every suffix of vertices; the witness is the greedy seed
when optimal, else the first best leaf in branch order), chromatic number by
backtracking below a DSATUR colouring on bitmasks, with the clique number as
lower bound, and shortest odd holes by an iterative-deepening search over
induced paths. That search skips vertices that share no hole with the path
(simplicial ones, Dirac 1961; in the complement, those beyond distance 2 in g,
as odd antiholes have diameter 2, Nikolopoulos and Palios 2004), prunes each
path by a breadth-first bound on the steps left to a vertex that could close
it, and stops deepening once no path can grow into a longer hole. Each rule
drops only branches without a hole of the length searched, so witnesses and
None answers are exact. Everything is deterministic: vertices lowest index
first, colours lowest first.

``is_berge`` first tries the order a graph built from points keeps (its x
sweep): with no umbrella, a < b < c with ac an edge and ab, bc non-edges,
the complement oriented along it is transitive, so the graph is perfect by
Dilworth's and Lovasz's perfect graph theorems, hence Berge, unsearched.

A graph is one adjacency bitmask per vertex, which the solvers read and
mask operations relabel, complement and check; its edge set is derived on
first use and its clique number searched once. n stays in the low hundreds.
"""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Optional, Sequence

from .caps import Caps, check
from .errors import DomainError, InvariantViolation
from .exact import _numerators, as_fraction


class DistGraph:
    """Immutable simple undirected graph on vertices 0..n-1: ``edges`` holds
    the pairs u < v, ``masks`` one adjacency bitmask per vertex. Each is
    derived from the other on first use: ``DistGraph(n, edges)`` checks the
    pairs, ``_from_masks`` takes masks built from a checked graph or config."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if type(n) is not int or n < 0:
            raise DomainError(f"graph size must be a nonnegative int, got {n!r}")
        edges = tuple(edges)
        for e in edges:
            if not (isinstance(e, (tuple, list)) and len(e) == 2 and all(type(u) is int for u in e)):
                raise DomainError(f"edge {e!r} is not a pair of ints")
            u, v = e
            if u == v:
                raise DomainError("self-loop in graph")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError("edge endpoint out of range")
        self.__dict__.update(n=n, edges=frozenset((min(e), max(e)) for e in edges))

    @classmethod
    def _from_masks(cls, n: int, masks: Sequence[int], order=None) -> "DistGraph":
        """The graph with these symmetric, loop-free masks, keeping the tuple ``order`` for ``is_berge``."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, masks=tuple(masks), _order=order)
        return g

    def __setattr__(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return isinstance(other, DistGraph) and (self.n, self.masks) == (other.n, other.masks)

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        m = [0] * self.n
        for u, v in self.edges:
            m[u] |= 1 << v
            m[v] |= 1 << u
        return tuple(m)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        pairs = []
        for u, m in enumerate(self.masks):
            m &= -(2 << u)
            while m:
                low = m & -m
                pairs.append((u, low.bit_length() - 1))
                m ^= low
        return frozenset(pairs)

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and self.masks[u] >> v & 1 == 1

    def complement(self) -> "DistGraph":
        full = (1 << self.n) - 1
        return DistGraph._from_masks(self.n, [full ^ m ^ 1 << v for v, m in enumerate(self.masks)])

    def induced(self, vertices: Sequence[int]) -> "DistGraph":
        """The subgraph on these distinct vertices, vertices[i] relabelled i."""
        order = list(vertices)
        if len(set(order)) < len(order):
            raise DomainError("repeated vertex in induced subgraph")
        if not all(0 <= v < self.n for v in order):
            raise DomainError("induced subgraph vertex out of range")
        bit, keep = [0] * self.n, 0  # bit[v]: v's bit after relabelling
        for i, v in enumerate(order):
            bit[v] = 1 << i
            keep |= 1 << v
        rows = []
        for v in order:
            m, row = self.masks[v] & keep, 0
            while m:
                low = m & -m
                row |= bit[low.bit_length() - 1]
                m ^= low
            rows.append(row)
        sub = DistGraph._from_masks(len(order), rows)
        if len(order) == self.n and "_omega" in self.__dict__:  # a permutation keeps it
            sub.__dict__["_omega"] = self._omega
        return sub

    def to_json(self) -> dict:
        return {"n": self.n, "edges": sorted(list(e) for e in self.edges)}

    @classmethod
    def from_json(cls, data: dict) -> "DistGraph":
        return cls(data["n"], data["edges"])


@dataclass(frozen=True)
class ColoringCertificate:
    num_colors: int
    classes: tuple[tuple[int, ...], ...]

    def verify(self, g: DistGraph) -> bool:
        seen = sorted(v for cls in self.classes for v in cls)
        if seen != list(range(g.n)) or len(self.classes) != self.num_colors:
            return False
        masks = g.masks
        for cls in self.classes:
            members = sum(1 << v for v in cls)
            if any(masks[v] & members for v in cls):
                return False
        return True


@dataclass(frozen=True)
class HoleWitness:
    cycle: tuple[int, ...]
    in_complement: bool

    def __post_init__(self):
        if len(self.cycle) < 5 or len(self.cycle) % 2 == 0:
            raise InvariantViolation("hole witness must be an odd cycle of length >= 5")

    def verify(self, g: DistGraph) -> bool:
        """Check the cycle is induced in g (or in its complement if flagged)."""
        cycle, k = self.cycle, len(self.cycle)
        if len(set(cycle)) != k or not all(0 <= v < g.n for v in cycle):
            return False
        on = sum(1 << v for v in cycle)
        for i, v in enumerate(cycle):
            ring = 1 << cycle[i - 1] | 1 << cycle[(i + 1) % k]
            if g.masks[v] & on != (on ^ 1 << v ^ ring if self.in_complement else ring):
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
    total, uncolored = 0, cand
    while uncolored:
        avail, cmax = uncolored, 0
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
    g: DistGraph, weights: Optional[Sequence[Fraction]] = None
) -> tuple[Fraction, tuple[int, ...]]:
    """Exact maximum weight clique; unit weights when none are given.

    Branch and bound over bitmask candidate sets, lowest vertex first, on
    integer weights. The root's candidates are a suffix {v ... n-1}, bounded
    by one greedy colouring of the whole graph; deeper nodes colour their own.
    The best changes only on a strict gain, so the witness is the greedy seed
    when that is optimal, else the first maximum-weight leaf in branch order.
    """
    check("clique", g.n)
    if weights is None:
        iw, denom = [1] * g.n, 1
    else:
        fw = [as_fraction(w) for w in weights]
        if len(fw) != g.n:
            raise DomainError("weight vector length mismatch")
        if any(w < 0 for w in fw):
            raise DomainError("negative clique weight")
        iw, denom = _numerators(fw)
    best_w, best_set = _clique_search(g, iw)
    if weights is None:
        g.__dict__["_omega"] = best_w
    return Fraction(best_w, denom), best_set


def _clique_number(g: DistGraph) -> int:
    """The clique number, searched once per graph: a unit-weight ``max_clique`` keeps it
    as ``_omega``, ``induced`` hands it to a full relabelling; over the clique cap it raises."""
    if "_omega" not in g.__dict__ or g.n > Caps.from_env().clique:
        max_clique(g)
    return g._omega


def _greedy_clique_size(masks: Sequence[int]) -> int:
    """The largest clique grown from each vertex by adding the lowest-index
    vertex adjacent to all chosen: a lower bound on the clique number."""
    best = 0
    for cand in masks:
        size = 1
        while cand:
            cand &= masks[(cand & -cand).bit_length() - 1]
            size += 1
        best = max(best, size)
    return best


def _clique_search(g: DistGraph, iw: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The search behind ``max_clique`` on nonnegative integer weights, one
    per vertex, already checked: the best weight and its witness."""
    masks = g.masks
    seed, on = [], 0  # greedy: descending weight, then index (a stable sort)
    for v in sorted(range(g.n), key=iw.__getitem__, reverse=True):
        if masks[v] & on == on:
            seed.append(v)
            on |= 1 << v
    return _branch_and_bound(masks, iw, _suffix_color_bounds(masks, iw), seed)


def _branch_and_bound(rows, iw: Sequence[int], root_bound: Sequence[int], seed: Sequence[int]):
    """Weighted clique branch and bound from a greedy ``seed``: the best weight
    and its witness. ``rows[v]`` masks v's neighbours, read only above v.
    ``root_bound[v]`` bounds the cliques with lowest vertex v; as it need not
    fall with v, a root it refutes is skipped alone."""
    best_w, best_set = sum(iw[v] for v in seed), sorted(seed)

    # depth-first on an explicit stack, lowest vertex first; a node is
    # dropped once its colour bound cannot beat the best clique
    cur: list[int] = []  # the vertices branched on down to the top open node
    stack = [[(1 << len(iw)) - 1, 0]]  # open nodes: [candidates left, clique weight]
    while stack:
        rest, cur_w = stack[-1]
        if not rest or cur and cur_w + _greedy_color_bound(rest, rows, iw) <= best_w:
            stack.pop()
            if cur:
                cur.pop()
            continue
        low = rest & -rest
        v = low.bit_length() - 1
        stack[-1][0] = rest ^ low
        if not cur and root_bound[v] <= best_w:
            continue
        cand = (rest ^ low) & rows[v]
        if cand:
            cur.append(v)
            stack.append([cand, cur_w + iw[v]])
        elif cur_w + iw[v] > best_w:
            best_w = cur_w + iw[v]
            best_set = sorted(cur + [v])

    return best_w, tuple(best_set)


# --- chromatic number -------------------------------------------------------


def _dsatur_greedy(g: DistGraph) -> list[int]:
    """DSATUR: the uncoloured vertex of highest saturation, then highest
    degree, then lowest index takes the lowest colour no neighbour has."""
    masks, n = g.masks, g.n
    # saturation * n + degree, -1 once coloured; index() finds the first,
    # lowest-index, of equals
    rank = [m.bit_count() for m in masks]
    seen = [0] * n  # bit c of seen[v] set once a neighbour of v has colour c
    colors, uncolored = [-1] * n, (1 << n) - 1
    for _ in range(n):
        v = rank.index(max(rank))
        rank[v] = -1
        uncolored ^= 1 << v
        free = ~seen[v] & (seen[v] + 1)  # the lowest clear bit
        colors[v] = free.bit_length() - 1
        nb = masks[v] & uncolored  # a coloured vertex keeps rank -1
        while nb:
            low = nb & -nb
            u = low.bit_length() - 1
            nb ^= low
            if not seen[u] & free:
                seen[u] |= free
                rank[u] += n
    return colors


def _classes_from_colors(colors: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    classes = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, c in enumerate(colors):
        classes[c].append(v)
    return tuple(map(tuple, classes))


def chromatic_number(g: DistGraph) -> ColoringCertificate:
    """Optimal colouring certificate by exact branch and bound.

    DSATUR greedy supplies the upper bound, the clique number the lower
    bound (a greedy clique over the clique cap); when they meet, DSATUR's
    colouring is the certificate. Otherwise, within the colouring cap,
    backtracking assigns vertices in index order trying colours in ascending
    order, which makes the certificate deterministic: the first optimal
    colouring, whatever the bound.
    """
    # any valid clique lower bound keeps the search exact; the exact clique
    # number just lets it stop earlier
    lb = _clique_number(g) if g.n <= Caps.from_env().clique else _greedy_clique_size(g.masks)
    best_colors = _dsatur_greedy(g)
    best_k = max(best_colors, default=-1) + 1
    if lb < best_k:
        check("coloring", g.n)  # the cap prices the backtrack alone
        masks = g.masks
        colors = [-1] * g.n
        # one stack level per vertex: cand[v] holds the colours v may still try
        # (-1 before v is opened), used[v] the number of colours used below v
        cand, used = [-1] * g.n, [0] * g.n
        v = 0
        while v >= 0:
            if cand[v] < 0:
                forbidden, below = 0, masks[v] & ((1 << v) - 1)  # those below v are coloured
                while below:
                    low = below & -below
                    forbidden |= 1 << colors[low.bit_length() - 1]
                    below ^= low
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
    frontier, dist = 1 << start, 0
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


def _shortest_odd_hole(g: DistGraph, check_complement: bool, first: int) -> Optional[HoleWitness]:
    """Shortest odd hole of length >= first; see ``find_odd_hole``."""
    check("odd_hole", g.n)
    n, gm = g.n, g.masks
    if check_complement:
        masks = g.complement().masks
        # the closed radius-2 ball in g around each vertex
        reach = [reduce(or_, [gm[u] for u in _iter_bits(m)], m | 1 << v) for v, m in enumerate(gm)]
    else:
        masks = gm
        live = _strip_simplicial(gm, (1 << n) - 1)
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


def find_odd_hole(g: DistGraph, check_complement: bool = False) -> Optional[HoleWitness]:
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
    return _shortest_odd_hole(g, check_complement, 5)


def cocomparability_order(g: DistGraph) -> Optional[tuple[int, ...]]:
    """The order g keeps if it has no umbrella, else None (also if g keeps
    none): for each b, no non-neighbour before b may be adjacent to one
    after it; only those adjacent to some earlier vertex are tested. A graph
    that keeps no order is not read, so its masks are not built."""
    order = g.__dict__.get("_order")
    if order is None:
        return None
    masks, done, reach = g.masks, 0, 0
    for b in order:
        before, cand = done & ~masks[b], reach & ~(masks[b] | done)
        while cand:
            low = cand & -cand
            if masks[low.bit_length() - 1] & before:
                return None
            cand ^= low
        done, reach = done | 1 << b, reach | masks[b]
    return order


def berge_path(ordering: Optional[Sequence[int]]) -> str:
    """Which path decided a Berge verdict: "ordering" when ``ordering`` certified it, else "search"."""
    return "search" if ordering is None else "ordering"


def is_berge(g: DistGraph) -> tuple[bool, Optional[HoleWitness]]:
    """(True, None), or (False, the shortest odd hole, else antihole). An order g keeps
    with no umbrella decides at any size (module docstring), else both searches run, each
    checked against the odd-hole cap first."""
    if cocomparability_order(g) is not None:
        return True, None
    witness = _shortest_odd_hole(g, False, 5)
    if witness is None:
        # C5 is self-complementary, so the complement has no C5 either
        witness = _shortest_odd_hole(g, True, 7)
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
    ordering: Optional[tuple[int, ...]] = None  # the order that certified Berge, if any

    @property
    def decided_by(self) -> str:
        return berge_path(self.ordering)

    @property
    def ok(self) -> bool:
        return (
            self.near_line_certified
            and self.berge
            and self.omega == self.chi
            and self.subgraphs_ok == self.subgraphs_checked
        )


def verify_perfection_near_line(config, subgraph_samples: int = 20, seed: int = 0) -> PerfectionReport:
    """Certify Berge plus omega == chi for a near-line point configuration.

    The near-line precondition is checked first and reported rather than
    silently assumed; the graph checks run either way so a violating input
    shows exactly what breaks.
    """
    from .geometry import distance_graph, near_line_fit

    fit = near_line_fit(config, early_stop=True)
    g = distance_graph(config)
    berge, hole = is_berge(g)
    omega = _clique_number(g)
    chi = chromatic_number(g).num_colors
    rng = random.Random(seed)
    ok = 0
    for _ in range(subgraph_samples):
        sub = g.induced(sorted(rng.sample(range(g.n), rng.randint(1, g.n) if g.n else 0)))
        ok += chromatic_number(sub).num_colors == _clique_number(sub)
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
        ordering=cocomparability_order(g),  # only a Berge graph has one
    )


def to_uniform_multiset(measure):
    """Clear denominators of a rational-weight measure into a point multiset.

    Each atom is replicated weight * lcm(denominators) times, so the
    multiset has lcm(denominators) points; over the ``replicas`` cap it
    raises. The uniform distribution on the returned configuration
    (duplicates preserved) equals the original measure. The counts are the
    measure's integer weights, and the multiset keeps the integer form of
    its points.
    """
    from .geometry import PointConfig

    counts, total = measure._ints
    check("replicas", total)
    s, ipts = measure.config.scaled
    points = [p for p, count in zip(ipts, counts) for _ in range(count)]
    return PointConfig._from_scaled(measure.config.norm, s, points)


def block_decomposition(subject, frame, alpha=None):
    """Split a uniform multiset into pairwise-separated blocks.

    Colour classes of an optimal colouring of the strict distance graph:
    each class has pairwise distances >= 1 and the class count equals the
    clique number, hence is at most alpha * |S| when the concentration of
    the multiset is at most alpha.

    ``subject`` is a point configuration, read as a multiset (duplicates
    kept). Callers turn a vector measure into one with
    ``to_uniform_multiset``.
    """
    from .chains import Block
    from .geometry import PointConfig, _check_dims, distance_graph

    if not isinstance(subject, PointConfig):
        raise DomainError(
            "block decomposition needs a uniform multiset as a PointConfig; "
            "clear denominators with to_uniform_multiset first"
        )
    s, ipts = subject.scaled
    _check_dims(frame.norm, *ipts[:1])  # a config's points share one dimension
    dots = frame._dots(ipts)
    # canonical processing order: sort along the frame so colour classes and
    # greedy bounds follow the line geometry; (f_raw, point) is the order of
    # the integer (numerator, point), as both are scaled by positive ints
    order = sorted(range(len(ipts)), key=lambda i: (dots[i], ipts[i]))
    g = distance_graph(subject).induced(order)
    omega = _clique_number(g)  # over the clique cap this raises before any colouring
    cert = chromatic_number(g)
    if cert.num_colors != omega:
        raise InvariantViolation(
            f"distance graph is not perfect here: chi={cert.num_colors}, omega={omega}"
        )
    if alpha is not None:
        bound = as_fraction(alpha) * len(ipts)
        if cert.num_colors > bound:
            raise InvariantViolation(
                f"colouring uses {cert.num_colors} classes, above alpha*|S| = {bound}"
            )
    # each class lists its vertices in increasing order, hence increasing f
    return [
        Block._from_scaled(frame, s, [ipts[order[v]] for v in cls], [dots[order[v]] for v in cls])
        for cls in cert.classes
    ]
