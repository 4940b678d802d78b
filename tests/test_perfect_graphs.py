import itertools
import math
import random
from fractions import Fraction as F

import pytest

from anticonc.caps import Caps
from anticonc.errors import DomainError, ResourceCapExceeded
from anticonc.geometry import (
    PointConfig,
    VectorMeasure,
    distance_graph,
    l1,
    l2,
    linf,
    product_sum_measure,
)
from anticonc.perfect_graphs import (
    ColoringCertificate,
    _classes_from_colors,
    _dsatur_greedy,
    _greedy_color_bound,
    _strip_simplicial,
    _suffix_color_bounds,
    DistGraph,
    block_decomposition,
    chromatic_number,
    find_odd_hole,
    is_berge,
    max_clique,
    to_uniform_multiset,
    verify_perfection_near_line,
)


def cycle_graph(n):
    return DistGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def octagon_circulant():
    edges = {(min(i, (i + s) % 8), max(i, (i + s) % 8)) for i in range(8) for s in (1, 2)}
    return DistGraph(8, frozenset(edges))


def random_graph(rng, n, p=0.5):
    edges = {
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    }
    return DistGraph(n, frozenset(edges))


# --- brute-force oracles ------------------------------------------------------


def brute_max_clique_weight(g, weights):
    best = F(0)
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                w = sum((weights[v] for v in subset), F(0))
                if w > best:
                    best = w
    return best


def brute_is_colorable(g, k):
    for assignment in itertools.product(range(k), repeat=g.n):
        if all(assignment[u] != assignment[v] for u, v in g.edges):
            return True
    return False


def ref_coloring_classes(g, caps):
    """The recursive colouring backtrack, one call per vertex."""
    greedy = _dsatur_greedy(g)
    best_k = max(greedy) + 1
    best_colors = greedy[:]
    lb = int(max_clique(g, caps=caps)[0]) if g.n <= caps.clique else 1
    colors = [-1] * g.n

    def backtrack(v, used):
        nonlocal best_k, best_colors
        if used >= best_k:
            return False
        if v == g.n:
            best_k, best_colors = used, colors[:]
            return best_k == lb
        forbidden = {colors[u] for u in range(g.n) if g.masks[v] >> u & 1}
        for c in range(min(used + 1, best_k - 1)):
            if c not in forbidden:
                colors[v] = c
                if backtrack(v + 1, max(used, c + 1)):
                    return True
                colors[v] = -1
        return False

    if lb < best_k:
        backtrack(0, 0)
    return _classes_from_colors(best_colors)


def brute_has_odd_hole(g):
    for size in range(5, g.n + 1, 2):
        for subset in itertools.combinations(range(g.n), size):
            sub = g.induced(subset)
            if all(sub.degree(v) == 2 for v in range(size)) and _connected(sub):
                return True
    return False


def _connected(g):
    if g.n == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in range(g.n):
            if u not in seen and g.has_edge(u, v):
                seen.add(u)
                frontier.append(u)
    return len(seen) == g.n


class TestDistGraph:
    def test_canonicalizes_edges(self):
        g = DistGraph(3, frozenset([(2, 0), (0, 2), (1, 2)]))
        assert g.edges == frozenset([(0, 2), (1, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(DomainError):
            DistGraph(3, frozenset([(1, 1)]))

    def test_canonical_edges_kept_as_given(self):
        edges = frozenset([(0, 1), (1, 3), (0, 3)])
        assert DistGraph(4, edges).edges is edges

    def test_reversed_and_duplicate_edges(self):
        assert DistGraph(4, frozenset([(3, 1), (1, 0)])).edges == {(1, 3), (0, 1)}
        g = DistGraph(4, frozenset([(2, 0), (0, 2), (3, 2)]))
        assert g.edges == frozenset([(0, 2), (2, 3)]) and g.degree(2) == 2
        g = DistGraph(3, [(0, 1), (0, 1), (1, 2)])
        assert isinstance(g.edges, frozenset) and g.edges == {(0, 1), (1, 2)}

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (2, 2)], "self-loop in graph"),
            ([(1, 0), (3, 3)], "self-loop in graph"),
            ([(0, 4)], "edge endpoint out of range"),
            ([(4, 0)], "edge endpoint out of range"),
            ([(-1, 2)], "edge endpoint out of range"),
            ([(2, -1)], "edge endpoint out of range"),
        ],
    )
    def test_bad_edges_rejected(self, edges, message):
        with pytest.raises(DomainError, match=message):
            DistGraph(4, frozenset(edges))

    def test_complement_of_cycle(self):
        c5 = cycle_graph(5)
        assert c5.complement().edges == frozenset(
            [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
        )

    def test_json_roundtrip(self):
        g = octagon_circulant()
        assert DistGraph.from_json(g.to_json()) == g


def ref_max_clique(g, weights):
    """The recursive clique branch and bound, one call per clique vertex."""
    denom = math.lcm(*(w.denominator for w in weights))
    iw = [int(w * denom) for w in weights]
    masks = g.masks
    seed = []
    for v in sorted(range(g.n), key=lambda v: (-iw[v], v)):
        if all(masks[v] >> u & 1 for u in seed):
            seed.append(v)
    best_w, best_set = sum(iw[v] for v in seed), sorted(seed)

    def expand(cand, cur_w, cur):
        nonlocal best_w, best_set
        if cand == 0:
            if cur_w > best_w:
                best_w, best_set = cur_w, sorted(cur)
            return
        if cur_w + _greedy_color_bound(cand, masks, iw) <= best_w:
            return
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            cur.append(v)
            expand(rest & masks[v], cur_w + iw[v], cur)
            cur.pop()
            if cur_w + _greedy_color_bound(rest, masks, iw) <= best_w:
                return

    expand((1 << g.n) - 1, 0, [])
    return F(best_w, denom), tuple(best_set)


def near_line_sum_graphs(seed, count):
    """Distance graphs of seeded near-line product sums with 200-400 atoms,
    vertices in the sum's sorted (x-first) order, with the sum's weights."""
    rng = random.Random(seed)
    norms = [l2, l1, linf]
    out = []
    while len(out) < count:
        norm = norms[len(out) % 3](2)
        ms = []
        for _ in range(3):
            pts = tuple((F(rng.randint(0, 64), 16), F(rng.randint(-3, 3), 16))
                        for _ in range(rng.randint(5, 8)))
            ws = [rng.randint(1, 5) for _ in pts]
            ms.append(VectorMeasure(PointConfig(norm, pts), tuple(F(w, sum(ws)) for w in ws)))
        total = product_sum_measure(ms)
        if 200 <= len(total.points) <= 400:
            out.append((distance_graph(total.config), list(total.weights)))
    return out


def brute_suffix_cliques(g, weights):
    """best[v]: the heaviest clique inside {v ... n-1}, by enumeration."""
    best = [0] * (g.n + 1)
    for mask in range(1, 1 << g.n):
        vs = [v for v in range(g.n) if mask >> v & 1]
        if all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2)):
            best[vs[0]] = max(best[vs[0]], sum(weights[v] for v in vs))
    for v in range(g.n - 1, -1, -1):
        best[v] = max(best[v], best[v + 1])
    return best[:g.n]


class TestMaxClique:
    def test_empty_graph_single_vertex(self):
        g = DistGraph(5, frozenset())
        value, witness = max_clique(g)
        assert value == 1 and len(witness) == 1

    def test_octagon_circulant_three(self):
        value, witness = max_clique(octagon_circulant())
        assert value == 3
        for u, v in itertools.combinations(witness, 2):
            assert octagon_circulant().has_edge(u, v)

    def test_weighted_triangle(self):
        g = DistGraph(3, frozenset([(0, 1), (0, 2), (1, 2)]))
        value, witness = max_clique(g, weights=[F(1, 2), F(1, 4), F(1, 4)])
        assert value == 1 and set(witness) == {0, 1, 2}

    def test_cap(self):
        g = DistGraph(6, frozenset())
        with pytest.raises(ResourceCapExceeded):
            max_clique(g, caps=Caps(clique=5))

    def test_against_brute_force(self):
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            weights = [F(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(n)]
            total = sum(weights)
            weights = [w / total for w in weights]
            value, witness = max_clique(g, weights=weights)
            assert value == brute_max_clique_weight(g, weights)
            for u, v in itertools.combinations(witness, 2):
                assert g.has_edge(u, v)
            assert sum((weights[v] for v in witness), F(0)) == value

    def test_unweighted_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, 0.5)
            value, _ = max_clique(g)
            assert value == brute_max_clique_weight(g, [F(1)] * n)

    def test_matches_recursive_reference(self):
        # same value and same witness: the stack search branches and prunes
        # in the recursive order
        rng = random.Random(2024)
        for _ in range(120):
            n = rng.randint(1, 40)
            g = random_graph(rng, n, 0.2 + 0.7 * rng.random())
            if rng.random() < 0.25:
                weights = [F(1)] * n
            else:
                weights = [F(rng.randint(0, 9), rng.randint(1, 6)) for _ in range(n)]
            assert max_clique(g, weights=weights) == ref_max_clique(g, weights)
        # x-sorted near-line sums: the graphs the root suffix bound is for
        for g, weights in near_line_sum_graphs(2025, 6):
            assert max_clique(g, weights=weights) == ref_max_clique(g, weights)

    def test_suffix_bounds_dominate_suffix_cliques(self):
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, 0.15 + 0.8 * rng.random())
            iw = [rng.choice([0, 0, 1, 2, 5, 9]) for _ in range(n)]
            suffix = _suffix_color_bounds(g.masks, iw)
            best = brute_suffix_cliques(g, iw)
            assert all(s >= b for s, b in zip(suffix, best))
            assert suffix[0] <= sum(iw)

    def test_deep_clique_past_recursion_limit(self):
        # the heavy isolated vertex seeds the bound at 1000, so the search
        # walks the whole 1,100-clique one level per vertex
        n = 1100
        g = DistGraph(n + 1, frozenset(itertools.combinations(range(n), 2)))
        value, witness = max_clique(g, weights=[F(1)] * n + [F(1000)], caps=Caps(clique=2000))
        assert value == n
        assert witness == tuple(range(n))


class TestChromaticNumber:
    def test_empty_graph_one_color(self):
        cert = chromatic_number(DistGraph(4, frozenset()))
        assert cert.num_colors == 1 and cert.verify(DistGraph(4, frozenset()))

    def test_c5_needs_three(self):
        assert chromatic_number(cycle_graph(5)).num_colors == 3

    def test_octagon_circulant_four(self):
        # omega is 3 but the independence number is 2, so 4 colors are
        # needed; brute force over all 3-colorings confirms (the graph
        # contains the odd hole 0-1-3-5-6 and is not perfect)
        g = octagon_circulant()
        cert = chromatic_number(g)
        assert cert.num_colors == 4
        assert cert.verify(g)
        assert not brute_is_colorable(g, 3)
        assert find_odd_hole(g) is not None

    def test_optimal_against_brute_force(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, 0.5)
            cert = chromatic_number(g)
            assert cert.verify(g)
            assert brute_is_colorable(g, cert.num_colors)
            if cert.num_colors > 1:
                assert not brute_is_colorable(g, cert.num_colors - 1)

    def test_deterministic(self):
        g = octagon_circulant()
        assert chromatic_number(g) == chromatic_number(g)

    @pytest.mark.parametrize("caps", [Caps(), Caps(clique=0)], ids=["clique-lb", "lb-1"])
    def test_matches_recursive_reference(self, caps):
        # about one graph in eight needs fewer colours than DSATUR finds
        rng = random.Random(148)
        for _ in range(80):
            g = random_graph(rng, rng.randint(8, 22), 0.3 + 0.4 * rng.random())
            assert chromatic_number(g, caps).classes == ref_coloring_classes(g, caps)

    def test_complete_graph_past_recursion_limit(self):
        # the clique cap stays 500, so the lower bound is 1 and the
        # backtrack walks 1,100 vertices deep before it gives up
        n = 1100
        g = DistGraph(n, frozenset(itertools.combinations(range(n), 2)))
        cert = chromatic_number(g, Caps(coloring=2000))
        assert cert.num_colors == n
        assert cert.classes == tuple((v,) for v in range(n))


class TestOddHoles:
    def test_small_graphs_have_none(self):
        rng = random.Random(1)
        for _ in range(10):
            g = random_graph(rng, 4, 0.7)
            assert find_odd_hole(g) is None

    def test_c5_found(self):
        w = find_odd_hole(cycle_graph(5))
        assert w is not None and len(w.cycle) == 5
        assert w.verify(cycle_graph(5))

    def test_c7_found_and_shortest_preferred(self):
        # disjoint C7 and C5: the shortest odd hole has length 5
        edges = set(cycle_graph(7).edges)
        edges |= {(7 + i, 7 + (i + 1) % 5) for i in range(5)}
        edges = {(min(u, v), max(u, v)) for u, v in edges}
        g = DistGraph(12, frozenset(edges))
        w = find_odd_hole(g)
        assert w is not None and len(w.cycle) == 5

    def test_complement_search(self):
        w = find_odd_hole(cycle_graph(5), check_complement=True)
        assert w is not None and w.in_complement and w.verify(cycle_graph(5))

    def test_even_cycle_is_berge(self):
        ok, witness = is_berge(cycle_graph(6))
        assert ok and witness is None

    def test_against_brute_force(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(5, 9)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            found = find_odd_hole(g)
            assert (found is not None) == brute_has_odd_hole(g)
            if found is not None:
                assert found.verify(g)



# --- reference odd-hole search --------------------------------------------------
# The unpruned induced-path search that the pruned one replaced, kept verbatim
# as the oracle: a full depth-first search for every odd length 5, 7, ..., n.


def _iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ref_induced_odd_cycle(masks, n, length):
    full = (1 << n) - 1
    for s in range(n):
        above = full & ~((1 << (s + 1)) - 1)
        n_s = masks[s]
        for p1 in _iter_bits(n_s & above):
            stack = [([s, p1], (1 << s) | (1 << p1), 0)]
            while stack:
                path, pmask, forbid = stack.pop()
                last = path[-1]
                if len(path) == length - 1:
                    closers = masks[last] & n_s & above & ~forbid & ~pmask
                    for v in _iter_bits(closers):
                        if v > path[1]:
                            return tuple(path) + (v,)
                    continue
                nxt = masks[last] & above & ~n_s & ~forbid & ~pmask
                new_forbid = forbid | masks[last]
                for v in _iter_bits(nxt):
                    stack.append((path + [v], pmask | (1 << v), new_forbid))
    return None


def ref_odd_hole(g):
    for length in range(5, g.n + 1, 2):
        cycle = _ref_induced_odd_cycle(g.masks, g.n, length)
        if cycle is not None:
            return cycle
    return None


def nx_shortest_odd_hole_length(g):
    """Shortest odd chordless cycle of length >= 5 by networkx, or None."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    lengths = [len(c) for c in nx.chordless_cycles(h) if len(c) >= 5 and len(c) % 2]
    return min(lengths, default=None)


def planted_hole_graph(rng, length, extra, p):
    """An induced odd cycle on random labels plus extra vertices wired at random.

    Extra vertices join each other and the cycle with probability p; no edge
    joins two cycle vertices, so the planted cycle stays induced.
    """
    n = length + extra
    label = list(range(n))
    rng.shuffle(label)
    edges = {(label[i], label[(i + 1) % length]) for i in range(length)}
    for u in range(length, n):
        for v in range(u):
            if rng.random() < p:
                edges.add((label[u], label[v]))
    return DistGraph(n, frozenset((min(e), max(e)) for e in edges))


class TestOddHoleOracles:
    """The pruned search returns the reference witness and the true length."""

    def _check(self, g):
        expected = ref_odd_hole(g)
        found = find_odd_hole(g)
        assert (None if found is None else found.cycle) == expected
        length = nx_shortest_odd_hole_length(g)
        assert (None if found is None else len(found.cycle)) == length
        comp = find_odd_hole(g, check_complement=True)
        assert (None if comp is None else comp.cycle) == ref_odd_hole(g.complement())
        berge, witness = is_berge(g)
        assert witness == (found if found is not None else comp)
        assert berge == (witness is None)

    def test_random_graphs_and_complements(self):
        rng = random.Random(2024)
        for _ in range(150):
            n = rng.randint(5, 14)
            self._check(random_graph(rng, n, rng.uniform(0.15, 0.6)))

    @pytest.mark.parametrize("length", [5, 7, 9, 11, 13])
    def test_planted_holes(self, length):
        rng = random.Random(length)
        for _ in range(12):
            g = planted_hole_graph(rng, length, rng.randint(0, 3), rng.uniform(0.1, 0.5))
            assert find_odd_hole(g) is not None
            self._check(g)
            self._check(g.complement())

    def test_antihole_found_in_complement(self):
        g = cycle_graph(7).complement()
        berge, witness = is_berge(g)
        assert not berge and witness.in_complement
        assert witness.cycle == ref_odd_hole(cycle_graph(7))

    @pytest.mark.parametrize("norm", [l2(2), l1(2), linf(2)], ids=lambda n: n.kind)
    @pytest.mark.parametrize("n", [60, 64])
    def test_large_near_line_sets_are_berge(self, norm, n):
        # 64 is the default odd_hole cap; the unpruned search took minutes
        # at 60 points, so an exponential regression shows as a slow run
        from anticonc.geometry import distance_graph, near_line_fit

        rng = random.Random(n)
        ymax = 12 if norm.is_hilbert else 3
        pts = tuple(
            (F(rng.randint(0, 32 * n // 6), 32), F(rng.randint(-ymax, ymax), 32))
            for _ in range(n)
        )
        cfg = PointConfig(norm, pts)
        assert near_line_fit(cfg, early_stop=True).certified
        assert is_berge(distance_graph(cfg)) == (True, None)


def _mask(vertices):
    return sum(1 << v for v in vertices)


def _ball2(g, v):
    """The closed radius-2 ball of v in g, as a bitmask."""
    ball = g.masks[v] | 1 << v
    for u in _iter_bits(g.masks[v]):
        ball |= g.masks[u]
    return ball


def planted_antihole_graph(rng, length, tail, p):
    """An induced odd antihole on shuffled labels with a path of tail vertices
    hanging off one antihole vertex.

    Tail vertices two or more steps apart along the path join with
    probability p. From the second tail vertex on, each is at distance at
    least 2 from the antihole vertex the path hangs off and at least 3 from
    every other antihole vertex, outside their radius-2 balls.
    """
    n = length + tail
    label = list(range(n))
    rng.shuffle(label)
    edges = {
        (label[i], label[j])
        for i in range(length)
        for j in range(i + 2, length)
        if (i, j) != (0, length - 1)
    }
    path = [0] + list(range(length, n))
    edges |= {(label[a], label[b]) for a, b in zip(path, path[1:])}
    for i in range(1, len(path)):
        for j in range(i + 2, len(path)):
            if rng.random() < p:
                edges.add((label[path[i]], label[path[j]]))
    g = DistGraph(n, frozenset((min(e), max(e)) for e in edges))
    return g, [label[i] for i in range(length)], [label[v] for v in path[1:]]


def chordal_hung_hole(rng, length, extra):
    """An induced C_length on shuffled labels, then extra vertices added one
    at a time, each joined to one vertex or to both ends of one edge.

    Each vertex is simplicial when added, so removing simplicial vertices
    repeatedly strips every extra vertex (later ones first where they hang
    off earlier ones) and leaves exactly the cycle.
    """
    n = length + extra
    label = list(range(n))
    rng.shuffle(label)
    edges = [(i, (i + 1) % length) for i in range(length)]
    for w in range(length, n):
        # favour recent edges, so extra vertices hang off extra vertices
        u, v = edges[rng.randrange(max(0, len(edges) - 6), len(edges))]
        edges.append((u, w))
        if rng.random() < 0.7:
            edges.append((v, w))
    relabelled = ((label[a], label[b]) for a, b in edges)
    g = DistGraph(n, frozenset((min(e), max(e)) for e in relabelled))
    return g, [label[i] for i in range(length)]


def ref_strip_simplicial(g):
    """Remove any simplicial vertex, by edge lookups, until none is left."""
    live = set(range(g.n))
    while True:
        for v in sorted(live):
            nb = [u for u in live if g.has_edge(u, v)]
            if all(g.has_edge(a, b) for a, b in itertools.combinations(nb, 2)):
                live.remove(v)
                break
        else:
            return _mask(live)


class TestStructuralPruning:
    """Antihole balls and simplicial stripping keep every witness and None
    of the unpruned reference search."""

    @pytest.mark.parametrize("length", [7, 9, 11])
    def test_planted_antiholes(self, length):
        rng = random.Random(100 + length)
        for _ in range(6):
            g, antihole, tail = planted_antihole_graph(
                rng, length, rng.randint(3, 20 - length), rng.uniform(0, 0.4)
            )
            # the tail's far end lies outside the ball of most antihole vertices
            assert sum(not _ball2(g, v) >> tail[-1] & 1 for v in antihole) >= length - 1
            comp = find_odd_hole(g, check_complement=True)
            expected = ref_odd_hole(g.complement())
            assert comp is not None and comp.in_complement
            assert comp.cycle == expected and len(expected) <= length
            hole = find_odd_hole(g)
            assert (None if hole is None else hole.cycle) == ref_odd_hole(g)
            assert is_berge(g) == (False, hole if hole is not None else comp)

    def test_lone_antiholes_found_from_any_labels(self):
        rng = random.Random(7)
        for length in (5, 7, 9, 11, 13):
            g, antihole, _ = planted_antihole_graph(rng, length, 0, 0)
            comp = find_odd_hole(g, check_complement=True)
            assert sorted(comp.cycle) == sorted(antihole)
            assert comp.cycle == ref_odd_hole(g.complement())

    @pytest.mark.parametrize("length", [5, 7, 9])
    def test_simplicial_cascade_leaves_the_hole(self, length):
        rng = random.Random(200 + length)
        for _ in range(10):
            g, cycle = chordal_hung_hole(rng, length, rng.randint(1, 18 - length))
            assert _strip_simplicial(g.masks, (1 << g.n) - 1) == _mask(cycle)
            hole = find_odd_hole(g)
            assert sorted(hole.cycle) == sorted(cycle)
            assert hole.cycle == ref_odd_hole(g)
            comp = find_odd_hole(g, check_complement=True)
            assert (None if comp is None else comp.cycle) == ref_odd_hole(g.complement())

    def test_chordal_graphs_strip_to_nothing(self):
        rng = random.Random(9)
        for _ in range(20):
            g, _ = chordal_hung_hole(rng, 3, rng.randint(0, 15))  # a triangle, not a hole
            assert _strip_simplicial(g.masks, (1 << g.n) - 1) == 0
            assert find_odd_hole(g) is None and ref_odd_hole(g) is None

    def test_strip_matches_reference(self):
        rng = random.Random(12)
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 14), rng.uniform(0.05, 0.6))
            assert _strip_simplicial(g.masks, (1 << g.n) - 1) == ref_strip_simplicial(g)

    def test_seeded_sweep_both_orientations(self):
        rng = random.Random(2026)
        for i in range(1200):
            kind = i % 4
            if kind == 0:
                g = random_graph(rng, rng.randint(5, 18), rng.uniform(0.1, 0.9))
            elif kind == 1:
                length, extra = rng.choice([5, 7, 9, 11]), rng.randint(0, 7)
                g = planted_hole_graph(rng, length, extra, rng.uniform(0.05, 0.4))
            elif kind == 2:
                length, tail = rng.choice([5, 7, 9]), rng.randint(0, 9)
                g = planted_antihole_graph(rng, length, tail, rng.uniform(0, 0.5))[0]
            else:
                g = chordal_hung_hole(rng, rng.choice([3, 5, 7, 9]), rng.randint(0, 9))[0]
            if rng.random() < 0.3:
                g = g.complement()
            for check_complement in (False, True):
                found = find_odd_hole(g, check_complement)
                expected = ref_odd_hole(g.complement() if check_complement else g)
                assert (None if found is None else found.cycle) == expected


class TestCliqueOracle:
    """Clique values agree with networkx ``max_weight_clique``."""

    def test_random_graphs_unweighted_and_integer_weights(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(1505)
        for _ in range(150):
            n = rng.randint(1, 14)
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges)
            ints = [rng.randint(1, 9) for _ in range(n)]
            nx.set_node_attributes(h, dict(enumerate(ints)), "weight")
            for weights, attr in ((None, None), ([F(w) for w in ints], "weight")):
                value, witness = max_clique(g, weights=weights)
                assert value == nx.max_weight_clique(h, weight=attr)[1]
                assert all(g.has_edge(u, v) for u, v in itertools.combinations(witness, 2))
                assert value == sum(1 if attr is None else ints[v] for v in witness)


class TestPerfectionNearLine:
    def test_l2_strip(self):
        rng = random.Random(5)
        pts = tuple(
            (F(rng.randint(0, 128), 32), F(rng.randint(-12, 12), 32))
            for _ in range(10)
        )
        report = verify_perfection_near_line(PointConfig(l2(2), pts), seed=1)
        assert report.near_line_certified and report.ok

    def test_l1_strip(self):
        rng = random.Random(6)
        pts = tuple(
            (F(rng.randint(0, 128), 32), F(rng.randint(-3, 3), 32))
            for _ in range(12)
        )
        report = verify_perfection_near_line(PointConfig(l1(2), pts), seed=2)
        assert report.near_line_certified and report.ok

    def test_collinear_interval_graph(self):
        pts = tuple((F(i, 3), F(0)) for i in range(9))
        report = verify_perfection_near_line(PointConfig(l2(2), pts), seed=3)
        assert report.ok and report.berge


class TestBlockDecomposition:
    def test_multiset_with_duplicate(self):
        from anticonc.geometry import near_line_fit

        cfg = PointConfig(l2(1), ((F(0),), (F(0),), (F(1),)))
        fit = near_line_fit(cfg)
        blocks = block_decomposition(cfg, fit.frame)
        sets = sorted(sorted(str(p[0]) for p in b.points) for b in blocks)
        assert sets == [["0"], ["0", "1"]]

    def test_triangle_with_center(self):
        # near-equilateral triangle with side > 1 and its centroid: the
        # decomposition separates the three-point block from the center
        from anticonc.geometry import near_line_fit, supporting_functional

        apex_y = F(953, 1000)
        pts = (
            (F(0), F(0)),
            (F(11, 10), F(0)),
            (F(11, 20), apex_y),
            (F(11, 20), apex_y / 3),
        )
        cfg = PointConfig(l2(2), pts)
        frame = supporting_functional(l2(2), (F(1), F(0)))
        blocks = block_decomposition(cfg, frame)
        sizes = sorted(len(b.points) for b in blocks)
        assert sizes == [1, 3]

    def test_singleton(self):
        from anticonc.geometry import supporting_functional

        cfg = PointConfig(l2(2), ((F(1), F(0)),))
        frame = supporting_functional(l2(2), (F(1), F(0)))
        blocks = block_decomposition(cfg, frame)
        assert len(blocks) == 1 and len(blocks[0].points) == 1

    def test_rejects_non_uniform_measure(self):
        from anticonc.geometry import supporting_functional

        vm = VectorMeasure(
            PointConfig(l2(2), ((F(0), F(0)), (F(2), F(0)))),
            (F(1, 3), F(2, 3)),
        )
        frame = supporting_functional(l2(2), (F(1), F(0)))
        with pytest.raises(DomainError):
            block_decomposition(vm, frame)

    def test_uniform_multiset_clearing(self):
        vm = VectorMeasure(
            PointConfig(l2(2), ((F(0), F(0)), (F(2), F(0)))),
            (F(1, 4), F(3, 4)),
        )
        cfg = to_uniform_multiset(vm)
        assert len(cfg.points) == 4
        assert cfg.points.count((F(2), F(0))) == 3

    def test_concentration_two_routes_agree(self):
        # Q of a uniform multiset: clique number over the multiset size must
        # equal the weighted clique value of the merged measure
        from anticonc.geometry import concentration_q, distance_graph

        rng = random.Random(55)
        for _ in range(20):
            size = rng.randint(2, 16)
            pts = []
            for _ in range(size):
                if pts and rng.random() < 0.3:
                    pts.append(pts[rng.randrange(len(pts))])
                else:
                    pts.append(
                        (F(rng.randint(0, 48), 16), F(rng.randint(-4, 4), 16))
                    )
            cfg = PointConfig(l2(2), tuple(pts))
            omega = int(max_clique(distance_graph(cfg))[0])
            merged = VectorMeasure(cfg, tuple(F(1, size) for _ in pts))
            assert concentration_q(merged).value == F(omega, size)

    def test_blocks_feed_chain_decomposition(self):
        # decomposition output is directly usable as chain input: same
        # frame, certified separations
        from anticonc.chains import iterated_decompose, middle_layer_count
        from anticonc.geometry import near_line_fit

        rng = random.Random(77)
        for _ in range(5):
            size = rng.randint(6, 14)
            pts = tuple(
                (F(rng.randint(0, 64), 16), F(rng.randint(-5, 5), 16))
                for _ in range(size)
            )
            cfg = PointConfig(l2(2), pts)
            fit = near_line_fit(cfg, early_stop=True)
            assert fit.certified
            blocks = block_decomposition(cfg, fit.frame)
            decomp = iterated_decompose(blocks)
            ks = [len(b.points) for b in blocks]
            assert len(decomp.chains) == middle_layer_count(ks)

    def test_class_count_bound(self):
        from anticonc.geometry import concentration_q, near_line_fit

        rng = random.Random(12)
        for _ in range(10):
            n = rng.randint(4, 20)
            pts = tuple(
                (F(rng.randint(0, 96), 16), F(rng.randint(-6, 6), 16))
                for _ in range(n)
            )
            cfg = PointConfig(l2(2), pts)
            fit = near_line_fit(cfg, early_stop=True)
            assert fit.certified
            uniform = VectorMeasure(cfg, tuple(F(1, n) for _ in range(n)))
            alpha = concentration_q(uniform).value
            blocks = block_decomposition(cfg, fit.frame, alpha=alpha)
            assert len(blocks) <= alpha * n
            assert sum(len(b.points) for b in blocks) == n


class TestCertificates:
    def test_certificate_verification_rejects_bad(self):
        g = cycle_graph(5)
        bad = ColoringCertificate(2, ((0, 1, 2), (3, 4)))
        assert not bad.verify(g)

    def test_hole_witness_checks_both_orientations(self):
        from anticonc.perfect_graphs import HoleWitness

        c7 = cycle_graph(7)
        anti = c7.complement()
        cycle = tuple(range(7))
        assert HoleWitness(cycle, False).verify(c7)
        assert not HoleWitness(cycle, True).verify(c7)
        assert HoleWitness(cycle, True).verify(anti)
        assert not HoleWitness(cycle, False).verify(anti)
        # a repeated vertex, a vertex off the graph, a chord in the complement
        assert not HoleWitness((0, 1, 2, 3, 4, 5, 0), True).verify(anti)
        assert not HoleWitness((0, 1, 2, 3, 4, 5, 7), True).verify(anti)
        assert not HoleWitness((0, 1, 2, 3, 5), True).verify(anti)
