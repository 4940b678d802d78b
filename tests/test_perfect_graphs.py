import importlib.util
import itertools
import math
import random
import re
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from conftest import caps_env

from anticonc.caps import Caps
from anticonc.errors import DomainError, InvariantViolation, ResourceCapExceeded
from anticonc.geometry import (
    NormSpec,
    PointConfig,
    VectorMeasure,
    distance_graph,
    l1,
    l2,
    linf,
    lp,
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
    HoleWitness,
    block_decomposition,
    chromatic_number,
    cocomparability_order,
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


def ref_dsatur_greedy(g):
    """DSATUR on sets: neighbour colours as one set per vertex, the next
    vertex by ``min`` over the uncoloured ones."""
    masks = g.masks
    colors = [-1] * g.n
    neighbor_colors = [set() for _ in range(g.n)]
    uncolored = set(range(g.n))
    degree = [m.bit_count() for m in masks]
    while uncolored:
        # highest saturation, then highest degree, then lowest index
        v = min(uncolored, key=lambda u: (-len(neighbor_colors[u]), -degree[u], u))
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        uncolored.remove(v)
        for u in _iter_bits(masks[v]):
            if colors[u] == -1:
                neighbor_colors[u].add(c)
    return colors


def ref_coloring_classes(g):
    """The recursive colouring backtrack, one call per vertex."""
    greedy = ref_dsatur_greedy(g)
    best_k = max(greedy) + 1
    best_colors = greedy[:]
    lb = int(max_clique(g)[0]) if g.n <= Caps.from_env().clique else 1
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

    @pytest.mark.parametrize("n", [2.7, -3, True, "3", None])
    def test_rejects_malformed_size(self, n):
        with pytest.raises(DomainError, match="^graph size must be a nonnegative int"):
            DistGraph(n, frozenset())

    @pytest.mark.parametrize("edge", [(True, 2), (0, 1, 2), (0,), (0.0, 1), 1, "01", [1, None]])
    def test_rejects_malformed_edges(self, edge):
        with pytest.raises(DomainError, match="is not a pair of ints$"):
            DistGraph(3, [(0, 1), edge])

    def test_edges_from_a_generator(self):
        g = DistGraph(3, ((i + 1, i) for i in range(2)))
        assert g.edges == {(0, 1), (1, 2)} and g.masks == (2, 5, 2)

    def test_masks_built_on_first_use(self):
        g = DistGraph(10**9, frozenset())
        assert "masks" not in g.__dict__ and g.n == 10**9

    @pytest.mark.parametrize("field", ["n", "edges", "masks"])
    def test_immutable(self, field):
        for g in (cycle_graph(5), DistGraph._from_masks(3, (2, 5, 2))):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(g, field, getattr(g, field))
            with pytest.raises(AttributeError):
                delattr(g, field)

    def test_from_masks_equals_public_constructor(self):
        rng = random.Random(1600)
        for n in range(9):
            g = random_graph(rng, n)
            h = DistGraph._from_masks(n, g.masks)
            assert "edges" not in h.__dict__
            assert h == g and hash(h) == hash(g) and h.edges == g.edges
            assert h.to_json() == g.to_json() and DistGraph.from_json(h.to_json()) == h
            assert [h.degree(v) for v in range(n)] == [g.degree(v) for v in range(n)]
        assert DistGraph(3, frozenset()) != DistGraph(4, frozenset())
        assert cycle_graph(5) != "C5"

    def test_mask_operations_match_pair_definitions(self):
        rng = random.Random(1601)
        for _ in range(30):
            n = rng.randint(0, 9)
            g = random_graph(rng, n, rng.random())
            pairs = set(itertools.combinations(range(n), 2))
            assert g.complement().edges == pairs - g.edges
            for u, v in itertools.product(range(-1, n + 1), repeat=2):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in g.edges)
            verts = rng.sample(range(n), rng.randint(0, n))
            want = {(min(a, b), max(a, b)) for a, b in itertools.combinations(range(len(verts)), 2)
                    if g.has_edge(verts[a], verts[b])}
            assert g.induced(verts).edges == want

    @pytest.mark.parametrize(
        "verts, message",
        [
            ([0, 0, 1], "repeated vertex in induced subgraph"),
            ([0, 7], "induced subgraph vertex out of range"),
            ([-1, 0], "induced subgraph vertex out of range"),
            # repeats are reported first; a negative vertex must not wrap
            # around a list indexed by vertex
            ([7, 7], "repeated vertex in induced subgraph"),
            ([-1, -1], "repeated vertex in induced subgraph"),
            ([-3], "induced subgraph vertex out of range"),
            ([2, 0, -1], "induced subgraph vertex out of range"),
        ],
    )
    def test_induced_rejects_bad_vertices(self, verts, message):
        triangle = DistGraph(3, frozenset([(0, 1), (0, 2), (1, 2)]))
        with pytest.raises(DomainError, match=f"^{message}$"):
            triangle.induced(verts)


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
        with caps_env(clique=5), pytest.raises(ResourceCapExceeded):
            max_clique(g)

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

    def test_default_weights_are_given_unit_weights(self):
        # no weights: the search runs on int ones, with the answer unit
        # Fractions give, and only that call keeps the clique number
        rng = random.Random(77)
        for n in [0, 1, *(rng.randint(2, 14) for _ in range(30))]:
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            given = max_clique(g, [F(1)] * n)
            assert "_omega" not in g.__dict__
            value, witness = max_clique(g)
            assert (value, witness) == given and type(value) is F and g._omega == value

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
        with caps_env(clique=2000):
            value, witness = max_clique(g, weights=[F(1)] * n + [F(1000)])
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

    @pytest.mark.parametrize("caps", [{}, {"clique": 0}], ids=["clique-lb", "lb-1"])
    def test_matches_recursive_reference(self, caps):
        # about one graph in eight needs fewer colours than DSATUR finds
        rng = random.Random(148)
        with caps_env(**caps):
            for _ in range(80):
                g = random_graph(rng, rng.randint(8, 22), 0.3 + 0.4 * rng.random())
                assert chromatic_number(g).classes == ref_coloring_classes(g)

    def test_complete_graph_past_recursion_limit(self):
        # the clique cap stays 500, so the lower bound is a greedy clique
        n = 1100
        g = DistGraph(n, frozenset(itertools.combinations(range(n), 2)))
        with caps_env(coloring=2000):
            cert = chromatic_number(g)
        assert cert.num_colors == n
        assert cert.classes == tuple((v,) for v in range(n))

    def test_backtrack_past_recursion_limit(self):
        # K_1100 joined to a 5-cycle: the greedy clique has 1,102 vertices,
        # one below chi, so the backtrack walks 1,100 vertices deep before
        # it gives up on 1,102 colours
        n = 1100
        cycle = [(n + i, n + (i + 1) % 5) for i in range(5)]
        g = DistGraph(n + 5, frozenset([*itertools.combinations(range(n), 2), *cycle,
                                        *((u, n + i) for u in range(n) for i in range(5))]))
        with caps_env(coloring=2000):
            cert = chromatic_number(g)
        assert cert.num_colors == n + 3 and cert.verify(g)

    def test_colouring_cap_prices_the_backtrack(self):
        # C5 plus 200 isolated vertices: DSATUR uses 3 colours, the clique
        # number is 2, so the backtrack runs and its cap is asked first
        g = DistGraph(205, frozenset((i, (i + 1) % 5) for i in range(5)))
        with pytest.raises(ResourceCapExceeded, match="^coloring needs 205, cap is 200$"):
            chromatic_number(g)
        with caps_env(coloring=205):
            assert chromatic_number(g).num_colors == 3

    def test_greedy_lower_bound_over_the_clique_cap(self):
        # a 27-point l2 strip with chi = omega = 8: with the lower bound 1 its
        # backtrack took over 10 s under this cap; the greedy clique has 8
        # vertices, and the certificate is the default caps' one
        rng = random.Random(0)
        g = distance_graph(PointConfig(l2(2), [(F(rng.randint(0, 144), 32), F(rng.randint(-12, 12), 32))
                                               for _ in range(27)]))
        start = time.perf_counter()
        with caps_env(clique=10):
            cert = chromatic_number(g)
        assert time.perf_counter() - start < 1
        assert cert == chromatic_number(g) and cert.num_colors == 8

    def test_dsatur_matches_set_reference(self):
        rng = random.Random(149)
        graphs = [DistGraph(0, frozenset()), DistGraph(1, frozenset()), octagon_circulant()]
        graphs += [random_graph(rng, rng.randint(2, 30), rng.random()) for _ in range(400)]
        graphs += [distance_graph(cfg) for cfg in bench_certify_configs()]
        for g in graphs:
            assert _dsatur_greedy(g) == ref_dsatur_greedy(g)


def load_bench_mixes():
    path = Path(__file__).resolve().parent.parent / "bench" / "mixes.py"
    spec = importlib.util.spec_from_file_location("bench_mixes", path)
    mixes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mixes)
    return mixes


def bench_certify_configs():
    """The 126 configurations of the seed-0 certify job list of a 20 s run."""
    mixes = load_bench_mixes()
    jobs = mixes.generate("certify", 0, mixes.job_count("certify", 20))
    return [
        PointConfig(NormSpec(job[1], 2), tuple((F(x, mixes.CERTIFY_DEN), F(y, mixes.CERTIFY_DEN))
                                               for x, y in job[2]))
        for job in jobs if job[0] == "certify"
    ]


@pytest.fixture
def clique_searches(monkeypatch):
    """The vertex count of each graph ``_clique_search`` is run on."""
    from anticonc import perfect_graphs

    calls = []
    original = perfect_graphs._clique_search

    def counted(g, iw):
        calls.append(g.n)
        return original(g, iw)

    monkeypatch.setattr(perfect_graphs, "_clique_search", counted)
    return calls


class TestOneCliqueSearchPerGraph:
    """omega is searched once per graph and kept on it: max_clique, the
    colouring's lower bound and the block decomposition's check on a
    relabelling of the same graph share one search."""

    def test_certify_sequence(self, clique_searches):
        from anticonc.geometry import near_line_fit

        configs = bench_certify_configs()
        assert len(configs) == 126
        for cfg in configs:
            clique_searches.clear()
            fit = near_line_fit(cfg)
            graph = distance_graph(cfg)
            is_berge(graph)
            omega = int(max_clique(graph)[0])
            chi = chromatic_number(graph).num_colors
            blocks = block_decomposition(cfg, fit.frame)
            assert clique_searches == [len(cfg)]
            assert omega == chi == len(blocks)

    def test_kept_for_unit_weights_and_full_relabellings(self, clique_searches):
        rng = random.Random(150)
        for _ in range(20):
            g = random_graph(rng, 12, rng.random())
            perm = rng.sample(range(12), 12)
            clique_searches.clear()
            max_clique(g, [F(k + 1) for k in range(12)])  # weighted: no clique number
            chi = chromatic_number(g)  # searches once, then keeps omega
            assert chromatic_number(g) == chi
            assert chromatic_number(g.induced(perm)).num_colors == chi.num_colors
            chromatic_number(g.induced(perm[:11]))  # a proper subgraph searches afresh
            assert int(max_clique(g.induced(perm))[0]) == brute_max_clique_weight(g, [1] * 12)
            assert clique_searches == [12, 12, 11, 12]


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


def ref_has_umbrella(g, order):
    """Whether some a < b < c in order has ac an edge and ab, bc non-edges."""
    return any(
        g.has_edge(a, c) and not g.has_edge(a, b) and not g.has_edge(b, c)
        for a, b, c in itertools.combinations(order, 3)
    )


def interval_graph(rng, n):
    """A random interval graph and its vertices by left end: an order with no umbrella."""
    spans = [(lo, lo + rng.randint(0, 6)) for lo in (rng.randint(0, 3 * n) for _ in range(n))]
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)
             if max(spans[i][0], spans[j][0]) <= min(spans[i][1], spans[j][1])}
    return DistGraph(n, edges), sorted(range(n), key=lambda v: spans[v])


def strip_configs(norm, half_width, count, seed):
    """Seeded configs of 5-16 points on a 1/8 grid, |y| <= half_width, x
    spread over about n/3: near-line for small widths, off the strip for wide."""
    rng, y8 = random.Random(seed), int(8 * half_width)
    for _ in range(count):
        n = rng.randint(5, 16)
        yield PointConfig(norm, tuple(
            (F(rng.randint(0, 8 * n // 3), 8), F(rng.randint(-y8, y8), 8))
            for _ in range(n)
        ))


def without_hint(g):
    return DistGraph._from_masks(g.n, g.masks)


def with_order(g, order):
    """g keeping ``order``, as a graph built from points keeps its sweep order."""
    return DistGraph._from_masks(g.n, g.masks, tuple(order))


class TestCocomparabilityOrder:
    """An order with no umbrella certifies a graph Berge; the odd-hole
    search stays the reference wherever the order fails."""

    def test_against_brute_force_on_random_orders(self):
        rng = random.Random(2028)
        outcomes = set()
        for n in range(1, 15):
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                for _ in range(6):
                    g, lefts = interval_graph(rng, n) if rng.random() < 0.4 else (random_graph(rng, n, p), None)
                    orders = [rng.sample(range(n), n)] + ([lefts] if lefts else [])
                    for order in orders:
                        want = None if ref_has_umbrella(g, order) else tuple(order)
                        h = with_order(g, order)
                        assert cocomparability_order(h) == want
                        assert is_berge(h) == is_berge(g)
                        outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_every_order_of_small_graphs(self):
        for n in range(5):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = DistGraph(n, [e for k, e in enumerate(pairs) if bits >> k & 1])
                for order in itertools.permutations(range(n)):
                    want = None if ref_has_umbrella(g, order) else order
                    assert cocomparability_order(with_order(g, order)) == want

    def test_umbrella_refused(self):
        g = DistGraph(3, [(0, 2)])
        assert cocomparability_order(with_order(g, [0, 1, 2])) is None
        assert cocomparability_order(with_order(g, [1, 0, 2])) == (1, 0, 2)
        assert cocomparability_order(g) is None  # no kept order

    @pytest.mark.parametrize("norm", [l2(2), l1(2), linf(2)], ids=lambda n: n.kind)
    def test_same_verdict_with_or_without_the_order(self, norm):
        decided, holes = 0, 0
        for width in (F(1, 2), 1, 2):
            for cfg in strip_configs(norm, width, 80, 7):
                g = distance_graph(cfg)
                assert g.__dict__["_order"] is not None
                order = cocomparability_order(g)
                searched = is_berge(without_hint(g))
                assert is_berge(g) == searched
                assert order is None or searched == (True, None)
                decided += order is not None
                holes += not searched[0]
        assert 0 < decided < 240 and holes > 0

    def test_sharpness_hole_keeps_its_witness(self):
        from anticonc.scenarios import _sharpness_points

        g = distance_graph(PointConfig(l2(2), _sharpness_points(F(1, 1000))))
        assert g.__dict__["_order"] == (0, 4, 1, 3, 2)
        assert cocomparability_order(g) is None
        assert is_berge(g) == is_berge(without_hint(g))
        assert is_berge(g)[1].cycle == (0, 1, 2, 3, 4) and not is_berge(g)[1].in_complement
        safe = distance_graph(PointConfig(l2(2), _sharpness_points(F(1, 1000), below_threshold=True)))
        assert is_berge(safe) == (True, None) and cocomparability_order(safe) == (0, 4, 1, 3, 2)

    def test_equality_and_hash_ignore_the_order(self):
        g = distance_graph(bench_certify_configs()[0])
        bare = without_hint(g)
        assert g.__dict__["_order"] is not None and bare.__dict__["_order"] is None
        assert g == bare and hash(g) == hash(bare) and len({g, bare}) == 1

    def test_hole_cap_checked_only_before_a_search(self):
        # an order with no umbrella decides over the cap; the same graph with
        # no kept order, and a graph whose order has an umbrella, still raise
        from anticonc.scenarios import _sharpness_points

        g = distance_graph(bench_certify_configs()[0])
        assert cocomparability_order(g) is not None
        with caps_env(odd_hole=5):
            assert is_berge(g) == (True, None)
            with pytest.raises(ResourceCapExceeded, match="^odd_hole needs 25, cap is 5$"):
                is_berge(without_hint(g))
        hole = distance_graph(PointConfig(l2(2), _sharpness_points(F(1, 1000))))
        assert cocomparability_order(hole) is None
        with caps_env(odd_hole=4), pytest.raises(ResourceCapExceeded, match="^odd_hole needs 5, cap is 4$"):
            is_berge(hole)

    def test_seed_zero_benchmark_paths(self, monkeypatch):
        # every seed-0 certify graph and sharpness strip is decided by its
        # sweep order, so a change to that order that sends them back to the
        # search fails here; the sharpness jobs run as bench/jobs.py runs them
        from anticonc import scenarios

        for cfg in bench_certify_configs():
            g = distance_graph(cfg)
            assert cocomparability_order(g) is not None and is_berge(g) == (True, None)
        mixes = load_bench_mixes()
        seeds = [job[1] for job in mixes.generate("certify", 0, mixes.job_count("certify", 20))
                 if job[0] == "sharpness"]
        decided = []

        def spy(g):
            decided.append(cocomparability_order(g) is not None)
            return is_berge(g)

        monkeypatch.setattr(scenarios, "is_berge", spy)
        for seed in seeds:
            assert scenarios.run_sharpness_scenario(F(1, 1000), strip_samples=20, seed=seed).passed
        assert len(seeds) == 14 and decided == [True] * (14 * 21)


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

    def test_one_clique_search_per_subgraph(self, clique_searches):
        # one search for the whole graph (omega, then chi's bound reads it),
        # one per sample short of all 30 vertices (a full one inherits omega)
        rng = random.Random(5)
        cfg = PointConfig(l2(2), tuple(
            (F(rng.randint(0, 256), 32), F(rng.randint(-12, 12), 32)) for _ in range(30)
        ))
        report = verify_perfection_near_line(cfg, seed=1)
        sample_rng = random.Random(1)
        subsets = [sorted(sample_rng.sample(range(30), sample_rng.randint(1, 30))) for _ in range(20)]
        assert clique_searches == [30] + [len(sub) for sub in subsets if len(sub) < 30]
        # the samples as drawn before, each checked against max_clique
        g = distance_graph(cfg)
        subs = [g.induced(sub) for sub in subsets]
        ok = sum(int(max_clique(sub)[0]) == chromatic_number(sub).num_colors for sub in subs)
        assert (report.subgraphs_checked, report.subgraphs_ok) == (20, ok)
        assert (report.omega, report.chi) == (int(max_clique(g)[0]), chromatic_number(g).num_colors)
        assert report.ok and report.berge and report.hole is None

    def test_reports_which_path_decided(self):
        configs = list(strip_configs(l2(2), 1, 80, 7))
        ordered = next(cfg for cfg in configs if cocomparability_order(distance_graph(cfg)))
        report = verify_perfection_near_line(ordered, subgraph_samples=0)
        assert (report.berge, report.decided_by) == (True, "ordering")
        assert report.ordering == cocomparability_order(distance_graph(ordered))
        holed = next(cfg for cfg in configs if not is_berge(distance_graph(cfg))[0])
        report = verify_perfection_near_line(holed, subgraph_samples=0)
        assert (report.berge, report.decided_by, report.ordering) == (False, "search", None)

    def test_clique_cap_reported_first(self):
        pts = tuple((F(i, 3), F(0)) for i in range(12))
        with (caps_env(odd_hole=100, clique=10, coloring=10),
              pytest.raises(ResourceCapExceeded, match="^clique needs 12, cap is 10$")):
            verify_perfection_near_line(PointConfig(l2(2), pts))


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

    def test_uniform_multiset_matches_fraction_clearing(self):
        # the clearing on Fraction weights it ran before reading the
        # measure's integer weights; measures merged, summed and in Q(sqrt 2)
        from anticonc.quadfield import QuadExt

        def ref_uniform_multiset(measure):
            denom = math.lcm(*(w.denominator for w in measure.weights))
            points = []
            for point, w in zip(measure.points, measure.weights):
                points.extend([point] * int(w * denom))
            return PointConfig(measure.norm, tuple(points))

        rng = random.Random(905)
        measures = []
        for norm, coord in ((l2(2), F), (l1(2), lambda a: QuadExt.of(a, F(1, 3), 2))):
            for _ in range(6):
                n = rng.randint(1, 5)
                pts = [(coord(F(rng.randint(0, 12), 4)), coord(F(rng.randint(-1, 1), 8))) for _ in range(n)]
                pts += pts[:rng.randint(0, 2)]  # duplicates merge
                raw = [rng.randint(0 if i else 1, 4) for i in range(len(pts))]
                measures.append(VectorMeasure(PointConfig(norm, tuple(pts)), tuple(F(r, sum(raw)) for r in raw)))
        measures += [product_sum_measure(measures[i:i + 2]) for i in (0, 3, 6, 9)]
        for m in measures:
            cfg, want = to_uniform_multiset(m), ref_uniform_multiset(m)
            assert cfg == want and cfg.points == want.points and len(cfg) == len(want)

    def test_uniform_multiset_replicas_cap(self):
        vm = VectorMeasure(
            PointConfig(l2(2), ((F(0), F(0)), (F(2), F(0)))),
            (F(1, 4), F(3, 4)),
        )
        with caps_env(replicas=4):
            assert len(to_uniform_multiset(vm).points) == 4
        with caps_env(replicas=3), pytest.raises(ResourceCapExceeded, match="^replicas needs 4, cap is 3$"):
            to_uniform_multiset(vm)

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

    def test_one_clique_search(self, clique_searches):
        # the colouring's clique lower bound is the omega the perfection
        # check compares against: one search per decomposition, none when
        # the subject's graph already has its clique number
        from anticonc.geometry import near_line_fit

        rng = random.Random(79)
        for _ in range(8):
            n = rng.randint(1, 18)
            pts = tuple((F(rng.randint(0, 96), 16), F(rng.randint(-3, 3), 16)) for _ in range(n))
            cfg = PointConfig(l2(2), pts)
            fit = near_line_fit(cfg, early_stop=True)
            clique_searches.clear()
            blocks = block_decomposition(cfg, fit.frame)
            assert clique_searches == [n]
            assert len(blocks) == int(max_clique(distance_graph(cfg))[0])
            # that search kept omega on the subject's graph, which the
            # relabelling inherits
            assert block_decomposition(cfg, fit.frame) == blocks
            assert clique_searches == [n, n]

    def test_caps(self):
        from anticonc.geometry import supporting_functional

        pts = tuple((F(k, 3), F(0)) for k in range(12))
        cfg = PointConfig(l2(2), pts)
        frame = supporting_functional(l2(2), (F(1), F(0)))
        # DSATUR meets the clique number, so the colouring cap is not asked
        with caps_env(clique=12, coloring=11):
            assert len(block_decomposition(cfg, frame)) == 3
        with caps_env(clique=11), pytest.raises(ResourceCapExceeded, match="^clique needs 12, cap is 11$"):
            block_decomposition(cfg, frame)
        # the clique cap is checked first
        with (caps_env(clique=11, coloring=11),
              pytest.raises(ResourceCapExceeded, match="^clique needs 12, cap is 11$")):
            block_decomposition(cfg, frame)

    def test_nothing_coloured_over_the_clique_cap(self, monkeypatch):
        # a colouring below a lower bound of 1 may backtrack for long, and
        # the decomposition would throw it away
        from anticonc import perfect_graphs
        from anticonc.geometry import supporting_functional

        def no_colouring(g):
            raise AssertionError("coloured a graph over the clique cap")

        monkeypatch.setattr(perfect_graphs, "_dsatur_greedy", no_colouring)
        cfg = PointConfig(l2(2), tuple((F(k, 3), F(0)) for k in range(12)))
        frame = supporting_functional(l2(2), (F(1), F(0)))
        with caps_env(clique=11), pytest.raises(ResourceCapExceeded, match="^clique needs 12, cap is 11$"):
            block_decomposition(cfg, frame)

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


def ref_block_decomposition(subject, frame):
    """The decomposition before the subject's own graph was relabelled: the
    points re-sorted along the frame into a new config, whose distance graph
    is swept again. Returns each block's points and functional values."""
    points = subject.points
    raws = [frame.f_raw(p) for p in points]
    order = sorted(range(len(points)), key=lambda i: (raws[i], points[i]))
    scale, ipts = subject.scaled
    config = PointConfig._from_scaled(subject.norm, scale, [ipts[i] for i in order])
    graph = distance_graph(config)
    cert, omega = chromatic_number(graph), int(max_clique(graph)[0])
    if cert.num_colors != omega:
        raise InvariantViolation(
            f"distance graph is not perfect here: chi={cert.num_colors}, omega={omega}"
        )
    return [
        (tuple(config.points[v] for v in cls), tuple(raws[order[v]] for v in cls))
        for cls in cert.classes
    ]


REF_BLOCK_CASES = [(l1(2), None), (l2(2), None), (linf(2), None), (lp(3, 2), None), (l2(2), 2)]


class TestBlockDecompositionReference:
    """Relabelling the subject's graph gives the blocks of the re-sorted,
    re-swept copy, in order, on multisets with duplicates and ties in f."""

    @pytest.mark.parametrize(
        "norm, m", REF_BLOCK_CASES, ids=[f"{n.kind}{n.p or ''}-{m or 'Q'}" for n, m in REF_BLOCK_CASES]
    )
    def test_matches_resorted_resweep(self, norm, m):
        from anticonc.geometry import supporting_functional
        from anticonc.quadfield import QuadExt

        rng = random.Random(1610 + REF_BLOCK_CASES.index((norm, m)))
        wide = 6 if norm.is_hilbert else 2  # |y| within the near-line radius

        def coord(a, b):
            return a if m is None else QuadExt.of(a, b, m)

        frames = [supporting_functional(norm, v) for v in ((1, 0), (8, 1), (3, -1))]
        for _ in range(12):
            pts = [
                (coord(F(rng.randint(0, 96), 16), F(rng.randint(-4, 4), 16)),
                 coord(F(rng.randint(-wide, wide), 32), F(rng.randint(-1, 1), 64)))
                for _ in range(rng.randint(1, 14))
            ]
            pts += rng.sample(pts, rng.randint(0, min(4, len(pts))))
            rng.shuffle(pts)
            for frame in frames:
                cfg = PointConfig(norm, tuple(pts))
                try:
                    want = ref_block_decomposition(cfg, frame)
                except InvariantViolation as exc:
                    with pytest.raises(InvariantViolation) as got:
                        block_decomposition(cfg, frame)
                    assert str(got.value) == str(exc)
                    continue
                blocks = block_decomposition(cfg, frame)
                assert [(b.points, b.f_raw) for b in blocks] == want


class TestCertificates:
    def test_certificate_verification_rejects_bad(self):
        g = cycle_graph(5)
        bad = ColoringCertificate(2, ((0, 1, 2), (3, 4)))
        assert not bad.verify(g)
        assert ColoringCertificate(3, ((0, 2), (1, 3), (4,))).verify(g)
        # a colouring that misses vertex 4
        assert not ColoringCertificate(3, ((0, 2), (1, 3), ())).verify(g)
        assert not ColoringCertificate(2, ((0, 2), (1, 3))).verify(g)

    def test_hole_witness_checks_both_orientations(self):
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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: HoleWitness((0, 1, 2, 3), False), InvariantViolation,
         "hole witness must be an odd cycle of length >= 5"),
        (lambda: HoleWitness((0, 1, 2), True), InvariantViolation,
         "hole witness must be an odd cycle of length >= 5"),
        (lambda: max_clique(cycle_graph(5), [F(1)] * 4), DomainError, "weight vector length mismatch"),
        (lambda: max_clique(cycle_graph(5), [F(1)] * 4 + [F(-1)]), DomainError, "negative clique weight"),
    ],
    ids=["even-hole", "short-hole", "weights-length", "negative-weight"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# --- the graph kernels before their bit loops were inlined ------------------------
# Verbatim copies (methods as functions of the graph g), kept as oracles: the
# kernels must give the same colour lists, masks, edge sets and classes.


def ref_mask_dsatur_greedy(g):
    masks, n = g.masks, g.n
    # saturation * n + degree; max() returns the first, lowest-index, of equals
    rank = [m.bit_count() for m in masks]
    seen = [0] * n  # bit c of seen[v] set once a neighbour of v has colour c
    colors, left = [-1] * n, list(range(n))
    while left:
        v = max(left, key=rank.__getitem__)
        left.remove(v)
        free = ~seen[v] & (seen[v] + 1)  # the lowest clear bit
        colors[v] = free.bit_length() - 1
        for u in _iter_bits(masks[v]):
            if not seen[u] & free:
                seen[u] |= free
                rank[u] += n
    return colors


def ref_induced(g, vertices):
    order = list(vertices)
    pos = {v: i for i, v in enumerate(order)}
    if len(pos) < len(order):
        raise DomainError("repeated vertex in induced subgraph")
    if not all(0 <= v < g.n for v in order):
        raise DomainError("induced subgraph vertex out of range")
    keep = sum(1 << v for v in order)
    sub = DistGraph._from_masks(
        len(order), [sum(1 << pos[u] for u in _iter_bits(g.masks[v] & keep)) for v in order]
    )
    if len(order) == g.n and "_omega" in g.__dict__:  # a permutation keeps it
        sub.__dict__["_omega"] = g._omega
    return sub


def ref_edges(g):
    return frozenset((u, v) for u, m in enumerate(g.masks) for v in _iter_bits(m & -(2 << u)))


def ref_classes_from_colors(colors):
    return tuple(
        tuple(v for v, c in enumerate(colors) if c == k) for k in range(max(colors, default=-1) + 1)
    )


def kernel_graphs():
    """Seeded random graphs of 0-80 vertices at densities 0.05-0.95, and the
    empty and complete graphs of those sizes, each held as masks only."""
    rng = random.Random(3301)
    for n in range(81):
        full = (1 << n) - 1
        yield DistGraph._from_masks(n, [0] * n)
        yield DistGraph._from_masks(n, [full ^ 1 << v for v in range(n)])
        for p in (0.05, 0.25, 0.5, 0.75, 0.95):
            g = random_graph(rng, n, p)
            yield DistGraph._from_masks(n, g.masks)


def certify_graphs():
    """Each seed-0 certify graph and its relabelling in the frame order that
    ``block_decomposition`` colours."""
    from anticonc.geometry import near_line_fit

    for cfg in bench_certify_configs():
        g = distance_graph(cfg)
        s, ipts = cfg.scaled
        dots = near_line_fit(cfg).frame._dots(ipts)
        order = sorted(range(len(ipts)), key=lambda i: (dots[i], ipts[i]))
        yield g, order


class TestKernelsMatchReference:
    def assert_same_on(self, g, rng):
        colors = _dsatur_greedy(g)
        assert colors == ref_mask_dsatur_greedy(g)
        assert _classes_from_colors(colors) == ref_classes_from_colors(colors)
        assert DistGraph._from_masks(g.n, g.masks).edges == ref_edges(g)
        for verts in (rng.sample(range(g.n), rng.randint(0, g.n)), rng.sample(range(g.n), g.n)):
            got, want = g.induced(verts), ref_induced(g, verts)
            assert got.masks == want.masks and got.edges == want.edges

    def test_random_empty_and_complete_graphs(self):
        rng = random.Random(3302)
        for g in kernel_graphs():
            self.assert_same_on(g, rng)
            k = rng.randint(1, 6)
            colors = [rng.randrange(k) for _ in range(g.n)]
            assert _classes_from_colors(colors) == ref_classes_from_colors(colors)

    def test_certify_graphs_and_frame_orders(self):
        rng = random.Random(3303)
        for g, order in certify_graphs():
            self.assert_same_on(g, rng)
            self.assert_same_on(g.induced(order), rng)
            got, want = g.induced(order), ref_induced(g, order)
            assert chromatic_number(got) == chromatic_number(want)

    def test_full_permutation_carries_omega(self):
        rng = random.Random(3304)
        for n in range(1, 25, 3):
            g = random_graph(rng, n, rng.random())
            perm, part = rng.sample(range(n), n), rng.sample(range(n), n - 1)
            max_clique(g)
            got, want = g.induced(perm), ref_induced(g, perm)
            assert got.__dict__["_omega"] == want.__dict__["_omega"] == g._omega
            assert "_omega" not in g.induced(part).__dict__
            assert "_omega" not in ref_induced(g, part).__dict__
