import itertools
import math
import operator
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest
from conftest import bench_mixes
from hypothesis import given, settings, strategies as st

from anticonc import chains, geometry, lattice
from anticonc.chains import (
    Block,
    ChainDecomposition,
    btk_decompose,
    iterated_decompose,
    jones_bound,
    middle_layer_count,
)
from anticonc.errors import DimensionMismatch, DomainError, InvariantViolation
from anticonc.geometry import (
    PointConfig,
    dist_vs_one,
    distance_graph,
    l1,
    l2,
    linf,
    lp,
    near_line_fit,
    separation_check,
    supporting_functional,
)
from anticonc.perfect_graphs import block_decomposition

X_FRAME = supporting_functional(l2(2), (F(1), F(0)))
LINE_FRAME = supporting_functional(l2(1), (F(1),))


def line_block(xs):
    return Block.from_points([(F(x),) for x in xs], LINE_FRAME)


def random_block(rng, max_size=6):
    # points along the x axis with gaps >= 1, small vertical jitter inside
    # the strip: distances and functional gaps both stay >= 1
    size = rng.randint(1, max_size)
    xs = []
    x = F(0)
    for _ in range(size):
        xs.append(x)
        x += 1 + F(rng.randint(0, 8), 8)
    pts = [(x, F(rng.randint(-5, 5), 16)) for x in xs]
    return Block.from_points(pts, X_FRAME)


class TestBlock:
    def test_sorts_by_functional(self):
        b = line_block([3, 0, 1])
        assert [p[0] for p in b.points] == [F(0), F(1), F(3)]

    def test_rejects_close_points(self):
        with pytest.raises(InvariantViolation):
            line_block([0, F(1, 2)])

    def test_rejects_small_f_gap(self):
        # distance fine (vertical 1 apart) but the x-functional gap is tiny
        with pytest.raises(InvariantViolation):
            Block.from_points([(F(0), F(0)), (F(1, 8), F(2))], X_FRAME)


CLOSE_THEN_UNSORTED = [(F(0), F(0)), (F(1, 4), F(2)), (F(-1), F(4))]
UNSORTED_THEN_CLOSE = [(F(0), F(0)), (F(-1), F(2)), (F(-3, 4), F(4))]
CLOSER = "consecutive functional values closer than 1/2"
UNSORTED = "block points must be sorted by functional value"


def unchecked_block(points, f_raw):
    """A block that skipped every check, so that ``btk_decompose`` peels a
    fault into a chain: its product with a one-point block at the origin is
    one chain holding the same points and values."""
    s, ipts = geometry._scaled_integers(points)
    b = object.__new__(Block)
    st = s * X_FRAME._scaled[0]
    b.__dict__.update(frame=X_FRAME, _s=s, _ipts=tuple(ipts), _dots=tuple(f * st for f in f_raw))
    return b


ORIGIN = Block([(F(0), F(0))], [F(0)], X_FRAME)

# each way a block is built: the points in the order given, with these values
BUILDS = {
    "init": lambda pts, fs: Block(pts, fs, X_FRAME),
    "btk": lambda pts, fs: btk_decompose(unchecked_block(pts, fs), ORIGIN).chains[0],
}


class TestBlockCheckOrder:
    """The first fault in point order decides the message, whichever way the block is built."""

    @pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
    @pytest.mark.parametrize("points, message", [(CLOSE_THEN_UNSORTED, CLOSER), (UNSORTED_THEN_CLOSE, UNSORTED)],
                             ids=["close-first", "unsorted-first"])
    def test_first_gap_fault_decides(self, build, points, message):
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            build(points, [p[0] for p in points])

    def test_from_points_reports_a_close_pair(self):
        # from_points sorts, so only the close pair is left to report
        with pytest.raises(InvariantViolation, match=f"^{CLOSER}$"):
            Block.from_points(CLOSE_THEN_UNSORTED, X_FRAME)

    @pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
    def test_wrong_value_names_the_first_wrong_point(self, build):
        points = [(F(0), F(0)), (F(1), F(0)), (F(2), F(0)), (F(3), F(0))]
        with pytest.raises(InvariantViolation) as got:
            build(points, [F(0), F(1), F(5), F(7)])
        assert str(got.value) == f"functional value {F(5)} is wrong at point {points[2]}"

    @pytest.mark.parametrize("build", [*BUILDS.values(), lambda pts, fs: Block.from_points(pts, X_FRAME)],
                             ids=[*BUILDS.keys(), "from_points"])
    def test_half_gap_and_one_point_pass(self, build):
        half = [(F(0), F(0)), (F(1, 2), F(2)), (F(1), F(0))]
        for points in (half, half[:1], [(F(5, 3), F(-1, 7))]):
            block = build(points, [p[0] for p in points])
            assert block.points == tuple(points) and block.f_raw == tuple(p[0] for p in points)

    def test_peeled_half_gaps_pass(self):
        a = Block.from_points([(F(0), F(0)), (F(1, 2), F(2))], X_FRAME)
        b = Block.from_points([(F(0), F(0)), (F(1, 2), F(-2))], X_FRAME)
        chains = btk_decompose(a, b).chains
        assert [c.points for c in chains] == [((F(0), F(0)), (F(1, 2), F(2)), (F(1), F(0))),
                                              ((F(1, 2), F(-2)),)]


class TestBtkDecompose:
    def test_pair_of_two_blocks(self):
        a = line_block([0, 1])
        d = btk_decompose(a, a)
        assert sorted(d.sizes) == [1, 3]
        chains = sorted(d.chains, key=len)
        assert [p[0] for p in chains[0].points] == [F(1)]
        assert [p[0] for p in chains[1].points] == [F(0), F(1), F(2)]

    def test_singleton_block_translates(self):
        a = line_block([5])
        b = line_block([0, 1, 2])
        d = btk_decompose(a, b)
        assert d.sizes == (3,)
        assert [p[0] for p in d.chains[0].points] == [F(5), F(6), F(7)]

    def test_uneven_sizes(self):
        a = line_block([0, 1, 2])
        b = Block.from_points([(F(0),), (F(6, 5),)], LINE_FRAME)
        d = btk_decompose(a, b)
        assert sorted(d.sizes) == [2, 4]
        big = max(d.chains, key=len)
        assert [p[0] for p in big.points] == [F(0), F(1), F(2), F(16, 5)]
        gaps = [big.f_raw[i + 1] - big.f_raw[i] for i in range(3)]
        assert gaps == [F(1), F(1), F(6, 5)]

    def test_size_law_and_separations_random(self):
        rng = random.Random(2024)
        for _ in range(50):
            a, b = random_block(rng), random_block(rng)
            d = btk_decompose(a, b)
            m, n = max(len(a), len(b)), min(len(a), len(b))
            assert sorted(d.sizes) == list(range(m - n + 1, m + n, 2))
            assert d.total_points() == len(a) * len(b)
            for chain in d.chains:
                for i in range(len(chain.points)):
                    for j in range(i + 1, len(chain.points)):
                        assert dist_vs_one(
                            X_FRAME.norm, chain.points[i], chain.points[j]
                        ) >= 0
                        assert X_FRAME.raw_gap_at_least(
                            chain.f_raw[j] - chain.f_raw[i], F(j - i, 2)
                        )

    def test_partition_is_multiset_of_sums(self):
        rng = random.Random(9)
        a, b = random_block(rng, 4), random_block(rng, 4)
        d = btk_decompose(a, b)
        got = sorted(p for c in d.chains for p in c.points)
        want = sorted(
            tuple(x + y for x, y in zip(p, q)) for p in a.points for q in b.points
        )
        assert got == want

    def test_frames_must_match(self):
        other = supporting_functional(l2(2), (F(0), F(1)))
        a = Block.from_points([(F(0), F(0))], X_FRAME)
        b = Block.from_points([(F(0), F(0))], other)
        with pytest.raises(DomainError):
            btk_decompose(a, b)


class TestIteratedDecompose:
    def test_two_two_blocks(self):
        a = line_block([0, 1])
        d = iterated_decompose([a, a])
        assert sorted(d.sizes) == [1, 3]

    def test_four_two_blocks(self):
        a = line_block([0, 1])
        d = iterated_decompose([a] * 4)
        assert len(d.chains) == 6
        assert d.total_points() == 16

    def test_single_block_is_itself(self):
        a = line_block([0, 1, 2])
        d = iterated_decompose([a])
        assert d.sizes == (3,)

    def test_chain_count_matches_middle_layer(self):
        rng = random.Random(5)
        for _ in range(15):
            ks = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
            blocks = []
            for k in ks:
                xs = [F(0)]
                for _ in range(k - 1):
                    xs.append(xs[-1] + 1 + F(rng.randint(0, 4), 16))
                blocks.append(
                    Block.from_points([(x, F(0)) for x in xs], X_FRAME)
                )
            d = iterated_decompose(blocks)
            assert len(d.chains) == middle_layer_count(ks)

    def test_chain_count_near_tuple_cap(self):
        # thousands of product tuples: the count law and the partition size
        # both survive the full iteration
        for ks in ([4, 4, 4, 4, 4], [6, 5, 4, 3, 3], [8, 8, 8, 2, 2]):
            blocks = [
                Block.from_points([(F(j), F(0)) for j in range(k)], X_FRAME)
                for k in ks
            ]
            d = iterated_decompose(blocks)
            assert len(d.chains) == middle_layer_count(ks)
            assert d.total_points() == math.prod(ks)


def ref_middle_layer_count(ks):
    """The nested-loop DP: each factor k adds every x < k to every sum."""
    target = (sum(k - 1 for k in ks) + 1) // 2
    counts = [1]  # counts[s] = number of tuples with coordinate sum s
    for k in ks:
        new = [0] * (len(counts) + k - 1)
        for s, c in enumerate(counts):
            if c:
                for x in range(k):
                    new[s + x] += c
        counts = new
    return counts[target]


def ref_box_filter_count(ks):
    """The prefix-sum box filter the count was before de Moivre's formula,
    verbatim; ``ref_middle_layer_count`` takes about 10^9 steps on [1000] x 50."""
    target = (sum(k - 1 for k in ks) + 1) // 2
    counts = [1]
    for k in ks:
        pre = list(itertools.accumulate([0] * k + counts + [0] * (k - 1)))
        counts = list(map(operator.sub, pre[k:k + target + 1], pre))
    return counts[target]


# factor lists with k = 1 factors and single factors among them
factor_lists = st.one_of(
    st.lists(st.integers(1, 12), min_size=1, max_size=1),
    st.lists(st.integers(1, 12), min_size=1, max_size=14),
    st.lists(st.sampled_from([1, 1, 2, 40]), min_size=1, max_size=10),
)


class TestMiddleLayer:
    @given(factor_lists)
    @settings(max_examples=300, deadline=None)
    def test_matches_nested_loop_dp(self, ks):
        assert middle_layer_count(ks) == ref_middle_layer_count(ks)

    def test_independent_of_lattice(self, monkeypatch):
        cases = [[2] * 9, [3, 5, 7], [1, 4, 4, 1], [6], list(range(1, 9))]
        want = [middle_layer_count(ks) for ks in cases]

        def refuse(*args):
            raise AssertionError("the middle layer must not read lattice")

        for kernel in ("_power_low", "_centre_power", "_packed_centre", "_centre_t_value", "t_value"):
            monkeypatch.setattr(lattice, kernel, refuse)
        monkeypatch.setattr(chains, "t_value", refuse)
        assert [middle_layer_count(ks) for ks in cases] == want
        assert want == [ref_middle_layer_count(ks) for ks in cases]

    def test_seed_zero_benchmark_lists(self):
        # every uniform list of the seed-0 tvalue workload, alphas 1/k
        mixes = bench_mixes()
        lists = [[d for _, d in job[2]] for job in mixes.generate("tvalue", 0, mixes.job_count("tvalue", 20))
                 if job[1] == "uniform"]
        assert len(lists) == 128
        assert [middle_layer_count(ks) for ks in lists] == [ref_middle_layer_count(ks) for ks in lists]

    @pytest.mark.parametrize("ks", [[1000, 1000], [999, 3, 1000], [1000] * 50, [1] * 5 + [2, 700]],
                             ids=["1000x2", "mixed-wide", "1000x50", "1s-and-wide"])
    def test_wide_factors(self, ks):
        # factors over the target skip their pass: 1000 > T = 999 in 1000x2
        want = ref_box_filter_count(ks) if len(ks) > 10 else ref_middle_layer_count(ks)
        assert middle_layer_count(ks) == want

    @pytest.mark.parametrize("ks", [[True, 2], [2, False], [2.0, 3], [3, 2.5], [F(2), 3], ["2"]])
    def test_non_int_factor_refused(self, ks):
        with pytest.raises(DomainError, match="factors must be ints"):
            middle_layer_count(ks)

    def test_examples(self):
        assert middle_layer_count([2, 2, 2, 2]) == 6
        assert middle_layer_count([7]) == 1
        assert middle_layer_count([1] * 6) == 1  # every factor 1: one tuple, all zeros
        assert middle_layer_count([2, 3]) == 2

    def test_binomial_row(self):
        for n in range(1, 12):
            assert middle_layer_count([2] * n) == math.comb(n, (n + 1) // 2)

    def test_against_enumeration(self):
        rng = random.Random(77)
        for _ in range(25):
            ks = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
            n_total = sum(k - 1 for k in ks)
            target = (n_total + 1) // 2
            brute = sum(
                1
                for tup in itertools.product(*(range(k) for k in ks))
                if sum(tup) == target
            )
            assert middle_layer_count(ks) == brute

    def test_validation(self):
        with pytest.raises(DomainError):
            middle_layer_count([])
        with pytest.raises(DomainError):
            middle_layer_count([2, 0])


class TestJonesBound:
    def test_two_two_blocks(self):
        a = line_block([0, 1])
        res = jones_bound([a, a])
        assert res.bound == F(1, 2)
        assert res.q_exact == F(1, 2)
        assert res.ok

    def test_four_two_blocks_reach_three_eighths(self):
        a = line_block([0, 1])
        res = jones_bound([a] * 4)
        assert res.bound == F(3, 8)
        assert res.q_exact == F(3, 8)

    def test_single_block(self):
        b = line_block([0, 1, 2, 3])
        res = jones_bound([b])
        assert res.bound == F(1, 4) and res.q_exact == F(1, 4)

    def test_tilted_blocks_strictly_below(self):
        # blocks in the plane spaced just over 1 apart: the sum spreads out
        # and the bound is not tight
        a = Block.from_points([(F(0), F(0)), (F(9, 8), F(1, 16))], X_FRAME)
        b = Block.from_points([(F(0), F(0)), (F(10, 8), F(-1, 16))], X_FRAME)
        res = jones_bound([a, b])
        assert res.bound == F(1, 2)
        assert res.q_exact is not None and res.q_exact <= res.bound

    @pytest.mark.parametrize("side", ["t_value", "middle_layer_count"])
    def test_disagreeing_sides_raise(self, monkeypatch, side):
        real = getattr(chains, side)
        monkeypatch.setattr(chains, side, lambda arg: real(arg) + 1)
        b = line_block([0, 1, 2])
        with pytest.raises(InvariantViolation, match="differs from the lattice t-value"):
            jones_bound([b, b])


def near_line_set(rng, norm):
    # a 1/32 grid strip well inside every norm's near-line radius
    n = rng.randint(10, 24)
    return PointConfig(norm, tuple(
        (F(rng.randint(0, 32 * n // 6), 32), F(rng.randint(-3, 3), 32)) for _ in range(n)
    ))


class TestKnownFunctionalValues:
    """Blocks and chains carry f values equal to the frame's own."""

    @staticmethod
    def assert_values(block, frame):
        assert block.frame == frame
        assert list(block.f_raw) == [frame.f_raw(p) for p in block.points]
        assert block == Block.from_points(block.points, frame)

    @pytest.mark.parametrize("norm", [l2(2), l1(2), linf(2)], ids=lambda n: n.kind)
    def test_blocks_and_chains_of_near_line_sets(self, norm):
        rng = random.Random({"l2": 60, "l1": 61, "linf": 62}[norm.kind])
        for _ in range(8):
            cfg = near_line_set(rng, norm)
            frame = near_line_fit(cfg).frame
            blocks = block_decomposition(cfg, frame)
            for b in blocks:
                self.assert_values(b, frame)
            for chain in iterated_decompose(blocks[:3]).chains:
                self.assert_values(chain, frame)

    def test_btk_chains_of_random_blocks(self):
        rng = random.Random(63)
        for _ in range(30):
            a, b = random_block(rng), random_block(rng)
            for chain in btk_decompose(a, b).chains:
                self.assert_values(chain, X_FRAME)

    def test_wrong_values_still_raise(self):
        pts = ((F(0), F(0)), (F(2), F(0)))
        with pytest.raises(InvariantViolation, match="sorted"):
            Block(pts[::-1], (F(2), F(0)), X_FRAME)
        with pytest.raises(InvariantViolation, match="closer than 1/2"):
            Block(((F(0), F(0)), (F(1, 4), F(1))), (F(0), F(1, 4)), X_FRAME)
        with pytest.raises(InvariantViolation, match="distance below 1"):
            Block(((F(0), F(0)), (F(1, 2), F(0))), (F(0), F(1, 2)), X_FRAME)
        y_frame = supporting_functional(l2(2), (0, 1))
        with pytest.raises(InvariantViolation, match="wrong at point"):  # f = y is 0 at both
            Block(((0, 0), (1, 0)), (0, 100), y_frame)
        with pytest.raises(InvariantViolation, match="1 functional values for 2"):
            Block(pts, (F(0),), X_FRAME)
        with pytest.raises(InvariantViolation, match="3 functional values for 2"):
            Block(pts, (F(0), F(2), F(4)), X_FRAME)
        with pytest.raises(InvariantViolation, match="wrong at point"):
            Block(pts, (F(0), F(1, 4)), X_FRAME)


    def test_wrong_values_through_from_scaled(self):
        # the same cases on integer points and numerators: X_FRAME has C = (1, 0)
        with pytest.raises(InvariantViolation, match="sorted"):
            Block._from_scaled(X_FRAME, 1, [(2, 0), (0, 0)], [2, 0])
        with pytest.raises(InvariantViolation, match="closer than 1/2"):
            Block._from_scaled(X_FRAME, 4, [(0, 0), (1, 4)], [0, 1])
        with pytest.raises(InvariantViolation, match="distance below 1"):
            Block._from_scaled(X_FRAME, 2, [(0, 0), (1, 0)], [0, 1])
        y_frame = supporting_functional(l2(2), (0, 1))
        with pytest.raises(InvariantViolation, match="wrong at point"):
            Block._from_scaled(y_frame, 1, [(0, 0), (1, 0)], [0, 100])
        with pytest.raises(InvariantViolation, match="1 functional values for 2"):
            Block._from_scaled(X_FRAME, 1, [(0, 0), (2, 0)], [0])
        with pytest.raises(InvariantViolation, match="3 functional values for 2"):
            Block._from_scaled(X_FRAME, 1, [(0, 0), (2, 0)], [0, 2, 4])
        with pytest.raises(DomainError, match="at least one point"):
            Block._from_scaled(X_FRAME, 1, [], [])
        # the message names the value and the point as the public one does
        with pytest.raises(InvariantViolation) as public:
            Block(((F(0), F(0)), (F(2), F(0))), (F(0), F(1, 4)), X_FRAME)
        with pytest.raises(InvariantViolation) as scaled:
            Block._from_scaled(X_FRAME, 4, [(0, 0), (8, 0)], [0, 1])
        assert str(scaled.value) == str(public.value)


# --- reference: the Fraction peeling the integer chains replaced -------------


def ref_btk_decompose(a, b):
    """Chains from Fraction sums of points and values, each chain built by
    the public constructor, which scales and checks it afresh."""
    big, small = (a, b) if len(a) >= len(b) else (b, a)
    xs, ys = big.points, small.points
    m, n = len(xs), len(ys)
    out = []
    for k in range(n):
        cells = [(j, k) for j in range(m - k)] + [(m - k - 1, i) for i in range(k + 1, n)]
        points = tuple(tuple(u + v for u, v in zip(xs[j], ys[i])) for j, i in cells)
        values = tuple(big.f_raw[j] + small.f_raw[i] for j, i in cells)
        out.append(Block(points, values, a.frame))
    return ChainDecomposition(tuple(out))


def ref_iterated_decompose(blocks):
    chains_ = [blocks[0]]
    for nxt in blocks[1:]:
        chains_ = [c for chain in chains_ for c in ref_btk_decompose(chain, nxt).chains]
    return ChainDecomposition(tuple(chains_))


CHAIN_FRAMES = [
    supporting_functional(norm, d)
    for norm in (l2(2), l1(2), linf(2), lp(3, 2))
    for d in ((1, 0), (F(3, 2), F(1, 2)), (1, F(-2, 3)), (1, 1))
]


@st.composite
def frame_blocks(draw, count):
    """Blocks along one frame's direction, each on its own scale: steps of at
    least 2 along the direction and jitter of at most 1/32 per coordinate
    keep functional gaps and distances above 1. Some are rebuilt through the
    public constructor."""
    frame = draw(st.sampled_from(CHAIN_FRAMES))
    dx, dy = frame.direction
    blocks = []
    for _ in range(count):
        den = draw(st.sampled_from([1, 2, 3, 5, 8, 16]))
        k = draw(st.integers(1, 5))
        t, pts = F(draw(st.integers(-3, 3)), den), []
        for _ in range(k):
            u, v = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
            pts.append((t * dx + F(u, 32 * den), t * dy + F(v, 32 * den)))
            t += 2 + F(draw(st.integers(0, 8)), den)
        block = Block.from_points(draw(st.permutations(pts)), frame)
        if draw(st.booleans()):
            block = Block(block.points, block.f_raw, frame)
        blocks.append(block)
    return blocks


def assert_same_chains(got, want):
    assert [c.points for c in got.chains] == [c.points for c in want.chains]
    assert [c.f_raw for c in got.chains] == [c.f_raw for c in want.chains]
    assert got.sizes == want.sizes
    assert got.to_json() == want.to_json()


class TestIntegerChains:
    """Chains peeled on integer points and numerators equal the Fraction
    peeling's, on every scale and frame."""

    @given(frame_blocks(2))
    @settings(max_examples=150, deadline=None)
    def test_btk_matches_fraction_reference(self, blocks):
        a, b = blocks
        assert_same_chains(btk_decompose(a, b), ref_btk_decompose(a, b))

    @given(frame_blocks(3))
    @settings(max_examples=60, deadline=None)
    def test_iterated_matches_fraction_reference(self, blocks):
        assert_same_chains(iterated_decompose(blocks), ref_iterated_decompose(blocks))

    def test_mixed_scales_go_to_the_lcm(self):
        a = Block.from_points([(F(0), F(0)), (F(7, 3), F(0))], X_FRAME)
        b = Block.from_points([(F(0), F(1, 8)), (F(17, 8), F(0))], X_FRAME)
        d = btk_decompose(a, b)
        assert {c._s for c in d.chains} == {24}
        assert_same_chains(d, ref_btk_decompose(a, b))


class TestChainsScaleNothing:
    """Counts ``_scaled_integers`` calls: a certify pass scales each config
    and each frame's coefficients once, and no block or chain rescales."""

    @pytest.fixture
    def scaled_calls(self, monkeypatch):
        calls, chain_calls = [], []
        original = geometry._scaled_integers

        def counted(into):
            def scaled(points):
                into.append(tuple(points))
                return original(points)
            return scaled

        monkeypatch.setattr(geometry, "_scaled_integers", counted(calls))
        monkeypatch.setattr(chains, "_scaled_integers", counted(chain_calls))
        return calls, chain_calls

    @pytest.mark.parametrize("norm", [l2(2), l1(2), linf(2)], ids=lambda n: n.kind)
    def test_certify_pass(self, norm, scaled_calls):
        calls, chain_calls = scaled_calls
        rng = random.Random({"l2": 1800, "l1": 1801, "linf": 1802}[norm.kind])
        for _ in range(8):
            calls.clear()
            cfg = near_line_set(rng, norm)
            fit = near_line_fit(cfg)
            distance_graph(cfg)
            blocks = block_decomposition(cfg, fit.frame)
            separation_check(fit.frame, cfg)
            assert len(iterated_decompose(blocks[:3]).chains) == middle_layer_count(
                [len(b) for b in blocks[:3]])
            assert jones_bound(blocks[:3]).ok
            assert sorted(calls, key=len) == [(fit.frame.coeffs,), cfg.points]
            assert chain_calls == []


class TestBlockIdentity:
    """A block built from integers is the dataclass the public constructor
    gives: same equality, hash, repr, length and frozenness."""

    def test_matches_public_constructor(self):
        rng = random.Random(1810)
        for norm in (l2(2), l1(2), linf(2)):
            for _ in range(5):
                cfg = near_line_set(rng, norm)
                frame = near_line_fit(cfg).frame
                for b in block_decomposition(cfg, frame):
                    h, r = hash(b), repr(b)  # before anything else is read
                    public = Block(b.points, b.f_raw, frame)
                    assert b == public and public == b
                    assert h == hash(public) and r == repr(public)
                    assert len(b) == len(public) == len(b.points)

    def test_unequal_blocks(self):
        a = Block.from_points([(F(0), F(0)), (F(2), F(0))], X_FRAME)
        assert a != Block.from_points([(F(0), F(0)), (F(3), F(0))], X_FRAME)
        assert a != Block.from_points([(F(0), F(0)), (F(2), F(0))], supporting_functional(l1(2), (1, 0)))
        assert a == Block.from_points([(F(2), F(0)), (F(0), F(0))], supporting_functional(l2(2), (1, 0)))

    def test_frozen(self):
        scaled = Block._from_scaled(X_FRAME, 1, [(0, 0), (2, 0)], [0, 2])
        public = Block(((F(0), F(0)), (F(2), F(0))), (F(0), F(2)), X_FRAME)
        for b in (scaled, public):
            for name in ("points", "f_raw", "frame", "_ipts"):
                with pytest.raises(FrozenInstanceError):
                    setattr(b, name, None)
            with pytest.raises(FrozenInstanceError):
                del b.points
            with pytest.raises(AttributeError):
                b.no_such_field
        assert scaled == public


class TestDimensions:
    """Points of another dimension than the frame's are refused, not cut."""

    def test_public_constructor(self):
        with pytest.raises(DimensionMismatch, match="expected dimension 2, got 3"):
            Block(((F(0), F(0), F(7)), (F(2), F(0))), (F(0), F(2)), X_FRAME)
        with pytest.raises(DimensionMismatch, match="expected dimension 2, got 1"):
            Block(((F(0),), (F(2),)), (F(0), F(2)), X_FRAME)

    def test_from_points(self):
        with pytest.raises(DimensionMismatch, match="expected dimension 2, got 3"):
            Block.from_points([(0, 0, 7), (2, 0)], X_FRAME)
        with pytest.raises(DimensionMismatch, match="expected dimension 2, got 1"):
            Block.from_points([(0,), (2,)], X_FRAME)

    def test_block_decomposition(self):
        cfg = PointConfig(l2(2), ((F(0), F(0)), (F(2), F(0))))
        with pytest.raises(DimensionMismatch, match="expected dimension 1, got 2"):
            block_decomposition(cfg, LINE_FRAME)


class TestOneFrame:
    def test_jones_bound_refuses_mixed_frames(self):
        pts = [(F(0), F(0)), (F(2), F(0))]
        l2_block = Block.from_points(pts, X_FRAME)
        l1_block = Block.from_points(pts, supporting_functional(l1(2), (1, 0)))
        for blocks in ([l2_block, l1_block], [l1_block, l2_block, l2_block]):
            with pytest.raises(DomainError, match="blocks must share one line frame"):
                jones_bound(blocks)
            with pytest.raises(DomainError, match="blocks must share one line frame"):
                iterated_decompose(blocks)

    def test_equal_frames_are_one_frame(self):
        a = Block.from_points([(F(0), F(0)), (F(2), F(0))], X_FRAME)
        b = Block.from_points([(F(0), F(0)), (F(2), F(0))], supporting_functional(l2(2), (1, 0)))
        assert jones_bound([a, b]).bound == F(1, 2)

    @pytest.mark.parametrize("pair", [(l1(2), lp(1, 2)), (l2(2), lp(2, 2))], ids=["l1-lp1", "l2-lp2"])
    def test_frames_in_one_norm_under_two_names_are_one_frame(self, pair):
        pts = [(F(0), F(0)), (F(2), F(1, 16)), (F(4), F(0))]
        a, b = (Block.from_points(pts, supporting_functional(n, (1, 0))) for n in pair)
        want = btk_decompose(a, a)
        for x, y in ((a, b), (b, a)):
            assert [c.points for c in btk_decompose(x, y).chains] == [c.points for c in want.chains]
        assert iterated_decompose([b, a, b]).sizes == iterated_decompose([a, a, a]).sizes
        assert jones_bound([a, b]) == jones_bound([a, a])

    def test_l1_and_linf_frames_with_equal_numbers_differ(self):
        # the sign functional of l1 and the coordinate functional of linf
        # along (1, 0) have the same coefficients and scale
        pts = [(F(0), F(0)), (F(2), F(0))]
        a, b = (Block.from_points(pts, supporting_functional(n, (1, 0))) for n in (l1(2), linf(2)))
        assert (a.frame.coeffs, a.frame.scale_pow, a.frame.scale_root) == \
            (b.frame.coeffs, b.frame.scale_pow, b.frame.scale_root)
        with pytest.raises(DomainError, match="blocks must share one line frame"):
            btk_decompose(a, b)


@pytest.mark.parametrize("call", [iterated_decompose, jones_bound], ids=["iterated", "jones"])
def test_input_checks(call):
    with pytest.raises(DomainError, match="^need at least one block$"):
        call([])
