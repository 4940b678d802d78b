import importlib.util
import math
import re
from collections import Counter
from fractions import Fraction as F
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from anticonc.bounds import clt_window, main_bound, make_main_bound_params, minimal_delta_prime
from anticonc.chains import Block, jones_bound, middle_layer_count
from anticonc import lattice
from anticonc.errors import DomainError, InvariantViolation
from anticonc.geometry import l2, supporting_functional
from anticonc.lattice import (
    ExtremalSpec,
    LatticeMeasure,
    ParityRestrictionReport,
    VarianceProfile,
    _centre_t_value,
    _cubes_by_twos,
    _extremal_weights,
    _power_low,
    check_unimodal_logconcave,
    concentration_1d,
    convolve,
    convolve_many,
    delta,
    extremal_measure,
    extremal_variance,
    t_value,
    third_abs_moment,
    variance_profile,
)

rationals_01 = st.fractions(min_value=F(1, 100), max_value=1)

# alpha = 1 (k = 1, a point mass), alpha = 1/k (zero weight on the k+1
# outer atoms) and general mixtures, with k of both parities
mixed_alphas = st.one_of(
    st.just(F(1)),
    st.integers(1, 9).map(lambda k: F(1, k)),
    st.fractions(min_value=F(1, 12), max_value=1, max_denominator=60),
)


# alpha = 1, alpha = 1/k and every j/d with d <= 25, drawn from a small pool
# so lists repeat alphas, then shuffled
@st.composite
def t_value_lists(draw):
    alpha = st.one_of(
        st.just(F(1)),
        st.integers(1, 25).map(lambda k: F(1, k)),
        st.integers(1, 25).flatmap(lambda d: st.integers(1, d).map(lambda j: F(j, d))),
    )
    pool = draw(st.lists(alpha, min_size=1, max_size=5))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=14))
    return draw(st.permutations(picks))


# runs of up to 60 equal alphas: alpha = 1, alpha = 1/k (zero outer weight)
# and mixtures j/d with k <= 8; 1-4 distinct values, runs of one included
run_alpha = st.one_of(
    st.just(F(1)),
    st.integers(2, 8).map(lambda k: F(1, k)),
    st.integers(3, 8).flatmap(lambda d: st.integers(2, d - 1).map(lambda j: F(j, d))),
)


@st.composite
def run_lists(draw):
    values = draw(st.lists(run_alpha, min_size=1, max_size=4, unique=True))
    counts = st.one_of(st.just(1), st.integers(1, 60))
    picks = [a for a in values for _ in range(draw(counts))]
    return draw(st.permutations(picks))


def ref_extremal_step(acc, k, inner, outer):
    """The full-width step: ``acc`` convolved with one extremal factor.

    outer·box_{k+1}(acc) + inner·shift(box_k(acc)), where box_m sums m
    slots two apart, from the stride-2 prefix sums s of acc. The result is
    2k slots longer.
    """
    n = len(acc) + 2 * k
    padded = acc + [0] * (2 * k)
    s = [0] * n
    s[0::2] = accumulate(padded[0::2])
    s[1::2] = accumulate(padded[1::2])
    lag = [0] * (2 * k + 2) + s  # lag[j + 2k + 2 - i] is s[j - i], 0 before slot 0
    return [
        outer * (s_j - s_back) + inner * (s_prev - s_prev_back)
        for s_j, s_prev, s_prev_back, s_back in zip(s, lag[2 * k + 1:], lag[1:], lag)
    ]


def ref_t_value(alphas):
    """The full-width recurrence, factors in the given order."""
    acc, den, mid = [1], 1, 0
    for a in alphas:
        k, inner, outer, d = _extremal_weights(a)
        acc = ref_extremal_step(acc, k, inner, outer)
        den *= d
        mid += k
    return F(acc[mid] + acc[mid + 1], den)


def ref_product_of_powers(runs):
    """The product of g^c over the (g, c) ``runs``, one multiplication at a time."""
    power = [1]
    for g, c in runs:
        for _ in range(c):
            power = [sum(power[i] * g[m - i] for i in range(len(power)) if 0 <= m - i < len(g))
                     for m in range(len(power) + len(g) - 1)]
    return power


def weights_of(m: LatticeMeasure) -> list[F]:
    return list(m.weights)


def fraction_convolve(a: LatticeMeasure, b: LatticeMeasure) -> LatticeMeasure:
    """Reference convolution directly on Fraction weights."""
    out = [F(0)] * (len(a.weights) + len(b.weights) - 1)
    for i, wa in enumerate(a.weights):
        for j, wb in enumerate(b.weights):
            out[i + j] += wa * wb
    return LatticeMeasure(a.offset_index + b.offset_index, tuple(out))


class TestExtremalMeasure:
    def test_alpha_one_is_point_mass(self):
        m = extremal_measure(1)
        assert m == delta(0)

    def test_alpha_half_is_uniform_pm_half(self):
        m = extremal_measure(F(1, 2))
        assert m.offset_index == -1
        assert weights_of(m) == [F(1, 2), F(0), F(1, 2)]

    def test_alpha_three_eighths_mixture(self):
        # p solves p/2 + (1-p)/3 = 3/8, so p = 1/4; atoms merge on the lattice
        m = extremal_measure(F(3, 8))
        assert m.offset_index == -2
        assert weights_of(m) == [F(1, 4), F(1, 8), F(1, 4), F(1, 8), F(1, 4)]

    @pytest.mark.parametrize("alpha", [F(0), F(-1, 2), F(9, 8), F(2)])
    def test_domain_errors(self, alpha):
        with pytest.raises(DomainError):
            extremal_measure(alpha)

    def test_spec_identity(self):
        spec = ExtremalSpec.from_alpha(F(5, 12))
        assert spec.k == 2
        assert F(spec.p, spec.k) + F(1 - spec.p, spec.k + 1) == F(5, 12)

    @given(rationals_01)
    @settings(max_examples=80, deadline=None)
    def test_symmetric_and_calibrated(self, alpha):
        m = extremal_measure(alpha)
        assert m.is_symmetric()
        assert concentration_1d(m) == alpha

    @given(rationals_01)
    @settings(max_examples=60, deadline=None)
    def test_second_moment_matches_closed_form(self, alpha):
        m = extremal_measure(alpha)
        assert m.moment(2) == extremal_variance(alpha)


class TestExtremalVariance:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(F(1), F(0)), (F(1, 2), F(1, 4)), (F(1, 3), F(2, 3))],
    )
    def test_values(self, alpha, expected):
        assert extremal_variance(alpha) == expected

    def test_inverse_integer_formula(self):
        for k in range(1, 12):
            assert extremal_variance(F(1, k)) == F(k * k - 1, 12)

    def test_convex_on_rational_grid(self):
        grid = [F(i, 40) for i in range(1, 41)]
        lam = F(1, 3)
        for a in grid:
            for b in grid:
                if a >= b:
                    continue
                mid = lam * a + (1 - lam) * b
                assert extremal_variance(mid) <= lam * extremal_variance(
                    a
                ) + (1 - lam) * extremal_variance(b)


# a/b in (0, 1] with b up to 10^12: alpha = 1, alpha = 1/k, and general
# ratios, small and near 1 alike
wide_alphas = st.one_of(
    st.just(F(1)),
    st.integers(1, 10**12).map(lambda k: F(1, k)),
    st.integers(1, 10**12).flatmap(lambda b: st.integers(1, b).map(lambda a: F(a, b))),
)


class TestClosedForm:
    """The integer closed forms against ``ExtremalSpec``'s Fraction form."""

    @given(wide_alphas)
    @settings(max_examples=300, deadline=None)
    def test_weights_match_spec(self, alpha):
        spec = ExtremalSpec.from_alpha(alpha)
        k, inner, outer, den = _extremal_weights(alpha)
        assert k == spec.k
        assert F(inner, den) == spec.p / spec.k
        assert F(outer, den) == (1 - spec.p) / (spec.k + 1)
        assert den == alpha.denominator and math.gcd(inner, outer, den) == 1

    @given(wide_alphas)
    @settings(max_examples=200, deadline=None)
    def test_variance_matches_spec(self, alpha):
        spec = ExtremalSpec.from_alpha(alpha)
        k, p = spec.k, spec.p
        # p times the variance of the uniform law on k slots, plus 1 - p
        # times that on k + 1 slots
        assert extremal_variance(alpha) == p * F(k * k - 1, 12) + (1 - p) * F(k * (k + 2), 12)

    def test_cube_sums_match_loop(self):
        for t in range(500):
            assert _cubes_by_twos(t) == sum(i**3 for i in range(t, 0, -2))

    def test_third_moment_of_tiny_alpha(self):
        # 1/alpha = 2m slots 2Y = +-1, +-3, ..., +-(2m - 1), each of mass
        # alpha, and 1^3 + 3^3 + ... + (2m - 1)^3 = m^2 (2m^2 - 1)
        k = 10**12
        m = k // 2
        assert third_abs_moment(F(1, k)) == F(2 * m * m * (2 * m * m - 1), 8 * k)

    def test_kernels_never_build_a_spec(self, monkeypatch):
        def refuse(cls, alpha):
            raise AssertionError("ExtremalSpec is the reference, not a kernel")

        monkeypatch.setattr(ExtremalSpec, "from_alpha", classmethod(refuse))
        _centre_t_value.cache_clear()
        alphas = [F(3, 8)] * 20 + [F(1, 2)] * 10 + [F(2, 7)] * 5
        t = t_value(alphas)
        assert t == ref_t_value(alphas)
        assert clt_window(alphas, F(1, 4), minimal_delta_prime(alphas)).exact_t == t
        assert make_main_bound_params(alphas, d=2, C=0.01, c=F(1, 4)).t.fraction == t
        frame = supporting_functional(l2(1), (F(1),))
        block = Block.from_points([(F(x),) for x in range(3)], frame)
        # 3 of the 9 pairs in {0, 1, 2}^2 sum to 2
        assert jones_bound([block, block]).bound == F(1, 3)


class TestBoolAlpha:
    """bool is an int subclass, but True is no alpha."""

    @pytest.mark.parametrize("alphas", [[True], [F(1, 2), True], [False]])
    def test_t_value(self, alphas):
        with pytest.raises(DomainError, match="bool"):
            t_value(alphas)

    @pytest.mark.parametrize("fn", [extremal_variance, third_abs_moment, extremal_measure])
    def test_single_alpha(self, fn):
        with pytest.raises(DomainError, match="bool"):
            fn(True)

    def test_variance_profile(self):
        with pytest.raises(DomainError, match="bool"):
            VarianceProfile(((True, 1),))

    def test_clt_window(self):
        with pytest.raises(DomainError, match="bool"):
            clt_window([F(1, 2), True], F(1, 4), 0.5)

    def test_one_is_still_an_alpha(self):
        assert t_value([1, F(1, 2)]) == F(1, 2)
        assert VarianceProfile(((1, 1),)).total == 0


class TestConvolve:
    def test_delta_is_identity(self):
        m = extremal_measure(F(3, 8))
        assert convolve(delta(0), m) == m

    def test_two_coin_flips(self):
        u = extremal_measure(F(1, 2))
        c = convolve(u, u)
        assert c.offset_index == -2
        assert [c.mass_at(F(x)) for x in (-1, 0, 1)] == [F(1, 4), F(1, 2), F(1, 4)]

    def test_two_thirds(self):
        u = extremal_measure(F(1, 3))
        c = convolve(u, u)
        assert [c.mass_at(F(x)) for x in range(-2, 3)] == [
            F(1, 9),
            F(2, 9),
            F(3, 9),
            F(2, 9),
            F(1, 9),
        ]

    @given(st.lists(rationals_01, min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_commutative_associative(self, alphas):
        ms = [extremal_measure(a) for a in alphas]
        left = convolve_many(ms)
        right = convolve_many(list(reversed(ms)))
        assert left == right
        if len(ms) >= 3:
            a = convolve(convolve(ms[0], ms[1]), ms[2])
            b = convolve(ms[0], convolve(ms[1], ms[2]))
            assert a == b

    @given(st.lists(mixed_alphas, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_reference(self, alphas):
        ms = [extremal_measure(a) for a in alphas]
        expected = ms[0]
        for m in ms[1:]:
            expected = fraction_convolve(expected, m)
        assert convolve_many(ms) == expected
        assert convolve(ms[0], ms[-1]) == fraction_convolve(ms[0], ms[-1])

    def test_non_extremal_operands(self):
        a = LatticeMeasure(-3, (F(1, 6), F(0), F(1, 2), F(1, 3)))
        b = LatticeMeasure(4, (F(2, 7), F(5, 7)))
        assert convolve(a, b) == fraction_convolve(a, b)


class TestTValue:
    def test_single_point_mass(self):
        assert t_value([F(1)]) == F(1)

    def test_two_coins(self):
        assert t_value([F(1, 2), F(1, 2)]) == F(1, 2)

    def test_four_coins(self):
        assert t_value([F(1, 2)] * 4) == F(3, 8)

    def test_central_binomial_law(self):
        for n in (1, 2, 3, 5, 8, 13):
            expected = F(math.comb(n, (n + 1) // 2), 2 ** n)
            assert t_value([F(1, 2)] * n) == expected

    def test_central_binomial_200(self):
        assert t_value([F(1, 2)] * 200) == F(math.comb(200, 100), 2 ** 200)

    def test_mixed_parity(self):
        # one coin, one three-point uniform: mass sits at 1/2 only
        assert t_value([F(1, 2), F(1, 3)]) == F(1, 3)

    @given(st.lists(rationals_01, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_window_concentration(self, alphas):
        conv = convolve_many([extremal_measure(a) for a in alphas])
        assert t_value(alphas) == concentration_1d(conv)

    @given(st.lists(mixed_alphas, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_convolution_mass(self, alphas):
        m = convolve_many([extremal_measure(a) for a in alphas])
        assert t_value(alphas) == m.mass_at(F(0)) + m.mass_at(F(1, 2))

    @pytest.mark.parametrize(
        "ks", [list(range(1, 9)) * 6, [2] * 48, [3, 5, 7] * 16, [1, 4] * 24]
    )
    def test_uniform_factors_count_middle_layer(self, ks):
        assert len(ks) == 48
        expected = F(middle_layer_count(ks), math.prod(ks))
        assert t_value([F(1, k) for k in ks]) == expected

    def test_pinned_long_mixture(self):
        # computed by a direct Fraction convolution of the 64 factors
        assert t_value([F(3, 8)] * 64) == F(
            207767857972779419672960828374731304258672136959147000035,
            3138550867693340381917894711603833208051177722232017256448,
        )

    @pytest.mark.parametrize("alphas", [[], [F(0)], [F(6, 5)], [F(1, 2), F(0)]])
    def test_domain_errors(self, alphas):
        with pytest.raises(DomainError):
            t_value(alphas)

    def test_float_alpha_rejected(self):
        with pytest.raises(TypeError):
            t_value([F(1, 2), 0.5])


class TestCentreWindow:
    @given(t_value_lists())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_width_reference(self, alphas):
        assert t_value(alphas) == ref_t_value(alphas)

    @pytest.mark.parametrize(
        "alphas",
        [[F(1, 2)] * 257, [F(1, 25)] + [F(1)] * 30, [F(1, 8), F(2, 8), F(3, 8)] * 40,
         [F(24, 25), F(1, 25), F(1)] * 20],
    )
    def test_long_lists_match_reference(self, alphas):
        assert t_value(alphas) == ref_t_value(alphas) == ref_t_value(alphas[::-1])

    @given(run_lists())
    @settings(max_examples=120, deadline=None)
    def test_runs_match_full_width_reference(self, alphas):
        assert t_value(alphas) == ref_t_value(alphas)

    @pytest.mark.parametrize(
        "alphas",
        [[F(1)] * 40, [F(1, 3)] * 59, [F(3, 8)] * 60,
         [F(1, 4)] * 37 + [F(1)], [F(2, 5)] + [F(1, 2)] * 60,
         [F(1, 5)] * 20 + [F(3, 8)] + [F(1)] * 30,
         [F(1, 7)] * 13 + [F(2, 7)] * 45 + [F(1, 2)] * 60 + [F(1)] * 3,
         [F(5, 6), F(1, 6), F(1, 2), F(3, 4)] * 15],
        ids=["one-1", "one-1/k", "one-mixture", "two-last-single",
             "two-first-single", "three-middle-single", "four", "four-interleaved"],
    )
    def test_run_shapes_match_reference(self, alphas):
        assert t_value(alphas) == ref_t_value(alphas)

    @pytest.mark.parametrize("n", [4, 99, 100, 2047, 2048])
    def test_coin_runs_central_binomial(self, n):
        assert t_value([F(1, 2)] * n) == F(math.comb(n, n // 2), 2 ** n)

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 199, 200])
    def test_uniform_runs_count_middle_layer(self, k, n):
        assert t_value([F(1, k)] * n) == F(middle_layer_count([k] * n), k ** n)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(lambda g: g[0]),
           st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_power_matches_repeated_product(self, g, c):
        power = ref_product_of_powers([(g, c)])
        n = len(power) + 2
        assert _power_low([(g, c)], n) == power + [0] * 3

    @given(st.lists(st.tuples(st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(lambda g: g[0]),
                              st.integers(1, 8)), min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_product_of_powers_matches_repeated_product(self, runs):
        power = ref_product_of_powers(runs)
        n = len(power) + 2
        assert _power_low(runs, n) == power + [0] * 3

    def test_remainder_is_an_invariant_violation(self, monkeypatch):
        # an exact product never leaves one; a wrong Q or R does
        convolve = lattice._convolve_ints
        monkeypatch.setattr(lattice, "_convolve_ints", lambda a, b: [x + 1 for x in convolve(a, b)])
        for runs in ([([2, 1], 3), ([1, 3], 2)], [([1, 1], 2), ([1, 2, 1], 1)]):
            with pytest.raises(InvariantViolation, match="remainder"):
                _power_low(runs, 6)

    def test_memo_ignores_order_and_input_type(self):
        _centre_t_value.cache_clear()
        t = t_value([F(1, 3), F(1, 2), F(1, 2), F(2, 7)])
        assert t_value(["1/2", F(2, 7), F(2, 4), "2/6"]) == t
        info = _centre_t_value.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_domain_error_raised_every_call(self):
        _centre_t_value.cache_clear()
        for _ in range(3):
            with pytest.raises(DomainError):
                t_value([F(1, 2), F(0)])
        assert _centre_t_value.cache_info().currsize == 0

    def test_window_and_master_bound_share_one_t_value(self):
        alphas = [F(3, 8)] * 60 + [F(1, 2)] * 40
        _centre_t_value.cache_clear()
        report = clt_window(alphas, F(1, 4), minimal_delta_prime(alphas))
        assert _centre_t_value.cache_info().misses == 1
        params = make_main_bound_params(alphas, d=2, C=0.01, c=F(1, 4))
        info = _centre_t_value.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        main_bound(params)
        minimal_delta_prime(alphas[::-1])
        assert _centre_t_value.cache_info().misses == 1
        assert params.t.fraction == report.exact_t == ref_t_value(alphas)


# 3-6 runs: alpha = 1, alpha = 1/k and mixtures j/d with k <= 4, counts up
# to 300 while the half-width stays within 1200, so the reference is quick
@st.composite
def product_run_lists(draw):
    values = draw(st.lists(st.one_of(
        st.just(F(1)),
        st.integers(2, 6).map(lambda k: F(1, k)),
        st.integers(3, 8).flatmap(lambda d: st.integers(2, d - 1).map(lambda j: F(j, d))),
    ), min_size=3, max_size=6, unique=True))
    budget, alphas = 1200, []
    for a in values:
        k = a.denominator // a.numerator
        c = draw(st.integers(1, max(1, min(300, budget // k))))
        budget -= k * c
        alphas += [a] * c
    return alphas


def _load_bench_mixes():
    path = Path(__file__).resolve().parent.parent / "bench" / "mixes.py"
    spec = importlib.util.spec_from_file_location("bench_mixes", path)
    mixes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mixes)
    return mixes


class _PathTaken(Exception):
    pass


def _spy_powers(mp, stop=False):
    """The run count of every `_centre_power` call `_centre_t_value` makes:
    the last run's first, then the head's, more than one run on the product
    path and one, the seed, on the fold. With ``stop``, the head's call
    raises `_PathTaken` instead of computing."""
    power, calls = lattice._centre_power, []

    def spy(factors, tally=None):
        calls.append(len(factors))
        if stop and len(calls) == 2:
            raise _PathTaken
        return power(factors, tally)

    mp.setattr(lattice, "_centre_power", spy)
    return calls


def _path_taken(pairs) -> str:
    """Which path `_centre_t_value` takes on the (num, den) ``pairs``:
    "packed", "product" or "fold" (a one-run list counts as a fold)."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_powers(mp, stop=True)

        def packed(*args):
            raise _PathTaken

        mp.setattr(lattice, "_packed_centre", packed)
        try:
            _centre_t_value.__wrapped__(lattice._alpha_runs([F(n, d) for n, d in pairs]))
        except _PathTaken:
            pass
    return "packed" if not calls else "product" if len(calls) > 1 and calls[1] > 1 else "fold"


def _force_path(mp, path: str) -> None:
    """Make `_centre_t_value` take ``path`` wherever it can: the packed
    cutoff above or below every list, and for the product and the fold a
    head tally of degree 0 (the product is free) or of infinite degree
    (dearer than any fold). The last run's own tally prices its power and
    stays true."""
    mp.setattr(lattice, "_PACKED_BITS", math.inf if path == "packed" else 0)
    if path != "packed":
        tally, degree = lattice._tally, 0 if path == "product" else math.inf
        mp.setattr(lattice, "_tally", lambda runs: tally(runs)[:3] + (degree,) if len(runs) > 1 else tally(runs))


class TestProductOfPowersPath:
    """The runs before the last are one product of powers or a seed and a
    fold, whichever counts fewer steps; both give the reference t-value.
    The packed cutoff is pinned below every list, so neither is skipped."""

    @given(product_run_lists())
    @settings(max_examples=30, deadline=None)
    def test_both_paths_match_reference(self, alphas):
        # a head has two or more runs here, so either path can be forced
        want = ref_t_value(alphas)
        for path, product in (("product", True), ("fold", False)):
            with pytest.MonkeyPatch.context() as mp:
                _force_path(mp, path)
                calls = _spy_powers(mp)
                assert _centre_t_value.__wrapped__(lattice._alpha_runs(alphas)) == want
                assert (calls[1] > 1) is product

    @given(st.lists(st.tuples(run_alpha, st.integers(1, 60)), min_size=3, max_size=6,
                    unique_by=lambda run: run[0]))
    @settings(max_examples=60, deadline=None)
    def test_decision_counts_every_step(self, runs):
        # the rule on costs counted one factor and one polynomial at a time,
        # for last runs of every half-width up to 400 (alpha = 1, k = 1, so
        # the half-width is the count), so the choice flips
        head_runs = sorted(runs)[:-1]
        head = [(*_extremal_weights(a), c) for a, c in head_runs]
        e = sum(c for _, _, outer, _, c in head if not outer)
        step = 2 if e == sum(c for *_, c in head) else 1
        polys = [[inner] * k if step == 2 else [outer, inner] * k + [outer] if outer
                 else [inner, 0] * (k - 1) + [inner] for k, inner, outer, _, _ in head]
        n = sum(k * c for k, *_, c in head)
        product = ((n - e) // step + 1) * sum(len(g) - 1 for g in polys)
        for last in range(1, 400, 3):
            half, rest, fold = head[0][0] * head[0][-1], last + n - head[0][0] * head[0][-1], 0
            for k, *_, c in head[1:]:
                for _ in range(c):
                    rest -= k
                    half += k
                    fold += min(rest + 1, half) + k
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lattice, "_PACKED_BITS", 0)
                calls = _spy_powers(mp, stop=True)
                with pytest.raises(_PathTaken):
                    _centre_t_value.__wrapped__((*head_runs, (F(1), last)))
            assert calls == [1, len(head) if product < fold else 1]

    def test_seed_zero_benchmark_paths(self):
        # every sums window is over the packed cutoff and its three-run ones
        # take the product; of the tvalue lists, all but one uniform list and
        # 71 of the 128 random ones are packed, and the rest fold
        mixes = _load_bench_mixes()
        sums = mixes.generate("sums", 0, mixes.job_count("sums", 20))
        windows = [job[1] for job in sums if job[0] == "window"]
        three_runs = [len(set(pairs)) == 3 for pairs in windows]
        assert any(three_runs) and not all(three_runs)
        assert [_path_taken(pairs) for pairs in windows] == ["product" if t else "fold" for t in three_runs]
        jobs = mixes.generate("tvalue", 0, mixes.job_count("tvalue", 20))
        split = Counter((job[1], _path_taken(job[2])) for job in jobs)
        assert split == {("uniform", "packed"): 127, ("uniform", "fold"): 1,
                         ("random", "packed"): 71, ("random", "fold"): 57}

    def test_default_budget_covers_benchmark_lists(self, monkeypatch):
        # tvalue_work defaults to over 10x the price of every seed-0 tvalue
        # list and sums window (the largest benchmark price, 7,814, is a window)
        from anticonc.caps import Caps

        mixes, prices = _load_bench_mixes(), []
        check = lattice.check
        monkeypatch.setattr(lattice, "check", lambda name, amount: prices.append(amount) or check(name, amount))
        lists = [job[2] for job in mixes.generate("tvalue", 0, mixes.job_count("tvalue", 20))]
        lists += [job[1] for job in mixes.generate("sums", 0, mixes.job_count("sums", 20)) if job[0] == "window"]
        for pairs in lists:
            _centre_t_value.__wrapped__(lattice._alpha_runs([F(n, d) for n, d in pairs]))
        assert len(prices) == len(lists) and 10 * max(prices) <= Caps().tvalue_work


def _packed_bits(alphas) -> int:
    """(2S/stride + 1)·b: the packed product's bits, S the sum of k = floor(1/alpha),
    stride 2 when every alpha is 1/k, b the bit length of the denominator."""
    ks = [a.denominator // a.numerator for a in alphas]
    step = 2 if all(a.numerator == 1 for a in alphas) else 1
    return (2 * sum(ks) // step + 1) * math.prod(a.denominator for a in alphas).bit_length()


class TestPackedPath:
    """A sum whose packed product has at most `_PACKED_BITS` bits is one
    product of big integers, equal to the reference t-value."""

    @given(st.one_of(t_value_lists(), run_lists()))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, alphas):
        with pytest.MonkeyPatch.context() as mp:
            _force_path(mp, "packed")
            assert _centre_t_value.__wrapped__(lattice._alpha_runs(alphas)) == ref_t_value(alphas)

    @pytest.mark.parametrize("alphas", [
        [F(1)], [F(1)] * 7, [F(1)] * 3 + [F(2, 5)], [F(1)] * 2 + [F(1, 3)] * 2,
        [F(1, 2)], [F(1, 2), F(1, 3)], [F(1, 3)], [F(1, 4)] * 3, [F(2, 5)], [F(99, 100)],
        [F(1, 2)] * 64, [F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(1, 6)],
    ], ids=["1", "1x7", "1s-then-mixture", "1s-then-1/3", "1/2", "1/2,1/3", "1/3",
            "1/4x3", "2/5", "99/100", "1/2x64", "1/2..1/6"])
    def test_edge_lists(self, alphas):
        # runs of alpha = 1 (k = 1, a point mass); one alpha; all-1/k lists with
        # an odd sum of k - 1, where only slot 1/2 has mass, and an even one
        assert _packed_bits(alphas) <= lattice._PACKED_BITS
        _centre_t_value.cache_clear()
        assert _path_taken([(a.numerator, a.denominator) for a in alphas]) == "packed"
        assert t_value(alphas) == ref_t_value(alphas)

    @pytest.mark.parametrize("alphas", [
        [F(3, 8)] * 5 + [F(1, 2)] * 3 + [F(1)], [F(1, 3)] * 6 + [F(1, 2)] * 4,
    ], ids=["stride-1", "stride-2"])
    def test_cutoff_boundary(self, alphas, monkeypatch):
        # a product of exactly `_PACKED_BITS` bits is packed, one bit more is not
        pairs, want = [(a.numerator, a.denominator) for a in alphas], ref_t_value(alphas)
        for cutoff, path in ((_packed_bits(alphas), "packed"), (_packed_bits(alphas) - 1, "fold")):
            monkeypatch.setattr(lattice, "_PACKED_BITS", cutoff)
            assert _path_taken(pairs) == path
            assert _centre_t_value.__wrapped__(lattice._alpha_runs(alphas)) == want

    def test_three_paths_agree_on_benchmark_lists(self):
        # every seed-0 and seed-1 tvalue list and every seed-0 sums window,
        # each path forced in turn
        mixes = _load_bench_mixes()
        lists = [job[2] for seed in (0, 1)
                 for job in mixes.generate("tvalue", seed, mixes.job_count("tvalue", 20))]
        lists += [job[1] for job in mixes.generate("sums", 0, mixes.job_count("sums", 20))
                  if job[0] == "window"]
        runs = [lattice._alpha_runs([F(n, d) for n, d in pairs]) for pairs in lists]
        results = []
        for path in ("packed", "product", "fold"):
            with pytest.MonkeyPatch.context() as mp:
                _force_path(mp, path)
                results.append([_centre_t_value.__wrapped__(r) for r in runs])
        assert results[0] == results[1] == results[2]


# near-equal alphas: Farey neighbours j/d, (j + 1)/(d + 1) and their
# mediants, 1/d against 1/(d + 1), d up to 10^4
@st.composite
def near_equal_alphas(draw):
    out = []
    for _ in range(draw(st.integers(1, 6))):
        d = draw(st.integers(2, 9_999))
        j = draw(st.integers(1, d - 1))
        out += [F(j, d), F(j + 1, d + 1), F(2 * j + 1, 2 * d + 1), F(1, d), F(1, d + 1)]
    out += draw(st.lists(st.integers(1, 10_000).flatmap(
        lambda d: st.integers(1, d).map(lambda j: F(j, d))), max_size=20))
    return draw(st.permutations(out))


class TestAlphaRuns:
    """Runs are sorted on integers, in the order of their Fractions."""

    @pytest.mark.parametrize("alphas", [
        [F(1, 1000), F(1, 1001)], [F(999, 1000), F(1000, 1001)],
        [F(1000, 1001), F(1, 1001), F(999, 1000), F(1, 1000), F(1, 1000)],
        [F(9_999, 10_000), F(9_998, 9_999), F(1), F(1, 9_999), F(1, 10_000), F(2, 19_999)],
    ])
    def test_near_equal_order(self, alphas):
        runs = lattice._alpha_runs(alphas)
        assert [a for a, _ in runs] == sorted(set(alphas))
        assert dict(runs) == {a: alphas.count(a) for a in alphas}

    @given(near_equal_alphas())
    @settings(max_examples=200, deadline=None)
    def test_order_matches_fraction_sort(self, alphas):
        runs = lattice._alpha_runs(alphas)
        assert [a for a, _ in runs] == sorted(set(alphas))
        assert [c for _, c in runs] == [alphas.count(a) for a in sorted(set(alphas))]


class TestConcentration1d:
    def test_point_mass(self):
        assert concentration_1d(delta(F(1, 2))) == F(1)

    def test_three_point_uniform(self):
        assert concentration_1d(extremal_measure(F(1, 3))) == F(1, 3)

    def test_mixture_window(self):
        assert concentration_1d(extremal_measure(F(3, 8))) == F(3, 8)


class TestMoments:
    @pytest.mark.parametrize(
        "alpha,expected", [(F(1), F(0)), (F(1, 2), F(1, 8)), (F(1, 3), F(2, 3))]
    )
    def test_third_abs_moment(self, alpha, expected):
        assert third_abs_moment(alpha) == expected

    @given(st.one_of(mixed_alphas, rationals_01))
    def test_third_abs_moment_matches_measure(self, alpha):
        assert third_abs_moment(alpha) == extremal_measure(alpha).abs_moment(3)

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 99, 100, 1000, 9999, 10_000])
    def test_third_abs_moment_of_one_over_k(self, k):
        # the uniform law on k slots of 2Y = -(k-1), ..., k-1 with step 2
        want = F(sum(abs(j) ** 3 for j in range(1 - k, k, 2)), 8 * k)
        assert third_abs_moment(F(1, k)) == want
        if k <= 1000:
            assert want == extremal_measure(F(1, k)).abs_moment(3)

    def test_profile_matches_per_term_variance(self):
        alphas = [F(1, 2), F(3, 8), F(1, 2), F(1), "3/8", F(1, 5), F(1, 2)]
        p = variance_profile(alphas)
        per = [extremal_variance(a) for a in alphas]
        assert p.per_term == tuple(per)
        assert p.partial_sums == tuple(accumulate(per))
        assert p.total == sum(per)

    def test_profile_examples(self):
        assert variance_profile([F(1)]).total == 0
        p = variance_profile([F(1, 2), F(1, 2)])
        assert p.runs == ((F(1, 2), 2),)
        assert p.partial_sums == (F(1, 4), F(1, 2))
        assert variance_profile([F(1, 2), F(1, 3)]).total == F(11, 12)

    @given(st.lists(st.tuples(run_alpha, st.integers(1, 40)), max_size=6))
    def test_profile_derives_from_runs(self, runs):
        p = VarianceProfile(tuple(runs))
        per = [extremal_variance(a) for a, c in runs for _ in range(c)]
        assert p.per_term == tuple(per)
        assert p.partial_sums == tuple(accumulate(per))
        assert p.total == sum(per, F(0))
        assert p.prefix(0) == 0
        for m in range(1, len(per) + 1):
            assert p.prefix(m) == p.partial_sums[m - 1]
        for m in (-1, len(per) + 1):
            with pytest.raises(DomainError):
                p.prefix(m)

    @pytest.mark.parametrize(
        "runs",
        [((F(1, 2), 0),), ((F(1, 2), 2.0),), ((F(1, 2), True),),
         ((F(0), 1),), ((F(3, 2), 1),), ((F(1, 3), 2), (F(1, 2), -1))],
    )
    def test_bad_runs_rejected(self, runs):
        with pytest.raises(DomainError):
            VarianceProfile(runs)


class TestUnimodalLogconcave:
    def test_coin_restrictions(self):
        m = extremal_measure(F(1, 2))
        assert check_unimodal_logconcave(m, "half-integer").ok
        rep = check_unimodal_logconcave(m, "integer")
        assert rep.empty and rep.ok

    def test_mixed_convolution(self):
        c = convolve(extremal_measure(F(1, 2)), extremal_measure(F(1, 3)))
        assert check_unimodal_logconcave(c, "integer").ok
        assert check_unimodal_logconcave(c, "half-integer").ok

    def test_checker_not_prover(self):
        # a hand-built measure passes its integer restriction even though it
        # is no extremal convolution
        m = LatticeMeasure(-2, (F(1, 2), F(0), F(1, 2)))
        assert check_unimodal_logconcave(m, "integer").ok

    def test_asymmetric_reported(self):
        m = LatticeMeasure(0, (F(1, 4), F(0), F(3, 4)))
        rep = check_unimodal_logconcave(m, "integer")
        assert not rep.symmetric and not rep.ok

    @given(st.lists(rationals_01, min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_extremal_convolutions_pass(self, alphas):
        conv = convolve_many([extremal_measure(a) for a in alphas])
        assert check_unimodal_logconcave(conv, "integer").ok
        assert check_unimodal_logconcave(conv, "half-integer").ok


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            LatticeMeasure(0, (F(1, 2), F(1, 4)))

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            LatticeMeasure(0, (F(3, 2), F(-1, 2)))

    def test_zero_trim(self):
        m = LatticeMeasure(-3, (F(0), F(1, 2), F(0), F(1, 2), F(0)))
        assert m.offset_index == -2
        assert len(m.weights) == 3

    def test_json_roundtrip(self):
        m = extremal_measure(F(3, 8))
        assert LatticeMeasure.from_json(m.to_json()) == m
        assert m.to_json()["weights"][0] == "1/4"

    @given(st.lists(rationals_01, min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_json_roundtrip_property(self, alphas):
        m = convolve_many([extremal_measure(a) for a in alphas])
        assert LatticeMeasure.from_json(m.to_json()) == m

    def test_branches(self):
        m = LatticeMeasure(0, (F(1, 2), F(1, 4), F(0), F(0), F(1, 4)))
        assert m.mass_at(F(1, 3)) == 0  # off the half-integer lattice
        assert not LatticeMeasure(1, (F(1),)).is_symmetric()  # off centre
        # the half-integer slots hold 1/4, 0: the trailing zero is trimmed
        assert check_unimodal_logconcave(m, "half-integer") == \
            ParityRestrictionReport("half-integer", False, True, True, True)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LatticeMeasure(0, ()), "lattice measure needs at least one atom"),
        (lambda: LatticeMeasure(0, (F(0), F(0))), "lattice measure has zero total mass"),
        (lambda: delta(F(1, 3)), "1/3 is not on the half-integer lattice"),
        (lambda: convolve_many([]), "need at least one measure"),
        (lambda: check_unimodal_logconcave(delta(0), "odd"),
         "parity must be 'integer' or 'half-integer'"),
    ],
    ids=["no-atom", "zero-mass", "off-lattice-delta", "no-measure", "parity"],
)
def test_input_checks(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
