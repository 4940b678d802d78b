import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from anticonc.quadfield import QuadExt, _scaled_points

small_fracs = st.fractions(min_value=-5, max_value=5)


def q2(a, b):
    return QuadExt.of(a, b, 2)


class TestArithmetic:
    def test_basic_ops(self):
        x = q2(1, F(1, 2))  # 1 + sqrt(2)/2
        y = q2(0, 1)  # sqrt(2)
        assert x + y == q2(1, F(3, 2))
        assert x - y == q2(1, F(-1, 2))
        assert x * y == q2(1, 1)  # (1 + sqrt2/2) sqrt2 = sqrt2 + 1

    def test_mixing_fields_rejected(self):
        with pytest.raises(ValueError):
            q2(1, 1) + QuadExt.of(1, 1, 3)

    def test_square_m_rejected(self):
        with pytest.raises(ValueError):
            QuadExt.of(1, 1, 4)
        with pytest.raises(ValueError):
            QuadExt.of(1, 1, 1)

    @given(small_fracs, small_fracs, small_fracs, small_fracs)
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_float(self, a, b, c, d):
        x, y = q2(a, b), q2(c, d)
        assert math.isclose(float(x * y), float(x) * float(y), rel_tol=1e-9, abs_tol=1e-9)


class TestKernelOperations:
    """The operations the "d < 1" kernel applies to Q(sqrt(m)) coordinates."""

    def test_abs(self):
        assert abs(q2(1, -1)) == q2(-1, 1)  # 1 - sqrt(2) < 0
        assert abs(q2(-1, 1)) == q2(-1, 1)
        assert abs(q2(3, -2)) == q2(3, -2)  # 3 - 2 sqrt(2) > 0
        assert abs(q2(0, 0)) == q2(0, 0)

    def test_pow(self):
        x = q2(1, 1)
        assert x**0 == q2(1, 0)
        assert x**1 == x
        assert x**2 == q2(3, 2)
        assert x**3 == q2(7, 5)
        with pytest.raises(ValueError):
            x ** -1

    def test_zero_plus_and_sum(self):
        x = QuadExt.of(F(1, 2), F(-1, 3), 3)
        assert 0 + x == x
        assert 2 + x == x + 2 == QuadExt.of(F(5, 2), F(-1, 3), 3)
        assert sum([x, x, x]) == QuadExt.of(F(3, 2), -1, 3)
        assert 2 * x == x * 2 == x + x
        assert F(1, 2) * x == QuadExt.of(F(1, 4), F(-1, 6), 3)

    def test_int_coercion(self):
        x = q2(F(1, 2), 1)
        y = x + 1
        assert y == q2(F(3, 2), 1)
        assert (y - x).a == 1 and (y - x).b == 0
        assert x < 2 and x > 1 and not x >= 2 and x <= 2
        assert q2(1, 0) <= 1 and q2(1, 0) >= 1 and not q2(1, 0) < 1
        assert 1 < x and 2 > x  # reflected comparisons
        assert 2 >= x and 1 >= q2(1, 0) and not 1 >= x  # int >= QuadExt is QuadExt.__le__
        # int components stay ints through the ring operations
        z = QuadExt(3, -2, 2)
        for w in (z + 1, z - 5, z * 4, z * z, z**3, -z, abs(z)):
            assert type(w.a) is int and type(w.b) is int

    def test_scaling_to_integers(self):
        # points scale by the lcm of the denominators of both parts
        scale, ((y,),) = _scaled_points([(QuadExt.of(F(5, 6), F(-3, 4), 3),)])
        assert scale == 12 and y == QuadExt(10, -9, 3)
        assert type(y.a) is int and type(y.b) is int
        assert _scaled_points([(QuadExt.of(2, 0, 2),)]) == (1, ((QuadExt(2, 0, 2),),))
        assert _scaled_points([(QuadExt(4, -1, 2), q2(F(1, 2), 0))]) == (2, ((QuadExt(8, -2, 2), QuadExt(1, 0, 2)),))

    def test_hash_ignores_component_type(self):
        assert QuadExt(1, 2, 2) == q2(1, 2)
        assert hash(QuadExt(1, 2, 2)) == hash(q2(1, 2))

    @given(small_fracs, small_fracs, st.integers(0, 4), st.integers(-3, 3))
    @settings(max_examples=80, deadline=None)
    def test_ops_match_float(self, a, b, e, k):
        x = q2(a, b)
        fx = float(x)
        close = lambda u, v: math.isclose(u, v, rel_tol=1e-9, abs_tol=1e-9)
        assert close(float(abs(x)), abs(fx))
        assert close(float(x**e), fx**e)
        assert close(float(0 + x), fx) and close(float(x + k), fx + k)
        assert close(float(x * k), fx * k) and close(float(k * x), k * fx)
        scale, ((y,),) = _scaled_points([(x,)])
        assert float(y) == pytest.approx(fx * scale, rel=1e-9, abs=1e-9)
        if abs(fx - k) > 1e-9:
            assert (x < k) == (fx < k) and (x >= k) == (fx >= k)


class TestComparisons:
    def test_sign_mixed_cases(self):
        # 3 - 2 sqrt(2) < 0 since 9 < 8 is false: 3^2=9 > 8=2*2^2, sign +
        assert q2(3, -2).sign() == 1
        # 1 - sqrt(2) < 0
        assert q2(1, -1).sign() == -1
        # -3 + 2 sqrt(2) mirror
        assert q2(-3, 2).sign() == -1
        assert q2(-1, 1).sign() == 1
        assert q2(0, 0).sign() == 0

    def test_exact_tie(self):
        # the three-step octagon chord squared equals exactly 1:
        # r^2 * (2 + sqrt(2)) with r^2 = (2 - sqrt(2))/2
        r_sq = q2(1, F(-1, 2))
        chord_sq = r_sq * q2(2, 1)
        assert chord_sq == q2(1, 0)
        assert not chord_sq < q2(1, 0)

    @given(small_fracs, small_fracs, small_fracs, small_fracs)
    @settings(max_examples=60, deadline=None)
    def test_order_matches_float(self, a, b, c, d):
        x, y = q2(a, b), q2(c, d)
        if abs(float(x) - float(y)) > 1e-9:
            assert (x < y) == (float(x) < float(y))


def _other(kind, x, k, c, d):
    """A value to compare with x: often equal to it, in each allowed type."""
    return {
        "same": QuadExt(x.a, x.b, x.m),
        "int": k,
        "fraction": c,
        "rational_part": x.a,
        "quad": q2(c, d),
        "shifted": x + q2(0, d),
    }[kind]


class TestEquality:
    """==, != and hash agree with the exact order."""

    @given(
        small_fracs,
        st.sampled_from([0, 0, F(1, 2), -1]) | small_fracs,
        st.sampled_from(["same", "int", "fraction", "rational_part", "quad", "shifted"]),
        st.integers(-3, 3),
        small_fracs,
        st.sampled_from([0, 0, 1]) | small_fracs,
    )
    @settings(max_examples=200, deadline=None)
    def test_eq_matches_order(self, a, b, kind, k, c, d):
        x = q2(a, b)
        y = _other(kind, x, k, c, d)
        equal = x <= y and x >= y
        assert (x == y) == equal and (y == x) == equal
        assert (x != y) == (not equal) and (y != x) == (not equal)
        if equal:
            assert hash(x) == hash(y)

    def test_rational_elements(self):
        one = QuadExt.of(1, 0, 2)
        assert one == 1 and 1 == one and one == F(1) and not one != 1
        assert hash(one) == hash(1) == hash(F(1))
        assert QuadExt.of(F(3, 4), 0, 3) == F(3, 4) and hash(QuadExt.of(F(3, 4), 0, 3)) == hash(F(3, 4))
        assert q2(1, 1) != 1 and q2(0, 1) != 0 and q2(1, 1) != q2(1, -1)
        assert len({one, 1, F(1), QuadExt(1, 0, 2)}) == 1

    def test_other_fields_and_types(self):
        assert QuadExt.of(2, 0, 2) == QuadExt.of(2, 0, 3)
        assert QuadExt.of(0, 1, 2) != QuadExt.of(0, 1, 3)
        assert q2(1, 0) != "1"
