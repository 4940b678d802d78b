"""Exact probability measures on the half-integer lattice.

A measure stores an integer ``offset_index`` and a dense weight vector; the
atom behind ``weights[i]`` sits at ``(offset_index + i) / 2``. Storing the
lattice densely (interior zero weights allowed) keeps convolution trivial
even when factors living on integers and on half-integers mix.

Everything in this module is pure and exact: weights cross the API as
Fractions and no comparison ever goes through floating point. Internally,
t-values and convolutions run on integer numerators over one common
denominator and build their Fractions once, at the end. An extremal
factor's weights, its variance and its third absolute moment are integer
closed forms in alpha = a/b, each O(1), read off one ``_mixture``;
``ExtremalSpec`` is a view of it. A t-value reads only slots 0 and 1/2 of a
symmetric sum, so it keeps one half of the centre window those slots can
still be reached from. Equal alphas form a run, a power taken by one exact
integer recurrence for products of powers: the last run closes the window
with two dot products, and the runs before it are one product or the
first run's power with the factors in between folded one at a time,
whichever takes fewer steps: one tally of the runs counts the product and
sets up its recurrence, and the fold is priced in closed form. A small sum
skips both: its runs are packed into big integers, one b-bit slot per
coefficient, and multiplied in C (Kronecker substitution). The last few
results are memoised by their (a, b, count) runs of alpha = a/b.
``_alpha_runs`` is the one place an alpha list is checked and counted into
those integer runs (sorted on integers), ``_alpha_ratio`` the one place a
single alpha is; a ``VarianceProfile`` holds (alpha, count) runs and
derives its sums from them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, groupby, repeat
from operator import attrgetter, mul
from typing import Sequence

from .caps import check
from .errors import DomainError, InvariantViolation
from .exact import _numerators, as_fraction, fraction_str

ZERO = Fraction(0)
ONE = Fraction(1)
_RATIO = attrgetter("numerator", "denominator")


@dataclass(frozen=True)
class LatticeMeasure:
    """Finitely supported probability measure on (1/2)Z."""

    offset_index: int
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if type(self.offset_index) is not int:  # not a bool (an int subclass), not a float
            raise DomainError(f"offset index must be an int, got {self.offset_index!r}")
        weights = tuple(as_fraction(w) for w in self.weights)
        if not weights:
            raise DomainError("lattice measure needs at least one atom")
        if any(w < 0 for w in weights):
            raise DomainError("negative weight in lattice measure")
        lo = 0
        hi = len(weights)
        while lo < hi and weights[lo] == 0:
            lo += 1
        while hi > lo and weights[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            raise DomainError("lattice measure has zero total mass")
        trimmed = weights[lo:hi]
        if sum(trimmed) != 1:
            raise DomainError("lattice weights must sum to exactly 1")
        object.__setattr__(self, "offset_index", self.offset_index + lo)
        object.__setattr__(self, "weights", trimmed)

    def point(self, i: int) -> Fraction:
        return Fraction(self.offset_index + i, 2)

    def mass_at(self, position: Fraction) -> Fraction:
        idx = 2 * as_fraction(position) - self.offset_index
        if idx.denominator != 1:
            return ZERO
        i = int(idx)
        if 0 <= i < len(self.weights):
            return self.weights[i]
        return ZERO

    def moment(self, order: int) -> Fraction:
        return sum(
            (w * self.point(i) ** order for i, w in enumerate(self.weights)),
            ZERO,
        )

    def abs_moment(self, order: int) -> Fraction:
        return sum(
            (w * abs(self.point(i)) ** order for i, w in enumerate(self.weights)),
            ZERO,
        )

    def is_symmetric(self) -> bool:
        """True when the measure is invariant under x -> -x."""
        if 2 * self.offset_index != -(len(self.weights) - 1):
            return False
        return self.weights == self.weights[::-1]

    def to_json(self) -> dict:
        return {
            "offset_index": self.offset_index,
            "weights": [fraction_str(w) for w in self.weights],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LatticeMeasure":
        return cls(data["offset_index"], tuple(as_fraction(w) for w in data["weights"]))


def delta(position: Fraction | int | str = 0) -> LatticeMeasure:
    """Point mass at a half-integer position."""
    pos = as_fraction(position)
    idx = 2 * pos
    if idx.denominator != 1:
        raise DomainError(f"{pos} is not on the half-integer lattice")
    return LatticeMeasure(int(idx), (ONE,))


def _alpha_ratio(alpha) -> tuple[int, int]:
    """``alpha`` as (a, b) with a/b in lowest terms, checked to lie in (0, 1].

    The one check of a single alpha; `as_fraction` refuses a bool.
    """
    a, b = _RATIO(as_fraction(alpha))
    if not 0 < a <= b:
        raise DomainError(f"alpha must lie in (0, 1], got {Fraction(a, b)}")
    return a, b


def _mixture(a: int, b: int) -> tuple[int, int, int, int]:
    """(k, inner, outer, den) for alpha = a/b as `_alpha_ratio` checks it: the
    one formula of the extremal mixture.

    The measure puts inner/den on each of the k half-integer slots
    -(k-1), ..., k-1 and outer/den on each of the k+1 slots -k, ..., k (both
    in steps of 2, so the two sets interleave). With alpha = a/b in lowest
    terms and k = b // a, inner = a(k+1) - b and outer = b - ak over den = b:
    p/k = alpha(k+1) - 1 and (1-p)/(k+1) = 1 - alpha k. No common factor is
    left, as one would divide b and a. ``outer`` is 0 when alpha is 1/k.
    """
    k = b // a
    return k, a * (k + 1) - b, b - a * k, b


def _extremal_weights(alpha) -> tuple[int, int, int, int]:
    """`_mixture` of ``alpha``, checked to lie in (0, 1]."""
    return _mixture(*_alpha_ratio(alpha))


@dataclass(frozen=True)
class ExtremalSpec:
    """Parameters of the two-uniform mixture with concentration alpha.

    ``k`` is floor(1/alpha) and ``p`` the unique mixture weight with
    p/k + (1-p)/(k+1) = alpha; for alpha = 1/k the second component vanishes.
    Read off `_mixture`: p = k·inner/den and (1-p)/(k+1) = outer/den, so the
    self-check is 0 < k·inner <= den and inner + outer = a.
    """

    alpha: Fraction
    k: int
    p: Fraction

    @classmethod
    def from_alpha(cls, alpha) -> "ExtremalSpec":
        a, b = _alpha_ratio(alpha)
        k, inner, outer, _ = _mixture(a, b)
        if not 0 < k * inner <= b or inner + outer != a:
            raise DomainError(f"inconsistent mixture parameters for alpha={Fraction(a, b)}")
        return cls(Fraction(a, b), k, Fraction(k * inner, b))


def extremal_measure(alpha) -> LatticeMeasure:
    """Worst-case measure with 1-d concentration exactly alpha.

    Mixes the centered uniform distribution on k points (weight p) with the
    one on k+1 points (weight 1-p), k = floor(1/alpha). Symmetric about 0.
    """
    k, inner, outer, den = _extremal_weights(alpha)
    weights = [Fraction(outer if i % 2 == 0 else inner, den) for i in range(2 * k + 1)]
    return LatticeMeasure(-k, tuple(weights))


def extremal_variance(alpha) -> Fraction:
    """Second moment of ``extremal_measure(alpha)``, in closed form.

    Piecewise linear in alpha: k(k+1)(3 - alpha - 2 alpha k)/12, over the
    integers of ``_extremal_weights``. Agrees with (alpha**-2 - 1)/12
    whenever 1/alpha is an integer.
    """
    a, b = _alpha_ratio(alpha)
    k = b // a
    return Fraction(k * (k + 1) * (3 * b - a - 2 * a * k), 12 * b)


def _cubes_by_twos(t: int) -> int:
    """t^3 + (t - 2)^3 + ... down to 1 or 2, in closed form: the even cubes
    (2j)^3, j <= m, sum to 2m^2(m + 1)^2 and the odd ones to m^2(2m^2 - 1)."""
    m = (t + 1) // 2
    return m * m * (2 * m * m - 1) if t % 2 else 2 * m * m * (m + 1) ** 2


def third_abs_moment(alpha) -> Fraction:
    """Exact E|Y|^3 for Y distributed by ``extremal_measure(alpha)``, in O(1):
    the slots 2Y = -t, -t + 2, ..., t have |2Y|^3 summing to twice
    ``_cubes_by_twos(t)``, with t = k for the outer weight and k - 1 for the
    inner."""
    k, inner, outer, den = _extremal_weights(alpha)
    return Fraction(outer * _cubes_by_twos(k) + inner * _cubes_by_twos(k - 1), 4 * den)


def _convolve_ints(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def convolve(a: LatticeMeasure, b: LatticeMeasure) -> LatticeMeasure:
    """Exact convolution; offsets add, total mass stays 1."""
    return convolve_many([a, b])


def convolve_many(measures: Sequence[LatticeMeasure]) -> LatticeMeasure:
    """Exact convolution of all ``measures``, on integer numerators."""
    if not measures:
        raise DomainError("need at least one measure")
    nums, den = _numerators(measures[0].weights)
    for m in measures[1:]:
        b, d = _numerators(m.weights)
        nums = _convolve_ints(nums, b)
        den *= d
    offset = sum(m.offset_index for m in measures)
    return LatticeMeasure(offset, tuple(Fraction(w, den) for w in nums))


def _power_low(runs: Sequence[tuple[list[int], int]], n: int) -> list[int]:
    """Coefficients 0 ... n of the product of g^c over the (g, c) ``runs``, g[0] != 0.

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), for a product of
    powers: F = prod G_i^c_i obeys F'·Q = F·R with Q = prod G_i and R = sum
    c_i G_i' prod_(j != i) G_j, so q0·m·f_m = sum over j >= 1 of (u_j -
    m·q_j)·f_(m-j), u_j = r_(j-1) + j·q_j. A coefficient costs O(deg Q), and
    every division is exact. With one run, u_j = (c + 1)·j·g_j is Miller's.
    """
    if len(runs) == 1 and runs[0][1] == 1:
        return (runs[0][0] + [0] * n)[:n + 1]
    (q, c), *more = runs
    r, f0 = [c * j * x for j, x in enumerate(q)][1:], q[0] ** c
    for g, c in more:
        f0 *= g[0] ** c
        dg = [j * x for j, x in enumerate(g)][1:]
        r = [x + c * y for x, y in zip(_convolve_ints(r, g), _convolve_ints(dg, q))]
        q = _convolve_ints(q, g)
    q0, tail = q[0], q[1:]
    u = [x + j * y for j, (x, y) in enumerate(zip(r, tail), 1)]
    f = [f0]
    for m in range(1, n + 1):
        back = f[:-len(q):-1]  # f_(m-1), f_(m-2), ... down to f_(m - deg Q)
        acc = sum(map(mul, u, back)) - m * sum(map(mul, tail, back))
        quo, rem = divmod(acc, m * q0)
        if rem:
            raise InvariantViolation(f"power recurrence left remainder {rem} at m={m}")
        f.append(quo)
    return f


def _tally(factors) -> tuple[int, int, int, int]:
    """(n, e, step, degree) of the sum of the (k, inner, outer, den, c) runs:
    its half-width n, the e factors with alpha = 1/k (each x taken out), the
    stride, 2 when every factor is such, else 1, and the degree in x^step of
    the product Q of one polynomial per run, without building any of them."""
    n = e = count = degree = 0
    for k, _, outer, _, c in factors:
        n += k * c
        count += c
        degree += 2 * k if outer else 2 * k - 2
        e += 0 if outer else c
    step = 2 if e == count else 1
    return n, e, step, degree // step


def _power_price(tally: tuple[int, int, int, int]) -> int:
    """Steps of `_centre_power` for runs of this `_tally`: N'·deg Q for its N'
    coefficients."""
    n, e, step, degree = tally
    return ((n - e) // step + 1) * degree


def _centre_power(factors, tally=None) -> list[int]:
    """Slots 0 ... S of the sum of the (k, inner, outer, den, c) runs, S the
    sum of k·c, numerators over the product of den^c; the sum is symmetric,
    so slot x is the coefficient of x^(S - x) and only the low half is
    computed. A factor is G(x) = outer·(1 + x^2 + ... + x^2k) + inner·x·(1 +
    ... + x^(2k-2)), slot 0 at x^k. For alpha = 1/k, outer is 0 and G =
    x·H(x^2): x is taken out, and if every run is such, the stride is 2 and
    H is taken in x^2. ``tally`` is the runs' `_tally`, if already made."""
    n, e, step, _ = tally or _tally(factors)
    runs = [(([outer, inner] * k + [outer] if outer else [inner, 0] * (k - 1) + [inner])[::step], c)
            for k, inner, outer, _, c in factors]
    low = [0] * (n + 1)
    low[e::step] = _power_low(runs, (n - e) // step)
    return low[::-1]


# Largest packed product, in bits, that `_centre_t_value` builds. CPython
# multiplies big ints by Karatsuba at best, so larger products lose to the
# recurrences; on the benchmark's t-value lists (2-CPU Xeon) the total time
# was least here, within 1% from 21,000 to 25,000.
_PACKED_BITS = 23_000


def _packed_centre(factors, tally, b: int) -> int:
    """Slots 0 and 1/2 of the sum of the (k, inner, outer, den, c) runs,
    added, from one product of big integers (Kronecker substitution).

    Each run's polynomial of `_centre_power` is evaluated at X = 2^b, with
    outer·(1 + X^2 + ... + X^2k) = outer·(X^(2k+2) - 1)/(X^2 - 1) and the inner
    part likewise; at stride 2 it is H(x^2) with x taken out, and x^2 is
    2^b. Each run is raised to its count and the runs are multiplied in a
    balanced tree. Every coefficient of every partial product is a
    non-negative integer at most the product of den^c, which is below 2^b,
    so no b-bit slot carries into the next and the slots are read off by
    shifting. ``tally`` is the runs' `_tally`.
    """
    n, e, step, _ = tally
    w, shift = 2 * b // step, b if step == 1 else 0  # the bits of x^2 and of x

    def repunit(m: int) -> int:  # 1 + x^2 + ... + x^(2m - 2)
        return ((1 << m * w) - 1) // ((1 << w) - 1)

    parts = [pow(outer * repunit(k + 1) + (inner * repunit(k) << shift), c)
             for k, inner, outer, _, c in factors]
    while len(parts) > 1:
        parts = [math.prod(parts[i:i + 2]) for i in range(0, len(parts), 2)]
    mask = (1 << b) - 1
    if step == 2:  # x^e·Q(x^2) has one of x^n, x^(n-1) at y^((n - e) // 2)
        return parts[0] >> (n - e) // 2 * b & mask
    pair = parts[0] >> (n - 1) * b  # slot 1/2 at x^(n-1), slot 0 at x^n
    return (pair & mask) + (pair >> b & mask)


def _fold_price(head, reach: int) -> int:
    """Steps of folding the factors of the (k, inner, outer, den, c) runs of
    ``head`` after the first onto the first run's power, a last run of
    half-width ``reach`` to come: Σ(min(R + 1, S) + k), S the half-width
    folded and R that still to come after each factor. The j-th factor of a
    run has S = S0 + jk and R = R0 - jk, so min(R + 1, S) is S while 2jk <
    R0 + 1 - S0 and R + 1 after: two arithmetic progressions per run."""
    half, rest = head[0][0] * head[0][-1], sum(k * c for k, *_, c in head[1:]) + reach
    price = 0
    for k, *_, c in head[1:]:
        low = min(c, max(0, -((half - rest - 1) // (2 * k)) - 1))  # factors on the S side
        price += (low * half + k * low * (low + 1) // 2
                  + (c - low) * (rest + 1) - k * (c * (c + 1) - low * (low + 1)) // 2 + k * c)
        half, rest = half + k * c, rest - k * c
    return price


@lru_cache(maxsize=8)
def _centre_t_value(runs: tuple[tuple[int, int, int], ...]) -> Fraction:
    """``t_value`` of the (a, b, count) ``runs``, alphas a/b increasing.

    h[x] is the numerator of slot x of the partial sum for x = 0 ... min(S,
    R + 1), S the half-width summed so far and R that of the factors still
    to come; slot -x holds h[x]. The runs before the last make h as one
    product of powers, N'·deg Q steps for its N' coefficients, or as the
    first run's power with the factors after it folded one at a time, a
    fold of `_fold_price` steps, whichever is fewer: one `_tally` counts the
    product and the fold's price is in closed form. With s the stride-2
    prefix sums, a factor's outer weight sums k + 1 slots two apart and its
    inner weight the k between them, so a fold step costs O(min(S, R) + k)
    whatever k is. Slots 0 and 1/2 of the whole sum are dot products of h
    against the last run's power.

    The price of the work, the last run's power plus the head path taken
    (the product, or the fold and its seed, the first run's power), is
    checked against cap ``tvalue_work`` before any of it. Then a sum whose
    packed product, (2S/stride + 1)·den.bit_length() bits for the whole
    half-width S, is at most ``_PACKED_BITS`` takes `_packed_centre`
    instead of either path; the price and the check are the same.
    """
    factors = [(*_mixture(a, b), c) for a, b, c in runs]  # the ratios are checked
    den = math.prod([b ** c for _, b, c in runs])
    *head, last = factors
    reach = last[0] * last[-1]
    work = _power_price(_tally([last]))
    if head:
        tally = _tally(head)
        product, fold = _power_price(tally), _fold_price(head, reach)
        work += product if product < fold else _power_price(_tally(head[:1])) + fold
    check("tvalue_work", work)
    whole, b = _tally(factors), den.bit_length()
    if (2 * whole[0] // whole[2] + 1) * b <= _PACKED_BITS:
        return Fraction(_packed_centre(factors, whole, b), den)
    p = _centre_power([last])
    if not head:
        return Fraction(p[0] + p[1], den)
    if product < fold:
        h = _centre_power(head, tally)[:reach + 2]
    else:
        half = head[0][0] * head[0][-1]
        rest = whole[0] - half  # R after the first run's power
        h = _centre_power(head[:1])[:rest + 2]
        for k, inner, outer, _, _ in chain.from_iterable(repeat(f, f[-1]) for f in head[1:]):
            rest -= k
            half += k
            top = min(rest + 1, half)
            m = min(k, len(h) - 1)
            # slots -k ... top + k: the mirror, the window, zeros past it
            g = [0] * (k - m) + h[m:0:-1] + h + [0] * (top + k + 1 - len(h))
            s = [0] * len(g)
            s[0::2] = accumulate(g[0::2])
            s[1::2] = accumulate(g[1::2])
            lag = [0, 0] + s  # lag[i] is s[i - 2], 0 before slot -k
            h = [outer * (hi - lo) + inner * (in_hi - in_lo) for hi, in_hi, lo, in_lo
                 in zip(s[2 * k:2 * k + top + 1], s[2 * k - 1:], lag, lag[1:])]
    at_zero = 2 * sum(map(mul, h, p)) - h[0] * p[0]
    at_half = sum(map(mul, h[1:], p)) + sum(map(mul, h, p[1:]))
    return Fraction(at_zero + at_half, den)


def _alpha_runs(alphas: Sequence) -> tuple[tuple[int, int, int], ...]:
    """Check ``alphas`` and count them into (a, b, count) runs, alpha = a/b in
    lowest terms, alphas increasing.

    An empty list, a bool, or an alpha outside (0, 1], is a DomainError; the
    latter names the first bad value. Counting (numerator, denominator)
    pairs hashes in C, and they are sorted on integers: two distinct
    fractions with denominators at most B differ by at least 1/B^2, so
    num·B^2 // den orders them as they are ordered.
    """
    counts = Counter(map(_RATIO, map(as_fraction, alphas)))
    if not counts:
        raise DomainError("need at least one alpha")
    for num, den in counts:
        if not 0 < num <= den:
            raise DomainError(f"alpha must lie in (0, 1], got {Fraction(num, den)}")
    b2 = max(den for _, den in counts) ** 2
    ordered = sorted(counts.items(), key=lambda run: run[0][0] * b2 // run[0][1])
    return tuple((num, den, c) for (num, den), c in ordered)


def t_value(alphas: Sequence) -> Fraction:
    """Mass the sum of independent extremal variables puts on {0, 1/2}.

    Exact; when all factor supports share a parity only one of the two
    points carries mass, otherwise both contributions are summed. Equal
    alphas are counted into runs and each distinct value is checked once.
    Runs of equal factors are polynomial powers, and a product of them is
    one integer recurrence, linear in the counts. The runs before the last
    are one such product or the first run's power with the factors of middle
    runs folded one at a time, whichever takes fewer steps; both keep only
    slots 0 ... R + 1, all that the last run (half-width R) can carry onto 0
    and 1/2. A sum small enough is instead one product of big integers,
    each run packed into one with a slot per coefficient. The order of
    ``alphas`` does not matter: the last few run lists are memoised, so the
    normal window and the master bound on the same factors compute the sum
    once.
    """
    return _centre_t_value(_alpha_runs(alphas))


def concentration_1d(m: LatticeMeasure) -> Fraction:
    """Largest mass of a window of span strictly below 1.

    On the half-integer lattice such a window holds one atom or two atoms
    half a unit apart, so the maximum runs over single weights and sums of
    adjacent weights.
    """
    best = max(m.weights)
    for i in range(len(m.weights) - 1):
        pair = m.weights[i] + m.weights[i + 1]
        if pair > best:
            best = pair
    return best


@dataclass(frozen=True)
class VarianceProfile:
    """Extremal variances of a factor list as its (alpha, count) runs, in list
    order. Sums and the per-term view are derived, so none can disagree."""

    runs: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        for a, c in self.runs:
            # bool is an int subclass; True is no count
            if isinstance(c, bool) or not isinstance(c, int) or c < 1:
                raise DomainError(f"run count must be a positive int, got {c!r}")
            extremal_variance(a)  # rejects alpha outside (0, 1]

    @property
    def total(self) -> Fraction:
        return sum((extremal_variance(a) * c for a, c in self.runs), ZERO)

    def prefix(self, m: int) -> Fraction:
        """Sum of the first ``m`` variances, one step per run."""
        if not 0 <= m <= sum(c for _, c in self.runs):
            raise DomainError(f"the profile has no prefix of length {m}")
        acc = ZERO
        for a, c in self.runs:
            if m <= 0:
                break
            acc += extremal_variance(a) * min(c, m)
            m -= c
        return acc

    @property
    def per_term(self) -> tuple[Fraction, ...]:
        return tuple(chain.from_iterable(repeat(extremal_variance(a), c) for a, c in self.runs))

    @property
    def partial_sums(self) -> tuple[Fraction, ...]:
        return tuple(accumulate(self.per_term))


def variance_profile(alphas: Sequence) -> VarianceProfile:
    """Profile of ``alphas`` in input order, one run per stretch of equal alphas."""
    return VarianceProfile(
        tuple((a, len(list(run))) for a, run in groupby(map(as_fraction, alphas)))
    )


@dataclass(frozen=True)
class ParityRestrictionReport:
    """Structure report for one parity class of a lattice measure."""

    parity: str
    empty: bool
    symmetric: bool
    unimodal: bool
    log_concave: bool

    @property
    def ok(self) -> bool:
        return self.empty or (self.symmetric and self.unimodal and self.log_concave)


def check_unimodal_logconcave(m: LatticeMeasure, parity: str) -> ParityRestrictionReport:
    """Check symmetry, unimodality and log-concavity on one parity class.

    ``parity`` selects the integer or half-integer sublattice. This is a
    checker, not a prover: it reports on the measure it is given. An empty
    restriction is trivially fine.
    """
    if parity not in ("integer", "half-integer"):
        raise DomainError("parity must be 'integer' or 'half-integer'")
    want = 0 if parity == "integer" else 1
    entries = [
        w
        for i, w in enumerate(m.weights)
        if (m.offset_index + i) % 2 == want
    ]
    # strip the zero fringe of the restriction but keep interior zeros
    while entries and entries[0] == 0:
        entries.pop(0)
    while entries and entries[-1] == 0:
        entries.pop()
    if not entries:
        return ParityRestrictionReport(parity, True, True, True, True)
    symmetric = entries == entries[::-1]
    peak = entries.index(max(entries))
    rising = all(entries[i] <= entries[i + 1] for i in range(peak))
    falling = all(entries[i] >= entries[i + 1] for i in range(peak, len(entries) - 1))
    unimodal = rising and falling
    log_concave = all(
        entries[i] * entries[i] >= entries[i - 1] * entries[i + 1]
        for i in range(1, len(entries) - 1)
    )
    return ParityRestrictionReport(parity, False, symmetric, unimodal, log_concave)


@dataclass(frozen=True)
class TValueResult:
    """t-value as a float for reading, with its exact fraction.

    ``exact`` is always True: every t-value comes from ``t_value``.
    """

    value: float
    exact: bool
    fraction: Fraction
