"""Closed-form concentration bounds and their side conditions.

The evaluators here plug exact variance profiles and t-values into the
normal-window and comparison bounds. Every side condition is checked
exactly where the quantities involved are rational (squaring removes the
square roots); the reported lhs/rhs magnitudes are floats for reading.
A report carries a value only when every condition holds, otherwise it
names the failing inequality. Each function that takes an alpha list
counts it once into (a, b, count) runs of alpha = a/b with
``lattice._alpha_runs`` (in ``_counted``); these integer runs key the
memoised t-value, third moments, minimal delta' and (reversed) variance
profile, which the bounds read only through its total, its head sums and
its (alpha, count) runs, the one place their Fractions are built.
The normal window and the master bound take the head-variance,
third-moment and epsilon' conditions they share from one builder,
``_side_conditions``, with their own head share and epsilon' limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from typing import Optional, Sequence

from .errors import DomainError, InvariantViolation
from .exact import as_fraction, fraction_str
from .lattice import (
    ZERO,
    TValueResult,
    VarianceProfile,
    _alpha_runs,
    _centre_t_value,
    extremal_variance,
    third_abs_moment,
)


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    holds: bool
    lhs: float
    rhs: float

    def to_json(self) -> dict:
        return {"name": self.name, "holds": self.holds, "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class BoundReport:
    value: Optional[float]
    conditions: tuple[ConditionCheck, ...]
    exact_t: Optional[Fraction]
    extras: dict = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.conditions)

    def first_failure(self) -> Optional[ConditionCheck]:
        for c in self.conditions:
            if not c.holds:
                return c
        return None

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "conditions": [c.to_json() for c in self.conditions],
            "exact_t": None if self.exact_t is None else fraction_str(self.exact_t),
            "extras": {
                k: (fraction_str(v) if isinstance(v, Fraction) else v)
                for k, v in self.extras.items()
            },
        }


def epsilon_prime(delta_prime: float, c) -> float:
    """405 sqrt(delta') c^(-3/4), the half-width of the normal window."""
    cf = float(as_fraction(c))
    if not (0 < delta_prime):
        raise DomainError("delta' must be positive")
    if not (0 < cf < 1):
        raise DomainError("c must lie in (0, 1)")
    return 405.0 * math.sqrt(delta_prime) * cf ** (-0.75)


@lru_cache(maxsize=8)
def _third_moment_sum(runs) -> Fraction:
    """Exact sum of E|Y|^3 over (a, b, count) runs, one moment per run."""
    return sum((third_abs_moment(a) * c for a, c in _profile(runs)[0].runs), ZERO)


def minimal_delta_prime(alphas: Sequence) -> float:
    """Smallest float delta' with sum E|Y|^3 <= delta' * V*^(3/2) exactly."""
    return _delta_prime(_alpha_runs(alphas))


@lru_cache(maxsize=8)
def _delta_prime(runs) -> float:
    """``minimal_delta_prime`` of the (a, b, count) runs."""
    v, third = _profile(runs)[1], _third_moment_sum(runs)
    if v == 0:
        raise DomainError("total variance is zero")
    return _round_up(math.sqrt(float(third * third / v ** 3)), third, v)


def _round_up(x: float, lhs: Fraction, v: Fraction) -> float:
    """The first float from ``x`` upward with lhs <= x V*^(3/2), exactly."""
    for _ in range(64):
        if lhs * lhs <= Fraction(x) ** 2 * v ** 3:
            return x
        x = math.nextafter(x, math.inf)
    raise InvariantViolation(f"could not round {x} upward")  # pragma: no cover


def window_interval(eps: float, v_star: Fraction) -> tuple[float, float]:
    center = 1.0 / math.sqrt(2 * math.pi * float(v_star))
    return (1.0 - eps) * center, (1.0 + eps) * center


def _counted(alphas: Sequence) -> tuple[tuple, int, VarianceProfile, Fraction]:
    """The (a, b, count) runs of ``alphas``, their number n of factors, the
    variance profile in reversed (decreasing alpha) order and its total V*."""
    runs = _alpha_runs(alphas)
    return runs, sum(c for *_, c in runs), *_profile(runs)


@lru_cache(maxsize=8)
def _profile(runs: tuple) -> tuple[VarianceProfile, Fraction]:
    profile = VarianceProfile(tuple((Fraction(a, b), c) for a, b, c in reversed(runs)))
    return profile, profile.total


def _alpha_bar(profile: VarianceProfile, n: int) -> Fraction:
    """The mean alpha of a profile of n factors."""
    return sum((a * c for a, c in profile.runs), ZERO) / n


def _side_conditions(runs, profile, n, v, c, delta_prime, eps, head, share, limit) -> tuple:
    """The three conditions the normal window and the master bound share:
    the head-variance condition ``head``, V*_ceil(n(1-c)) >= share·V*; the
    third-moment condition against delta'; and epsilon' <= limit, with the
    reported epsilon' ``eps``. ``runs`` are the (a, b, count) runs of
    ``profile``. Each is decided exactly."""
    head_v = profile.prefix(math.ceil(n * (1 - c)))
    delta = Fraction(delta_prime)
    third = _third_moment_sum(runs)
    return (
        ConditionCheck(head, head_v >= share * v, float(head_v), float(share) * float(v)),
        ConditionCheck("sum E|Y|^3 <= delta' V*^(3/2)", third * third <= delta * delta * v ** 3,
                       float(third), float(delta) * float(v) ** 1.5),
        # 405 sqrt(delta) c^(-3/4) <= limit  <=>  405^4 delta^2 <= limit^4 c^3
        ConditionCheck(f"epsilon' <= {limit}",
                       Fraction(405) ** 4 * delta ** 2 <= limit ** 4 * c ** 3, eps, float(limit)),
    )


def clt_window(alphas: Sequence, c, delta_prime: float) -> BoundReport:
    """Normal window for the t-value under the stated side conditions.

    Checks, exactly: positive total variance; the head-variance condition
    V*_ceil(n(1-c)) >= V*/2; the third-moment condition against delta';
    and epsilon' <= 1/2. The interval (1 +- eps')/sqrt(2 pi V*) and the
    t-value are always included in the extras so a failed report still
    shows the numbers; the t-value is exact and is the report's ``exact_t``.
    """
    cf = as_fraction(c)
    if not (0 < cf < 1):
        raise DomainError("c must lie in (0, 1)")
    if not (0 < delta_prime < 1):
        raise DomainError("delta' must lie in (0, 1)")
    runs, n, profile, v = _counted(alphas)
    if v == 0:
        return BoundReport(None, (ConditionCheck("V* > 0", False, 0.0, 0.0),), None, {"n": n})
    eps = epsilon_prime(delta_prime, cf)
    conditions = (
        ConditionCheck("V* > 0", True, float(v), 0.0),
        *_side_conditions(runs, profile, n, v, cf, delta_prime, eps,
                          "V*_ceil(n(1-c)) >= V*/2", Fraction(1, 2), Fraction(1, 2)),
    )
    lo, hi = window_interval(eps, v)
    t = _centre_t_value(runs)
    extras = {
        "n": n,
        "v_star": v,
        "epsilon_prime": eps,
        "window_lo": lo,
        "window_hi": hi,
        "t": float(t),
        "t_exact_path": True,
        "t_in_window": lo <= float(t) <= hi,
    }
    all_hold = all(cc.holds for cc in conditions)
    center = 1.0 / math.sqrt(2 * math.pi * float(v))
    return BoundReport(center if all_hold else None, conditions, t, extras)


def crude_bound(alpha_bar, n: int) -> float:
    """sqrt(6/pi) * abar / sqrt((1 - abar^2) n).

    Also asserts, exactly, that the normal main term 1/sqrt(2 pi n V(abar))
    never exceeds this value; the two agree when 1/abar is an integer.
    """
    a = as_fraction(alpha_bar)
    if not (0 < a < 1):
        raise DomainError("alpha_bar must lie in (0, 1) for the crude bound")
    if n < 1:
        raise DomainError("n must be positive")
    v = extremal_variance(a)
    # 1/sqrt(2 pi n v) <= sqrt(6/pi) a / sqrt((1-a^2) n)  <=>  1-a^2 <= 12 a^2 v
    if 1 - a * a > 12 * a * a * v:
        raise InvariantViolation("variance envelope inequality failed")  # pragma: no cover
    return math.sqrt(6 / math.pi) * float(a) / math.sqrt(float((1 - a * a)) * n)


@dataclass(frozen=True)
class MainBoundParams:
    """Inputs of the master bound, with derived quantities frozen in.

    ``C`` is the norm-dependent constant and is a caller input: it exists
    for every norm but its numeric value is not derivable here, so tests
    document the constant they use.
    """

    alphas: tuple[Fraction, ...]  # sorted descending
    n: int
    d: int
    c: Fraction
    delta_prime: float
    epsilon_prime: float
    gamma: float
    C: float
    alpha_bar: Fraction
    xi: Fraction
    m: float
    profile: VarianceProfile
    t: TValueResult

    def __post_init__(self):
        expected = epsilon_prime(self.delta_prime, self.c)
        if not math.isclose(self.epsilon_prime, expected, rel_tol=1e-12):
            raise InvariantViolation("epsilon' is inconsistent with delta' and c")
        want_xi = self.alpha_bar if self.d == 2 else Fraction(1)
        if self.xi != want_xi:
            raise InvariantViolation("xi rule broken: xi_2(x) = x, xi_d(x) = 1 for d > 2")


def make_main_bound_params(
    alphas: Sequence,
    d: int,
    C: float,
    c,
    delta_prime: Optional[float] = None,
    gamma: Optional[float] = None,
) -> MainBoundParams:
    """Assemble master-bound inputs, defaulting delta' and gamma to the
    smallest values compatible with their conditions."""
    if d < 2:
        raise DomainError("dimension must be at least 2")
    for name, x in (("C", C), ("delta'", delta_prime), ("gamma", gamma)):
        if x is not None and not math.isfinite(x):
            raise DomainError(f"{name} must be finite")
    if C <= 0:
        raise DomainError("C must be positive")
    cf = as_fraction(c)
    if not (0 < cf < Fraction(1, 3)):
        raise DomainError("c must lie in (0, 1/3)")
    runs, n, profile, v = _counted(alphas)
    if v == 0:
        raise DomainError("total variance is zero")
    if delta_prime is None:
        delta_prime = _delta_prime(runs)
    eps = epsilon_prime(delta_prime, cf)
    abar = _alpha_bar(profile, n)
    xi = abar if d == 2 else Fraction(1)
    if gamma is None:
        near_one = xi * abar * abar * n
        gamma = _round_up(float(near_one) / float(v) ** 1.5, near_one, v)
    t = _centre_t_value(runs)
    m = C * math.sqrt(float(xi)) * float(t) ** -0.5 * math.sqrt(n)
    return MainBoundParams(
        alphas=tuple(chain.from_iterable(repeat(a, c) for a, c in profile.runs)),
        n=n,
        d=d,
        c=cf,
        delta_prime=delta_prime,
        epsilon_prime=eps,
        gamma=gamma,
        C=C,
        alpha_bar=abar,
        xi=xi,
        m=m,
        profile=profile,
        t=TValueResult(float(t), True, t),
    )


def main_bound_rhs(params: MainBoundParams) -> float:
    """The master bound's right side, evaluated as written.

    (1 + 6 eps' + 4 m/n + C sqrt(gamma)) / sqrt(2 pi V*_{n - floor(m)})
    plus exp(-m^2 / (9 n)). Exposed separately so the formula can be
    inspected even when a side condition fails.
    """
    idx = params.n - math.floor(params.m)
    if idx < 1:
        raise DomainError("m is so large that no variance terms remain")
    v_trim = params.profile.prefix(idx)
    if v_trim == 0:
        raise DomainError(f"no variance terms remain: V*_{idx} = 0")
    numerator = (
        1.0
        + 6.0 * params.epsilon_prime
        + 4.0 * params.m / params.n
        + params.C * math.sqrt(params.gamma)
    )
    return numerator / math.sqrt(2 * math.pi * float(v_trim)) + math.exp(
        -params.m ** 2 / (9 * params.n)
    )


def main_bound(params: MainBoundParams) -> BoundReport:
    """Master bound with all side conditions verified and reported.

    Conditions: n >= 8; the head-variance condition with constant 3/4;
    epsilon' <= 3/16; the near-one condition xi(abar) abar^2 n <=
    gamma V*^(3/2) with gamma <= (10 C)^-2; and m < c n / 5. The bound is
    evaluated only when every condition holds; ``main_bound_rhs`` shows the
    plug-in value regardless.
    """
    v = params.profile.total
    n = params.n
    runs = tuple((a.numerator, a.denominator, c) for a, c in reversed(params.profile.runs))
    gamma_f = Fraction(params.gamma)
    near_one_lhs = params.xi * params.alpha_bar ** 2 * n
    c_big = Fraction(params.C)
    gamma_max = Fraction(1) / (100 * c_big * c_big)
    # m < c n / 5, squared: m^2 = C^2 xi n / t exactly (t > 0 always)
    m_sq = c_big * c_big * params.xi * n / params.t.fraction
    conditions = (
        ConditionCheck("n >= 8", n >= 8, float(n), 8.0),
        *_side_conditions(runs, params.profile, n, v, params.c, params.delta_prime, params.epsilon_prime,
                          "V*_ceil((1-c)n) >= (3/4) V*", Fraction(3, 4), Fraction(3, 16)),
        ConditionCheck("xi(abar) abar^2 n <= gamma V*^(3/2)",
                       near_one_lhs ** 2 <= gamma_f ** 2 * v ** 3,
                       float(near_one_lhs), params.gamma * float(v) ** 1.5),
        ConditionCheck("gamma <= (10C)^-2", gamma_f <= gamma_max, params.gamma, float(gamma_max)),
        ConditionCheck("m < c n / 5", m_sq < (params.c * n / 5) ** 2,
                       params.m, float(params.c) * n / 5),
    )

    all_hold = all(cc.holds for cc in conditions)
    try:
        rhs = main_bound_rhs(params)
    except DomainError:  # no variance terms remain, so a side condition fails
        rhs = None
    extras = {
        "m": params.m,
        "epsilon_prime": params.epsilon_prime,
        "gamma": params.gamma,
        "v_star": v,
        "t": params.t.value,
        "t_exact_path": params.t.exact,
        "rhs_unconditional": rhs,
    }
    value = rhs if all_hold else None
    return BoundReport(value, conditions, params.t.fraction, extras)


def kesten_bound(alphas: Sequence, n: int, C_kesten: float) -> float:
    """Comparison bound 4 sqrt(2) (1 + 9 C) abar / sqrt((1 - abar) n).

    Specialized to unit scale parameters; meant for ratio comparisons
    against the sharp normal term, not as a certified inequality.
    """
    _, n_factors, profile, _ = _counted(alphas)
    abar = _alpha_bar(profile, n_factors)
    if abar >= 1:
        raise DomainError("alpha_bar must be below 1")
    if n < 1:
        raise DomainError("n must be positive")
    return 4 * math.sqrt(2) * (1 + 9 * C_kesten) * float(abar) / math.sqrt(
        float(1 - abar) * n
    )


@dataclass(frozen=True)
class RatioReport:
    name: str
    value: float

    def to_json(self) -> dict:
        return {"name": self.name, "value": self.value}


def theorem_local_conditions(alphas: Sequence, d: int, C: float) -> tuple[RatioReport, ...]:
    """Finite-size surrogates of the triangular-array conditions, as ratios.

    Limits are not desk-checkable, so each smallness condition is reported
    as the ratio of its two sides at the given size; no hidden pass/fail
    thresholds.
    """
    if d < 2:
        raise DomainError("dimension must be at least 2")
    runs, n, profile, v = _counted(alphas)
    abar = _alpha_bar(profile, n)
    xi = abar if d == 2 else Fraction(1)
    reports = []
    if v == 0:
        return (RatioReport("V* > 0 fails: total variance is zero", math.inf),)
    third = _third_moment_sum(runs)
    v32 = float(v) ** 1.5
    reports.append(RatioReport("xi(abar)^2 V* / n^2", float(xi * xi * v) / n ** 2))
    reports.append(
        RatioReport(
            "V* / exp(C^2 sqrt(n) / 36)",
            float(v) / math.exp(C * C * math.sqrt(n) / 36),
        )
    )
    reports.append(RatioReport("sum E|Y|^3 / V*^(3/2)", float(third) / v32))
    reports.append(
        RatioReport("xi(abar) abar^2 n / V*^(3/2)", float(xi * abar * abar * n) / v32)
    )
    for eps in (Fraction(1, 10), Fraction(1, 100)):
        reports.append(
            RatioReport(
                f"V*_ceil(n(1-{eps}))/V*",
                float(profile.prefix(math.ceil(n * (1 - eps))) / v),
            )
        )
    return tuple(reports)
