import dataclasses
import json
import math
import random
import re
from fractions import Fraction as F

import pytest

from anticonc.bounds import (
    BoundReport,
    ConditionCheck,
    _delta_prime,
    _third_moment_sum,
    clt_window,
    crude_bound,
    epsilon_prime,
    kesten_bound,
    main_bound,
    main_bound_rhs,
    make_main_bound_params,
    minimal_delta_prime,
    theorem_local_conditions,
    window_interval,
)
from anticonc.errors import DomainError, InvariantViolation
from anticonc.lattice import (
    _alpha_runs,
    extremal_variance,
    t_value,
    third_abs_moment,
    variance_profile,
)


class TestEpsilonPrime:
    def test_formula(self):
        assert math.isclose(
            epsilon_prime(0.04, F(1, 4)), 405 * 0.2 * 4 ** 0.75
        )

    def test_shrinks_like_sqrt_delta(self):
        a = epsilon_prime(0.01, F(1, 4))
        b = epsilon_prime(0.0025, F(1, 4))
        assert math.isclose(a / b, 2.0)

    def test_minimal_delta_is_exact_lower_bound(self):
        alphas = [F(1, 2)] * 50 + [F(1, 3)] * 30
        d = minimal_delta_prime(alphas)
        third = sum(third_abs_moment(a) for a in alphas)
        v = variance_profile(alphas).total
        assert third * third <= F(d) ** 2 * v ** 3
        below = math.nextafter(d, 0.0)
        assert not third * third <= F(below) ** 2 * v ** 3


    def test_window_job_rounds_delta_prime_once(self):
        # minimal_delta_prime and make_main_bound_params with delta' unset
        # share one rounding per run list; a zero variance raises every call
        alphas = [F(3, 8)] * 60 + [F(1, 2)] * 40
        _delta_prime.cache_clear()
        d = minimal_delta_prime(alphas)
        params = make_main_bound_params(alphas[::-1], d=2, C=0.01, c=F(1, 4))
        info = _delta_prime.cache_info()
        assert (info.hits, info.misses, params.delta_prime) == (1, 1, d)
        for _ in range(2):
            with pytest.raises(DomainError, match="total variance is zero"):
                minimal_delta_prime([F(1)] * 3)

class TestThirdMomentSum:
    def test_equals_per_factor_sum(self):
        rng = random.Random(83)
        for _ in range(40):
            alphas = [F(rng.randint(1, 8), 8) for _ in range(rng.randint(0, 60))]
            rng.shuffle(alphas)
            want = sum((third_abs_moment(a) for a in alphas), F(0))
            assert _third_moment_sum(_alpha_runs(alphas) if alphas else ()) == want


class TestSharedCounts:
    """Counts read off the (alpha, count) runs give the per-factor sums exactly."""

    def test_matches_per_factor_sums(self):
        rng = random.Random(84)
        pool = [F(1), F(1, 2), F(1, 3), F(3, 8), F(2, 5), F(1, 7), F(5, 6)]
        for _ in range(30):
            alphas = [rng.choice(pool) for _ in range(rng.randint(8, 60))]
            fracs = sorted(alphas, reverse=True)
            third = sum((third_abs_moment(a) for a in alphas), F(0))
            v = sum((extremal_variance(a) for a in alphas), F(0))
            runs = _alpha_runs(alphas)
            assert [a for a, _ in runs] == sorted(set(alphas))
            assert dict(runs) == {a: alphas.count(a) for a in set(alphas)}
            assert _third_moment_sum(runs) == third
            if v == 0:
                continue
            params = make_main_bound_params(alphas, 2, 0.01, F(1, 4))
            assert params.alpha_bar == sum(alphas, F(0)) / len(alphas)
            assert params.delta_prime == minimal_delta_prime(alphas)
            assert params.profile.per_term == tuple(extremal_variance(a) for a in fracs)
            assert params.profile.total == v
            for report in (main_bound(params), clt_window(alphas, F(1, 4), params.delta_prime)):
                check = next(c for c in report.conditions if c.name.startswith("sum E|Y|^3"))
                assert check.lhs == float(third)
            ratios = {r.name: r.value for r in theorem_local_conditions(alphas, 2, 1.0)}
            assert ratios["sum E|Y|^3 / V*^(3/2)"] == float(third) / float(v) ** 1.5


class TestCltWindow:
    def test_zero_variance_reports_failure(self):
        report = clt_window([F(1)], F(1, 4), 0.5)
        assert report.value is None
        assert report.first_failure().name == "V* > 0"

    def test_small_coin_case(self):
        alphas = [F(1, 2)] * 30
        report = clt_window(alphas, F(1, 4), minimal_delta_prime(alphas))
        names = [c.name for c in report.conditions]
        assert "V*_ceil(n(1-c)) >= V*/2" in names
        # head-variance and third-moment conditions hold for iid coins
        by_name = {c.name: c.holds for c in report.conditions}
        assert by_name["V*_ceil(n(1-c)) >= V*/2"]
        assert by_name["sum E|Y|^3 <= delta' V*^(3/2)"]
        # the window always contains the exact value
        assert report.extras["t_in_window"]
        assert report.exact_t == t_value(alphas)

    def test_window_interval_centering(self):
        lo, hi = window_interval(0.5, F(100))
        center = 1 / math.sqrt(200 * math.pi)
        assert math.isclose(lo, 0.5 * center) and math.isclose(hi, 1.5 * center)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            clt_window([F(1, 2)], F(0), 0.5)
        with pytest.raises(DomainError):
            clt_window([F(1, 2)], F(1, 4), 1.5)
        with pytest.raises(DomainError):
            clt_window([F(1, 2), F(3, 2)], F(1, 4), 0.5)
        with pytest.raises(DomainError, match="need at least one alpha"):
            minimal_delta_prime([])


class TestCrudeBound:
    def test_value_half(self):
        v = crude_bound(F(1, 2), 100)
        assert math.isclose(v, 0.0797884560, rel_tol=1e-8)
        # at alpha = 1/2 the envelope is tight
        assert math.isclose(v, 1 / math.sqrt(2 * math.pi * 100 * 0.25))

    def test_monotone_to_zero(self):
        values = [crude_bound(F(1, k), 100) for k in range(2, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_dominates_normal_term(self):
        for abar, n in [(F(1, 3), 300), (F(2, 5), 64), (F(9, 10), 50)]:
            v = float(extremal_variance(abar))
            assert 1 / math.sqrt(2 * math.pi * n * v) <= crude_bound(abar, n) + 1e-15

    def test_guards(self):
        with pytest.raises(DomainError):
            crude_bound(F(1), 10)
        with pytest.raises(DomainError):
            crude_bound(F(1, 2), 0)


class TestMainBound:
    def test_condition_15_failure_named(self):
        # a large constant C at tiny n forces m >= c n / 5
        params = make_main_bound_params([F(1, 2)] * 8, 2, 5.0, F(1, 4))
        report = main_bound(params)
        failing = {c.name for c in report.conditions if not c.holds}
        assert "m < c n / 5" in failing
        assert report.value is None

    def test_gamma_condition_failure_named(self):
        params = make_main_bound_params(
            [F(1, 2)] * 64, 2, 1.0, F(1, 4), gamma=1.0
        )
        report = main_bound(params)
        failing = {c.name for c in report.conditions if not c.holds}
        assert "gamma <= (10C)^-2" in failing

    def test_large_iid_case_reports_conditions(self):
        # the head-variance and near-one conditions hold at any size; the
        # Berry-Esseen smallness cannot (epsilon' scales like n^(-1/4) and
        # would need n beyond 10^15), and the report must say so while the
        # plug-in value stays available
        params = make_main_bound_params([F(1, 2)] * 2048, 2, 1.0, F(1, 4))
        report = main_bound(params)
        by_name = {c.name: c.holds for c in report.conditions}
        assert by_name["n >= 8"]
        assert by_name["V*_ceil((1-c)n) >= (3/4) V*"]
        assert by_name["sum E|Y|^3 <= delta' V*^(3/2)"]
        assert by_name["xi(abar) abar^2 n <= gamma V*^(3/2)"]
        assert not by_name["epsilon' <= 3/16"]
        rhs = report.extras["rhs_unconditional"]
        assert rhs is not None and rhs >= report.extras["t"]

    def test_rhs_formula(self):
        params = make_main_bound_params([F(1, 2)] * 100, 2, 1.0, F(1, 4))
        v_trim = variance_profile([F(1, 2)] * (100 - math.floor(params.m))).total
        by_hand = (
            1
            + 6 * params.epsilon_prime
            + 4 * params.m / 100
            + params.C * math.sqrt(params.gamma)
        ) / math.sqrt(2 * math.pi * float(v_trim)) + math.exp(
            -params.m ** 2 / 900
        )
        assert math.isclose(main_bound_rhs(params), by_hand, rel_tol=1e-12)

    def test_xi_rule(self):
        p2 = make_main_bound_params([F(1, 3)] * 20, 2, 1.0, F(1, 4))
        p3 = make_main_bound_params([F(1, 3)] * 20, 3, 1.0, F(1, 4))
        assert p2.xi == F(1, 3) and p3.xi == F(1)

    def test_sorted_descending(self):
        params = make_main_bound_params([F(1, 3), F(1, 2), F(1, 5)], 2, 1.0, F(1, 4))
        assert params.alphas == (F(1, 2), F(1, 3), F(1, 5))

    def test_rhs_monotone_in_n(self):
        # artifact-level sanity: the plug-in value shrinks as n grows
        values = [
            main_bound_rhs(make_main_bound_params([F(1, 2)] * n, 2, 1.0, F(1, 4)))
            for n in (64, 128, 256, 512)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestExactT:
    @pytest.mark.parametrize(
        "alphas",
        [[F(1, 3)] * 100, [F(1, 2), F(3, 8)] * 75],
        ids=["100x1/3", "150-mixed"],
    )
    def test_long_lists_stay_exact(self, alphas):
        t = t_value(alphas)
        window = clt_window(alphas, F(1, 4), minimal_delta_prime(alphas))
        report = main_bound(make_main_bound_params(alphas, 2, 1.0, F(1, 4)))
        for r in (window, report):
            assert r.exact_t == t
            assert r.extras["t_exact_path"] is True
            assert r.extras["t"] == float(t)


class TestKesten:
    def test_ratio_at_half(self):
        for n in (100, 10_000):
            sharp = 1 / math.sqrt(math.pi * 0.5 * n)
            assert kesten_bound([F(1, 2)], n, 1.0) / sharp >= 5

    def test_small_alpha_ratio_bounded(self):
        # both bounds scale like alpha/sqrt(n); their ratio is exactly
        # 4 sqrt(2) (1 + 9C) sqrt(1 + abar) / sqrt(6/pi), which stays in
        # [limit, limit * sqrt(2)] and tends to the limit as abar drops
        limit = 4 * math.sqrt(2) * 10 / math.sqrt(6 / math.pi)
        for k in (10, 100, 1000):
            ratio = kesten_bound([F(1, k)], 100, 1.0) / crude_bound(F(1, k), 100)
            assert limit - 1e-9 <= ratio <= limit * math.sqrt(1 + 1 / k) + 1e-9

    def test_sqrt_n_scaling(self):
        a = kesten_bound([F(1, 2)], 100, 1.0)
        b = kesten_bound([F(1, 2)], 400, 1.0)
        assert math.isclose(a / b, 2.0)

    def test_guard(self):
        with pytest.raises(DomainError):
            kesten_bound([F(1)], 100, 1.0)

    @pytest.mark.parametrize("alphas", [[F(-1, 2)], [F(0)], [F(3, 2), F(1, 4)]])
    def test_alphas_outside_unit_interval_rejected(self, alphas):
        with pytest.raises(DomainError, match="alpha must lie in"):
            kesten_bound(alphas, 10, 1.0)


class TestTheoremLocalConditions:
    def test_iid_regime_small_ratios(self):
        reports = {r.name: r.value for r in theorem_local_conditions([F(1, 2)] * 10_000, 2, 3.0)}
        assert reports["xi(abar)^2 V* / n^2"] < 0.05
        assert reports["V* / exp(C^2 sqrt(n) / 36)"] < 0.05
        assert reports["sum E|Y|^3 / V*^(3/2)"] < 0.05
        assert reports["xi(abar) abar^2 n / V*^(3/2)"] < 0.05
        assert reports["V*_ceil(n(1-1/10))/V*"] == pytest.approx(0.9)

    @pytest.mark.parametrize("d", [-1, 0, 1])
    def test_dimension_below_two_rejected(self, d):
        with pytest.raises(DomainError, match="dimension"):
            theorem_local_conditions([F(1, 2)] * 10, d, 1.0)

    def test_degenerate_alpha_one(self):
        reports = theorem_local_conditions([F(1)] * 50, 2, 1.0)
        assert len(reports) == 1 and math.isinf(reports[0].value)

    def test_mixed_parity_window(self):
        # mixture of coin and three-point factors at a checkable size: the
        # exact t-value stays within the normal window
        alphas = [F(1, 2)] * 30 + [F(1, 3)] * 30
        v = variance_profile(alphas).total
        t = t_value(alphas)
        assert abs(float(t) * math.sqrt(2 * math.pi * float(v)) - 1) <= 0.05


class TestRemarkChain:
    def test_exact_inequality_chain(self):
        # 1/sqrt(2 pi V*) <= 1/sqrt(2 pi n V(abar)) <= crude, exactly
        rng = random.Random(0)
        for abar_num in range(1, 10):
            abar = F(abar_num, 10)
            for _ in range(20):
                n = rng.randint(2, 12) * 2
                eta = F(rng.randint(0, 5), 100)
                if not (0 < abar - eta and abar + eta < 1):
                    eta = F(0)
                alphas = [abar - eta, abar + eta] * (n // 2)
                v_total = variance_profile(alphas).total
                v_mean = extremal_variance(abar)
                assert sum(alphas, F(0)) / n == abar
                assert v_total >= n * v_mean  # Jensen for the convex envelope
                assert 1 - abar * abar <= 12 * abar * abar * v_mean


# (alphas, d) and the exact JSON of the window, the master bound and the
# local ratios, pinned so that counting alpha lists can never change a byte
_GOLDEN_LISTS = {
    "one-run": ([F(1, 2)] * 40, 2),
    "three-runs": ([F(1, 3)] * 12 + [F(3, 8)] * 10 + [F(1, 2)] * 18, 2),
    "with-one": ([F(1)] * 4 + [F(2, 5)] * 30 + [F(1, 4)] * 6, 3),
}
_GOLDEN_JSON = {
    "one-run": (
        '{"value": null, "conditions": [{"name": "V* > 0", "holds": true, "lhs": 10.0, '
        '"rhs": 0.0}, {"name": "V*_ceil(n(1-c)) >= V*/2", "holds": true, "lhs": 7.5, '
        '"rhs": 5.0}, {"name": "sum E|Y|^3 <= delta\' V*^(3/2)", "holds": true, '
        '"lhs": 5.0, "rhs": 5.0}, {"name": "epsilon\' <= 1/2", "holds": false, '
        '"lhs": 455.4964734041827, "rhs": 0.5}], '
        '"exact_t": "34461632205/274877906944", "extras": {"n": 40, "v_star": "10/1", '
        '"epsilon_prime": 455.4964734041827, "window_lo": -57.337741659478205, '
        '"window_hi": 57.59005491168022, "t": 0.12537068761957926, '
        '"t_exact_path": true, "t_in_window": true}}',
        '{"value": null, "conditions": [{"name": "n >= 8", "holds": true, "lhs": 40.0, '
        '"rhs": 8.0}, {"name": "V*_ceil((1-c)n) >= (3/4) V*", "holds": true, '
        '"lhs": 7.5, "rhs": 7.5}, {"name": "sum E|Y|^3 <= delta\' V*^(3/2)", '
        '"holds": true, "lhs": 5.0, "rhs": 5.0}, {"name": "epsilon\' <= 3/16", '
        '"holds": false, "lhs": 455.4964734041827, "rhs": 0.1875}, '
        '{"name": "xi(abar) abar^2 n <= gamma V*^(3/2)", "holds": true, "lhs": 5.0, '
        '"rhs": 5.0}, {"name": "gamma <= (10C)^-2", "holds": false, '
        '"lhs": 0.15811388300841897, "rhs": 0.01}, {"name": "m < c n / 5", '
        '"holds": false, "lhs": 12.630396777534443, "rhs": 2.0}], '
        '"exact_t": "34461632205/274877906944", "extras": {"m": 12.630396777534443, '
        '"epsilon_prime": 455.4964734041827, "gamma": 0.15811388300841897, '
        '"v_star": "10/1", "t": 0.12537068761957926, "t_exact_path": true, '
        '"rhs_unconditional": 413.1381874987312}}',
        '[{"name": "xi(abar)^2 V* / n^2", "value": 0.0015625}, '
        '{"name": "V* / exp(C^2 sqrt(n) / 36)", "value": 8.388846288908171}, '
        '{"name": "sum E|Y|^3 / V*^(3/2)", "value": 0.15811388300841897}, '
        '{"name": "xi(abar) abar^2 n / V*^(3/2)", "value": 0.15811388300841897}, '
        '{"name": "V*_ceil(n(1-1/10))/V*", "value": 0.9}, '
        '{"name": "V*_ceil(n(1-1/100))/V*", "value": 1.0}]',
    ),
    "three-runs": (
        '{"value": null, "conditions": [{"name": "V* > 0", "holds": true, '
        '"lhs": 18.125, "rhs": 0.0}, {"name": "V*_ceil(n(1-c)) >= V*/2", '
        '"holds": true, "lhs": 11.458333333333334, "rhs": 9.0625}, '
        '{"name": "sum E|Y|^3 <= delta\' V*^(3/2)", "holds": true, "lhs": 15.5625, '
        '"rhs": 15.562500000000002}, {"name": "epsilon\' <= 1/2", "holds": false, '
        '"lhs": 514.4358042987333, "rhs": 0.5}], '
        '"exact_t": "1736575364014044709/18698417887260966912", "extras": {"n": 40, '
        '"v_star": "145/8", "epsilon_prime": 514.4358042987333, '
        '"window_lo": -48.11242077789044, "window_hi": 48.29983435666726, '
        '"t": 0.09287285023173833, "t_exact_path": true, "t_in_window": true}}',
        '{"value": null, "conditions": [{"name": "n >= 8", "holds": true, "lhs": 40.0, '
        '"rhs": 8.0}, {"name": "V*_ceil((1-c)n) >= (3/4) V*", "holds": false, '
        '"lhs": 11.458333333333334, "rhs": 13.59375}, '
        '{"name": "sum E|Y|^3 <= delta\' V*^(3/2)", "holds": true, "lhs": 15.5625, '
        '"rhs": 15.562500000000002}, {"name": "epsilon\' <= 3/16", "holds": false, '
        '"lhs": 514.4358042987333, "rhs": 0.1875}, '
        '{"name": "xi(abar) abar^2 n <= gamma V*^(3/2)", "holds": true, '
        '"lhs": 2.937138671875, "rhs": 2.937138671875}, {"name": "gamma <= (10C)^-2", '
        '"holds": false, "lhs": 0.03806338682799586, "rhs": 0.01}, '
        '{"name": "m < c n / 5", "holds": false, "lhs": 13.429598182506767, '
        '"rhs": 2.0}], "exact_t": "1736575364014044709/18698417887260966912", '
        '"extras": {"m": 13.429598182506767, "epsilon_prime": 514.4358042987333, '
        '"gamma": 0.03806338682799586, "v_star": "145/8", "t": 0.09287285023173833, '
        '"t_exact_path": true, "rhs_unconditional": 399.13843483574146}}',
        '[{"name": "xi(abar)^2 V* / n^2", "value": 0.0019864044189453127}, '
        '{"name": "V* / exp(C^2 sqrt(n) / 36)", "value": 15.20478389864606}, '
        '{"name": "sum E|Y|^3 / V*^(3/2)", "value": 0.20167977194367057}, '
        '{"name": "xi(abar) abar^2 n / V*^(3/2)", "value": 0.03806338682799586}, '
        '{"name": "V*_ceil(n(1-1/10))/V*", "value": 0.8528735632183908}, '
        '{"name": "V*_ceil(n(1-1/100))/V*", "value": 1.0}]',
    ),
    "with-one": (
        '{"value": null, "conditions": [{"name": "V* > 0", "holds": true, "lhs": 22.5, '
        '"rhs": 0.0}, {"name": "V*_ceil(n(1-c)) >= V*/2", "holds": true, "lhs": 13.0, '
        '"rhs": 11.25}, {"name": "sum E|Y|^3 <= delta\' V*^(3/2)", "holds": true, '
        '"lhs": 24.0, "rhs": 24.0}, {"name": "epsilon\' <= 1/2", "holds": false, '
        '"lhs": 543.2112416230282, "rhs": 0.5}], '
        '"exact_t": "19885560524039972733739/238418579101562500000000", '
        '"extras": {"n": 40, "v_star": "45/2", "epsilon_prime": 543.2112416230282, '
        '"window_lo": -45.602360584799776, "window_hi": 45.770569419601124, '
        '"t": 0.08340608604822296, "t_exact_path": true, "t_in_window": true}}',
        '{"value": null, "conditions": [{"name": "n >= 8", "holds": true, "lhs": 40.0, '
        '"rhs": 8.0}, {"name": "V*_ceil((1-c)n) >= (3/4) V*", "holds": false, '
        '"lhs": 13.0, "rhs": 16.875}, {"name": "sum E|Y|^3 <= delta\' V*^(3/2)", '
        '"holds": true, "lhs": 24.0, "rhs": 24.0}, {"name": "epsilon\' <= 3/16", '
        '"holds": false, "lhs": 543.2112416230282, "rhs": 0.1875}, '
        '{"name": "xi(abar) abar^2 n <= gamma V*^(3/2)", "holds": true, '
        '"lhs": 7.65625, "rhs": 7.656250000000001}, {"name": "gamma <= (10C)^-2", '
        '"holds": false, "lhs": 0.0717368543278938, "rhs": 0.01}, '
        '{"name": "m < c n / 5", "holds": false, "lhs": 21.899344964914825, '
        '"rhs": 2.0}], "exact_t": "19885560524039972733739/238418579101562500000000", '
        '"extras": {"m": 21.899344964914825, "epsilon_prime": 543.2112416230282, '
        '"gamma": 0.0717368543278938, "v_star": "45/2", "t": 0.08340608604822296, '
        '"t_exact_path": true, "rhs_unconditional": 475.5552799289844}}',
        '[{"name": "xi(abar)^2 V* / n^2", "value": 0.0140625}, '
        '{"name": "V* / exp(C^2 sqrt(n) / 36)", "value": 18.874904150043385}, '
        '{"name": "sum E|Y|^3 / V*^(3/2)", "value": 0.2248730780564181}, '
        '{"name": "xi(abar) abar^2 n / V*^(3/2)", "value": 0.0717368543278938}, '
        '{"name": "V*_ceil(n(1-1/10))/V*", "value": 0.7777777777777778}, '
        '{"name": "V*_ceil(n(1-1/100))/V*", "value": 1.0}]',
    ),
}


def _golden_strings(alphas, d):
    window = clt_window(alphas, F(1, 4), minimal_delta_prime(alphas))
    bound = main_bound(make_main_bound_params(alphas, d, 1.0, F(1, 4)))
    local = [r.to_json() for r in theorem_local_conditions(alphas, d, 1.0)]
    return json.dumps(window.to_json()), json.dumps(bound.to_json()), json.dumps(local)


class TestGoldenJson:
    @pytest.mark.parametrize("name", list(_GOLDEN_LISTS))
    def test_reports_match_golden(self, name):
        alphas, d = _GOLDEN_LISTS[name]
        shuffled = list(alphas)
        random.Random(12).shuffle(shuffled)
        strings = [f"{a.numerator}/{a.denominator}" for a in shuffled]
        for variant in (alphas, shuffled, strings):
            assert _golden_strings(variant, d) == _GOLDEN_JSON[name]


_HALVES = [F(1, 2)] * 16
_PARAMS = make_main_bound_params(_HALVES, 2, 1.0, F(1, 4))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: epsilon_prime(0.0, F(1, 4)), DomainError, "delta' must be positive"),
        (lambda: epsilon_prime(0.04, F(1)), DomainError, "c must lie in (0, 1)"),
        (lambda: minimal_delta_prime([F(1)] * 3), DomainError, "total variance is zero"),
        (lambda: make_main_bound_params(_HALVES, 1, 1.0, F(1, 4)), DomainError,
         "dimension must be at least 2"),
        (lambda: make_main_bound_params(_HALVES, 2, 0.0, F(1, 4)), DomainError, "C must be positive"),
        (lambda: make_main_bound_params(_HALVES, 2, 1.0, F(1, 3)), DomainError,
         "c must lie in (0, 1/3)"),
        (lambda: make_main_bound_params([F(1)] * 3, 2, 1.0, F(1, 4)), DomainError,
         "total variance is zero"),
        # m = 100 sqrt(n / t) is far above n = 16
        (lambda: main_bound_rhs(make_main_bound_params(_HALVES, 2, 100.0, F(1, 4))), DomainError,
         "m is so large that no variance terms remain"),
        (lambda: kesten_bound(_HALVES, 0, 1.0), DomainError, "n must be positive"),
        (lambda: dataclasses.replace(_PARAMS, epsilon_prime=2 * _PARAMS.epsilon_prime),
         InvariantViolation, "epsilon' is inconsistent with delta' and c"),
        (lambda: dataclasses.replace(_PARAMS, xi=F(1)), InvariantViolation,
         "xi rule broken: xi_2(x) = x, xi_d(x) = 1 for d > 2"),
    ],
    ids=["delta-prime", "epsilon-c", "delta-variance", "dimension", "big-c", "params-c",
         "params-variance", "large-m", "kesten-n", "params-epsilon", "params-xi"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_first_failure_none_when_all_hold():
    report = BoundReport(None, (ConditionCheck("a", True, 1.0, 0.0), ConditionCheck("b", True, 0.0, 0.0)), None)
    assert report.all_hold and report.first_failure() is None
