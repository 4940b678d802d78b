import json
import math
from fractions import Fraction as F

import pytest
from conftest import CliRunner, caps_env

from anticonc.cli import main
from anticonc.errors import DomainError, ResourceCapExceeded
from anticonc.geometry import l1, l2, linf, lp
from anticonc.lattice import t_value
from anticonc.quadfield import QuadExt
from anticonc.scenarios import (
    _norm_by_name,
    _octagon_points,
    _sharpness_points,
    _strip_bound,
    run_octagon_scenario,
    run_sharpness_scenario,
    run_verify_theorem22,
)


class TestOctagon:
    def test_passes_with_exact_values(self):
        result = run_octagon_scenario()
        assert result.passed
        d = result.details
        assert d["q_single"] == F(3, 8)
        assert d["q_sum"] == F(3, 8)
        assert d["t_value"] == F(11, 32)
        assert d["t_value"] < F(3, 8)
        assert d["center_weight"] == F(8, 64)
        assert d["circulant_steps_1_2"]

    def test_sum_support_size(self):
        # 64 ordered vertex sums merge: 8 diagonal doubles, 1 origin from
        # the 8 antipodal pairs, 24 distinct midpoints from the remaining 48
        result = run_octagon_scenario()
        assert result.details["sum_support_size"] == 33

    def test_contrast_octagon_grows_clique(self):
        result = run_octagon_scenario()
        assert result.details["contrast_radius_half_q"] == F(1, 2)

    def test_points_form_regular_octagon_one_wide(self):
        pts = _octagon_points()

        def sq(p, q):
            return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2

        origin = (QuadExt.of(0, 0, 2),) * 2
        assert len({sq(p, origin) for p in pts}) == 1
        for step in (1, 2, 3, 4):
            assert len({sq(pts[i], pts[(i + step) % 8]) for i in range(8)}) == 1
        assert sq(pts[0], pts[3]) == QuadExt.of(1, 0, 2)  # the three-step chord
        # the flats x = 1/2 and y = 1/2 are 1 apart from x = -1/2 and y = -1/2
        assert max(p[0] for p in pts) == QuadExt.of(F(1, 2), 0, 2) == max(p[1] for p in pts)

    def test_t_value_cross_check(self):
        assert t_value([F(3, 8), F(3, 8)]) == F(11, 32)

    def test_octagon_beats_lattice_sums_on_stated_range(self):
        # the octagon sum concentrates at 3/8 while the worst lattice pair
        # stays strictly below, exactly for alpha in [3/8, 5/12)
        from anticonc.lattice import concentration_1d, convolve, extremal_measure

        grid = [F(3, 8), F(2, 5), F(5, 13), F(17, 42), F(41, 100)]
        for alpha in grid:
            assert F(3, 8) <= alpha < F(5, 12)
            conv = convolve(extremal_measure(alpha), extremal_measure(alpha))
            assert concentration_1d(conv) < F(3, 8)
        # at 5/12 the comparison flips: the lattice pair reaches 3/8
        boundary = convolve(extremal_measure(F(5, 12)), extremal_measure(F(5, 12)))
        assert concentration_1d(boundary) >= F(3, 8)


class TestSharpness:
    def test_epsilon_milli_finds_c5(self):
        result = run_sharpness_scenario(F(1, 1000))
        assert result.passed
        assert result.details["hole_found"]
        assert len(result.details["hole"]) == 5
        assert result.details["deviation_above_threshold"]
        assert result.details["below_threshold_berge"]

    def test_epsilon_zero_degenerate(self):
        result = run_sharpness_scenario(0)
        assert result.passed
        assert result.details["edge_count"] == 0
        assert not result.details["hole_found"]

    def test_strip_samples_all_berge(self):
        result = run_sharpness_scenario(F(1, 1000), strip_samples=40, seed=3)
        assert result.passed and result.details["strip_all_berge"]

    def test_epsilon_validation(self):
        with pytest.raises(DomainError):
            run_sharpness_scenario(F(1, 50))

    @pytest.mark.parametrize("samples", [-1, True, 2.0])
    def test_strip_samples_validation(self, samples):
        # -1 used to run as 0 samples
        with pytest.raises(DomainError, match="strip_samples"):
            run_sharpness_scenario(F(1, 1000), strip_samples=samples)

    @pytest.mark.parametrize("eps", [F(0), F(1, 1000), F(99, 10000)], ids=str)
    def test_below_threshold_points(self, eps):
        # the five points of the former safe-strip helper, written out
        q = lambda a, b=0: QuadExt.of(a, b, 3)
        s, shift = q(1 - eps), q(0, -(1 - eps) / 4)
        base = [(q(-1), q(0)), (q(0), q(0)), (q(1), q(0)), (q(F(1, 2)), q(0, F(1, 2))), (q(F(-1, 2)), q(0, F(1, 2)))]
        want = [(s * x, s * y + shift) for x, y in base]
        assert _sharpness_points(eps, below_threshold=True) == want

    def test_deterministic(self):
        a = run_sharpness_scenario(F(1, 1000), strip_samples=10, seed=9)
        b = run_sharpness_scenario(F(1, 1000), strip_samples=10, seed=9)
        assert a.to_json() == b.to_json()


_OCTAGON_JSON = {
    "name": "octagon",
    "pass": True,
    "details": {
        "circulant_steps_1_2": True,
        "q_single": "3/8",
        "q_sum": "3/8",
        "sum_support_size": 33,
        "center_weight": "1/8",
        "t_value": "11/32",
        "t_below_alpha": True,
        "contrast_radius_half_q": "1/2",
    },
}


def _sharpness_json(eps, max_abs_y):
    details = {
        "epsilon": eps,
        "edge_count": 5,
        "hole_found": True,
        "deviation_above_threshold": True,
        "max_abs_y_float": max_abs_y,
        "hole": [0, 1, 2, 3, 4],
        "below_threshold_berge": True,
        "strip_samples": 20,
        "strip_all_berge": True,
    }
    return {"name": "sharpness", "pass": True, "details": details}


_SHARPNESS_JSON = {
    F(0): {
        "name": "sharpness",
        "pass": True,
        "details": {
            "epsilon": "0/1",
            "edge_count": 0,
            "hole_found": False,
            "deviation_above_threshold": False,
            "max_abs_y_float": 0.4330127018922193,
            "degenerate_no_edges": True,
            "strip_samples": 20,
            "strip_all_berge": True,
        },
    },
    F(1, 1000): _sharpness_json("1/1000", 0.4350107018922193),
    F(1, 200): _sharpness_json("1/200", 0.4429627018922193),
    F(99, 10000): _sharpness_json("99/10000", 0.4526166818922193),
}


_SHARPNESS_ZERO_DEFAULT = (
    '{"name": "sharpness", "pass": true, "details": {"epsilon": "0/1", "edge_count": 0, "hole_found": false, "deviation_above_threshold": false, "max_abs_y_float": 0.4330127018922193, "degenerate_no_edges": true}}'
)

_CLI_OUTPUT = {
    ("octagon",): (
        '{\n'
        '  "details": {\n'
        '    "center_weight": "1/8",\n'
        '    "circulant_steps_1_2": true,\n'
        '    "contrast_radius_half_q": "1/2",\n'
        '    "q_single": "3/8",\n'
        '    "q_sum": "3/8",\n'
        '    "sum_support_size": 33,\n'
        '    "t_below_alpha": true,\n'
        '    "t_value": "11/32"\n'
        '  },\n'
        '  "name": "octagon",\n'
        '  "pass": true\n'
        '}\n'
    ),
    ("sharpness", "--strip-samples", "20", "--seed", "3"): (
        '{\n'
        '  "details": {\n'
        '    "below_threshold_berge": true,\n'
        '    "deviation_above_threshold": true,\n'
        '    "edge_count": 5,\n'
        '    "epsilon": "1/1000",\n'
        '    "hole": [\n'
        '      0,\n'
        '      1,\n'
        '      2,\n'
        '      3,\n'
        '      4\n'
        '    ],\n'
        '    "hole_found": true,\n'
        '    "max_abs_y_float": 0.4350107018922193,\n'
        '    "strip_all_berge": true,\n'
        '    "strip_samples": 20\n'
        '  },\n'
        '  "name": "sharpness",\n'
        '  "pass": true\n'
        '}\n'
    ),
}


class TestPinnedOutput:
    """Literal scenario output: key order, values and hole indices."""

    def test_octagon_json(self):
        out = run_octagon_scenario().to_json()
        assert json.dumps(out) == json.dumps(_OCTAGON_JSON)

    @pytest.mark.parametrize("eps", sorted(_SHARPNESS_JSON), ids=str)
    def test_sharpness_json(self, eps):
        out = run_sharpness_scenario(eps, strip_samples=20, seed=3).to_json()
        assert json.dumps(out) == json.dumps(_SHARPNESS_JSON[eps])

    def test_sharpness_zero_default_json(self):
        out = run_sharpness_scenario(0).to_json()
        assert json.dumps(out) == _SHARPNESS_ZERO_DEFAULT

    @pytest.mark.parametrize("args", sorted(_CLI_OUTPUT), ids=" ".join)
    def test_cli_output(self, args):
        result = CliRunner().invoke(main, list(args))
        assert result.exit_code == 0 and result.stdout == _CLI_OUTPUT[args]


class TestVerifyTheorem22:
    def test_default_run_passes(self):
        result = run_verify_theorem22({"count": 60}, seed=11)
        assert result.passed
        assert result.details["failures"] == []
        assert result.details["equality_cases_ok"]
        assert result.details["min_margin"] is not None
        assert result.details["min_margin"] >= 0

    def test_single_measure_is_tight(self):
        # n = 1: the sum is the measure itself and t(alpha) = alpha
        result = run_verify_theorem22(
            {"count": 12, "max_summands": 1}, seed=2
        )
        assert result.passed

    @pytest.mark.parametrize("field, value", [
        ("norms", []), ("norms", "l2"), ("denominator", 0), ("count", -3), ("count", True),
        ("count", "5"), ("max_summands", 0), ("max_atoms", 0), ("x_span", -1),
        ("extremal_cases", -1),
    ])
    def test_generator_checked_before_drawing(self, field, value):
        # empty norms and a zero denominator used to divide by zero mid-run;
        # a negative or bool count passed without drawing anything
        with pytest.raises(DomainError, match=f"'{field}'"):
            run_verify_theorem22({field: value})

    def test_unknown_norm_name(self):
        with pytest.raises(DomainError, match="unknown norm name 'l3'"):
            run_verify_theorem22({"count": 0, "norms": ["l2", "l3"]})

    def test_zero_count_draws_no_instance(self):
        result = run_verify_theorem22({"count": 0, "extremal_cases": 0})
        assert result.passed and result.details["instances"] == 0

    def test_all_instances_capped_raises(self, tmp_path):
        # every instance refused by a cap: nothing was checked, so no verdict;
        # the CLI exits 2 with the cap of the last refusal
        gen = {"count": 4, "extremal_cases": 0}
        with caps_env(clique=0), pytest.raises(ResourceCapExceeded) as err:
            run_verify_theorem22(gen)
        assert str(err.value).startswith("no instance was checked: all 4 were refused, the last by clique needs ")
        assert str(err.value).endswith(", cap is 0")
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(gen))
        result = CliRunner().invoke(main, ["verify-theorem22", "--input", str(path)],
                                    env={"ANTICONC_CAPS": json.dumps({"clique": 0})})
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.stderr == f"resource cap: {err.value}\n"

    def test_some_instances_capped_still_checked(self):
        # sums over the clique cap are refused and counted; the smaller
        # instances are checked and the run keeps its verdict
        with caps_env(clique=8):
            result = run_verify_theorem22({"count": 12, "extremal_cases": 0}, seed=2)
        assert result.passed and result.details["failures"] == []
        assert result.details["skipped"] == 3
        assert result.details["min_margin"] is not None

    def test_deterministic(self):
        a = run_verify_theorem22({"count": 15}, seed=4)
        b = run_verify_theorem22({"count": 15}, seed=4)
        assert a.to_json() == b.to_json()

def _strip_bound_reference(norm, scale, den):
    """The strip bound as first written: a non-strict bound on the square
    for the Euclidean radius sqrt(3)/4, strict for the radius 1/8."""
    if norm.is_hilbert:
        return math.isqrt(math.floor(scale * scale * F(3, 16) * den * den))
    b = math.floor(scale * F(1, 8) * den)
    if F(b, den) == scale * F(1, 8):
        b -= 1
    return max(b, 0)


class TestScenarioHelpers:
    SCALES = sorted({F(a, b) for b in range(1, 65) for a in range(1, b + 1)})
    DENS = (1, 2, 3, 5, 7, 8, 16, 24, 32, 64, 100, 127, 128, 512, 1000, 1024)

    @pytest.mark.parametrize("norm", [l2(2), l1(2), linf(2), lp(2, 2), lp(3, 2)],
                             ids=["l2", "l1", "linf", "lp2", "lp3"])
    def test_strip_bound_matches_reference(self, norm):
        # every scale in (0, 1] with numerator and denominator up to 64
        for scale in self.SCALES:
            for den in self.DENS:
                assert _strip_bound(norm, scale, den) == _strip_bound_reference(norm, scale, den)

    def test_norm_names(self):
        assert [_norm_by_name(n) for n in ("l2", "l1", "linf")] == [l2(2), l1(2), linf(2)]
        for name in ("lp", "l3", ["l2"]):
            with pytest.raises(DomainError) as err:
                _norm_by_name(name)
            assert str(err.value) == f"unknown norm name {name!r}"
