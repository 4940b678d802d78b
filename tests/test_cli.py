import errno
import json
import math
import os
import pathlib
import random
import time
from fractions import Fraction as F

import pytest
from conftest import CliRunner

from anticonc import lattice
from anticonc.cli import main
from anticonc.errors import InvariantViolation
from anticonc.geometry import NormSpec, PointConfig, VectorMeasure, distance_graph, l2
from anticonc.perfect_graphs import cocomparability_order


@pytest.fixture
def runner():
    return CliRunner()


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestNuStar:
    def test_three_eighths(self, runner):
        result = runner.invoke(main, ["nu-star", "--alpha", "3/8"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["offset_index"] == -2
        assert data["weights"] == ["1/4", "1/8", "1/4", "1/8", "1/4"]

    def test_bad_alpha_exit_2(self, runner):
        result = runner.invoke(main, ["nu-star", "--alpha", "7/5"])
        assert result.exit_code == 2

    def test_csv_output(self, runner):
        result = runner.invoke(main, ["nu-star", "--alpha", "1/2", "--output", "csv"])
        assert result.exit_code == 0
        assert result.output.startswith("key,value")


class TestTValue:
    def test_four_coins(self, runner):
        result = runner.invoke(main, ["t-value", "--alphas", "1/2,1/2,1/2,1/2"])
        assert result.exit_code == 0
        assert json.loads(result.output)["t"] == "3/8"

    def test_malformed(self, runner):
        result = runner.invoke(main, ["t-value", "--alphas", "zebra"])
        assert result.exit_code == 2

    def test_long_list_exact(self, runner):
        result = runner.invoke(main, ["t-value", "--alphas", ",".join(["1/2"] * 200)])
        assert result.exit_code == 0
        data = json.loads(result.output)
        want = F(math.comb(200, 100), 2 ** 200)
        assert data == {"t": str(want), "float": float(want), "exact": True}

    def test_each_distinct_alpha_parsed_once(self, runner, monkeypatch):
        from anticonc import cli

        parsed = []

        def counted(text):
            parsed.append(text)
            return F(text)

        monkeypatch.setattr(cli, "as_fraction", counted)
        alphas = ["1/2", "1/3", "1/2", "1/3", "1/4", "1/2"]
        result = runner.invoke(main, ["t-value", "--alphas", " ,".join(alphas)])
        assert result.exit_code == 0 and parsed == ["1/2", "1/3", "1/4"]
        assert json.loads(result.output)["t"] == str(lattice.t_value([F(a) for a in alphas]))

    @pytest.mark.parametrize("alphas, bad, other", [("1/2,zebra,1/2,okapi,zebra", "zebra", "okapi"),
                                                    ("okapi,1/3,zebra,okapi", "okapi", "zebra")])
    def test_first_bad_alpha_named(self, runner, alphas, bad, other):
        result = runner.invoke(main, ["t-value", "--alphas", alphas])
        assert result.exit_code == 2
        assert result.stderr.startswith("input error: ") and result.stderr.count("\n") == 1
        assert repr(bad) in result.stderr and other not in result.stderr

    @pytest.mark.parametrize("flag", ["--auto", "--exact"])
    def test_retired_path_flags_exit_2(self, runner, flag):
        result = runner.invoke(main, ["t-value", "--alphas", "1/2", flag])
        assert result.exit_code == 2


class TestConcentration:
    def test_lattice_measure(self, runner, tmp_path):
        path = write_json(
            tmp_path, "m.json", {"offset_index": -1, "weights": ["1/2", "0/1", "1/2"]}
        )
        result = runner.invoke(main, ["concentration", "--input", path])
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == "1/2"

    def test_vector_measure(self, runner, tmp_path):
        vm = VectorMeasure.uniform(l2(2), [(0, 0), (2, 0), (4, 0)])
        path = write_json(tmp_path, "vm.json", vm.to_json())
        result = runner.invoke(main, ["concentration", "--input", path])
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == "1/3"

    def test_witness_indexes_sorted_atoms(self, runner, tmp_path):
        # the witness indexes the measure's sorted, merged atoms, so input
        # atom 1, (0, 0) of weight 1/4, is not the witness; its points say so
        atoms = [(("5", "0"), "1/2"), (("0", "0"), "1/4"), (("9", "0"), "1/4"), (("9", "0"), "0/1")]
        data = {"norm": "l2", "dim": 2, "atoms": [{"point": p, "weight": w} for p, w in atoms]}
        result = runner.invoke(main, ["concentration", "--input", write_json(tmp_path, "m.json", data)])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert (out["value"], out["witness"]) == ("1/2", [1])
        assert out["witness_points"] == [["5/1", "0/1"]]

    def test_unknown_schema(self, runner, tmp_path):
        path = write_json(tmp_path, "x.json", {"foo": 1})
        result = runner.invoke(main, ["concentration", "--input", path])
        assert result.exit_code == 2


class TestBergeCheck:
    def test_points_berge_true(self, runner, tmp_path):
        data = {
            "norm": "l2",
            "dim": 2,
            "points": [["0/1", "0/1"], ["1/3", "0/1"], ["2/3", "1/8"]],
        }
        path = write_json(tmp_path, "pts.json", data)
        result = runner.invoke(main, ["berge-check", "--input", path])
        assert result.exit_code == 0
        assert json.loads(result.output)["berge"] is True

    def test_raw_graph_with_hole(self, runner, tmp_path):
        data = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}
        path = write_json(tmp_path, "g.json", data)
        result = runner.invoke(main, ["berge-check", "--input", path])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["berge"] is False and len(out["hole"]) == 5
        assert out["decided_by"] == "search" and "ordering" not in out

    def test_near_line_points_decided_by_ordering(self, runner, tmp_path):
        rng = random.Random(28)
        points = [[f"{rng.randint(0, 160)}/32", f"{rng.randint(-12, 12)}/32"] for _ in range(20)]
        path = write_json(tmp_path, "pts.json", {"norm": "l2", "dim": 2, "points": points})
        result = runner.invoke(main, ["berge-check", "--input", path])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out == {"berge": True, "hole": None, "in_complement": None,
                       "decided_by": "ordering", "ordering": out["ordering"]}
        assert sorted(out["ordering"]) == list(range(20))
        xs = [F(p[0]) for p in points]
        assert [xs[v] for v in out["ordering"]] == sorted(xs)

    def test_raw_berge_graph_decided_by_search(self, runner, tmp_path):
        # a path on four vertices is Berge, but a raw graph keeps no order
        path = write_json(tmp_path, "g.json", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]})
        result = runner.invoke(main, ["berge-check", "--input", path])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"berge": True, "hole": None, "in_complement": None,
                                             "decided_by": "search"}

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"n": 2.7, "edges": []}, "graph size must be a nonnegative int, got 2.7"),
            ({"n": -3, "edges": []}, "graph size must be a nonnegative int, got -3"),
            ({"n": True, "edges": []}, "graph size must be a nonnegative int, got True"),
            ({"n": 3, "edges": [[True, 2]]}, "edge [True, 2] is not a pair of ints"),
            ({"n": 3, "edges": [[0, 1, 2]]}, "edge [0, 1, 2] is not a pair of ints"),
        ],
        ids=["fractional-n", "negative-n", "bool-n", "bool-endpoint", "triple-edge"],
    )
    def test_malformed_raw_graph_exits_2(self, runner, tmp_path, data, message):
        path = write_json(tmp_path, "g.json", data)
        result = runner.invoke(main, ["berge-check", "--input", path])
        assert result.exit_code == 2
        assert result.stderr == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "edges, hole",
        [
            ([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]], [0, 2, 4, 1, 3]),
            ([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], None),
        ],
        ids=["c5", "k4"],
    )
    def test_complement_search(self, runner, tmp_path, edges, hole):
        # the 5-cycle is self-complementary; the complement of K4 has no edge
        path = write_json(tmp_path, "g.json", {"n": len({u for e in edges for u in e}), "edges": edges})
        result = runner.invoke(main, ["berge-check", "--input", path, "--complement"])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"berge": None, "hole": hole, "in_complement": True}

    @pytest.mark.parametrize("n", [65, 250])
    @pytest.mark.parametrize("norm", ["l2", "l1", "linf"])
    def test_strip_over_hole_cap_decided_by_ordering(self, runner, tmp_path, norm, n):
        # seeded strips on the certify grid, |y| <= 9/10 of the near-line
        # radius: the sweep order has no umbrella, so the odd-hole cap of 64,
        # which prices only the search, is not asked
        rng, b = random.Random(n), {"l2": 12, "l1": 3, "linf": 3}[norm]
        points = [[f"{rng.randint(0, n * 32 // 6)}/32", f"{rng.randint(-b, b)}/32"] for _ in range(n)]
        path = write_json(tmp_path, "pts.json", {"norm": norm, "dim": 2, "points": points})
        start = time.perf_counter()
        result = runner.invoke(main, ["berge-check", "--input", path])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert (out["berge"], out["hole"], out["decided_by"]) == (True, None, "ordering")
        assert sorted(out["ordering"]) == list(range(n))

    def test_strip_with_umbrella_over_hole_cap_exits_2(self, runner, tmp_path):
        # a 65-point strip too wide to be near-line: its sweep order has an
        # umbrella, so the search runs and its cap is checked first
        rng = random.Random(0)
        points = [[f"{rng.randint(0, 320)}/32", f"{rng.randint(-32, 32)}/32"] for _ in range(65)]
        path = write_json(tmp_path, "pts.json", {"norm": "l2", "dim": 2, "points": points})
        cfg = PointConfig.from_json({"norm": "l2", "dim": 2, "points": points})
        assert cocomparability_order(distance_graph(cfg)) is None
        result = runner.invoke(main, ["berge-check", "--input", path])
        assert result.exit_code == 2
        assert result.stderr == "resource cap: odd_hole needs 65, cap is 64\n"

    def test_huge_raw_graph_hits_cap_before_masks(self, runner, tmp_path, monkeypatch):
        from anticonc.perfect_graphs import DistGraph

        def no_masks(g):
            raise AssertionError("adjacency masks built")

        monkeypatch.setattr(DistGraph, "masks", property(no_masks))
        path = write_json(tmp_path, "g.json", {"n": 1000000000, "edges": []})
        result = runner.invoke(main, ["berge-check", "--input", path])
        assert result.exit_code == 2
        assert result.stderr == "resource cap: odd_hole needs 1000000000, cap is 64\n"


class TestDecompose:
    def test_uniform_measure(self, runner, tmp_path):
        vm = VectorMeasure.uniform(l2(2), [(0, 0), (2, 0), (F(1, 4), F(1, 8))])
        path = write_json(tmp_path, "vm.json", vm.to_json())
        result = runner.invoke(main, ["decompose", "--input", path])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["num_blocks"] == 2
        assert out["near_line_certified"] is True

    @pytest.mark.parametrize("norm, deviation", [("l1", 0.0625), ("linf", 0.09375)])
    def test_off_plane_near_line(self, runner, tmp_path, norm, deviation):
        # 30 points of a 3-D strip along the x axis, |y|, |z| <= 3/32 (1/32 in l1)
        rng = random.Random(3)
        w = 1 if norm == "l1" else 3
        points = [[f"{rng.randint(0, 200)}/32", f"{rng.randint(-w, w)}/32", f"{rng.randint(-w, w)}/32"]
                  for _ in range(30)]
        data = VectorMeasure.uniform(NormSpec(norm, 3), points).to_json()
        result = runner.invoke(main, ["decompose", "--input", write_json(tmp_path, "vm.json", data)])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["near_line_certified"] is True and out["max_deviation"] == deviation
        assert out["multiset_size"] == 30

    def test_rational_weights_cleared(self, runner, tmp_path):
        vm = VectorMeasure(
            PointConfig(l2(2), ((F(0), F(0)), (F(2), F(0)))),
            (F(1, 3), F(2, 3)),
        )
        path = write_json(tmp_path, "vm.json", vm.to_json())
        result = runner.invoke(main, ["decompose", "--input", path])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["multiset_size"] == 3

    @pytest.mark.parametrize("norm, atoms, blocks", [("l2", 248, 15), ("l1", 243, 12), ("linf", 243, 12)])
    def test_strip_over_colouring_cap(self, runner, tmp_path, norm, atoms, blocks):
        # the seeded 250-point strips of berge-check, as uniform measures on
        # their distinct points: DSATUR meets the clique number, so the
        # colouring cap of 200, which prices only the backtrack, is not asked
        rng, b = random.Random(250), {"l2": 12, "l1": 3, "linf": 3}[norm]
        points = [(f"{rng.randint(0, 250 * 32 // 6)}/32", f"{rng.randint(-b, b)}/32") for _ in range(250)]
        data = VectorMeasure.uniform(NormSpec(norm, 2), list(dict.fromkeys(points))).to_json()
        path = write_json(tmp_path, "vm.json", data)
        start = time.perf_counter()
        result = runner.invoke(main, ["decompose", "--input", path])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 0, result.output
        out = json.loads(result.output)
        assert (out["multiset_size"], out["num_blocks"]) == (atoms, blocks)

    def test_regular_pentagon_not_perfect_exits_2(self, runner, tmp_path):
        # sides about 0.82 (edges), diagonals about 1.33: the graph is a 5-cycle
        points = [("0", "7/10"), ("-2/3", "11/50"), ("-41/100", "-57/100"),
                  ("41/100", "-57/100"), ("2/3", "11/50")]
        data = {"norm": "l2", "dim": 2, "atoms": [{"point": p, "weight": "1/5"} for p in points]}
        result = runner.invoke(main, ["decompose", "--input", write_json(tmp_path, "vm.json", data)])
        assert result.exit_code == 2
        assert result.stderr == "input error: distance graph is not perfect here: chi=3, omega=2\n"

    def test_alpha_below_colour_count_exits_2(self, runner, tmp_path):
        vm = VectorMeasure.uniform(l2(2), [(0, 0), (F(1, 3), 0), (F(2, 3), 0)])
        path = write_json(tmp_path, "vm.json", vm.to_json())
        result = runner.invoke(main, ["decompose", "--input", path, "--alpha", "1/2"])
        assert result.exit_code == 2
        assert result.stderr == "input error: colouring uses 3 classes, above alpha*|S| = 3/2\n"


class TestChainsCommands:
    def test_btk_chains(self, runner, tmp_path):
        data = {
            "norm": "l2",
            "dim": 1,
            "direction": ["1/1"],
            "blocks": [[["0/1"], ["1/1"]], [["0/1"], ["1/1"]]],
        }
        path = write_json(tmp_path, "blocks.json", data)
        result = runner.invoke(main, ["btk-chains", "--input", path])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["num_chains"] == 2 and out["sizes"] == [1, 3]

    def test_jones_bound(self, runner, tmp_path):
        data = {
            "norm": "l2",
            "dim": 1,
            "direction": ["1/1"],
            "blocks": [[["0/1"], ["1/1"]], [["0/1"], ["1/1"]]],
        }
        path = write_json(tmp_path, "blocks.json", data)
        result = runner.invoke(main, ["jones-bound", "--input", path])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["bound"] == "1/2" and out["ok"] is True

    @pytest.mark.parametrize("command", ["btk-chains", "jones-bound"])
    @pytest.mark.parametrize("block, got", [([["0", "0", "7"], ["2", "0"]], 3), ([["0"], ["2"]], 1)])
    def test_wrong_dimension_exits_2(self, runner, tmp_path, command, block, got):
        # the extra or missing coordinate used to be dropped or chained on
        data = {"norm": "l2", "dim": 2, "direction": ["1", "0"], "blocks": [block, [["0", "0"], ["3", "0"]]]}
        path = write_json(tmp_path, "blocks.json", data)
        result = runner.invoke(main, [command, "--input", path])
        assert result.exit_code == 2
        assert result.stderr == f"input error: expected dimension 2, got {got}\n"


class TestBoundsCommands:
    def test_clt_window(self, runner):
        result = runner.invoke(
            main, ["clt-window", "--alphas", ",".join(["1/2"] * 24), "--c", "1/4"]
        )
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["extras"]["t_in_window"] is True

    def test_integral_rationals_keep_denominator(self, runner):
        result = runner.invoke(main, ["clt-window", "--alphas", "1/2,1/2,1/2,1/2"])
        out = json.loads(result.output)
        assert (out["exact_t"], out["extras"]["v_star"]) == ("3/8", "1/1")

    def test_main_bound_reports_conditions(self, runner):
        result = runner.invoke(
            main,
            ["main-bound", "--alphas", ",".join(["1/2"] * 16), "--big-c", "1.0"],
        )
        assert result.exit_code == 1  # epsilon condition fails at desk sizes
        out = json.loads(result.output)
        assert any(c["name"] == "epsilon' <= 3/16" for c in out["conditions"])

    @pytest.mark.parametrize("alphas", ["1,5/7", "4/9,4/5,1/1"])
    def test_main_bound_with_no_trimmed_variance_reports(self, runner, alphas):
        # the first n - floor(m) factors all have alpha 1, so V*_trim = 0 and
        # the plug-in value is undefined; this used to be a ZeroDivisionError
        result = runner.invoke(main, ["main-bound", "--alphas", alphas, "--big-c", "1.0"])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.stderr == ""
        out = json.loads(result.output)
        assert out["value"] is None and out["extras"]["rhs_unconditional"] is None
        assert {c["name"]: c["holds"] for c in out["conditions"]}["n >= 8"] is False


class TestScenarioCommands:
    def test_octagon(self, runner):
        result = runner.invoke(main, ["octagon"])
        assert result.exit_code == 0
        assert json.loads(result.output)["pass"] is True

    def test_sharpness(self, runner):
        result = runner.invoke(main, ["sharpness", "--epsilon", "1/1000"])
        assert result.exit_code == 0

    @pytest.mark.parametrize(
        "args, expected",
        [
            (
                ["octagon"],
                {
                    "details": {
                        "center_weight": "1/8",
                        "circulant_steps_1_2": True,
                        "contrast_radius_half_q": "1/2",
                        "q_single": "3/8",
                        "q_sum": "3/8",
                        "sum_support_size": 33,
                        "t_below_alpha": True,
                        "t_value": "11/32",
                    },
                    "name": "octagon",
                    "pass": True,
                },
            ),
            (
                ["sharpness"],
                {
                    "details": {
                        "below_threshold_berge": True,
                        "deviation_above_threshold": True,
                        "edge_count": 5,
                        "epsilon": "1/1000",
                        "hole": [0, 1, 2, 3, 4],
                        "hole_found": True,
                        "max_abs_y_float": 0.4350107018922193,
                    },
                    "name": "sharpness",
                    "pass": True,
                },
            ),
        ],
        ids=["octagon", "sharpness"],
    )
    def test_scenario_stdout_pinned(self, runner, args, expected):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_sharpness_csv_pinned(self, runner):
        result = runner.invoke(main, ["sharpness", "--epsilon", "0", "--output", "csv"])
        assert result.exit_code == 0
        assert result.output == (
            "key,value\n"
            "details.degenerate_no_edges,True\n"
            "details.deviation_above_threshold,False\n"
            "details.edge_count,0\n"
            "details.epsilon,0/1\n"
            "details.hole_found,False\n"
            "details.max_abs_y_float,0.4330127018922193\n"
            "name,sharpness\n"
            "pass,True\n"
        )

    def test_verify_theorem22(self, runner):
        result = runner.invoke(main, ["verify-theorem22", "--count", "10", "--seed", "5"])
        assert result.exit_code == 0
        assert json.loads(result.output)["pass"] is True

    @pytest.mark.parametrize("generator, field", [
        ({"norms": []}, "norms"), ({"denominator": 0}, "denominator"),
        ({"count": -3}, "count"), ({"count": True}, "count"),
    ])
    def test_bad_generator_exits_2(self, runner, tmp_path, generator, field):
        path = write_json(tmp_path, "gen.json", generator)
        result = runner.invoke(main, ["verify-theorem22", "--input", path])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"input error: generator field '{field}'")

    @pytest.mark.parametrize("args", [["verify-theorem22", "--count", "-1"],
                                      ["sharpness", "--strip-samples", "-1"]])
    def test_negative_count_exits_2(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2 and result.stderr.startswith("input error: ")

    def test_reruns_byte_identical(self, runner):
        a = runner.invoke(main, ["verify-theorem22", "--count", "8", "--seed", "1"])
        b = runner.invoke(main, ["verify-theorem22", "--count", "8", "--seed", "1"])
        assert a.output == b.output


class TestEmpirical:
    def test_empirical_output(self, runner, tmp_path):
        vm = VectorMeasure.uniform(l2(2), [(0, 0), (3, 0)])
        path = write_json(tmp_path, "vm.json", vm.to_json())
        result = runner.invoke(
            main, ["empirical", "--input", path, "--n", "8", "--seed", "3"]
        )
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert sum(F(a["weight"]) for a in out["atoms"]) == 1


class TestHalaszCommand:
    def test_halasz(self, runner, tmp_path):
        ms = [VectorMeasure.uniform(l2(2), [(0, 0), (2, 0)]).to_json() for _ in range(3)]
        path = write_json(tmp_path, "ms.json", {"measures": ms})
        result = runner.invoke(
            main, ["halasz", "--input", path, "--direction-samples", "60"]
        )
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["D"] < 1e-9 and out["mu"] == 1.5

    def test_seeded_output_pinned(self, runner, tmp_path):
        # the float grid scans and their refinements, bit for bit; on this
        # input the second measure's refined shift ties its grid point
        rng = random.Random(2)
        ms = []
        for _ in range(3):
            n = rng.randint(3, 6)
            pts = [(F(rng.randint(-40, 40), 16), F(rng.randint(-24, 24), 16)) for _ in range(n)]
            ws = [rng.randint(1, 5) for _ in range(n)]
            ms.append(VectorMeasure(PointConfig(l2(2), pts), [F(w, sum(ws)) for w in ws]).to_json())
        path = write_json(tmp_path, "ms.json", {"measures": ms})
        result = runner.invoke(
            main, ["halasz", "--input", path, "--direction-samples", "90", "--center-samples", "12"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "D": 0.7843795681150447,
            "best_center": [0.0, 0.0],
            "best_direction": [-0.24583129526083392, 0.9693126297899871],
            "mu": 1.1268902038132806,
            "shifts": [
                [-0.0, 0.0],
                [4.365338280378771e-10, -1.7212525866518483e-09],
                [0.07568998620538785, -0.29844556405915534],
            ],
        }


    @pytest.mark.parametrize(
        "data, message",
        [
            ([{"measures": []}], "input must be a JSON object, not list"),
            ({"measure": []}, "missing field 'measures'"),
            ({"measures": [{"norm": "l2", "dim": 2}]}, "missing field 'atoms'"),
        ],
        ids=["list", "no-measures", "no-atoms"],
    )
    def test_names_the_bad_field(self, runner, tmp_path, data, message):
        path = write_json(tmp_path, "ms.json", data)
        result = runner.invoke(main, ["halasz", "--input", path])
        assert result.exit_code == 2
        assert result.stderr == f"input error: {message}\n"


def _strip_points():
    # 30 points drawn by random.Random(1): x in 0..200/32, y in -3..3/32
    rng = random.Random(1)
    return [[f"{rng.randint(0, 200)}/32", f"{rng.randint(-3, 3)}/32"] for _ in range(30)]


class TestOneNormOneOutput:
    """Measures in lp(1) and lp(2) print the output of the same measures in
    l1 and l2."""

    def _outputs(self, runner, tmp_path, command, make, norms):
        outs = []
        for norm in norms:
            result = runner.invoke(main, [command, "--input", write_json(tmp_path, "in.json", make(norm))])
            assert result.exit_code == 0
            outs.append(result.output)
        return outs

    def test_decompose_lp1_as_l1(self, runner, tmp_path):
        atoms = [{"point": p, "weight": "1/30"} for p in _strip_points()]
        l1_out, lp1_out = self._outputs(runner, tmp_path, "decompose",
                                        lambda norm: {"norm": norm, "dim": 2, "atoms": atoms},
                                        ("l1", {"lp": "1"}))
        assert lp1_out == l1_out
        assert json.loads(l1_out)["max_deviation"] == 0.09375

    def test_halasz_lp2_as_l2(self, runner, tmp_path):
        pts = _strip_points()
        parts = [pts[:3], pts[3:7], pts[7:8]]
        l2_out, lp2_out = self._outputs(
            runner, tmp_path, "halasz",
            lambda norm: {"measures": [VectorMeasure.uniform(NormSpec.from_json(norm, 2), part).to_json()
                                       for part in parts]},
            ("l2", {"lp": "2"}))
        assert lp2_out == l2_out


_INPUT_COMMANDS = (["concentration"], ["berge-check"], ["decompose"], ["btk-chains"], ["jones-bound"],
                   ["halasz"], ["verify-theorem22"], ["empirical", "--n", "4"])


class TestErrorContract:
    """Every subcommand exits 2, without a traceback, on a cap or bad input."""

    @pytest.mark.parametrize(
        "args, caps",
        [
            (["sharpness", "--strip-samples", "5"], {"odd_hole": 3}),
            (["octagon"], {"clique": 3}),
        ],
        ids=["sharpness", "octagon"],
    )
    def test_cap_exits_2(self, runner, args, caps):
        result = runner.invoke(main, args, env={"ANTICONC_CAPS": json.dumps(caps)})
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("resource cap: ")

    def test_halasz_product_support_cap_exits_2(self, runner, tmp_path):
        # symmetrizing a 3-atom measure asks for 3 * 3 product atoms
        ms = [VectorMeasure.uniform(l2(2), [(0, 0), (1, 0), (0, 1)]).to_json()]
        path = write_json(tmp_path, "ms.json", {"measures": ms})
        env = {"ANTICONC_CAPS": json.dumps({"product_support": 8})}
        result = runner.invoke(main, ["halasz", "--input", path], env=env)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("resource cap: ")

    def test_malformed_caps_exit_2(self, runner):
        result = runner.invoke(main, ["octagon"], env={"ANTICONC_CAPS": "{"})
        assert result.exit_code == 2
        assert result.stderr.startswith("input error: ")

    def test_octagon_product_support_cap_exits_2(self, runner):
        # the octagon sum asks for 8 * 8 product atoms
        env = {"ANTICONC_CAPS": json.dumps({"product_support": 63})}
        result = runner.invoke(main, ["octagon"], env=env)
        assert result.exit_code == 2
        assert result.stderr == "resource cap: product_support needs 64, cap is 63\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["t-value", "--alphas", "1/0"],
            ["t-value", "--alphas", "1/2,1/0"],
            ["t-value", "--alphas", " , "],
            ["clt-window", "--alphas", ","],
            ["main-bound", "--alphas", ",", "--big-c", "1"],
            ["nu-star", "--alpha", "3/0"],
            ["sharpness", "--epsilon", "1/0"],
            ["clt-window", "--alphas", "1/2", "--c", "1/0"],
            ["halasz", "--input", "MEASURES", "--center-samples", "0"],
            ["halasz", "--input", "MEASURES", "--center-samples", "-1"],
            ["main-bound", "--alphas", "3/8,3/8", "--big-c", "inf"],
            ["main-bound", "--alphas", "3/8,3/8", "--big-c", "-inf"],
            ["main-bound", "--alphas", "3/8,3/8", "--big-c", "nan"],
            ["main-bound", "--alphas", "3/8,3/8", "--big-c", "1", "--delta-prime", "inf"],
            ["main-bound", "--alphas", "3/8,3/8", "--big-c", "1", "--gamma", "inf"],
        ],
        ids=lambda a: " ".join(a),
    )
    def test_bad_value_exits_2(self, runner, tmp_path, args):
        ms = [VectorMeasure.uniform(l2(2), [(0, 0), (2, 0)]).to_json()]
        path = write_json(tmp_path, "ms.json", {"measures": ms})
        result = runner.invoke(main, [path if a == "MEASURES" else a for a in args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("input error: ")
        assert result.stderr.count("\n") == 1

    def test_invariant_violation_exits_2(self, runner, monkeypatch):
        def broken(alphas):
            raise InvariantViolation("power recurrence left remainder 1 at m=3")

        monkeypatch.setattr(lattice, "t_value", broken)
        result = runner.invoke(main, ["t-value", "--alphas", "1/2,1/2"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "input error: power recurrence left remainder 1 at m=3\n"
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", _INPUT_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("kind, reason", [("missing", "No such file or directory"),
                                              ("directory", "Is a directory"),
                                              ("unreadable", "Permission denied")])
    def test_unreadable_input_exits_2(self, runner, tmp_path, monkeypatch, command, kind, reason):
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "unreadable":
            path.write_text("{}")
            path.chmod(0)
            if os.access(path, os.R_OK):  # a superuser reads it anyway: fail as the OS would
                def denied(self, *args, **kwargs):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

                monkeypatch.setattr(pathlib.Path, "read_text", denied)
        result = runner.invoke(main, [command[0], "--input", str(path), *command[1:]])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.stderr == f"input error: cannot read --input {str(path)!r}: {reason}\n"
        assert result.stdout == ""

    def test_zero_denominator_in_json_exits_2(self, runner, tmp_path):
        data = VectorMeasure.uniform(l2(2), [(0, 0), (2, 0)]).to_json()
        data["atoms"][0]["point"][0] = "1/0"
        path = write_json(tmp_path, "vm.json", data)
        result = runner.invoke(main, ["concentration", "--input", path])
        assert result.exit_code == 2
        assert result.stderr == "input error: zero denominator in '1/0'\n"


def _measure_json(point=("0", "0"), **fields):
    return {"norm": "l2", "dim": 2, "atoms": [{"point": point, "weight": "1/1"}], **fields}


def _blocks_json(**fields):
    return {"norm": "l2", "dim": 2, "direction": ["1", "0"],
            "blocks": [[["0", "0"], ["1", "0"]], [["0", "0"]]], **fields}


def _huge_measure(norm, dim):
    # 0, 10^400 e_1 and 10^400 e_2, each with weight 1/3
    big = "1" + "0" * 400
    points = [["0"] * dim, [big] + ["0"] * (dim - 1), ["0", big] + ["0"] * (dim - 2)]
    return {"norm": norm, "dim": dim, "atoms": [{"point": p, "weight": "1/3"} for p in points]}


_FLOAT_OVERFLOW = "integer division result too large for a float"
_MEASURE_COMMANDS = (["concentration"], ["decompose"], ["empirical", "--n", "4"], ["halasz"])
_BLOCK_COMMANDS = (["btk-chains"], ["jones-bound"])
_MEASURE_CASES = {
    "point-string": (_measure_json(point="12"), "a vector must be a list of rationals, got '12'"),
    "dim-float": (_measure_json(dim=2.7), "dimension must be an int >= 1, got 2.7"),
    "dim-bool": (_measure_json(dim=True), "dimension must be an int >= 1, got True"),
    "dim-string": (_measure_json(dim="2"), "dimension must be an int >= 1, got '2'"),
    "zero-denominator": (_measure_json(point=("1/0", "0")), "zero denominator in '1/0'"),
    "wrong-dimension": (_measure_json(point=("0", "0", "1")), "point dimension does not match norm"),
    "no-dim": ({"norm": "l2", "atoms": []}, "missing field 'dim'"),
    "weight-bool": ({"norm": "l2", "dim": 2, "atoms": [{"point": ["0", "0"], "weight": True}]},
                    "a rational cannot be a bool, got True"),
    "point-bool": (_measure_json(point=[True, False]), "a rational cannot be a bool, got True"),
    "lp-bool": (_measure_json(norm={"lp": True}), "a rational cannot be a bool, got True"),
    "lp-extra-key": (_measure_json(norm={"lp": "1/1", "p": "3"}), "bad norm spec {'lp': '1/1', 'p': '3'}"),
    "lp-no-p": (_measure_json(norm="lp"), "lp norm needs p, got none"),
}
_BLOCK_CASES = {
    "direction-string": (_blocks_json(direction="10"), "a vector must be a list of rationals, got '10'"),
    "point-string": (_blocks_json(blocks=[["00"]]), "a vector must be a list of rationals, got '00'"),
    "dim-float": (_blocks_json(dim=2.7), "dimension must be an int >= 1, got 2.7"),
    "dim-bool": (_blocks_json(dim=True), "dimension must be an int >= 1, got True"),
    "extra-coordinate": (_blocks_json(blocks=[[["0", "0", "7"], ["2", "0"]]]),
                         "expected dimension 2, got 3"),
    "missing-coordinate": (_blocks_json(blocks=[[["0"], ["2"]]]), "expected dimension 2, got 1"),
}
_OTHER_CASES = {
    "points-string": (["berge-check"], {"norm": "l2", "dim": 2, "points": ["12"]},
                      "a vector must be a list of rationals, got '12'"),
    "points-dim-float": (["berge-check"], {"norm": "l2", "dim": 2.7, "points": [["0", "0"]]},
                         "dimension must be an int >= 1, got 2.7"),
    "points-dim-bool": (["berge-check"], {"norm": "l2", "dim": True, "points": [["0"]]},
                        "dimension must be an int >= 1, got True"),
    "graph-n-float": (["berge-check"], {"n": 2.7, "edges": []},
                      "graph size must be a nonnegative int, got 2.7"),
    "graph-bool-endpoint": (["berge-check"], {"n": 3, "edges": [[True, 2]]},
                            "edge [True, 2] is not a pair of ints"),
    "offset-float": (["concentration"], {"offset_index": 1.5, "weights": ["1/1"]},
                     "offset index must be an int, got 1.5"),
    "offset-bool": (["concentration"], {"offset_index": True, "weights": ["1/1"]},
                    "offset index must be an int, got True"),
    "generator-seed-float": (["verify-theorem22"], {"seed": 1.7},
                             "generator field 'seed' must be an int, got 1.7"),
    "generator-seed-bool": (["verify-theorem22"], {"seed": True},
                            "generator field 'seed' must be an int, got True"),
    "generator-unknown-key": (["verify-theorem22"], {"bogus": 1, "count": 1},
                              "unknown generator fields: ['bogus']"),
    "generator-strip-scale-5": (["verify-theorem22"], {"strip_scale": 5},
                                "generator field 'strip_scale' must be in (0, 1], got 5"),
    "generator-strip-scale-neg": (["verify-theorem22"], {"strip_scale": -1},
                                  "generator field 'strip_scale' must be in (0, 1], got -1"),
    "generator-strip-scale-0": (["verify-theorem22"], {"strip_scale": "0/1"},
                                "generator field 'strip_scale' must be in (0, 1], got '0/1'"),
    "generator-norms": (["verify-theorem22"], {"norms": []},
                        "generator field 'norms' must be a non-empty list, got []"),
    "generator-count-bool": (["verify-theorem22"], {"count": True},
                             "generator field 'count' must be an int >= 0, got True"),
    # coordinates too large for a float, which near-line fits and Halász's
    # float diagnostics report in
    "decompose-huge-l2": (["decompose"], _huge_measure("l2", 2), _FLOAT_OVERFLOW),
    "decompose-huge-linf-3d": (["decompose"], _huge_measure("linf", 3), _FLOAT_OVERFLOW),
    "halasz-huge-l2": (["halasz"], {"measures": [_huge_measure("l2", 2)]}, _FLOAT_OVERFLOW),
}
MALFORMED_INPUTS = (
    [(f"{c[0]}-{k}", c, {"measures": [d]} if c == ["halasz"] else d, m)
     for c in _MEASURE_COMMANDS for k, (d, m) in _MEASURE_CASES.items()]
    + [(f"{c[0]}-{k}", c, d, m) for c in _BLOCK_COMMANDS for k, (d, m) in _BLOCK_CASES.items()]
    + [(k, c, d, m) for k, (c, d, m) in _OTHER_CASES.items()]
)


@pytest.mark.parametrize("command, data, message", [case[1:] for case in MALFORMED_INPUTS],
                         ids=[case[0] for case in MALFORMED_INPUTS])
def test_malformed_input_exits_2(runner, tmp_path, command, data, message):
    # one "input error:" line naming what is wrong; never a traceback or a
    # value read digit by digit or truncated into a run that exits 0
    path = write_json(tmp_path, "input.json", data)
    result = runner.invoke(main, [*command[:1], "--input", path, *command[1:]])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stderr == f"input error: {message}\n"
    assert "Traceback" not in result.stderr + result.output
