import json
import time
from fractions import Fraction as F

import pytest
from conftest import PENTAGON, CliRunner, caps_env

from anticonc.caps import Caps, ENV_VAR
from anticonc.chains import Block, iterated_decompose
from anticonc.cli import main
from anticonc.errors import ResourceCapExceeded
from anticonc import lattice
from anticonc.lattice import _centre_t_value, t_value
from anticonc.geometry import (
    PointConfig,
    VectorMeasure,
    concentration_q,
    l2,
    product_sum_measure,
    supporting_functional,
)
from anticonc.perfect_graphs import DistGraph, chromatic_number, max_clique, to_uniform_multiset


def test_defaults():
    caps = Caps()
    assert caps.clique == 500 and caps.odd_hole == 64


def test_env_override(monkeypatch):
    monkeypatch.setenv(ENV_VAR, json.dumps({"clique": 3, "odd_hole": 16}))
    caps = Caps.from_env()
    assert caps.clique == 3 and caps.odd_hole == 16 and caps.coloring == 200


def test_env_override_applies_to_solvers(monkeypatch):
    monkeypatch.setenv(ENV_VAR, json.dumps({"clique": 3}))
    g = DistGraph(5, frozenset())
    with pytest.raises(ResourceCapExceeded):
        max_clique(g)


def test_unknown_key_rejected(monkeypatch):
    monkeypatch.setenv(ENV_VAR, json.dumps({"cliques": 3}))
    with pytest.raises(ValueError):
        Caps.from_env()


@pytest.mark.parametrize("raw", ["{clique: 3}", "{", "[1, 2]", "7", '"clique"', "null"])
def test_malformed_env_names_variable(monkeypatch, raw):
    monkeypatch.setenv(ENV_VAR, raw)
    with pytest.raises(ValueError, match=ENV_VAR):
        Caps.from_env()


@pytest.mark.parametrize("value", [-5, -1, 2.7, 2.0, "x", "3", True, None, [3]])
def test_bad_cap_values_rejected(monkeypatch, value):
    monkeypatch.setenv(ENV_VAR, json.dumps({"clique": value}))
    with pytest.raises(ValueError, match=ENV_VAR):
        Caps.from_env()


@pytest.mark.parametrize("value", [0, 3, 5, 10, 16, 100, 10**6])
def test_integer_caps_accepted(monkeypatch, value):
    monkeypatch.setenv(ENV_VAR, json.dumps({"odd_hole": value, "replicas": value}))
    caps = Caps.from_env()
    assert caps.odd_hole == value and caps.replicas == value


def test_retired_exact_factors_cap_rejected(monkeypatch):
    # there is no factor cap: every t-value is computed exactly
    monkeypatch.setenv(ENV_VAR, json.dumps({"exact_factors": 64}))
    with pytest.raises(ValueError, match=ENV_VAR):
        Caps.from_env()


@pytest.mark.parametrize(
    "kwargs", [{"clique": -1}, {"coloring": True}, {"odd_hole": 2.0}, {"replicas": "3"}]
)
def test_bad_caps_in_code_rejected(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"cap '{name}' must be a nonnegative integer"):
        Caps(**kwargs)


def test_env_parsed_once_per_value(monkeypatch):
    # the parsed caps are kept per string, but every call reads the variable:
    # a change takes effect, a bad value raises each time, clearing restores
    # the defaults
    monkeypatch.setenv(ENV_VAR, json.dumps({"clique": 3}))
    first = Caps.from_env()
    assert first.clique == 3 and Caps.from_env() is first
    monkeypatch.setenv(ENV_VAR, json.dumps({"clique": 4}))
    assert Caps.from_env().clique == 4
    assert max_clique(DistGraph(4, frozenset()))[0] == 1
    with pytest.raises(ResourceCapExceeded):
        max_clique(DistGraph(5, frozenset()))
    monkeypatch.setenv(ENV_VAR, json.dumps({"clique": -1}))
    for _ in range(2):
        with pytest.raises(ValueError, match=ENV_VAR):
            Caps.from_env()
    monkeypatch.setenv(ENV_VAR, json.dumps({"clique": 3}))
    assert Caps.from_env() is first
    monkeypatch.delenv(ENV_VAR)
    assert Caps.from_env() == Caps() and max_clique(DistGraph(5, frozenset()))[0] == 1


def _line_measure(n):
    return VectorMeasure.uniform(l2(2), [(i, 0) for i in range(n)])


_X_FRAME = supporting_functional(l2(2), (F(1), F(0)))
_C5 = {"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}

# one case per cap check: the key, the amount asked for, and either a library
# call or CLI arguments with the JSON input they read
_CAP_CHECKS = [
    pytest.param("product_support", 64, ["octagon"], None, id="product_support"),
    pytest.param("clique", 7, lambda: concentration_q(_line_measure(7)), None, id="concentration_q"),
    pytest.param("clique", 6, lambda: max_clique(DistGraph(6, frozenset())), None, id="max_clique"),
    pytest.param("coloring", 5, lambda: chromatic_number(DistGraph.from_json(_C5)), None, id="coloring"),
    pytest.param("odd_hole", 5, ["berge-check"], _C5, id="odd_hole"),
    pytest.param("replicas", 8, lambda: to_uniform_multiset(
        VectorMeasure(PointConfig(l2(2), [(0, 0), (2, 0)]), [F(1, 8), F(7, 8)])), None, id="replicas"),
    pytest.param("tvalue_work", 7, ["t-value", "--alphas", "1/2,1/3,1/3"], None, id="tvalue_work"),
    pytest.param("chain_tuples", 12, lambda: iterated_decompose(
        [Block.from_points([(i, 0) for i in range(k)], _X_FRAME) for k in (3, 4)]), None, id="chain_tuples"),
]


@pytest.mark.parametrize("key, amount, call, data", _CAP_CHECKS)
def test_cap_check_boundary(tmp_path, key, amount, call, data):
    # an amount equal to its cap passes; one above raises, naming the key
    message = f"{key} needs {amount}, cap is {amount - 1}"
    if callable(call):
        with caps_env(**{key: amount}):
            call()
        with caps_env(**{key: amount - 1}), pytest.raises(ResourceCapExceeded, match=f"^{message}$"):
            call()
        return
    _centre_t_value.cache_clear()  # a memoised t-value is returned without a check
    args = call
    if data is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        args = [*call, "--input", str(path)]
    runner = CliRunner()
    ok = runner.invoke(main, args, env={ENV_VAR: json.dumps({key: amount})})
    assert ok.exit_code == 0, ok.output
    _centre_t_value.cache_clear()
    capped = runner.invoke(main, args, env={ENV_VAR: json.dumps({key: amount - 1})})
    assert capped.exit_code == 2 and capped.stderr == f"resource cap: {message}\n"


@pytest.mark.parametrize("caps, stderr", [
    ({"coloring": 4}, "resource cap: coloring needs 5, cap is 4\n"),
    ({"coloring": 5}, "input error: distance graph is not perfect here: chi=3, omega=2\n"),
    (None, "input error: distance graph is not perfect here: chi=3, omega=2\n"),
], ids=["capped", "at-cap", "default"])
def test_decompose_reaches_the_coloring_cap(tmp_path, caps, stderr):
    # the CLI path to the colouring backtrack: C5 needs it, and the cap refuses it
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(PENTAGON))
    env = {} if caps is None else {ENV_VAR: json.dumps(caps)}
    result = CliRunner().invoke(main, ["decompose", "--input", str(path)], env=env)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", stderr)


class TestTValueBudget:
    """``tvalue_work`` prices a t-value before any arithmetic: the last run's
    power plus the head path taken, the fold's seed power included."""

    @pytest.mark.parametrize("alphas, price", [
        ([F(1, 1000)] * 90, 44_911_044),
        ([F(1, 10000)] * 5, 249_955_002),
        ([F(1, 10000)] * 5 + [F(1, 2)], 249_955_003),  # a one-run head folds from its seed power
    ], ids=["1/1000x90", "1/10000x5", "seed-power"])
    def test_refused_before_the_work(self, alphas, price):
        _centre_t_value.cache_clear()
        start = time.perf_counter()
        with pytest.raises(ResourceCapExceeded, match=f"^tvalue_work needs {price}, cap is 10000000$"):
            t_value(alphas)
        assert time.perf_counter() - start < 0.1

    def test_cli_exits_2(self):
        _centre_t_value.cache_clear()
        start = time.perf_counter()
        result = CliRunner().invoke(main, ["t-value", "--alphas", ",".join(["1/10000"] * 5)])
        assert time.perf_counter() - start < 0.1
        assert result.exit_code == 2
        assert result.stderr == "resource cap: tvalue_work needs 249955002, cap is 10000000\n"

    def test_packed_path_is_checked_first(self, monkeypatch):
        # a list under the packed cutoff keeps its price: accepted at it,
        # refused one below with the same message before any product is built
        alphas, price = [F(2, 5)] * 6 + [F(1, 2)] * 3 + [F(1, 3)] * 2, 77
        packed, built = lattice._packed_centre, []
        monkeypatch.setattr(lattice, "_packed_centre", lambda *args: built.append(1) or packed(*args))
        _centre_t_value.cache_clear()
        with caps_env(tvalue_work=price):
            assert t_value(alphas) == F(64433, 375000)
        assert built == [1]
        _centre_t_value.cache_clear()
        with caps_env(tvalue_work=price - 1), pytest.raises(
                ResourceCapExceeded, match=f"^tvalue_work needs {price}, cap is {price - 1}$"):
            t_value(alphas)
        assert built == [1]

    def test_memoised_answer_skips_the_check(self):
        # the memo holds exact answers only, so one returned without a check
        # is the answer the capped run would refuse to compute
        _centre_t_value.cache_clear()
        want = t_value([F(1, 3)] * 4 + [F(1, 2)])
        with caps_env(tvalue_work=0):
            assert t_value([F(1, 2)] + [F(1, 3)] * 4) == want
            _centre_t_value.cache_clear()
            with pytest.raises(ResourceCapExceeded, match="^tvalue_work needs "):
                t_value([F(1, 3)] * 4 + [F(1, 2)])
