import json

import pytest

from anticonc.caps import Caps, ENV_VAR
from anticonc.errors import ResourceCapExceeded
from anticonc.perfect_graphs import DistGraph, max_clique


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
    from anticonc.caps import resolve

    monkeypatch.setenv(ENV_VAR, json.dumps({"clique": 3}))
    first = resolve(None)
    assert first.clique == 3 and resolve(None) is first
    monkeypatch.setenv(ENV_VAR, json.dumps({"clique": 4}))
    assert resolve(None).clique == 4
    assert max_clique(DistGraph(4, frozenset()))[0] == 1
    with pytest.raises(ResourceCapExceeded):
        max_clique(DistGraph(5, frozenset()))
    monkeypatch.setenv(ENV_VAR, json.dumps({"clique": -1}))
    for _ in range(2):
        with pytest.raises(ValueError, match=ENV_VAR):
            resolve(None)
    monkeypatch.setenv(ENV_VAR, json.dumps({"clique": 3}))
    assert resolve(None) is first
    monkeypatch.delenv(ENV_VAR)
    assert resolve(None) == Caps() and max_clique(DistGraph(5, frozenset()))[0] == 1
