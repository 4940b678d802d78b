"""Fuzz every ``anticonc`` subcommand in process.

Each example is one command line: a subcommand with its options in random
order, some dropped, some malformed (values that start with ``-``, unknown
or prefixed flags, junk rationals, norms, dimensions, weights, graphs, block
lists and generator fields), an ``--input`` file drawn from the schema the
subcommand reads (README, "Input schemas"), and a random ``ANTICONC_CAPS``.
``decompose`` also reads a fixed pentagon whose distance graph is C5, in half
its runs under a ``coloring`` cap near the 5 vertices its colouring
backtrack asks for, so that cap is reached from the command line.
Whatever the input, a run exits 0, 1 or 2 without a traceback, and exits 1
only from a subcommand that checks an inequality. Numbers and sizes stay
small, and caps never exceed their defaults, so the fixed example budget
adds seconds to the suite.
"""

import json
import sys
from dataclasses import fields
from unittest import mock

import pytest
from conftest import PENTAGON, CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from anticonc.caps import ENV_VAR, Caps
from anticonc.cli import main

CHECKING = {"jones-bound", "clt-window", "main-bound", "octagon", "sharpness", "verify-theorem22"}

JUNK = st.sampled_from([None, True, False, -1, 0, 2.5, "x", "", [], {}, "1/0", "-1/2", [[]]])
JUNK_ARGS = st.sampled_from(["--bogus", "--alph", "--inp", "--out", "-h", "--", "-x", "--c=1/4", "extra"])
ARG_JUNK = st.sampled_from(["-1", "-1/2", "-x", "--", "-", "", "x", "1e3", "0x10", " 3", "nan", "inf",
                            "-inf", "1/0", "1.5", "--output", "2/1", "0"])


def mostly(good, bad):
    """``good`` in about nine draws of ten, else ``bad``, so most runs get
    past the parser and the schema checks into the library."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 9 else good)


def junky(strategy):
    return mostly(strategy, JUNK)


# rationals, as JSON values and as command-line text
SMALL_FRACTION = st.builds(lambda a, b: f"{a}/{b}", st.integers(0, 12), st.integers(1, 12))
RATIONAL = junky(st.one_of(SMALL_FRACTION, st.integers(-3, 6)))
RATIONAL_ARG = mostly(st.one_of(SMALL_FRACTION, st.integers(-2, 3).map(str)),
                      st.one_of(ARG_JUNK, st.text("0123456789/.-e ", max_size=5)))
ALPHA_ARG = mostly(st.integers(1, 12).flatmap(lambda b: st.integers(1, b).map(lambda a: f"{a}/{b}")),
                   RATIONAL_ARG)
ALPHAS_ARG = mostly(st.lists(ALPHA_ARG, min_size=1, max_size=10).map(",".join), ARG_JUNK)


def int_arg(lo, hi):
    return mostly(st.integers(lo, hi).map(str), ARG_JUNK)


FLOAT_ARG = mostly(st.floats(-3, 1e3, allow_nan=False).map(repr),
                   st.one_of(ARG_JUNK, st.sampled_from(["1e-300", "1e308"])))


def schema(**fields):
    """A JSON object with ``fields``, in about one draw of ten with some left out."""
    return mostly(st.fixed_dictionaries(fields), st.fixed_dictionaries({}, optional=fields))


# the input schemas
NORM = junky(st.sampled_from(["l1", "l2", "linf", {"lp": "3"}, {"lp": "1"}, {"lp": "2/1"}]))
BAD_NORM = st.sampled_from(["lp", "l3", {"lp": True}, {"lp": "1/2"}, {"lp": "0"}, {"lp": "3", "p": "3"}])
DIM = mostly(st.integers(1, 3), st.sampled_from([0, -1, 2.7, True, "2", None]))


def vectors(dim, **kwargs):
    """Lists of points with ``dim`` coordinates (2 if ``dim`` is no int), some malformed."""
    size = dim if type(dim) is int and dim > 0 else 2
    point = mostly(st.lists(SMALL_FRACTION, min_size=size, max_size=size),
                   st.one_of(JUNK, st.lists(RATIONAL, max_size=3), st.sampled_from(["12", "0"])))
    return st.lists(point, **kwargs)


@st.composite
def vector_measures(draw, key="atoms"):
    """A vector measure (``key`` "atoms") or point configuration ("points")."""
    dim = draw(DIM)
    points = draw(vectors(dim, min_size=1, max_size=6))
    if key == "atoms":
        ws = draw(st.lists(st.integers(1, 4), min_size=len(points), max_size=len(points)))
        points = [{"point": p, "weight": draw(junky(st.just(f"{w}/{sum(ws)}")))} for p, w in zip(points, ws)]
    return draw(schema(norm=mostly(NORM, BAD_NORM), dim=st.just(dim), **{key: junky(st.just(points))}))


@st.composite
def lattice_measures(draw):
    ws = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    weights = [draw(junky(st.just(f"{w}/{max(sum(ws), 1)}"))) for w in ws]
    return draw(schema(offset_index=junky(st.integers(-4, 4)), weights=junky(st.just(weights))))


@st.composite
def block_lists(draw):
    dim = draw(DIM)
    blocks = draw(st.lists(vectors(dim, min_size=1, max_size=3), min_size=1, max_size=3))
    direction = draw(vectors(dim, min_size=1, max_size=1))[0]
    return draw(schema(norm=mostly(NORM, BAD_NORM), dim=st.just(dim), direction=st.just(direction),
                       blocks=junky(st.just(blocks))))


VERTEX = junky(st.integers(0, 6))
GRAPH = schema(n=mostly(st.integers(0, 7), st.sampled_from([10 ** 9, -3, 2.7, True])),
               edges=junky(st.lists(mostly(st.lists(VERTEX, min_size=2, max_size=2),
                                           st.lists(VERTEX, max_size=3)), max_size=12)))
HALASZ = mostly(schema(measures=junky(st.lists(vector_measures(), min_size=1, max_size=3))),
                st.lists(vector_measures(), max_size=1))
SMALL_INT = junky(st.integers(-1, 4))
GENERATOR = st.fixed_dictionaries({}, optional={
    "count": SMALL_INT, "max_summands": SMALL_INT, "max_atoms": SMALL_INT, "x_span": SMALL_INT,
    "denominator": junky(st.integers(1, 16)), "extremal_cases": SMALL_INT, "seed": SMALL_INT,
    "norms": junky(st.lists(mostly(st.sampled_from(["l2", "l1", "linf"]), JUNK), min_size=1, max_size=3)),
    "strip_scale": junky(st.sampled_from(["9/10", "1/2", "1", "0/1", 5])), "bogus": st.just(1)})

INPUT = "--input"
REQUIRED = {"--alpha", "--alphas", "--big-c", "--n", INPUT}
COMMANDS = {
    "nu-star": [("--alpha", ALPHA_ARG)],
    "t-value": [("--alphas", ALPHAS_ARG)],
    "concentration": [(INPUT, st.one_of(vector_measures(), lattice_measures()))],
    "berge-check": [(INPUT, st.one_of(vector_measures("points"), GRAPH)), ("--complement", None)],
    "decompose": [(INPUT, st.one_of(vector_measures(), st.just(PENTAGON))), ("--alpha", ALPHA_ARG)],
    "btk-chains": [(INPUT, block_lists())],
    "jones-bound": [(INPUT, block_lists())],
    "clt-window": [("--alphas", ALPHAS_ARG), ("--c", RATIONAL_ARG), ("--delta-prime", FLOAT_ARG)],
    "main-bound": [("--alphas", ALPHAS_ARG), ("--d", int_arg(0, 4)), ("--big-c", FLOAT_ARG),
                   ("--c", RATIONAL_ARG), ("--delta-prime", FLOAT_ARG), ("--gamma", FLOAT_ARG)],
    "halasz": [(INPUT, HALASZ), ("--direction-samples", int_arg(-1, 12)),
               ("--center-samples", int_arg(-1, 12))],
    "octagon": [],
    "sharpness": [("--epsilon", RATIONAL_ARG), ("--strip-samples", int_arg(-1, 6)), ("--seed", int_arg(-3, 3))],
    "verify-theorem22": [(INPUT, GENERATOR), ("--count", int_arg(-2, 4)), ("--seed", int_arg(-3, 3))],
    "empirical": [(INPUT, vector_measures()), ("--n", int_arg(-2, 12)), ("--delta", RATIONAL_ARG),
                  ("--seed", int_arg(-3, 3))],
}
for options in COMMANDS.values():
    options.append(("--output", mostly(st.sampled_from(["json", "csv"]), st.sampled_from(["xml", "-x", "--"]))))

CAP_VALUE = st.one_of(st.integers(-1, 3), st.sampled_from([True, 1.5, "5", None]))
CAPS = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from([f.name for f in fields(Caps)] + ["bogus"]),
                    st.one_of(CAP_VALUE, st.integers(0, 10 ** 7)), max_size=3),
    st.sampled_from(["{", "[]", "1", ""]),
)


def _cap_env(caps):
    """A caps setting as the environment value, each cap no higher than its default."""
    if caps is None or isinstance(caps, str):
        return caps
    defaults = Caps()
    return json.dumps({k: min(v, getattr(defaults, k)) if type(v) is int and k != "bogus" else v
                       for k, v in caps.items()})


@st.composite
def command_lines(draw):
    """(argv, JSON for the --input file or None, ANTICONC_CAPS value or None)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv, data = [command], None
    for flag, values in draw(st.permutations(COMMANDS[command])):
        # a required option is mostly given, so most runs reach the library
        if draw(st.integers(0, 9)) >= (9 if flag in REQUIRED else 5):
            continue
        if values is None:
            argv.append(flag)
        elif flag == INPUT:
            data = draw(values)
            argv += [flag, draw(mostly(st.just("INPUT"), st.sampled_from(["DIRECTORY", "MISSING"])))]
        else:
            value = draw(values)
            argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    if draw(st.integers(0, 9)) == 9:
        argv.insert(draw(st.integers(1, len(argv))), draw(JUNK_ARGS))
    if data is PENTAGON and draw(st.booleans()):  # caps 3-6 straddle the 5 its colouring backtrack asks for
        return argv, data, _cap_env({"coloring": draw(st.integers(3, 6))})
    return argv, data, _cap_env(draw(CAPS))


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=command_lines())
def test_every_command_exits_0_1_or_2(tmp_path_factory, case):
    argv, data, caps = case
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz-input.json"
    path.write_text(json.dumps(data))
    paths = {"INPUT": str(path), "DIRECTORY": str(base), "MISSING": str(base / "missing.json")}
    argv = [paths.get(a, a) for a in argv]
    env = {} if caps is None else {ENV_VAR: caps}
    result = CliRunner().invoke(main, argv, env=env)
    assert result.exception is None or isinstance(result.exception, SystemExit), (argv, data, caps)
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 2:
        assert result.stdout == "" and result.stderr.count("\n") == 1
        assert result.stderr.startswith(("input error: ", "resource cap: "))
    else:
        assert result.stderr == "" and result.stdout.endswith("\n")
    if result.exit_code == 1:
        assert argv[0] in CHECKING


def test_console_script_reads_sys_argv(capsys):
    # the console script and ``python -m anticonc.cli`` call ``main()``
    with mock.patch.object(sys, "argv", ["anticonc", "t-value", "--alphas", "1/2,1/2"]), \
            pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 0
    assert json.loads(capsys.readouterr().out) == {"t": "1/2", "float": 0.5, "exact": True}


def test_in_process_entry_returns_the_exit_code(capsys):
    # the benchmark's call: no SystemExit on success, output on sys.stdout
    assert main.main(["t-value", "--alphas", "1/2"], prog_name="anticonc", standalone_mode=False) == 0
    assert json.loads(capsys.readouterr().out)["t"] == "1/2"
    assert main.main(["t-value", "--alphas", "zebra"], standalone_mode=False) == 2
    assert main.main(["main-bound", "--alphas", "1/2", "--big-c", "1"], standalone_mode=False) == 1
