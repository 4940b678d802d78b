"""Command-line front end.

Each subcommand builds a report: it gets its parsed options, with ``--input``
already read into a JSON object, calls the library and returns
``(report, ok)``. ``_run`` alone reads ``--input``, prints the report as JSON
(or flattened CSV) and picks the exit code: 0 on success or a passing
scenario, 1 when an asserted inequality fails, 2 on malformed input or when
a solver stops at a resource cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import chains as chains_mod
from . import geometry as geom
from . import lattice as lat
from . import perfect_graphs as pg
from . import scenarios
from .errors import DomainError, ResourceCapExceeded
from .exact import as_fraction, fraction_str, parse_vector, vector_str

# every input error of the package (DomainError, DimensionMismatch,
# UnsupportedNorm, InvariantViolation, json.JSONDecodeError) is a ValueError;
# an OverflowError is a value too large for a float, such as a coordinate
# of 10^400 whose distance is reported as a float
_INPUT_ERRORS = (TypeError, ValueError, OverflowError)
_DEFAULT = "(default: %(default)s)"


def _emit(data: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(data, sort_keys=True, indent=2, default=str))
        return
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])

    def walk(prefix: str, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, (list, tuple)):
            writer.writerow([prefix, json.dumps(value, default=str)])
        else:
            writer.writerow([prefix, value])

    walk("", data)
    print(buf.getvalue().rstrip("\n"))


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:  # missing, a directory, unreadable
        raise DomainError(f"cannot read --input {path!r}: {exc.strerror}") from None
    data = json.loads(text)
    if not isinstance(data, dict):
        raise DomainError(f"input must be a JSON object, not {type(data).__name__}")
    return data


def _parse_alphas(text: str) -> list[Fraction]:
    """Comma-separated rationals, each distinct string parsed once (in input
    order, so an error names the first bad one); the library checks the list."""
    strings = [s for s in map(str.strip, text.split(",")) if s]
    parsed = {s: as_fraction(s) for s in dict.fromkeys(strings)}
    return [parsed[s] for s in strings]


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: one line on stderr and exit 2, with
    no usage block. Options are matched whole, never by prefix, and only
    ``--help`` asks for help."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message: str):
        raise DomainError(message)


_PARSER = _Parser(prog="anticonc", description="Exact concentration toolkit.")
_COMMANDS = _PARSER.add_subparsers(required=True, metavar="COMMAND")


def _command(name: str, *options: tuple[tuple, dict]):
    """Register the decorated function as subcommand ``name`` with ``options`` and
    ``--output``. It gets its options as keywords, ``--input`` already read into
    ``data``, and returns ``(report, ok)``; ``_run`` prints the report."""

    def register(func):
        sub = _COMMANDS.add_parser(name, help=func.__doc__.split("\n")[0], description=func.__doc__)
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
        sub.add_argument("--output", choices=("json", "csv"), default="json", help=_DEFAULT)
        sub.set_defaults(run=func)
        return func

    return register


def _opt(*flags: str, **kwargs) -> tuple[tuple, dict]:
    return flags, kwargs


_INPUT = _opt("--input", dest="data", metavar="PATH", required=True, help="JSON file")


def _run(args: list[str]) -> int:
    """Run one command line. Malformed input, a usage error and a resource cap
    exit 2 with one line on stderr, never a traceback; exit 1 is kept for a
    checked inequality that failed. An `InvariantViolation` is a `ValueError`:
    most fire on what the user supplied, such as a graph that is not perfect."""
    try:
        options = vars(_PARSER.parse_args(args))
        if [] in options.values():  # before Python 3.12, argparse reads "--opt=--" as no value
            raise DomainError("expected one argument, got '--'")
        command, output = options.pop("run"), options.pop("output")
        if options.get("data") is not None:
            options["data"] = _load_json(options["data"])
        report, ok = command(**options)
        _emit(report, output)
        return 0 if ok else 1
    except ResourceCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
    except KeyError as exc:
        print(f"input error: missing field {exc}", file=sys.stderr)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
    return 2


def main(args=None, prog_name: str = "anticonc", standalone_mode: bool = True) -> int:
    """``main()`` runs ``sys.argv`` and exits; ``main.main(args, standalone_mode=False)``
    returns the exit code instead. Usage lines name ``anticonc`` whatever ``prog_name``."""
    code = _run(sys.argv[1:] if args is None else list(args))
    if standalone_mode:
        sys.exit(code)
    return code


main.main = main


@_command("nu-star", _opt("--alpha", required=True, help="rational in (0,1], e.g. 3/8"))
def nu_star_cmd(alpha: str) -> tuple[dict, bool]:
    """Extremal lattice measure with concentration exactly alpha."""
    return lat.extremal_measure(as_fraction(alpha)).to_json(), True


@_command("t-value", _opt("--alphas", required=True, help="comma-separated rationals"))
def t_value_cmd(alphas: str) -> tuple[dict, bool]:
    """Mass of the extremal sum on {0, 1/2}, exactly."""
    t = lat.t_value(_parse_alphas(alphas))
    return {"t": fraction_str(t), "float": float(t), "exact": True}, True


@_command("concentration", _INPUT)
def concentration_cmd(data: dict) -> tuple[dict, bool]:
    """Exact concentration of a lattice or vector measure (JSON file).

    A vector measure's `witness` indexes its merged atoms of positive weight
    in sorted order, not the input list; `witness_points` gives their points."""
    if "weights" in data and "offset_index" in data:
        value = lat.concentration_1d(lat.LatticeMeasure.from_json(data))
        return {"kind": "lattice", "value": fraction_str(value), "float": float(value)}, True
    if "atoms" not in data:
        raise DomainError("input must contain 'weights'+'offset_index' or 'atoms'")
    res = geom.concentration_q(geom.VectorMeasure.from_json(data))
    return {
        "kind": "vector",
        "value": fraction_str(res.value),
        "float": float(res.value),
        "witness": list(res.witness),
        "witness_points": [vector_str(p) for p in res.witness_points],
    }, True


@_command("berge-check", _INPUT,
          _opt("--complement", action="store_true", help="search the complement graph only"))
def berge_cmd(data: dict, complement: bool) -> tuple[dict, bool]:
    """Odd-hole search on a point configuration or a raw graph."""
    if "points" in data:
        g = geom.distance_graph(geom.PointConfig.from_json(data))
    else:
        g = pg.DistGraph.from_json(data)
    if complement:
        witness = pg.find_odd_hole(g, True)
        hole = None if witness is None else list(witness.cycle)
        return {"berge": None, "hole": hole, "in_complement": True}, True
    berge, witness = pg.is_berge(g)
    order = pg.cocomparability_order(g)
    return {
        "berge": berge,
        "hole": None if witness is None else list(witness.cycle),
        "in_complement": None if witness is None else witness.in_complement,
        "decided_by": pg.berge_path(order),
        **({} if order is None else {"ordering": list(order)}),
    }, True


@_command("decompose", _INPUT, _opt("--alpha", help="optional concentration bound"))
def decompose_cmd(data: dict, alpha: str | None) -> tuple[dict, bool]:
    """Block decomposition of a uniform near-line vector measure."""
    # a uniform measure clears to its own atoms, each once
    config = pg.to_uniform_multiset(geom.VectorMeasure.from_json(data))
    fit = geom.near_line_fit(config)
    blocks = pg.block_decomposition(
        config, fit.frame, None if alpha is None else as_fraction(alpha)
    )
    return {
        "near_line_certified": fit.certified,
        "max_deviation": fit.max_deviation,
        "multiset_size": len(config),
        "num_blocks": len(blocks),
        "blocks": [b.to_json() for b in blocks],
    }, True


def _blocks_from_json(data: dict) -> list:
    norm = geom.NormSpec.from_json(data["norm"], data["dim"])
    frame = geom.supporting_functional(norm, data["direction"])
    return [
        chains_mod.Block.from_points([parse_vector(p) for p in blk], frame)
        for blk in data["blocks"]
    ]


@_command("btk-chains", _INPUT)
def btk_cmd(data: dict) -> tuple[dict, bool]:
    """Chain decomposition of a product of blocks.

    Input: {"norm": ..., "dim": d, "direction": [...], "blocks": [[...]]}.
    """
    decomp = chains_mod.iterated_decompose(_blocks_from_json(data))
    return {
        "num_chains": len(decomp.chains),
        "sizes": sorted(decomp.sizes),
        "chains": decomp.to_json(),
    }, True


@_command("jones-bound", _INPUT)
def jones_cmd(data: dict) -> tuple[dict, bool]:
    """Middle-layer bound for a product of blocks, with the exact check."""
    res = chains_mod.jones_bound(_blocks_from_json(data))
    return {
        "bound": fraction_str(res.bound),
        "t_exact": fraction_str(res.t_exact),
        "q_exact": None if res.q_exact is None else fraction_str(res.q_exact),
        "ok": res.ok,
    }, res.ok


@_command("clt-window", _opt("--alphas", required=True, help="comma-separated rationals"),
          _opt("--c", dest="c_param", metavar="C", default="1/4", help=_DEFAULT),
          _opt("--delta-prime", type=float, help="defaults to minimal feasible"))
def clt_cmd(alphas: str, c_param: str, delta_prime: float | None) -> tuple[dict, bool]:
    """Normal window for the t-value with exact condition checks."""
    fracs = _parse_alphas(alphas)
    if delta_prime is None:
        delta_prime = bounds_mod.minimal_delta_prime(fracs)
    report = bounds_mod.clt_window(fracs, as_fraction(c_param), delta_prime)
    return report.to_json(), report.extras.get("t_in_window", False)


@_command("main-bound", _opt("--alphas", required=True, help="comma-separated rationals"),
          _opt("--d", type=int, default=2, help=_DEFAULT),
          _opt("--big-c", type=float, required=True, help="norm-dependent constant C"),
          _opt("--c", dest="c_param", metavar="C", default="1/4", help=_DEFAULT),
          _opt("--delta-prime", type=float), _opt("--gamma", type=float))
def main_bound_cmd(alphas, d, big_c, c_param, delta_prime, gamma) -> tuple[dict, bool]:
    """Master bound evaluation; reports every side condition."""
    params = bounds_mod.make_main_bound_params(
        _parse_alphas(alphas), d, big_c, as_fraction(c_param), delta_prime, gamma
    )
    report = bounds_mod.main_bound(params)
    return report.to_json(), report.all_hold


@_command("halasz", _INPUT, _opt("--direction-samples", type=int, default=180, help=_DEFAULT),
          _opt("--center-samples", type=int, default=256, help=_DEFAULT))
def halasz_cmd(data, direction_samples, center_samples) -> tuple[dict, bool]:
    """Direction/shift diagnostics for plane measures: {"measures": [...]}."""
    measures = [geom.VectorMeasure.from_json(m) for m in data["measures"]]
    diag = geom.halasz_diagnostics(measures, direction_samples, center_samples)
    return {
        "D": diag.D,
        "mu": diag.mu,
        "best_direction": list(diag.best_direction),
        "shifts": [list(s) for s in diag.shifts],
        "best_center": list(diag.best_center),
    }, True


@_command("octagon")
def octagon_cmd() -> tuple[dict, bool]:
    """Run the octagon counterexample scenario."""
    result = scenarios.run_octagon_scenario()
    return result.to_json(), result.passed


@_command("sharpness", _opt("--epsilon", default="1/1000", help=_DEFAULT),
          _opt("--strip-samples", type=int, default=0, help=_DEFAULT),
          _opt("--seed", type=int, default=0, help=_DEFAULT))
def sharpness_cmd(epsilon: str, strip_samples: int, seed: int) -> tuple[dict, bool]:
    """Run the strip-threshold sharpness scenario."""
    result = scenarios.run_sharpness_scenario(
        as_fraction(epsilon), strip_samples=strip_samples, seed=seed
    )
    return result.to_json(), result.passed


@_command("verify-theorem22", _opt("--input", dest="data", metavar="PATH", help="JSON generator config"),
          _opt("--count", type=int, help="override instance count"),
          _opt("--seed", type=int, help="overrides the config seed"))
def verify22_cmd(data, count, seed) -> tuple[dict, bool]:
    """Randomized near-line verification of the sum/t-value inequality."""
    gen = data or {}
    if count is not None:
        gen["count"] = count
    result = scenarios.run_verify_theorem22(gen, seed=seed)
    return result.to_json(), result.passed


@_command("empirical", _INPUT, _opt("--n", type=int, required=True),
          _opt("--delta", default="1/100", help=_DEFAULT), _opt("--seed", type=int, default=0, help=_DEFAULT))
def empirical_cmd(data, n, delta, seed) -> tuple[dict, bool]:
    """Empirical measure of n draws from the dilated input measure."""
    vm = geom.VectorMeasure.from_json(data)
    return geom.empirical_measure(vm, n, as_fraction(delta), seed).to_json(), True


if __name__ == "__main__":
    main()
