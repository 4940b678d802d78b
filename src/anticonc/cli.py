"""Command-line front end.

Subcommands parse JSON instances, dispatch to the library and emit JSON (or
flattened CSV) reports. Exit codes: 0 on success or a passing scenario, 1
when an asserted inequality fails, 2 on malformed input or when a solver
stops at a resource cap.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import click

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


def _emit(data: dict, output: str) -> None:
    if output == "json":
        click.echo(json.dumps(data, sort_keys=True, indent=2, default=str))
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
    click.echo(buf.getvalue().rstrip("\n"))


def _load_json(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise DomainError(f"input must be a JSON object, not {type(data).__name__}")
    return data


def _parse_alphas(text: str) -> list[Fraction]:
    """Comma-separated rationals, each distinct string parsed once (in input
    order, so an error names the first bad one); the library checks the list."""
    strings = [s for s in map(str.strip, text.split(",")) if s]
    parsed = {s: as_fraction(s) for s in dict.fromkeys(strings)}
    return [parsed[s] for s in strings]


def _scenario_exit(result: scenarios.ScenarioResult, output: str) -> None:
    _emit(result.to_json(), output)
    sys.exit(0 if result.passed else 1)


class _Cli(click.Group):
    """Command group that maps every subcommand's expected failures to exit 2.

    Malformed input and a solver stopped by a resource cap both exit 2 with
    one line on stderr, never with a traceback; exit 1 stays reserved for a
    checked inequality that failed. An `InvariantViolation` (a structural
    check that failed) is a `ValueError` and also exits 2 as an input
    error: most of them fire on what the user supplied, such as a graph
    that is not perfect handed to the block decomposition.
    """

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ResourceCapExceeded as exc:
            click.echo(f"resource cap: {exc}", err=True)
        except KeyError as exc:
            click.echo(f"input error: missing field {exc}", err=True)
        except _INPUT_ERRORS as exc:
            click.echo(f"input error: {exc}", err=True)
        sys.exit(2)


@click.group(cls=_Cli)
def main() -> None:
    """Exact concentration toolkit."""


_output_option = click.option(
    "--output", type=click.Choice(["json", "csv"]), default="json", show_default=True
)


@main.command("nu-star")
@click.option("--alpha", required=True, help="rational in (0,1], e.g. 3/8")
@_output_option
def nu_star_cmd(alpha: str, output: str) -> None:
    """Extremal lattice measure with concentration exactly alpha."""
    measure = lat.extremal_measure(as_fraction(alpha))
    _emit(measure.to_json(), output)


@main.command("t-value")
@click.option("--alphas", required=True, help="comma-separated rationals")
@_output_option
def t_value_cmd(alphas: str, output: str) -> None:
    """Mass of the extremal sum on {0, 1/2}, exactly."""
    t = lat.t_value(_parse_alphas(alphas))
    _emit({"t": fraction_str(t), "float": float(t), "exact": True}, output)


@main.command("concentration")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@_output_option
def concentration_cmd(input_path: str, output: str) -> None:
    """Exact concentration of a lattice or vector measure (JSON file).

    A vector measure's `witness` indexes its merged atoms of positive weight
    in sorted order, not the input list; `witness_points` gives their points."""
    data = _load_json(input_path)
    if "weights" in data and "offset_index" in data:
        m = lat.LatticeMeasure.from_json(data)
        value = lat.concentration_1d(m)
        result = {"kind": "lattice", "value": fraction_str(value), "float": float(value)}
    elif "atoms" in data:
        vm = geom.VectorMeasure.from_json(data)
        res = geom.concentration_q(vm)
        result = {
            "kind": "vector",
            "value": fraction_str(res.value),
            "float": float(res.value),
            "witness": list(res.witness),
            "witness_points": [vector_str(p) for p in res.witness_points],
        }
    else:
        raise DomainError("input must contain 'weights'+'offset_index' or 'atoms'")
    _emit(result, output)


@main.command("berge-check")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--complement", is_flag=True, help="search the complement graph only")
@_output_option
def berge_cmd(input_path: str, complement: bool, output: str) -> None:
    """Odd-hole search on a point configuration or a raw graph."""
    data = _load_json(input_path)
    if "points" in data:
        g = geom.distance_graph(geom.PointConfig.from_json(data))
    else:
        g = pg.DistGraph.from_json(data)
    if complement:
        witness = pg.find_odd_hole(g, True)
        result = {
            "berge": None,
            "hole": None if witness is None else list(witness.cycle),
            "in_complement": True,
        }
    else:
        berge, witness = pg.is_berge(g)
        order = pg.cocomparability_order(g)
        result = {
            "berge": berge,
            "hole": None if witness is None else list(witness.cycle),
            "in_complement": None if witness is None else witness.in_complement,
            "decided_by": pg.berge_path(order),
            **({} if order is None else {"ordering": list(order)}),
        }
    _emit(result, output)


@main.command("decompose")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--alpha", default=None, help="optional concentration bound")
@_output_option
def decompose_cmd(input_path: str, alpha: str | None, output: str) -> None:
    """Block decomposition of a uniform near-line vector measure."""
    # a uniform measure clears to its own atoms, each once
    config = pg.to_uniform_multiset(geom.VectorMeasure.from_json(_load_json(input_path)))
    fit = geom.near_line_fit(config)
    blocks = pg.block_decomposition(
        config, fit.frame, None if alpha is None else as_fraction(alpha)
    )
    result = {
        "near_line_certified": fit.certified,
        "max_deviation": fit.max_deviation,
        "multiset_size": len(config),
        "num_blocks": len(blocks),
        "blocks": [b.to_json() for b in blocks],
    }
    _emit(result, output)


def _blocks_from_json(data: dict) -> list:
    norm = geom.NormSpec.from_json(data["norm"], data["dim"])
    frame = geom.supporting_functional(norm, data["direction"])
    return [
        chains_mod.Block.from_points([parse_vector(p) for p in blk], frame)
        for blk in data["blocks"]
    ]


@main.command("btk-chains")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@_output_option
def btk_cmd(input_path: str, output: str) -> None:
    """Chain decomposition of a product of blocks.

    Input: {"norm": ..., "dim": d, "direction": [...], "blocks": [[...]]}.
    """
    blocks = _blocks_from_json(_load_json(input_path))
    decomp = chains_mod.iterated_decompose(blocks)
    result = {
        "num_chains": len(decomp.chains),
        "sizes": sorted(decomp.sizes),
        "chains": decomp.to_json(),
    }
    _emit(result, output)


@main.command("jones-bound")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@_output_option
def jones_cmd(input_path: str, output: str) -> None:
    """Middle-layer bound for a product of blocks, with the exact check."""
    blocks = _blocks_from_json(_load_json(input_path))
    res = chains_mod.jones_bound(blocks)
    result = {
        "bound": fraction_str(res.bound),
        "t_exact": fraction_str(res.t_exact),
        "q_exact": None if res.q_exact is None else fraction_str(res.q_exact),
        "ok": res.ok,
    }
    _emit(result, output)
    sys.exit(0 if res.ok else 1)


@main.command("clt-window")
@click.option("--alphas", required=True, help="comma-separated rationals")
@click.option("--c", "c_param", default="1/4", show_default=True)
@click.option("--delta-prime", type=float, default=None, help="defaults to minimal feasible")
@_output_option
def clt_cmd(alphas: str, c_param: str, delta_prime: float | None, output: str) -> None:
    """Normal window for the t-value with exact condition checks."""
    fracs = _parse_alphas(alphas)
    if delta_prime is None:
        delta_prime = bounds_mod.minimal_delta_prime(fracs)
    report = bounds_mod.clt_window(fracs, as_fraction(c_param), delta_prime)
    _emit(report.to_json(), output)
    sys.exit(0 if report.extras.get("t_in_window", False) else 1)


@main.command("main-bound")
@click.option("--alphas", required=True, help="comma-separated rationals")
@click.option("--d", type=int, default=2, show_default=True)
@click.option("--big-c", type=float, required=True, help="norm-dependent constant C")
@click.option("--c", "c_param", default="1/4", show_default=True)
@click.option("--delta-prime", type=float, default=None)
@click.option("--gamma", type=float, default=None)
@_output_option
def main_bound_cmd(alphas, d, big_c, c_param, delta_prime, gamma, output) -> None:
    """Master bound evaluation; reports every side condition."""
    params = bounds_mod.make_main_bound_params(
        _parse_alphas(alphas), d, big_c, as_fraction(c_param), delta_prime, gamma
    )
    report = bounds_mod.main_bound(params)
    _emit(report.to_json(), output)
    sys.exit(0 if report.all_hold else 1)


@main.command("halasz")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--direction-samples", type=int, default=180, show_default=True)
@click.option("--center-samples", type=int, default=256, show_default=True)
@_output_option
def halasz_cmd(input_path, direction_samples, center_samples, output) -> None:
    """Direction/shift diagnostics for plane measures: {"measures": [...]}."""
    data = _load_json(input_path)
    measures = [geom.VectorMeasure.from_json(m) for m in data["measures"]]
    diag = geom.halasz_diagnostics(measures, direction_samples, center_samples)
    result = {
        "D": diag.D,
        "mu": diag.mu,
        "best_direction": list(diag.best_direction),
        "shifts": [list(s) for s in diag.shifts],
        "best_center": list(diag.best_center),
    }
    _emit(result, output)


@main.command("octagon")
@_output_option
def octagon_cmd(output: str) -> None:
    """Run the octagon counterexample scenario."""
    _scenario_exit(scenarios.run_octagon_scenario(), output)


@main.command("sharpness")
@click.option("--epsilon", default="1/1000", show_default=True)
@click.option("--strip-samples", type=int, default=0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_output_option
def sharpness_cmd(epsilon: str, strip_samples: int, seed: int, output: str) -> None:
    """Run the strip-threshold sharpness scenario."""
    result = scenarios.run_sharpness_scenario(
        as_fraction(epsilon), strip_samples=strip_samples, seed=seed
    )
    _scenario_exit(result, output)


@main.command("verify-theorem22")
@click.option("--input", "input_path", default=None, type=click.Path(exists=True))
@click.option("--count", type=int, default=None, help="override instance count")
@click.option("--seed", type=int, default=None, help="overrides the config seed")
@_output_option
def verify22_cmd(input_path, count, seed, output) -> None:
    """Randomized near-line verification of the sum/t-value inequality."""
    gen = _load_json(input_path) if input_path else {}
    if count is not None:
        gen["count"] = count
    result = scenarios.run_verify_theorem22(gen, seed=seed)
    _scenario_exit(result, output)


@main.command("empirical")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--n", type=int, required=True)
@click.option("--delta", default="1/100", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_output_option
def empirical_cmd(input_path, n, delta, seed, output) -> None:
    """Empirical measure of n draws from the dilated input measure."""
    vm = geom.VectorMeasure.from_json(_load_json(input_path))
    emp = geom.empirical_measure(vm, n, as_fraction(delta), seed)
    _emit(emp.to_json(), output)


if __name__ == "__main__":
    main()
