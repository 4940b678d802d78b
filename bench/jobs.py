"""Build and run benchmark jobs through the public API of anticonc.

``build`` turns a raw job spec into library objects; it is the work the
set-up metric times. ``run`` executes one job with a tracer span around
every call into a layer and returns a ``Result``: the exact values hashed
into the output digest, and the outputs the oracles check.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from anticonc import lattice
from anticonc.bounds import clt_window, main_bound, make_main_bound_params, minimal_delta_prime
from anticonc.caps import Caps
from anticonc.chains import iterated_decompose, jones_bound, middle_layer_count
from anticonc.geometry import (
    NormSpec,
    PointConfig,
    VectorMeasure,
    concentration_q,
    distance_graph,
    near_line_fit,
    product_sum_measure,
)
from anticonc.lattice import ExtremalSpec
from anticonc.perfect_graphs import block_decomposition, chromatic_number, is_berge, max_clique
from anticonc.scenarios import run_octagon_scenario, run_sharpness_scenario

from mixes import CERTIFY_DEN, SUMS_DEN

WINDOW_C = Fraction(1, 4)
MAIN_BOUND_C = 0.01
SHARPNESS_EPSILON = Fraction(1, 1000)
SHARPNESS_STRIP_SAMPLES = 20


@dataclass
class Result:
    exact: tuple  # values that must never change; hashed into the digest
    data: dict  # outputs the oracles check


def load(workload: str) -> None:
    """Import what the workload's first job would otherwise import."""
    if workload == "tvalue":
        importlib.import_module("anticonc.cli")


def _config(norm: str, points, den: int) -> PointConfig:
    return PointConfig(
        NormSpec(norm, 2), tuple((Fraction(x, den), Fraction(y, den)) for x, y in points)
    )


def _alphas(pairs) -> list[Fraction]:
    alphas = [Fraction(n, d) for n, d in pairs]
    for a in alphas:
        ExtremalSpec.from_alpha(a)
    return alphas


def build(spec: tuple):
    kind = spec[0]
    if kind == "certify":
        return _config(spec[1], spec[2], CERTIFY_DEN)
    if kind == "vsum":
        return [
            VectorMeasure(
                _config(spec[1], points, SUMS_DEN),
                tuple(Fraction(w, sum(weights)) for w in weights),
            )
            for points, weights in spec[2]
        ]
    if kind == "window":
        return _alphas(spec[1])
    if kind == "tvalue":
        return _alphas(spec[2]), ",".join(f"{n}/{d}" for n, d in spec[2])
    if kind == "sharpness":
        return spec[1]
    return None


def _count_t_value(tr, alphas, t: Fraction) -> None:
    tr.add("lattice.t_value.factors", len(alphas))
    tr.peak("lattice.t_value.den_bits_max", t.denominator.bit_length())


def _certify(spec, cfg, tr, caps: Caps) -> Result:
    n = len(cfg)
    fit = tr.call("geometry.near_line_fit", near_line_fit, cfg)
    graph = tr.call("geometry.distance_graph", distance_graph, cfg)
    berge, hole = tr.call("perfect_graphs.is_berge", is_berge, graph)
    omega = int(tr.call("perfect_graphs.max_clique", max_clique, graph)[0])
    chi = tr.call("perfect_graphs.chromatic_number", chromatic_number, graph).num_colors
    blocks = tr.call(
        "perfect_graphs.block_decomposition", block_decomposition, cfg, fit.frame
    )
    head = blocks[:3]
    head_sizes = [len(b) for b in head]
    chains = tr.call("chains.iterated_decompose", iterated_decompose, head)
    layer = tr.call("chains.middle_layer_count", middle_layer_count, head_sizes)
    jones = tr.call("chains.jones_bound", jones_bound, head)

    tuples = math.prod(head_sizes)
    tr.add("geometry.near_line_fit.points", n)
    tr.add("geometry.near_line_fit.certified", int(fit.certified))
    tr.add("geometry.distance_graph.pairs", n * (n - 1) // 2)
    tr.add("geometry.distance_graph.edges", len(graph.edges))
    tr.peak("perfect_graphs.is_berge.vertices_max", n)
    tr.add("perfect_graphs.is_berge.berge", int(berge))
    tr.peak("perfect_graphs.is_berge.cap_use_max", n / caps.odd_hole)
    tr.add("perfect_graphs.block_decomposition.blocks", len(blocks))
    tr.add("chains.iterated_decompose.tuples", tuples)
    tr.add("chains.iterated_decompose.chains", len(chains.chains))
    tr.peak("chains.iterated_decompose.cap_use_max", tuples / caps.chain_tuples)

    block_sizes = tuple(len(b) for b in blocks)
    chain_sizes = tuple(sorted(chains.sizes))
    deviation = fit.exact_sq if fit.exact_sq is not None else fit.exact
    hole_len = len(hole.cycle) if hole is not None else 0
    return Result(
        exact=(fit.certified, deviation, berge, hole_len, omega, chi, block_sizes,
               chain_sizes, layer, jones.bound, jones.q_exact),
        data={"certified": fit.certified, "berge": berge, "omega": omega, "chi": chi,
              "block_sizes": block_sizes, "head_sizes": head_sizes,
              "chains": len(chains.chains), "layer": layer, "jones": jones},
    )


def _sharpness(spec, seed, tr, caps: Caps) -> Result:
    res = tr.call(
        "scenarios.run_sharpness_scenario", run_sharpness_scenario, SHARPNESS_EPSILON,
        strip_samples=SHARPNESS_STRIP_SAMPLES, seed=seed,
    )
    d = res.details
    return Result(
        exact=(res.passed, d["edge_count"], len(d.get("hole", ())),
               d.get("below_threshold_berge"), d.get("strip_all_berge")),
        data={"passed": res.passed},
    )


def _vsum(spec, measures, tr, caps: Caps) -> Result:
    alphas = [tr.call("geometry.concentration_q", concentration_q, m).value for m in measures]
    total = tr.call("geometry.product_sum_measure", product_sum_measure, measures)
    q_sum = tr.call("geometry.concentration_q", concentration_q, total).value
    t = tr.call("lattice.t_value", lattice.t_value, alphas)

    sizes = [len(m.points) for m in measures] + [len(total.points)]
    tr.add("geometry.concentration_q.atoms", sum(sizes))
    tr.peak("geometry.concentration_q.atoms_max", max(sizes))
    tr.peak("geometry.concentration_q.cap_use_max", max(sizes) / caps.clique)
    tr.add("geometry.product_sum_measure.atoms_out", len(total.points))
    _count_t_value(tr, alphas, t)
    return Result(
        exact=(tuple(alphas), len(total.points), q_sum, t),
        data={"alphas": alphas, "total": total, "q_sum": q_sum, "t": t},
    )


def _window(spec, alphas, tr, caps: Caps) -> Result:
    delta = tr.call("bounds.minimal_delta_prime", minimal_delta_prime, alphas)
    window = tr.call("bounds.clt_window", clt_window, alphas, WINDOW_C, delta)
    params = tr.call(
        "bounds.make_main_bound_params", make_main_bound_params, alphas, 2, MAIN_BOUND_C,
        WINDOW_C,
    )
    report = tr.call("bounds.main_bound", main_bound, params)

    tr.add("bounds.clt_window.factors", len(alphas))
    tr.add("bounds.t_computations", 2)
    tr.add("bounds.exact_path", int(window.extras["t_exact_path"]) + int(params.t.exact))
    return Result(
        exact=(tuple(c.holds for c in window.conditions), window.extras["t_in_window"],
               window.extras["v_star"], tuple(c.holds for c in report.conditions)),
        data={"window": window, "params": params},
    )


def _octagon(spec, _, tr, caps: Caps) -> Result:
    res = tr.call("scenarios.run_octagon_scenario", run_octagon_scenario)
    d = res.details
    return Result(
        exact=(res.passed, d["q_single"], d["q_sum"], d["t_value"], d["center_weight"],
               d["contrast_radius_half_q"], d["sum_support_size"]),
        data={"passed": res.passed},
    )


def _cli_t_value(text: str, tr) -> tuple[Fraction, int]:
    """The ``anticonc t-value`` subcommand, in process; the library's own
    t-value call inside it gets a span of its own."""
    from anticonc import cli

    out = io.StringIO()
    with tr.patched(lattice, "t_value", "lattice.t_value"), contextlib.redirect_stdout(out):
        tr.call("cli.t_value", cli.main.main, ["t-value", "--alphas", text],
                prog_name="anticonc", standalone_mode=False)
    payload = out.getvalue()
    return Fraction(json.loads(payload)["t"]), len(payload.encode())


def _tvalue(spec, inp, tr, caps: Caps) -> Result:
    variant, via_cli = spec[1], spec[3]
    alphas, text = inp
    if via_cli:
        t, nbytes = _cli_t_value(text, tr)
        tr.add("cli.t_value.bytes_out", nbytes)
    else:
        t = tr.call("lattice.t_value", lattice.t_value, alphas)
    _count_t_value(tr, alphas, t)
    layer = None
    if variant == "uniform":
        ks = [a.denominator for a in alphas]
        layer = tr.call("chains.middle_layer_count", middle_layer_count, ks)
    return Result(exact=(t, layer), data={"t": t, "layer": layer})


_RUNNERS = {
    "certify": _certify,
    "sharpness": _sharpness,
    "vsum": _vsum,
    "window": _window,
    "octagon": _octagon,
    "tvalue": _tvalue,
}


def run(spec: tuple, inp, tr, caps: Caps) -> Result:
    return _RUNNERS[spec[0]](spec, inp, tr, caps)
