"""Run one workload of the anticonc benchmark and print its metrics.

    python3 bench/run.py --workload certify --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --self-check

One client runs the workload's seeded job list in a closed loop, one job at
a time with no think time, in this process. Every job is checked by the
oracles of ``oracles.py``. Job times are normalised to nominal machine speed
(see ``timing.py``). The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the job list runs once untraced and once with a span around every call
into a layer, and the metrics are the per-layer ones. The line before the
result is a run record of diagnostics; spans go to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.

The exit code is 0 after a run, 1 when the self-check fails and 2 when the
benchmark refuses to run: with ``ANTICONC_CAPS`` set, because caps change
the work measured, or without the package sources under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import mixes
import timing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = json.loads((BENCH / "expected.json").read_text())
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 60

# Spans the benchmark opens, with the work counts each one carries.
LAYER_SPANS = {
    "lattice.t_value": ("factors", "den_bits_max"),
    "bounds.minimal_delta_prime": (),
    "bounds.clt_window": ("factors",),
    "bounds.make_main_bound_params": (),
    "bounds.main_bound": (),
    "geometry.near_line_fit": ("points", "certified_share"),
    "geometry.distance_graph": ("pairs", "edges"),
    "geometry.concentration_q": ("atoms", "atoms_max", "cap_use_max"),
    "geometry.product_sum_measure": ("atoms_out",),
    "perfect_graphs.is_berge": ("vertices_max", "berge_share", "cap_use_max"),
    "perfect_graphs.max_clique": (),
    "perfect_graphs.chromatic_number": (),
    "perfect_graphs.block_decomposition": ("blocks",),
    "chains.iterated_decompose": ("tuples", "chains", "cap_use_max"),
    "chains.jones_bound": (),
    "chains.middle_layer_count": (),
    "scenarios.run_sharpness_scenario": (),
    "scenarios.run_octagon_scenario": (),
    "cli.t_value": ("bytes_out",),
}
_UNITS = {"busy_s": ("s", "lower"), "den_bits_max": ("bits", "lower"),
          "bytes_out": ("bytes", "lower"), "cap_use_max": ("ratio", "lower")}


def layer_metric_specs() -> list[dict]:
    """Name, unit and direction of every per-layer metric."""
    specs = []
    for span, extras in LAYER_SPANS.items():
        for suffix in ("busy_s", "calls", "failed", *extras):
            if suffix.endswith("_share"):
                unit, better = "ratio", "higher"
            else:
                unit, better = _UNITS.get(suffix, ("count", "lower"))
            specs.append({"name": f"{span}.{suffix}", "unit": unit, "better": better})
        if span == "bounds.clt_window":
            specs.append({"name": "bounds.exact_path_share", "unit": "ratio", "better": "higher"})
    return specs


def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


@dataclass
class Pass:
    """Timings and outcomes of one closed-loop pass over the job list."""

    walls: list[float]
    latencies: list[float]  # normalised seconds per job
    refs: list[float]
    scales: dict[int, float]
    failures: list[tuple[int, str]]
    exact: list

    @property
    def verified(self) -> int:
        return len(self.latencies) - len(self.failures)

    def jobs_per_s(self) -> float:
        return self.verified / sum(self.latencies)


def run_pass(specs, inputs, tracer, caps) -> Pass:
    import jobs
    import oracles

    walls, refs, failures, exact = [], [], [], []
    timing.reference_kernel()  # warm the kernel's code paths
    for i, (spec, inp) in enumerate(zip(specs, inputs)):
        tracer.job = i
        before = timing.reference_kernel()
        start = time.perf_counter()
        try:
            result, error = jobs.run(spec, inp, tracer, caps), None
        except Exception:  # a job that raises is a failed job, not a crash
            result, error = None, traceback.format_exc(limit=-2)
        walls.append(time.perf_counter() - start)
        refs.append((before, timing.reference_kernel()))
        if error is None:
            error = oracles.check(spec, result)
        if error is not None:
            failures.append((i, f"{spec[0]}: {error}"))
        exact.append(None if result is None else result.exact)
    scales = timing.job_scales(EXPECTED["ref_nominal_s"], refs)
    return Pass(walls, [w * c for w, c in zip(walls, scales)], [t for pair in refs for t in pair],
                dict(enumerate(scales)), failures, exact)


def _setup_probe(args) -> dict:
    """Set-up of one workload in this fresh process: import the library,
    then build and validate every job input with its constructors."""
    specs = mixes.generate(args.workload, args.seed, mixes.job_count(args.workload, args.seconds))
    timing.reference_kernel()
    before = timing.reference_kernel()
    start = time.perf_counter()
    import jobs

    jobs.load(args.workload)
    for spec in specs:
        jobs.build(spec)
    wall = time.perf_counter() - start
    after = timing.reference_kernel()
    return {"wall": wall, "before": before, "after": after}


def _measure_setup(args) -> list[dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S, check=True)
        probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return probes


def _layer_metrics(tracer, scales) -> dict[str, float]:
    times = tracer.layer_times(scales)
    empty = {"busy_s": 0.0, "calls": 0, "failed": 0}
    values: dict[str, float] = {}
    for span, extras in LAYER_SPANS.items():
        row = times.get(span, empty)
        for key in ("busy_s", "calls", "failed"):
            values[f"{span}.{key}"] = row[key]
        for extra in extras:
            name = f"{span}.{extra}"
            if extra.endswith("_share"):
                hits = tracer.totals[name.removesuffix("_share")]
                values[name] = hits / row["calls"] if row["calls"] else 0.0
            elif extra.endswith("_max"):
                values[name] = tracer.peaks[name]
            else:
                values[name] = tracer.totals[name]
    attempts = tracer.totals["bounds.t_computations"]
    values["bounds.exact_path_share"] = tracer.totals["bounds.exact_path"] / attempts if attempts else 0.0
    return values


def _busy_shares(tracer, scales) -> dict[str, float]:
    """Share of each span in the total self time of all spans."""
    times = tracer.layer_times(scales)
    total = sum(row["self_s"] for row in times.values())
    return {name: row["self_s"] / total for name, row in sorted(times.items())} if total else {}


def _write_spans(tracer, workload: str, seed: int) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as f:
        for idx, s in enumerate(tracer.spans):
            f.write(json.dumps({"id": idx, "job": s.job, "name": s.name, "parent": s.parent,
                                "start": s.start, "end": s.end, "failed": s.failed}) + "\n")
    return path


def run_workload(args) -> tuple[dict, dict]:
    n_jobs = mixes.job_count(args.workload, args.seconds)
    specs = mixes.generate(args.workload, args.seed, n_jobs)
    import jobs  # writes the bytecode cache before the set-up probes read it
    from anticonc.caps import Caps

    probes = [] if args.trace else _measure_setup(args)
    jobs.load(args.workload)
    inputs = [jobs.build(spec) for spec in specs]
    caps = Caps.from_env()

    plain = run_pass(specs, inputs, timing.Tracer(False), caps)
    passes = [plain]
    if args.trace:
        traced_tracer = timing.Tracer(True)
        passes.append(run_pass(specs, inputs, traced_tracer, caps))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    input_digest = mixes.digest(specs)
    output_digest = mixes.digest(plain.exact)
    want = EXPECTED["digests"].get(args.workload, {})
    checked = want.get("seed") == args.seed and want.get("jobs") == n_jobs
    digest_ok = not checked or (want["inputs"], want["outputs"]) == (input_digest, output_digest)
    digest_ok = digest_ok and all(mixes.digest(p.exact) == output_digest for p in passes)
    failed_jobs = sorted({i for p in passes for i, _ in p.failures})
    refs = plain.refs
    q1, q2, q3 = timing.quartiles(refs)
    tail_ms, tail_pct = timing.tail(plain.latencies)
    record = {
        **_machine(),
        "workload": args.workload, "seed": args.seed, "jobs": n_jobs,
        "input_digest": input_digest, "output_digest": output_digest,
        "digest_checked": checked, "digest_ok": digest_ok,
        "ref_ms": {"q1": q1 * 1e3, "median": q2 * 1e3, "q3": q3 * 1e3,
                   "nominal": EXPECTED["ref_nominal_s"] * 1e3},
        "raw_jobs_per_s": plain.verified / sum(plain.walls),
        "raw_job_s_total": sum(plain.walls),
        "norm_job_s_total": sum(plain.latencies),
        "setup_raw_s": [p["wall"] for p in probes],
        "job_tail_percentile": tail_pct,
        "failed_fraction": len(failed_jobs) / n_jobs,
        "failures": [msg for p in passes for _, msg in p.failures][:5],
    }
    if args.trace:
        traced = passes[1]
        record["trace_overhead"] = plain.jobs_per_s() / traced.jobs_per_s() if traced.verified else None
        record["busy_shares"] = _busy_shares(traced_tracer, traced.scales)
        record["spans_file"] = str(_write_spans(traced_tracer, args.workload, args.seed).relative_to(ROOT))
        values = _layer_metrics(traced_tracer, traced.scales)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in layer_metric_specs()}
    else:
        setup = [p["wall"] * EXPECTED["ref_nominal_s"] / ((p["before"] + p["after"]) / 2)
                 for p in probes]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "jobs_per_s": {"value": plain.jobs_per_s(), "unit": "jobs/s"},
            "job_p50_ms": {"value": statistics.median(plain.latencies) * 1e3, "unit": "ms"},
            "job_tail_ms": {"value": tail_ms * 1e3, "unit": "ms"},
            "verified_fraction": {"value": plain.verified / n_jobs, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    result = {"correct": not failed_jobs and digest_ok, "attempted": n_jobs,
              "failed": len(failed_jobs), "metrics": metrics}
    return record, result


def self_check() -> int:
    """Generator determinism, a smoke run of every job kind, and agreement
    of the per-layer metric list with BENCHMARK.json."""
    import jobs
    import oracles
    from anticonc.caps import Caps

    problems = []
    # Other processes, with other string hashing, must generate the same jobs.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import mixes; "
             "print(' '.join(mixes.digest(mixes.generate(w, 1, 40)) for w in mixes.WORKLOADS))")
    elsewhere = [
        subprocess.run([sys.executable, "-c", probe, str(BENCH)], capture_output=True, text=True,
                       check=True, timeout=CHILD_TIMEOUT_S,
                       env={**os.environ, "PYTHONHASHSEED": hash_seed}).stdout.split()
        for hash_seed in ("1", "2")
    ]
    for k, w in enumerate(mixes.WORKLOADS):
        first, other = (mixes.digest(mixes.generate(w, s, 40)) for s in (1, 2))
        if any(digests[k] != first for digests in elsewhere):
            problems.append(f"{w}: one seed generated two different job lists")
        if first == other:
            problems.append(f"{w}: seeds 1 and 2 generated the same job list")

    smoke: dict[tuple, tuple] = {}
    for w in mixes.WORKLOADS:
        jobs.load(w)
        for spec in mixes.generate(w, 0, 40):
            key = (spec[0], spec[1], spec[3]) if spec[0] == "tvalue" else (spec[0],)
            smoke.setdefault(key, spec)
    tracer = timing.Tracer(True)
    for key, spec in sorted(smoke.items()):
        start = time.perf_counter()
        error = oracles.check(spec, jobs.run(spec, jobs.build(spec), tracer, Caps.from_env()))
        print(f"smoke {'/'.join(map(str, key)):24s} {time.perf_counter() - start:7.3f} s  "
              f"{'ok' if error is None else error}")
        if error is not None:
            problems.append(f"smoke {key}: {error}")
    if len(smoke) != 9:
        problems.append(f"smoke ran {len(smoke)} job kinds, want 9")
    opened = {s.name for s in tracer.spans}
    if opened - set(LAYER_SPANS):
        problems.append(f"spans missing from LAYER_SPANS: {sorted(opened - set(LAYER_SPANS))}")
    for name in ("cli.t_value", "scenarios.run_sharpness_scenario", "scenarios.run_octagon_scenario"):
        if name not in opened:
            problems.append(f"smoke opened no {name} span")

    bench_json = ROOT / "BENCHMARK.json"
    if bench_json.is_file():
        declared = json.loads(bench_json.read_text())["per_layer"]
        if declared != layer_metric_specs():
            problems.append("BENCHMARK.json per_layer differs from layer_metric_specs()")
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=mixes.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (args.self_check or args.workload):
        parser.error("--workload is required")
    if os.environ.get("ANTICONC_CAPS"):
        print("refusing to run: ANTICONC_CAPS changes the work being measured", file=sys.stderr)
        return 2
    if not (SRC / "anticonc" / "__init__.py").is_file():
        print(f"refusing to run: no anticonc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.setup_probe:
        print(json.dumps(_setup_probe(args)))
        return 0
    record, result = run_workload(args)
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
