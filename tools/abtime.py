"""Time one benchmark workload on two source trees, each in fresh interpreters.

    python tools/abtime.py PARENT [CHANGE] [--workload certify] [--seed 0] [--rounds 30] [--setup]

PARENT and CHANGE are checkouts of this repository; CHANGE defaults to the
tree this file is in. Each round starts one new Python process per tree,
parent first in even rounds and change first in odd ones. The process puts
its tree's ``src`` first on the import path, loads that tree's
``bench/jobs.py``, builds the workload's inputs (not timed), runs the job
list once to warm up and then times one more pass of it, recording the
pass time and the median time of its jobs. The seeded job list comes from
this tree's ``bench/mixes.py``, with as many jobs as a benchmark run of
``run_seconds`` (``BENCHMARK.json``) takes. Only the jobs' wall time counts;
no reference kernel and no oracle runs. Neither tree shares an
interpreter, an import or a cache with the other, so the order in which
they load cannot bias a round.

With ``--setup`` the process times the benchmark's set-up instead, as
``bench/run.py`` probes it: importing the tree's ``bench/jobs.py`` and with
it the library, then ``jobs.load`` and ``jobs.build`` of every job (no job
runs). Its digest is of the built inputs, so equal digests mean both trees
built the same objects; ``bench/expected.json`` pins none of them.

It prints, for the rounds, the median parent/change ratio of pass times
with its quartiles (above 1: the change is faster) and how many rounds the
change won, the same for the ratio of the passes' median job times (not
with ``--setup``), and whether both trees' output digests are equal, and
equal to ``bench/expected.json`` where that file pins this seed and job
count. The last line is the same as JSON. The machine's speed drifts (by
up to 1.9x in ``bench/README.md``), so run the tree against itself as a
control: its ratio should read about 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def timed_pass(tree: str, workload: str, seed: str, n_jobs: str) -> None:
    """In a fresh process: print the seconds of one warm pass of the job list
    on ``tree``, the median seconds of its jobs and the digest of its exact
    outputs, as JSON."""
    sys.path[:0] = [str(Path(tree) / "src"), str(ROOT / "bench")]
    import mixes
    import timing

    jobs = _load_jobs(tree)
    from anticonc.caps import Caps

    caps = Caps.from_env()
    specs = mixes.generate(workload, int(seed), int(n_jobs))
    jobs.load(workload)
    for _ in range(2):  # a warm-up pass, then the timed one
        inputs = [jobs.build(job) for job in specs]
        tracer, seconds, exact = timing.Tracer(False), [], []
        gc.collect()
        for job, inp in zip(specs, inputs):
            start = time.perf_counter()
            try:
                result = jobs.run(job, inp, tracer, caps)
            except Exception as exc:  # a failed job is reported in the digest
                result = exc
            seconds.append(time.perf_counter() - start)
            exact.append(repr(result) if isinstance(result, Exception) else result.exact)
    print(json.dumps({"seconds": sum(seconds), "job_p50": statistics.median(seconds),
                      "digest": mixes.digest(exact)}))


def setup_pass(tree: str, workload: str, seed: str, n_jobs: str) -> None:
    """In a fresh process: print the seconds the set-up of the job list takes
    on ``tree``, from importing its ``bench/jobs.py`` to the last
    ``jobs.build``, and the digest of the built inputs, as JSON."""
    sys.path[:0] = [str(Path(tree) / "src"), str(ROOT / "bench")]
    import mixes

    specs = mixes.generate(workload, int(seed), int(n_jobs))
    start = time.perf_counter()
    jobs = _load_jobs(tree)
    jobs.load(workload)
    inputs = [jobs.build(job) for job in specs]
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "digest": mixes.digest(inputs)}))


def _load_jobs(tree: str):
    spec = importlib.util.spec_from_file_location("tree_jobs", Path(tree) / "bench" / "jobs.py")
    jobs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return jobs


def _run_tree(tree: Path, workload: str, seed: int, n_jobs: int, setup: bool) -> dict:
    probe = "setup_pass" if setup else "timed_pass"
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import abtime; abtime.{probe}(*sys.argv[1:])"
    out = subprocess.run([sys.executable, "-c", code, str(tree), workload, str(seed), str(n_jobs)],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _summary(ratios: list, prefix: str) -> dict:
    """The median and quartiles of parent/change ratios, and how many are
    above 1 (the change was faster), under JSON keys that start with ``prefix``."""
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {f"{prefix}ratio_median": round(median, 4), f"{prefix}ratio_q1": round(q1, 4),
            f"{prefix}ratio_q3": round(q3, 4), f"{prefix}change_wins": sum(x > 1 for x in ratios)}


def _summary_line(label: str, summary: dict, rounds: int) -> str:
    median, q1, q3, wins = summary.values()
    return (f"parent/change {label}: median {median:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
            f"change faster in {wins} of {rounds} rounds")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--workload", default="certify")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--setup", action="store_true", help="time the set-up, not a pass of the jobs")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "bench"))
    import mixes

    n_jobs = mixes.job_count(args.workload, json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    trees = [args.parent.resolve(), args.change.resolve()]
    ratios, job_ratios, digests = [], [], [set(), set()]
    for r in range(args.rounds):
        runs = [{}, {}]
        for k in ((0, 1) if r % 2 == 0 else (1, 0)):
            runs[k] = _run_tree(trees[k], args.workload, args.seed, n_jobs, args.setup)
            digests[k].add(runs[k]["digest"])
        ratios.append(runs[0]["seconds"] / runs[1]["seconds"])
        if not args.setup:
            job_ratios.append(runs[0]["job_p50"] / runs[1]["job_p50"])

    want = json.loads((ROOT / "bench" / "expected.json").read_text())["digests"].get(args.workload, {})
    pinned = not args.setup and want.get("seed") == args.seed and want.get("jobs") == n_jobs
    equal = len(digests[0]) == len(digests[1]) == 1 and digests[0] == digests[1]
    passes = _summary(ratios, "")
    medians = {} if args.setup else _summary(job_ratios, "job_")
    out = {
        "workload": args.workload, "seed": args.seed, "jobs": n_jobs, "rounds": args.rounds,
        "setup": args.setup,
        **passes, **medians,
        "digests_equal": equal,
        "digest_expected": (equal and want["outputs"] in digests[0]) if pinned else None,
        "digests": [sorted(d) for d in digests],
    }
    print(f"{args.workload} seed {args.seed}: {n_jobs} jobs, {args.rounds} rounds"
          + (", set-up only" if args.setup else ""))
    print(_summary_line("time", passes, args.rounds))
    if medians:
        print(_summary_line("median job", medians, args.rounds))
    print(f"{'input' if args.setup else 'output'} digests {'equal' if equal else 'DIFFER'}: {out['digests']}"
          + ("" if not pinned else f"; bench/expected.json {'matches' if out['digest_expected'] else 'DIFFERS'}"))
    print(json.dumps(out))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
