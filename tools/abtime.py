"""Time one benchmark workload on two source trees in one process.

    python tools/abtime.py PARENT [CHANGE] [--workload certify] [--seed 0] [--rounds 30]

PARENT and CHANGE are checkouts of this repository; CHANGE defaults to the
tree this file is in. Each tree's ``src/anticonc`` is imported under a
package name of its own (``anticonc_parent``, ``anticonc_change``), and
its ``bench/jobs.py`` against that package. The workload's seeded job list
comes from ``bench/mixes.py``, with as many jobs as a benchmark run of
``run_seconds`` (``BENCHMARK.json``) takes. Each round builds fresh inputs for both trees
(not timed), then times one whole pass of the job list on each, the two in
alternating order. Only the jobs' wall time counts; no reference kernel
and no oracle runs.

It prints, for the rounds, the median parent/change ratio of pass times
with its quartiles (above 1: the change is faster), how many rounds the
change won, and whether both trees' output digests are equal, and equal to
``bench/expected.json`` where that file pins this seed and job count. The
last line is the same as JSON. The machine's speed drifts (by up to 1.9x
in ``bench/README.md``), so run the tree against itself as a control: its
ratio should read about 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Tree:
    """One checkout's package and bench jobs module, imported under ``name``."""

    def __init__(self, root: Path, name: str):
        pkg_dir = root / "src" / "anticonc"
        spec = importlib.util.spec_from_file_location(
            name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
        self.modules = {"anticonc": package}
        for sub in sorted(p.stem for p in pkg_dir.glob("*.py") if p.stem != "__init__"):
            self.modules[f"anticonc.{sub}"] = importlib.import_module(f"{name}.{sub}")
        self.activate()  # bench/jobs.py imports ``anticonc`` by that name
        spec = importlib.util.spec_from_file_location(f"{name}_jobs", root / "bench" / "jobs.py")
        self.jobs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.jobs)
        self.caps = self.modules["anticonc.caps"].Caps.from_env()

    def activate(self) -> None:
        """Point the name ``anticonc`` at this tree, for the imports jobs make while running."""
        sys.modules.update(self.modules)

    def run_pass(self, workload: str, specs: list, timing) -> tuple[float, list]:
        """Seconds of job time over one pass, and each job's exact outputs."""
        self.activate()
        self.jobs.load(workload)
        inputs = [self.jobs.build(spec) for spec in specs]
        tracer, total, exact = timing.Tracer(False), 0.0, []
        gc.collect()
        for spec, inp in zip(specs, inputs):
            start = time.perf_counter()
            try:
                result = self.jobs.run(spec, inp, tracer, self.caps)
            except Exception as exc:  # a failed job is reported in the digest
                result = exc
            total += time.perf_counter() - start
            exact.append(repr(result) if isinstance(result, Exception) else result.exact)
        return total, exact


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--workload", default="certify")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "bench"))
    import mixes
    import timing

    n_jobs = mixes.job_count(args.workload, json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    specs = mixes.generate(args.workload, args.seed, n_jobs)
    trees = [Tree(args.parent.resolve(), "anticonc_parent"), Tree(args.change.resolve(), "anticonc_change")]
    for tree in trees:  # warm both
        tree.run_pass(args.workload, specs, timing)
    ratios, digests = [], [set(), set()]
    for r in range(args.rounds):
        times = [0.0, 0.0]
        for k in ((0, 1) if r % 2 == 0 else (1, 0)):
            times[k], exact = trees[k].run_pass(args.workload, specs, timing)
            digests[k].add(mixes.digest(exact))
        ratios.append(times[0] / times[1])

    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    want = json.loads((ROOT / "bench" / "expected.json").read_text())["digests"].get(args.workload, {})
    pinned = want.get("seed") == args.seed and want.get("jobs") == n_jobs
    equal = len(digests[0]) == len(digests[1]) == 1 and digests[0] == digests[1]
    out = {
        "workload": args.workload, "seed": args.seed, "jobs": n_jobs, "rounds": args.rounds,
        "ratio_median": round(median, 4), "ratio_q1": round(q1, 4), "ratio_q3": round(q3, 4),
        "change_wins": sum(x > 1 for x in ratios),
        "digests_equal": equal,
        "digest_expected": (equal and want["outputs"] in digests[0]) if pinned else None,
        "digests": [sorted(d) for d in digests],
    }
    print(f"{args.workload} seed {args.seed}: {n_jobs} jobs, {args.rounds} rounds")
    print(f"parent/change time: median {median:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
          f"change faster in {out['change_wins']} of {args.rounds} rounds")
    print(f"output digests {'equal' if equal else 'DIFFER'}: {out['digests']}"
          + ("" if not pinned else f"; bench/expected.json {'matches' if out['digest_expected'] else 'DIFFERS'}"))
    print(json.dumps(out))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
