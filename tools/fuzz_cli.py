"""Fuzz every ``anticonc`` subcommand in process, with a larger budget than tier-1.

    python tools/fuzz_cli.py [--examples 12500]

It runs the command-line strategies and assertions of
``tests/test_cli_fuzz.py`` (one command line per example, any exit but 0, 1
or 2, a traceback, or exit 1 from a command that checks no inequality
fails it) in this process, derandomized as in tier-1, but with
``--examples`` examples instead of the suite's fixed budget. No subprocess
starts and no hypothesis database is written. ``ANTICONC_CAPS`` is unset
first, as the suite's fixture does; each example sets its own caps.

It prints how many command lines ran (shrinking a failure runs more than
``--examples``) and, per subcommand, how many exited 0, 1 and 2, then the
same as one JSON line. Its ``digest`` is a sha256 over every run's command
line, exit code, stdout and stderr, with the temporary directory replaced by
a fixed token, so two trees that print the same bytes and exit alike on
every example give the same digest. On a failure the traceback, with
hypothesis' note of the shrunk command line, goes to standard error and the
exit code is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_fuzz_module():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    spec = importlib.util.spec_from_file_location("test_cli_fuzz", ROOT / "tests" / "test_cli_fuzz.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _TempFactory:
    """The one method of pytest's ``tmp_path_factory`` the fuzz test reads."""

    def __init__(self, base: str):
        self.base = Path(base)

    def getbasetemp(self) -> Path:
        return self.base


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--examples", type=int, default=12_500, help="command lines to run")
    args = parser.parse_args()
    if args.examples < 1:
        parser.error("--examples must be at least 1")

    from hypothesis import HealthCheck, given, settings

    fuzz = _load_fuzz_module()
    from anticonc.caps import ENV_VAR

    os.environ.pop(ENV_VAR, None)
    exits: Counter = Counter()
    digest = hashlib.sha256()

    class CountingRunner(fuzz.CliRunner):
        def invoke(self, main, args, env=None):
            result = super().invoke(main, args, env)
            exits[args[0], result.exit_code] += 1
            run = json.dumps([args, result.exit_code, result.stdout, result.stderr])
            digest.update(run.replace(base, "TMPDIR").encode() + b"\n")
            return result

    fuzz.CliRunner = CountingRunner
    inner = fuzz.test_every_command_exits_0_1_or_2.hypothesis.inner_test
    test = settings(max_examples=args.examples, deadline=None, derandomize=True, database=None,
                    suppress_health_check=list(HealthCheck))(given(case=fuzz.command_lines())(inner))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as base:
        failure = None
        try:
            test(tmp_path_factory=_TempFactory(base))
        except Exception as exc:  # reported after the table
            failure = exc
    seconds = time.perf_counter() - start

    commands = sorted({command for command, _ in exits})
    table = {c: {str(code): exits[c, code] for code in (0, 1, 2)} for c in commands}
    print(f"{sum(exits.values())} command lines in {seconds:.1f} s")
    for command, row in table.items():
        print(f"  {command:18} " + "  ".join(f"exit {code}: {n:5}" for code, n in row.items()))
    print(json.dumps({"examples": args.examples, "runs": sum(exits.values()), "seconds": round(seconds, 1),
                      "passed": failure is None, "exits": table, "digest": digest.hexdigest()}))
    if failure is not None:
        traceback.print_exception(failure)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
