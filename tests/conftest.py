"""Shared test setup: every test starts from the default caps.

``ANTICONC_CAPS`` is the one source of caps, so a value set in the shell
would change what the solvers accept. The autouse fixture unsets it; a test
that needs other caps sets them with ``caps_env``. ``CliRunner`` runs the
``anticonc`` command in process.
"""

import contextlib
import importlib.util
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest

from anticonc.caps import ENV_VAR


@pytest.fixture(autouse=True)
def _default_caps(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


def caps_env(**fields):
    """A context manager that sets ``ANTICONC_CAPS`` to ``fields`` and restores it
    on exit; unlike a fixture it can be entered in each hypothesis example."""
    return mock.patch.dict(os.environ, {ENV_VAR: json.dumps(fields)})


# a measure on a rational pentagon, each atom of weight 1/5, whose distance
# graph is C5: not perfect, and its colouring needs the backtrack
PENTAGON = {"norm": "l2", "dim": 2, "atoms": [
    {"point": p, "weight": "1/5"} for p in (["70/100", "0"], ["22/100", "67/100"], ["-57/100", "41/100"],
                                            ["-57/100", "-41/100"], ["22/100", "-67/100"])]}


def bench_mixes():
    """The seeded job lists of ``bench/mixes.py``, which imports no library code."""
    path = Path(__file__).resolve().parent.parent / "bench" / "mixes.py"
    spec = importlib.util.spec_from_file_location("bench_mixes", path)
    mixes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mixes)
    return mixes


class _Tee(io.StringIO):
    """A captured stream that also writes into the interleaved ``mixed`` one."""

    def __init__(self, mixed: io.StringIO):
        super().__init__()
        self.mixed = mixed

    def write(self, text: str) -> int:
        self.mixed.write(text)
        return super().write(text)


@dataclass
class CliResult:
    """One run: ``output`` is stdout and stderr interleaved as written,
    each with CRLF read as LF; ``exception`` is the ``SystemExit`` of a
    nonzero exit or an exception that escaped the command, else None."""

    output: str
    stdout: str
    stderr: str
    exit_code: int
    exception: BaseException | None


class CliRunner:
    """Runs ``main.main(args)`` in process with stdout, stderr and, if given,
    environment variables swapped in for the call."""

    def invoke(self, main, args, env=None) -> CliResult:
        mixed = io.StringIO()
        out, err = _Tee(mixed), _Tee(mixed)
        exit_code, exception = 0, None
        with mock.patch.dict(os.environ, env or {}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main.main(list(args), prog_name="anticonc")
            except SystemExit as exc:
                exit_code = exc.code or 0
                exception = exc if exit_code else None
            except Exception as exc:  # a traceback: exit 1, as an uncaught error would
                exit_code, exception = 1, exc
        text = [s.getvalue().replace("\r\n", "\n") for s in (mixed, out, err)]
        return CliResult(*text, exit_code, exception)
