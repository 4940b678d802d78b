"""Shared test setup: every test starts from the default caps.

``ANTICONC_CAPS`` is the one source of caps, so a value set in the shell
would change what the solvers accept. The autouse fixture unsets it; a test
that needs other caps sets them with ``caps_env``.
"""

import importlib.util
import json
import os
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


def bench_mixes():
    """The seeded job lists of ``bench/mixes.py``, which imports no library code."""
    path = Path(__file__).resolve().parent.parent / "bench" / "mixes.py"
    spec = importlib.util.spec_from_file_location("bench_mixes", path)
    mixes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mixes)
    return mixes
