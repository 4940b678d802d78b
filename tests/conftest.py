"""Shared test setup: every test starts from the default caps.

``ANTICONC_CAPS`` is the one source of caps, so a value set in the shell
would change what the solvers accept. The autouse fixture unsets it; a test
that needs other caps sets them with ``caps_env``.
"""

import json
import os
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
