"""The benchmark harness still runs against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check():
    # the harness's own oracles need these; without them it cannot run at all
    pytest.importorskip("networkx")
    pytest.importorskip("numpy")
    # the harness refuses to run with caps set, so run it without them
    env = {k: v for k, v in os.environ.items() if k != "ANTICONC_CAPS"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--self-check"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
