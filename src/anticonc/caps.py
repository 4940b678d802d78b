"""Resource caps for the exact solvers.

The ANTICONC_CAPS environment variable is the one source of caps: a JSON
object such as ``{"clique": 800, "odd_hole": 32}`` overrides the defaults.
Unknown keys are rejected so typos do not silently leave a cap at its
default, and every value must be a nonnegative JSON integer. ``check`` is
the one place a cap stops a solver, and its error names the key to raise.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from functools import lru_cache

from .errors import ResourceCapExceeded

ENV_VAR = "ANTICONC_CAPS"


@dataclass(frozen=True)
class Caps:
    clique: int = 500
    coloring: int = 200
    odd_hole: int = 64
    product_support: int = 200_000
    chain_tuples: int = 1_000_000
    replicas: int = 10_000
    tvalue_work: int = 10_000_000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass; True/False is no cap value
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"cap {f.name!r} must be a nonnegative integer, got {value!r}")

    @classmethod
    def from_env(cls) -> "Caps":
        return _parse_env(os.environ.get(ENV_VAR))


@lru_cache(maxsize=16)
def _parse_env(raw: str | None) -> Caps:
    """The caps of ENV_VAR set to ``raw``, shared per string; bad ones raise."""
    if not raw:
        return Caps()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{ENV_VAR} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{ENV_VAR} must be a JSON object, got {raw!r}")
    unknown = set(data) - {f.name for f in fields(Caps)}
    if unknown:
        raise ValueError(f"unknown cap names in {ENV_VAR}: {sorted(unknown)}")
    try:
        return Caps(**data)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR}: {exc}") from None


def check(name: str, amount: int) -> Caps:
    """The caps, if ``amount`` is within cap ``name``; above it, raise an error that
    names the key and the amount."""
    caps = Caps.from_env()
    limit = getattr(caps, name)
    if amount > limit:
        raise ResourceCapExceeded(f"{name} needs {amount}, cap is {limit}")
    return caps
