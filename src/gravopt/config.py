"""Run-wide resource guards.

Every cap can be overridden by an environment variable (flags passed on
the command line win over the environment):

    GRAVOPT_BASIS_CAP   max number of basis elements: a completion's
                        working set, or a lifted basis's distinct elements
    GRAVOPT_DIM_CAP     max zonotope dimension
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

_ENV_PREFIX = "GRAVOPT_"


@dataclass(frozen=True)
class RunConfig:
    basis_cap: int = 1_000_000
    dim_cap: int = 6

    def __post_init__(self):
        for f in fields(self):
            _check_positive(f.name, getattr(self, f.name))

    @classmethod
    def from_env(cls, **overrides) -> "RunConfig":
        """Defaults, then environment variables, then explicit overrides
        (the command-line flags); a value that is not positive is named
        by where it came from: the variable, or the flag."""
        cfg = cls()
        kwargs = {}
        for f in fields(cls):
            name = _ENV_PREFIX + f.name.upper()
            raw = os.environ.get(name)
            if raw is not None:
                try:
                    kwargs[f.name] = int(raw)
                except ValueError:
                    raise ValueError(
                        f"{name} must be an integer, got {raw!r}") from None
            if overrides.get(f.name) is not None:
                kwargs[f.name] = overrides[f.name]
                name = "--" + f.name.replace("_", "-")
            if f.name in kwargs:
                _check_positive(name, kwargs[f.name])
        return replace(cfg, **kwargs) if kwargs else cfg


def _check_positive(name: str, value: int) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


DEFAULT_CONFIG = RunConfig()
