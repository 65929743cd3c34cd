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
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")

    @classmethod
    def from_env(cls, **overrides) -> "RunConfig":
        """Defaults, then environment variables, then explicit overrides."""
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
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
        return replace(cfg, **kwargs) if kwargs else cfg


DEFAULT_CONFIG = RunConfig()
