"""Run-wide resource guards.

Every cap can be overridden by an environment variable (flags passed on
the command line win over the environment):

    GRAVOPT_BASIS_CAP   max number of Graver basis elements
    GRAVOPT_LIFT_CAP    max number of layer placements when lifting a basis
    GRAVOPT_DIM_CAP     max zonotope dimension
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

_ENV_PREFIX = "GRAVOPT_"


@dataclass(frozen=True)
class RunConfig:
    basis_cap: int = 1_000_000
    lift_cap: int = 5_000_000
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
            raw = os.environ.get(_ENV_PREFIX + f.name.upper())
            if raw is not None:
                kwargs[f.name] = int(raw)
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
        return replace(cfg, **kwargs) if kwargs else cfg


DEFAULT_CONFIG = RunConfig()
