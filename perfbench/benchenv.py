"""Process set-up shared by every perfbench entry point.

Must run before gravopt (or numpy) is imported: it pins the numeric
libraries to one thread, clears every GRAVOPT_* variable so the program
runs with the default RunConfig, and puts the checkout's own sources
first on the import path.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> dict:
    """Clean the environment and the import path; return the GRAVOPT_*
    variables that were set before they were cleared.  Exits with code 2
    when the checkout has no gravopt sources."""
    if not (SRC / "gravopt" / "__init__.py").is_file():
        print(f"perfbench: no gravopt sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    seen = {k: v for k, v in os.environ.items() if k.startswith("GRAVOPT_")}
    for key in seen:
        del os.environ[key]
    for key in _THREAD_VARS:
        os.environ[key] = "1"
    sys.path.insert(0, str(SRC))
    import gravopt
    if Path(gravopt.__file__).resolve().parent != SRC / "gravopt":
        print(f"perfbench: imported gravopt from {gravopt.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return seen


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(gravopt_seen: dict) -> dict:
    """The record printed with every result."""
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "gravopt_env_seen": gravopt_seen,
        "execution": "single process, single thread: default RunConfig "
                     "(threads=1), GRAVOPT_* cleared, "
                     + ", ".join(f"{k}=1" for k in _THREAD_VARS),
    }
