"""Child process of run.py that measures set-up: import gravopt, run one
warm-up op, print "ready".  The parent times it from spawn to that line.

    python3 perfbench/setup_probe.py WORKLOAD
"""

import sys
import tempfile

import benchenv

benchenv.prepare()
from workloads import make  # noqa: E402  (gravopt importable after prepare)

with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                 dir=benchenv.ROOT) as workdir:
    make(sys.argv[1], workdir).warmup()
    print("ready", flush=True)
