import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_applications_demo_runs():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "applications_demo.py")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "transportation" in proc.stdout
    assert "== plain matrix: x1+x2+x3 = 4, x1+2x2+x4 = 5, squared norm ==" \
        in proc.stdout


FOOTPRINT_PROBE = """
import sys
before = set(sys.modules)
import gravopt, gravopt.cli
from gravopt import apps
from gravopt.convexopt import SquaredNormObjective, solve_convex_nfold
items = [(0, 1, 2), (1, -1, 0), (2, 2, -1), (-1, 0, 1)]
inst = apps.PartitionInstance.make(2, items, sizes=(2, 2))
stencil, rhs, weights, _codec = apps.build_partition(inst)
assert solve_convex_nfold(stencil, 4, weights, rhs,
                          SquaredNormObjective()).status == "optimal"
tab = [[[(i + 2 * j + k) % 4 for k in range(8)] for j in range(2)]
       for i in range(2)]
u = [[sum(tab[i][j]) for j in range(2)] for i in range(2)]
v = [[tab[i][0][k] + tab[i][1][k] for k in range(8)] for i in range(2)]
z = [[tab[0][j][k] + tab[1][j][k] for k in range(8)] for j in range(2)]
stencil, rhs, codec = apps.build_threeway(2, 2, 8, u, v, z)
arrays = [[[[(i - j + k * (1 + w)) % 5 - 2 for k in range(8)]
            for j in range(2)] for i in range(2)] for w in range(2)]
assert solve_convex_nfold(stencil, 8, codec.encode_weights(arrays), rhs,
                          SquaredNormObjective()).status == "optimal"
print(repr((sorted(sys.modules), sorted(set(sys.modules) - before))))
"""


def test_solving_loads_no_lazy_numpy_submodule_or_other_package():
    # each of these costs 15-50 ms of start-up on first touch, and the
    # benchmark's setup_s counts a fresh process's imports
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded, new = ast.literal_eval(proc.stdout)
    assert "gravopt.cli" in new and "numpy" in new
    lazy = ("numpy.random", "numpy.ma", "numpy.fft", "numpy.polynomial",
            "numpy.testing")
    assert not set(lazy) & set(loaded)
    # packages loaded by the interpreter's own start-up are not counted
    packages = {m.split(".")[0] for m in new}
    assert packages - set(sys.stdlib_module_names) <= {"gravopt", "numpy"}
