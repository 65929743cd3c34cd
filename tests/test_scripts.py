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
