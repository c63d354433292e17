"""The demos run to completion, and importing the package stays light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _run_python(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = _run_python([str(ROOT / "demos" / demo)])
    assert proc.returncode == 0, proc.stderr


def test_import_defers_scipy_optimize():
    proc = _run_python(
        ["-c", "import sys, qrenyi; print('scipy.optimize' in sys.modules)"]
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
