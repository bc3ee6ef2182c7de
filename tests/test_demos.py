"""Each narrative script in ``demos/`` runs to completion with a clean stderr."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert [demo.name for demo in DEMOS] == [
        "01_classification.py",
        "02_norm_bounds.py",
        "03_eigenpairs.py",
        "04_complementarity.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_clean(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT, check=False, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout
