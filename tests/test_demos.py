"""Each narrative script in ``demos/``, and the README's library tour, runs to completion with a
clean stderr."""
import os
import re
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


def run_python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=ROOT, check=False, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_clean(demo):
    assert "from btensor." not in demo.read_text(encoding="utf-8")  # the package table only
    run = run_python(str(demo))
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout


def test_readme_tour_runs_clean():
    # The tour is the README's one python block; it imports every name it uses from btensor.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [tour] = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert "from btensor import *" in tour and "from btensor." not in tour
    run = run_python("-c", tour)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
