"""The package namespace: lazy loading keeps every name and every submodule.

``import btensor.cli`` loads only the package and the CLI module; the rest
load when a name from them is first read.  Each check runs in a fresh
interpreter, where nothing has been imported yet.
"""
import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Every public name of the package: those it had with eager imports, plus outcome_at and
# closed_form_report, which the README tour and the CLI use beside tcp_solve and bound_report.
EXPORTS = [
    "ClassificationError", "ClassificationReport", "DimensionMismatch", "DominanceDiagnostics",
    "EigenBoundReport", "EigenPair", "GridTooLarge", "NormBoundReport", "SandwichViolation",
    "SemiPositivityCertificate", "SolutionBoundCertificate", "TcpInstance", "TcpOutcome", "Tensor",
    "TensorFormatError", "UnsupportedOrder", "bound_report", "boundedness_probe", "classify",
    "closed_form_report", "contract", "contract_batch", "contraction_jacobian", "dump_tensor",
    "dumps_tensor", "eigenvalue_bounds", "estimate_norm", "f_norm_bounds", "find_h_eigenpairs",
    "find_z_eigenpairs", "general_upper_bound", "h_residual", "is_entry_symmetric", "load_example",
    "load_tensor", "loads_tensor", "membership_diagnostics", "outcome_at", "random_b0_tensor",
    "random_b_tensor", "random_tensor", "root_map", "row_profile", "scaled_map",
    "semipositivity_certificate", "simplex_lattice", "solution_lower_bounds", "t_norm_bounds",
    "tcp_residual", "tcp_solve", "tensor_from_obj", "tensor_to_obj", "vector_norm",
    "verify_eigen_bounds", "verify_solution_bounds", "z_residual",
]
SUBMODULES = ["cli", "core", "datasets", "opnorms", "spectral", "structure", "tcp", "tensorio"]


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return run.stdout


def test_cli_import_loads_only_the_cli():
    out = run_python(
        "import sys, json\n"
        "import btensor.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'btensor' or m.startswith('btensor.'))))\n"
    )
    assert json.loads(out) == ["btensor", "btensor.cli"]


def test_cli_parser_is_built_at_the_first_main_call_only():
    # Counts every argparse parser made (the main parser and its subparsers).
    out = run_python(
        "import argparse, contextlib, io, json\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    made.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import btensor.cli\n"
        "counts = [len(made)]\n"
        "for _ in range(2):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        btensor.cli.main(['gen', '--m', '2', '--n', '1', '--kind', 'diagonal'])\n"
        "    counts.append(len(made))\n"
        "print(json.dumps(counts))\n"
    )
    before, first, second = json.loads(out)
    assert before == 0
    assert first > 0
    assert second == first


def test_every_export_resolves_to_its_home_object():
    out = run_python(
        "import importlib, json\n"
        "import btensor\n"
        f"names = {EXPORTS!r}\n"
        "homes = {}\n"
        "for name in names:\n"
        "    obj = getattr(btensor, name)\n"
        "    home = importlib.import_module(obj.__module__)\n"
        "    homes[name] = [obj.__module__, getattr(home, obj.__name__) is obj, name in vars(btensor)]\n"
        "star = {}\n"
        "exec('from btensor import *', star)\n"
        "print(json.dumps({'homes': homes, 'all': btensor.__all__, 'dir': dir(btensor), 'star': sorted(star),\n"
        "                  'version': btensor.__version__}))\n"
    )
    result = json.loads(out)
    for name in EXPORTS:
        module, is_home_object, cached = result["homes"][name]
        assert module.startswith("btensor.") and module != "btensor.cli", name
        assert is_home_object and cached, name
    assert result["homes"]["tcp_solve"][0] == result["homes"]["tcp_residual"][0] == "btensor.tcp"
    assert result["all"] == sorted(EXPORTS)
    assert set(EXPORTS) <= set(result["dir"])
    assert set(result["star"]) - {"__builtins__"} == set(EXPORTS)
    assert result["version"] == "0.1.0"


def test_submodules_are_attributes():
    out = run_python(
        "import json, btensor\n"
        f"print(json.dumps([getattr(btensor, name).__name__ for name in {SUBMODULES!r}]))\n"
    )
    assert json.loads(out) == [f"btensor.{name}" for name in SUBMODULES]


def test_unknown_name_is_attribute_error():
    out = run_python(
        "import btensor\n"
        "try:\n"
        "    btensor.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert "no_such_name" in out


def test_unknown_example_is_refused():
    from btensor.datasets import example_path

    with pytest.raises(ValueError, match=r"unknown example 'ex43', choose from \('ex41', 'ex42'\)"):
        example_path("ex43")


def test_the_package_table_is_the_only_public_surface():
    # btensor._EXPORTS declares what is public; a module __all__ would be a second list to keep in step.
    assigned = [
        path.name
        for path in sorted(Path(SRC, "btensor").glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    ]
    assert assigned == []


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(Path(SRC, "btensor").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


def test_every_traced_target_resolves():
    # The perfbench tracer wraps each (home, attr) of its TARGETS; read them without importing it.
    tree = ast.parse(Path(SRC).parent.joinpath("perfbench", "tracing.py").read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS"
    )
    pairs = sorted({pair for homes in targets.values() for pair in homes})
    assert ("core", "contract") in pairs and ("tcp", "boundedness_probe") in pairs
    out = run_python(
        "import importlib, json\n"
        f"pairs = {pairs!r}\n"
        "found = [getattr(importlib.import_module('btensor.' + h), a, None) for h, a in pairs]\n"
        "print(json.dumps([callable(obj) for obj in found]))\n"
    )
    assert dict(zip(pairs, json.loads(out))) == {pair: True for pair in pairs}


def _load_workloads(monkeypatch):
    """``perfbench/workloads.py`` as a module, loaded by path without writing bytecode beside it."""
    path = Path(SRC).parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["cli_structure", "norm_sandwich", "eigen_search", "tcp_solve"])
def test_benchmark_calls_run(monkeypatch, tmp_path, name):
    # Each workload's runner on the first two items of its pool: every library call and
    # option the benchmark makes must still exist.  The first tcp_solve item is the ex41 probe.
    import btensor

    workloads = _load_workloads(monkeypatch)
    items = workloads.make_pool(name, 61, btensor, tmp_path, limit=2)
    assert len(items) == 2
    records = [workloads.RUNNERS[name](btensor, item) for item in items]
    if name == "tcp_solve":
        assert records[0]["bounded"] is True and "certificate" in records[0]
