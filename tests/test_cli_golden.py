"""Exact stdout and exit code of the CLI over a fixed matrix of invocations.

``tests/data/cli_golden.json`` holds, for every invocation built below, the
exit code and the stdout of ``btensor.cli.main`` run in process.  The
tensors are the two bundled examples, an order-3 dimension-1 member (its
``max_offdiag`` prints ``null``), an odd-order tensor of neither class, and
two generated members (``gen`` B0 at (4, 3) and B at (3, 3), fixed seeds);
the commands are ``classify``, ``semipositive`` (strict, and weak at grid
5), ``bounds`` (T and F; max norm, p = 2 and p = 3; json and csv; with and
without a small ``--estimate``), ``eigen --verify-bounds`` of both kinds and
``tcp solve|bounds|verify`` on ex41.  A refactor of the reports or the CLI
that keeps the output keeps every byte.  The file is the stdout of
``PYTHONPATH=src python tests/test_cli_golden.py``; regenerate it only for an
intended change of CLI output.
"""
import conftest  # noqa: F401  (first: it pins numpy's dispatch before numpy loads)
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from btensor import Tensor
from btensor.cli import main
from btensor.datasets import example_path
from btensor.tensorio import dump_tensor

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

GENERATED = {"gen_b0_4x3": ("4", "3", "B0", "5"), "gen_b_3x3": ("3", "3", "B", "8")}


def _neither() -> Tensor:
    """Order 3, dim 2: row 1 has an off-diagonal entry above its average, row 2 a negative sum."""
    return Tensor([[[1.0, 3.0], [0.0, 0.0]], [[0.0, -1.0], [0.0, -2.0]]])


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue()}


def _bounds_argvs():
    for op in ("T", "F"):
        for norm in (["--norm", "inf"], ["--norm", "p", "--p", "2"], ["--norm", "p", "--p", "3"]):
            for fmt in ("json", "csv"):
                for estimate in ([], ["--estimate", "--samples", "4", "--steps", "2", "--seed", "3"]):
                    yield ["--op", op, *norm, "--format", fmt, *estimate]


def cli_outputs(workdir: Path) -> dict:
    out = {}
    files = {"ex41": str(example_path("ex41")), "ex42": str(example_path("ex42"))}
    for name, tensor in (("dim1", Tensor.diagonal_tensor(3, 1, 2.0)), ("neither", _neither())):
        files[name] = str(workdir / f"{name}.json")
        dump_tensor(tensor, files[name])
    for name, (m, n, kind, seed) in GENERATED.items():
        argv = ["gen", "--m", m, "--n", n, "--kind", kind, "--seed", seed]
        out[" ".join(argv)] = result = _run(argv)
        files[name] = str(workdir / f"{name}.json")
        Path(files[name]).write_text(result["stdout"], encoding="utf-8")
    for name, path in files.items():
        argvs = [
            ["classify"],
            ["semipositive", "--mode", "strict"],
            ["semipositive", "--mode", "weak", "--grid", "5"],
            *(["bounds", *rest] for rest in _bounds_argvs()),
            *(["eigen", "--kind", kind, "--starts", "8", "--seed", "2", "--verify-bounds"] for kind in "hz"),
        ]
        for command, *rest in argvs:
            out[" ".join([command, name, *rest])] = _run([command, path, *rest])
    q = ["--q", "[-1,-1,-1]"]
    for command in ("solve", "bounds"):
        seed = ["--seed", "4"] if command == "solve" else []
        out[" ".join(["tcp", command, "ex41", *q, *seed])] = _run(["tcp", command, files["ex41"], *q, *seed])
    x = json.dumps(json.loads(out["tcp solve ex41 --q [-1,-1,-1] --seed 4"]["stdout"])["x"])
    out["tcp verify ex41 --q [-1,-1,-1] --x SOLVE_X"] = _run(["tcp", "verify", files["ex41"], *q, "--x", x])
    return out


def test_cli_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    outputs = cli_outputs(tmp_path)
    assert sorted(outputs) == sorted(golden)
    for key in golden:
        assert outputs[key] == golden[key], key
    # The matrix covers every exit code the reports reach, and the dim-1 null.
    assert {entry["code"] for entry in golden.values()} == {0, 1, 2}
    assert '"max_offdiag": [\n    null' in golden["classify dim1"]["stdout"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        json.dump(cli_outputs(Path(workdir)), sys.stdout, indent=1, sort_keys=True)
    print()
