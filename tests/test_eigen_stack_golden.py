"""Exact outputs of the eigen searches on wide stacks.

``tests/data/eigen_stack_golden.json`` holds, in ``float.hex`` form, every
value, vector and residual that ``find_h_eigenpairs`` and
``find_z_eigenpairs`` return at 64 starts on ex41 and ex42 (read from their
JSON, so the search reads their symmetry from the entries) and on one
general and one symmetric dimension-4 member.  At 64 starts the line
search fills its calls with many failing rows and the symmetric inputs run
long shifted power iterations, which the 16-start fixture of
``test_solver_golden.py`` rarely does.  The file is the stdout of
``PYTHONPATH=src python tests/test_eigen_stack_golden.py``; regenerate it
only for an intended change of solver arithmetic.
"""
import conftest  # noqa: F401  (first: it pins numpy's dispatch before numpy loads)
import json
from pathlib import Path

from btensor import find_h_eigenpairs, find_z_eigenpairs, is_entry_symmetric, loads_tensor
from btensor.datasets import example_path

from test_solver_golden import _general, _pairs, _symmetric

GOLDEN = Path(__file__).resolve().parent / "data" / "eigen_stack_golden.json"
STARTS = 64


def eigen_outputs() -> dict:
    tensors = {name: loads_tensor(example_path(name).read_text(encoding="utf-8")) for name in ("ex41", "ex42")}
    tensors["general4"] = _general(21, 4, 4)
    tensors["symmetric4"] = _symmetric(22, 4, 4)
    assert not is_entry_symmetric(tensors["general4"])
    assert all(is_entry_symmetric(tensors[name]) for name in ("ex41", "ex42", "symmetric4"))
    out = {}
    for name, tensor in tensors.items():
        out[f"h/{name}"] = _pairs(find_h_eigenpairs(tensor, starts=STARTS, seed=7))
        out[f"z/{name}"] = _pairs(find_z_eigenpairs(tensor, starts=STARTS, seed=7))
    return out


def test_eigen_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    outputs = eigen_outputs()
    assert sorted(outputs) == sorted(golden)
    for key in golden:
        assert outputs[key] == golden[key], key
    assert all(golden.values())


if __name__ == "__main__":
    print(json.dumps(eigen_outputs(), indent=1, sort_keys=True))
