"""Exact outputs of the norm ascent and of the maps T and F on fixed inputs.

``tests/data/estimate_golden.json`` holds, in ``float.hex`` form, the
estimate and the witness that ``estimate_norm`` returns for T and F (F at
even order only) with p in {inf, 1, 2, 3} on one tensor of each shape
below.  Two more inputs reach the edge branches: a dimension-one tensor
with ``step=1.0``, whose ``-`` moves land on the zero vector before they
are normalised, and ``Tensor.zeros(3, 2)``, whose map is zero everywhere.
The ``maps/...`` entries are T and F on a batch that holds a zero row.
A refactor that keeps the arithmetic keeps every bit.  The file is the
stdout of ``PYTHONPATH=src python tests/test_estimate_golden.py``;
regenerate it only for an intended change of the ascent's arithmetic.
"""
import conftest  # noqa: F401  (first: it pins numpy's dispatch before numpy loads)
import json
import math
from pathlib import Path

import numpy as np

from btensor import Tensor, estimate_norm
from btensor.core import root_map, scaled_map

GOLDEN = Path(__file__).resolve().parent / "data" / "estimate_golden.json"

SHAPES = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4), (6, 3)]
NORMS = {"inf": math.inf, "1": 1.0, "2": 2.0, "3": 3.0}


def _tensor(seed, order, dim):
    """Entries in [-1, 1) and a dominant positive diagonal, built without library code."""
    arr = np.random.default_rng(seed).uniform(-1.0, 1.0, (dim,) * order)
    idx = np.arange(dim)
    arr[(idx,) * order] = dim ** (order - 1) + 1.0
    return Tensor(arr)


def _hexes(values):
    return [float(v).hex() for v in values]


def _estimates(out, name, tensor, seed, **options):
    operators = ("T", "F") if tensor.order % 2 == 0 else ("T",)
    for operator in operators:
        for label, p in NORMS.items():
            value, witness = estimate_norm(tensor, operator, p, seed=seed, **options)
            out[f"{name}/{operator}/{label}"] = {"estimate": float(value).hex(), "witness": _hexes(witness)}


def estimate_outputs() -> dict:
    out = {}
    for index, (order, dim) in enumerate(SHAPES):
        _estimates(out, f"m{order}n{dim}", _tensor(21 + index, order, dim), index, samples=32, ascent_steps=20)
    _estimates(out, "n1step1", Tensor([[[[2.0]]]]), 3, samples=8, ascent_steps=6, step=1.0)
    _estimates(out, "zeros32", Tensor.zeros(3, 2), 4, samples=8, ascent_steps=6)
    batch = np.array([[0.5, -1.0, 2.0], [0.0, 0.0, 0.0], [-3.0, 0.25, 1.0]])
    for order in (3, 4):
        tensor = _tensor(40 + order, order, 3)
        out[f"maps/m{order}/T"] = [_hexes(row) for row in scaled_map(tensor, batch)]
        if order % 2 == 0:
            out[f"maps/m{order}/F"] = [_hexes(row) for row in root_map(tensor, batch)]
    return out


def test_estimate_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    outputs = estimate_outputs()
    assert sorted(outputs) == sorted(golden)
    for key in golden:
        assert outputs[key] == golden[key], key
    # The zero tensor's map is zero everywhere, and a zero row maps to zero.
    assert all(golden[f"zeros32/T/{label}"]["estimate"] == "0x0.0p+0" for label in NORMS)
    assert golden["maps/m3/T"][1] == ["0x0.0p+0"] * 3


if __name__ == "__main__":
    print(json.dumps(estimate_outputs(), indent=1, sort_keys=True))
