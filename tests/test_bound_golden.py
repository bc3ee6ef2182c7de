"""Exact closed-form norm bounds at exponents the other goldens do not reach.

``tests/data/bound_golden.json`` holds, in ``float.hex`` form,
``general_upper_bound`` for T and F and the class brackets
``t_norm_bounds`` and ``f_norm_bounds`` at both variants, with p in
{1, 1.5, 2, 2.5, 3, 3.5, 5, inf}, on ex41, ex42 and one order-6 member.
Every F bound, general and class, takes its in-sum exponent in one
rounding, ``p * (1 / (m - 1))``; the other, ``p / (m - 1)``, moves the last
bit of the general F bound at p = 2.5, 3.5 and 5 on ex41 and ex42 and at
p = 1.5, 3 and 3.5 on the order-6 member, so the table pins the one rounding.
A refactor that keeps the arithmetic keeps every bit.  The file is the stdout of
``PYTHONPATH=src python tests/test_bound_golden.py``; regenerate it only for
an intended change of a bound's arithmetic.
"""
import conftest  # noqa: F401  (first: it pins numpy's dispatch before numpy loads)
import json
import math
from pathlib import Path

import numpy as np

from btensor import Tensor, f_norm_bounds, general_upper_bound, load_example, t_norm_bounds

GOLDEN = Path(__file__).resolve().parent / "data" / "bound_golden.json"

NORMS = {"1": 1.0, "1.5": 1.5, "2": 2.0, "2.5": 2.5, "3": 3.0, "3.5": 3.5, "5": 5.0, "inf": math.inf}


def _order6_member() -> Tensor:
    """An order-6, dim-2 strict member built without library code: entries in [-1, 1) and a
    diagonal above 3 n**(m-1), so each row average exceeds 2 and every off-diagonal entry."""
    order, dim = 6, 2
    rng = np.random.default_rng(6)
    arr = rng.uniform(-1.0, 1.0, (dim,) * order)
    arr[(np.arange(dim),) * order] = 3.0 * dim ** (order - 1) + rng.uniform(0.0, 1.0, dim)
    return Tensor(arr)


def bound_outputs() -> dict:
    out = {}
    tensors = {"ex41": load_example("ex41"), "ex42": load_example("ex42"), "m6n2": _order6_member()}
    for name, tensor in tensors.items():
        for label, p in NORMS.items():
            for operator, bracket in (("T", t_norm_bounds), ("F", f_norm_bounds)):
                out[f"{name}/general/{operator}/{label}"] = general_upper_bound(tensor, operator, p).hex()
                for variant in ("B", "B0"):
                    pair = bracket(tensor, p, variant)
                    out[f"{name}/{variant}/{operator}/{label}"] = [value.hex() for value in pair]
    return out


def test_bound_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    outputs = bound_outputs()
    assert sorted(outputs) == sorted(golden)
    for key in golden:
        assert outputs[key] == golden[key], key


if __name__ == "__main__":
    print(json.dumps(bound_outputs(), indent=1, sort_keys=True))
