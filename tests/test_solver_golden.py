"""Exact outputs of the Newton-based solvers on fixed inputs.

``tests/data/solver_golden.json`` holds, in ``float.hex`` form, every number
that ``find_h_eigenpairs``, ``find_z_eigenpairs``, ``tcp.solve`` and
``boundedness_probe`` return on the inputs built below: the general and the
symmetric eigen path at odd and even order, a converged TCP solve, one that
the Fischer-Burmeister pass solves after the monotone pass stalls, one that
cannot converge, and two probes.  A
refactor that keeps the arithmetic keeps every bit.  The file is the stdout
of ``PYTHONPATH=src python tests/test_solver_golden.py``; regenerate it only
for an intended change of solver arithmetic.
"""
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from btensor import Tensor, find_h_eigenpairs, find_z_eigenpairs, is_entry_symmetric, load_example
from btensor.tcp import DEFAULT_TOL, TcpInstance, boundedness_probe, outcome_at, solve

GOLDEN = Path(__file__).resolve().parent / "data" / "solver_golden.json"


def _general(seed, order, dim):
    """Entries in [0, 1) and a dominant diagonal: a strict-class member, not symmetric."""
    arr = np.random.default_rng(seed).uniform(0.0, 1.0, (dim,) * order)
    idx = np.arange(dim)
    arr[(idx,) * order] = dim ** (order - 1) + 1.0
    return Tensor(arr)


def _symmetric(seed, order, dim):
    """Integer entries averaged over all index permutations, so exactly symmetric."""
    arr = np.random.default_rng(seed).integers(-4, 5, (dim,) * order).astype(float)
    perms = list(itertools.permutations(range(order)))
    return Tensor(sum(np.transpose(arr, p) for p in perms) / len(perms))


def _hex(value):
    return float(value).hex()


def _hexes(values):
    return [_hex(v) for v in values]


def _pairs(pairs):
    return [
        {"kind": p.kind, "value": _hex(p.value), "vector": _hexes(p.vector), "residual": _hex(p.residual)}
        for p in pairs
    ]


def _outcome(outcome):
    return {
        "x": _hexes(outcome.x),
        "w": _hexes(outcome.w),
        "residual": _hex(outcome.residual),
        "converged": outcome.converged,
        "starts_used": outcome.starts_used,
    }


def tcp_cases() -> dict:
    """name -> (tensor, q, seed) of the TCP solves."""
    return {
        "converged": (_general(11, 3, 3), [-1.0, 0.5, -0.25], 0),
        "fischer_burmeister": (_general(1, 4, 3), [0.66, -0.18, 0.1], 0),
        "no_solution": (Tensor.diagonal_tensor(3, 2, [-1.0, -2.0]), [-1.0, -1.0], 0),
    }


def solver_outputs() -> dict:
    tensors = {
        "general3": _general(11, 3, 3),
        "general4": _general(12, 4, 3),
        "symmetric3": _symmetric(13, 3, 3),
        "symmetric4": _symmetric(14, 4, 3),
    }
    assert not is_entry_symmetric(tensors["general3"]) and not is_entry_symmetric(tensors["general4"])
    assert is_entry_symmetric(tensors["symmetric3"]) and is_entry_symmetric(tensors["symmetric4"])
    out = {}
    for name, tensor in tensors.items():
        out[f"h/{name}"] = _pairs(find_h_eigenpairs(tensor, starts=16, seed=5))
        out[f"z/{name}"] = _pairs(find_z_eigenpairs(tensor, starts=16, seed=5))
    for name, (tensor, q, seed) in tcp_cases().items():
        out[f"tcp/{name}"] = _outcome(solve(TcpInstance(tensor, q), starts=4, seed=seed))
    ex41 = load_example("ex41")
    out["probe/ex41"] = boundedness_probe(ex41, [-1.0, 0.5, -2.0], starts=4, seed=2)
    out["probe/general4"] = boundedness_probe(tensors["general4"], [-1.0, -1.0, 0.5], starts=4, seed=3)
    return out


def test_solver_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    outputs = solver_outputs()
    assert sorted(outputs) == sorted(golden)
    for key in golden:
        assert outputs[key] == golden[key], key
    assert all(golden[f"{kind}/{name}"] for kind in "hz" for name in ("general3", "symmetric4"))
    assert golden["tcp/converged"]["converged"] and not golden["tcp/no_solution"]["converged"]


@pytest.mark.parametrize("name", ["converged", "fischer_burmeister", "no_solution"])
def test_solve_reports_the_outcome_at_its_point(name):
    tensor, q, seed = tcp_cases()[name]
    instance = TcpInstance(tensor, q)
    out = solve(instance, starts=4, seed=seed)
    assert _outcome(outcome_at(instance, out.x, DEFAULT_TOL, out.starts_used)) == _outcome(out)


if __name__ == "__main__":
    print(json.dumps(solver_outputs(), indent=1, sort_keys=True))
