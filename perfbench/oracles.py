"""Output checks that call no ``btensor`` code.

Each ``check_*`` takes a pool item and the record its runner returned and
gives back a list of problems (empty when the output is correct).  The
contraction is a plain loop over index tuples, and the classification is
recomputed from row sums and thresholds.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np

EIGEN_RESIDUAL = 1e-8
TCP_TOL = 1e-8
# Slack for comparing a library float against the same real recomputed
# here in another summation order.
REL_SLACK = 1e-9


def naive_contract(arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[i] = sum over (i2..im) of a[i, i2, ..., im] * x[i2] * ... * x[im]."""
    n = arr.shape[0]
    out = [0.0] * n
    for index in itertools.product(range(n), repeat=arr.ndim):
        term = float(arr[index])
        for j in index[1:]:
            term *= float(x[j])
        out[index[0]] += term
    return np.array(out)


def naive_contract_rows(arr: np.ndarray, points: np.ndarray) -> np.ndarray:
    """:func:`naive_contract` for every row of ``points``, looping over entries."""
    n = arr.shape[0]
    out = np.zeros((len(points), n))
    for index in itertools.product(range(n), repeat=arr.ndim):
        a = float(arr[index])
        if a == 0.0:
            continue
        column = np.full(len(points), a)
        for j in index[1:]:
            column *= points[:, j]
        out[:, index[0]] += column
    return out


def lattice(resolution: int, dim: int) -> np.ndarray:
    """All points of the simplex with coordinates k/resolution, by stars and bars."""
    points = []
    for bars in itertools.combinations(range(resolution + dim - 1), dim - 1):
        edges = (-1,) + bars + (resolution + dim - 1,)
        points.append([edges[k + 1] - edges[k] - 1 for k in range(dim)])
    return np.array(points, dtype=float) / resolution


def verdict(arr: np.ndarray) -> str:
    n, m = arr.shape[0], arr.ndim
    rows = arr.reshape(n, -1)
    sums = rows.sum(axis=1)
    thresholds = sums / float(n ** (m - 1))
    off = rows.copy()
    off[np.arange(n), (n ** (m - 1) - 1) // (n - 1) * np.arange(n)] = -math.inf
    cap = off.max(axis=1)
    if np.all(sums > 0) and np.all(thresholds > cap):
        return "B"
    if np.all(sums >= 0) and np.all(thresholds >= cap):
        return "B0"
    return "Neither"


def array_from_doc(doc: dict) -> np.ndarray:
    m, n = doc["order"], doc["dim"]
    if "dense" in doc:
        return np.array(doc["dense"], dtype=float).reshape((n,) * m)
    arr = np.full((n,) * m, float(doc.get("entries_default", 0.0)))
    for index, value in doc["entries"]:
        arr[tuple(i - 1 for i in index)] = value
    return arr


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_SLACK * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- CLI


def check_cli(item, record: dict) -> list[str]:
    problems = []
    for name, result in record.items():
        if "Traceback" in result["stderr"]:
            problems.append(f"{name}: traceback on stderr")
    classify, semi, gen = record["classify"], record["semipositive"], record["gen"]
    if item.kind == "malformed":
        for name, result in (("classify", classify), ("semipositive", semi)):
            if result["code"] != 2 or result["stdout"]:
                problems.append(f"{name}: {item.data['form']} document gave exit {result['code']}, want 2")
    else:
        problems += _check_structure(item, classify, semi)
    problems += _check_gen(item, gen)
    return problems


def _check_structure(item, classify: dict, semi: dict) -> list[str]:
    arr = array_from_doc(json.loads(item.data["text"]))
    expected = verdict(arr)
    problems = [] if expected == item.kind else [f"generator made {expected}, meant {item.kind}"]
    if classify["code"] != 0:
        return problems + [f"classify: exit {classify['code']}, want 0"]
    report = json.loads(classify["stdout"])
    if report["verdict"] != expected:
        problems.append(f"classify: verdict {report['verdict']}, recomputed {expected}")
    sums = arr.reshape(arr.shape[0], -1).sum(axis=1)
    if not all(close(a, b) for a, b in zip(report["row_sums"], sums)):
        problems.append("classify: row sums differ from the recomputed ones")
    if (expected == "Neither") == ("diagnostics" in report):
        problems.append("classify: diagnostics should be present exactly when the tensor is a member")

    if semi["code"] not in (0, 1):
        return problems + [f"semipositive: exit {semi['code']}, want 0 or 1"]
    cert = json.loads(semi["stdout"])
    points = lattice(8, arr.shape[0])
    values = naive_contract_rows(arr, points)
    support_max = np.where(points > 0, values, -math.inf).max(axis=1)
    worst = float(support_max.min())
    if not close(cert["worst_value"], worst):
        problems.append(f"semipositive: worst value {cert['worst_value']!r}, recomputed {worst!r}")
    at_point = naive_contract(arr, np.array(cert["worst_point"]))
    support = np.array(cert["worst_point"]) > 0
    if not close(float(at_point[support].max()), cert["worst_value"]):
        problems.append("semipositive: worst value does not match its own worst point")
    if cert["violated"] != (cert["worst_value"] <= 0) or semi["code"] != int(cert["violated"]):
        problems.append("semipositive: exit code and verdict disagree with the worst value")
    if expected == "B" and worst <= 0:
        problems.append("semipositive: strict member has a lattice point without a positive component")
    return problems


def _check_gen(item, gen: dict) -> list[str]:
    if gen["code"] != 0:
        return [f"gen: exit {gen['code']}, want 0"]
    (m, n), kind = item.data["gen"]
    arr = array_from_doc(json.loads(gen["file"]))
    if arr.shape != (n,) * m:
        return [f"gen: wrote shape {arr.shape}, asked for order {m} dim {n}"]
    made = verdict(arr)
    return [] if made == kind else [f"gen: wrote a {made} tensor, asked for {kind}"]


# ---------------------------------------------------------------- norms


def _map_norm(arr: np.ndarray, x: np.ndarray, op: str, p: float) -> float:
    m = arr.ndim
    values = naive_contract(arr, x)
    if op == "T":
        mapped = values * float(np.sqrt(x @ x)) ** (2 - m)
    else:
        mapped = np.sign(values) * np.abs(values) ** (1.0 / (m - 1))
    if p == math.inf:
        return float(np.abs(mapped).max())
    return float(np.sum(np.abs(mapped) ** p) ** (1 / p))


def check_norm(item, record: dict) -> list[str]:
    arr = np.asarray(item.data["tensor"].array)
    problems = []
    for b in record["brackets"]:
        tag = f"{b['op']} p={b['p']}"
        p = math.inf if b["p"] == "inf" else b["p"]
        lower, estimate, top = b["lower"], b["estimate"], min(b["general"], b["upper"])
        if not (lower - estimate <= 1e-12 * max(1.0, abs(lower)) and estimate <= top + 1e-9):
            problems.append(f"{tag}: estimate {estimate!r} outside [{lower!r}, {top!r}]")
        if not lower <= b["upper"]:
            problems.append(f"{tag}: bracket is empty")
        again = _map_norm(arr, np.array(b["witness"]), b["op"], p)
        if not close(again, estimate):
            problems.append(f"{tag}: witness evaluates to {again!r}, estimate is {estimate!r}")
    return problems


# ---------------------------------------------------------------- eigen


def check_eigen(item, record: dict) -> list[str]:
    arr = np.asarray(item.data["tensor"].array)
    m, n = arr.ndim, arr.shape[0]
    diag = arr[(np.arange(n),) * m]
    h_bound = float(np.sum(diag ** (1.0 / (m - 1))) ** (m - 1))
    z_bound = float(n ** (m / 2) * min(diag.max(), diag.sum() / n))
    problems = []
    for pair in record["h"] + record["z"]:
        x, value = np.array(pair["vector"]), pair["value"]
        if pair["kind"] == "H":
            defect = naive_contract(arr, x) - value * x ** (m - 1)
            bound = h_bound
        else:
            defect = naive_contract(arr, x) - value * x * float(x @ x) ** ((m - 2) / 2)
            bound = z_bound
        residual = float(np.linalg.norm(defect))
        if residual > EIGEN_RESIDUAL:
            problems.append(f"{pair['kind']}-pair {value!r}: residual {residual:.3e}")
        if not abs(value) < bound:
            problems.append(f"{pair['kind']}-pair {value!r}: not inside the strict bound {bound!r}")
    if not record["report"]["all_within"]:
        problems.append("verify_eigen_bounds reports a pair outside its bound")
    return problems


# ---------------------------------------------------------------- TCP


def check_tcp(item, record: dict) -> list[str]:
    arr = np.asarray(item.data["tensor"].array)
    q = item.data["q"]
    m = arr.ndim
    outcome = record["outcome"]
    x = np.array(outcome["x"])
    problems = []
    if item.kind != "q_neg" and not outcome["converged"]:
        problems.append(f"{item.kind}: did not converge")
    if outcome["converged"]:
        w = q + naive_contract(arr, x)
        scale = 1.0 + float(np.abs(w).max())
        if x.min() < 0:
            problems.append(f"x has a negative component {x.min()!r}")
        if w.min() < -TCP_TOL - REL_SLACK * scale:
            problems.append(f"w has a component {w.min()!r} below -tol")
        comp = float(np.abs(np.minimum(x, w)).max())
        if comp > TCP_TOL + REL_SLACK * scale:
            problems.append(f"complementarity residual {comp:.3e} above tol")
    if item.kind == "q_nonneg" and np.abs(x).max() > TCP_TOL:
        problems.append("q >= 0 but the solution is not zero")
    if item.kind == "diagonal":
        # The solution is x_i = (max(-q_i, 0) / d_i)**(1/(m-1)).  The solver's
        # tolerance is on the slack, so compare on that scale: d_i * x_i**(m-1)
        # against max(-q_i, 0).  (On x itself, a slack of 5e-9 can leave an
        # error above 1e-8 where the slack is flat.)
        diag = item.data["diag"]
        gap = np.abs(diag * x ** (m - 1) - np.maximum(-q, 0.0))
        if np.any(gap > TCP_TOL + REL_SLACK * np.abs(q)):
            problems.append(f"diagonal tensor: d*x**(m-1) misses max(-q, 0) by {gap.max():.3e}")
    if "certificate" in record:
        cert = record["certificate"]
        n = arr.shape[0]
        diag = arr[(np.arange(n),) * m]
        lb_inf = float(np.maximum(-q, 0.0).max()) / (n ** (m - 1) * float(diag.max()))
        if not cert["holds"]:
            problems.append("verify_solution_bounds: bounds do not hold")
        if not close(cert["lb_inf"], lb_inf) or not lb_inf < float(np.abs(x).max()) ** (m - 1) + 1e-12:
            problems.append("max-norm lower bound fails on recomputation")
    if record.get("bounded") is False:
        problems.append("boundedness_probe: strict member reported unbounded")
    return problems


CHECKS = {
    "cli_structure": check_cli,
    "norm_sandwich": check_norm,
    "eigen_search": check_eigen,
    "tcp_solve": check_tcp,
}
