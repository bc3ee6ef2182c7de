"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints
one pass/fail line.  The randomized suites are seeded and were verified
green at these seeds; zero failures are tolerated within each criterion.
"""
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from btensor import (
    Tensor,
    classify,
    estimate_norm,
    eigenvalue_bounds,
    f_norm_bounds,
    find_h_eigenpairs,
    find_z_eigenpairs,
    general_upper_bound,
    membership_diagnostics,
    random_b0_tensor,
    random_b_tensor,
    semipositivity_certificate,
    solution_lower_bounds,
    t_norm_bounds,
    tcp_solve,
    verify_solution_bounds,
)
from btensor.tcp import TcpInstance

from oracles import grid_min_residual, naive_contract

INF = math.inf
B_SUITE_SEED = 1107
B0_SUITE_SEED = 2203
EIGEN_SUITE_SEED = 3301
TCP_SUITE_SEED = 4409

_cache = {}


def b_suite():
    """The 200 strict-class tensors shared by criteria 3 and 4."""
    if "b" not in _cache:
        rng = np.random.default_rng(B_SUITE_SEED)
        combos = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)]
        _cache["b"] = [random_b_tensor(*combos[i % 6], rng) for i in range(200)]
    return _cache["b"]


def b0_suite():
    if "b0" not in _cache:
        rng = np.random.default_rng(B0_SUITE_SEED)
        combos = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)]
        _cache["b0"] = [random_b0_tensor(*combos[i % 6], rng) for i in range(100)]
    return _cache["b0"]


def report(number, ok, detail):
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_first_example_goldens(ex41):
    started = time.perf_counter()
    verdict = classify(ex41).verdict
    row_err = float(np.max(np.abs(classify(ex41).row_sums - np.array([57.0, 55.5, 54.5]))))
    _, b_upper = t_norm_bounds(ex41, INF, "B")
    general = general_upper_bound(ex41, "T", INF)
    elapsed = time.perf_counter() - started
    ok = (
        verdict == "B"
        and row_err <= 1e-9
        and abs(b_upper - 54.0) <= 1e-9
        and abs(general - 57.0) <= 1e-9
        and b_upper < general
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"verdict={verdict}, row_err={row_err:.1e}, {b_upper} < {general}, {elapsed:.3f}s",
    )


def test_criterion_2_second_example_goldens(ex42):
    started = time.perf_counter()
    verdict = classify(ex42).verdict
    row_err = float(
        np.max(np.abs(classify(ex42).row_sums - np.array([65.7, 65.5, 64.5, 65.1])))
    )
    ok = verdict == "B" and row_err <= 1e-9
    details = []
    for p in (1.0, 2.0, 4.0):
        _, b_upper = t_norm_bounds(ex42, p, "B")
        general = general_upper_bound(ex42, "T", p)
        floor = 64.0 * 4.0 ** (3.0 / p)
        ok = ok and abs(b_upper - 48.0) <= 1e-9 and general >= floor - 1e-9 and b_upper < general
        details.append(f"p={p:g}: 48 < {general:.1f} (floor {floor:.1f})")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report(2, ok, f"verdict={verdict}, row_err={row_err:.1e}, " + "; ".join(details) + f", {elapsed:.3f}s")


def test_criterion_3_structure_properties():
    started = time.perf_counter()
    failures = 0
    for tensor in b_suite():
        if classify(tensor).verdict != "B":
            failures += 1
            continue
        if not membership_diagnostics(tensor, strict=True).all_hold():
            failures += 1
        if semipositivity_certificate(tensor, "strict", 8).violated:
            failures += 1
    for tensor in b0_suite():
        if classify(tensor).verdict != "B0":
            failures += 1
            continue
        if not membership_diagnostics(tensor, strict=False).all_hold():
            failures += 1
        if semipositivity_certificate(tensor, "weak", 8).violated:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 60.0
    report(3, ok, f"200 strict + 100 non-strict members, failures={failures}, {elapsed:.1f}s")


def test_criterion_4_norm_sandwich():
    started = time.perf_counter()
    violations = 0
    checked = 0
    for index, tensor in enumerate(b_suite()):
        operators = ["T"] if tensor.order % 2 else ["T", "F"]
        for operator in operators:
            for p in (INF, 1.0, 2.0):
                general = general_upper_bound(tensor, operator, p)
                bounds = t_norm_bounds if operator == "T" else f_norm_bounds
                lower, upper = bounds(tensor, p, "B")
                estimate, _ = estimate_norm(
                    tensor, operator, p, samples=64, ascent_steps=20, seed=index
                )
                checked += 1
                if not (lower <= estimate <= min(general, upper) and lower < upper):
                    violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 60.0
    report(4, ok, f"{checked} brackets, violations={violations}, {elapsed:.1f}s")


def test_criterion_5_eigen_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(EIGEN_SUITE_SEED)
    failures = 0
    pair_count = 0
    for index in range(100):
        dim = 2 if index % 2 == 0 else 3
        tensor = random_b_tensor(4, dim, rng)
        bounds = eigenvalue_bounds(tensor, "B")
        h_pairs = find_h_eigenpairs(tensor, starts=64, seed=index)
        z_pairs = find_z_eigenpairs(tensor, starts=64, seed=index)
        pair_count += len(h_pairs) + len(z_pairs)
        for pair in h_pairs:
            defect = naive_contract(tensor, pair.vector) - pair.value * pair.vector**3
            if float(np.linalg.norm(defect)) > 1e-8 or not abs(pair.value) < bounds.h_bound:
                failures += 1
        for pair in z_pairs:
            defect = naive_contract(tensor, pair.vector) - pair.value * pair.vector
            if float(np.linalg.norm(defect)) > 1e-8 or not abs(pair.value) < bounds.z_bound:
                failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and pair_count > 0 and elapsed < 60.0
    report(5, ok, f"100 tensors, {pair_count} pairs re-verified, failures={failures}, {elapsed:.1f}s")


def test_criterion_6_tcp_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(TCP_SUITE_SEED)
    combos = [(3, 2), (3, 3), (4, 2), (4, 3)]
    converged = 0
    bound_failures = 0
    grid_failures = 0
    for index in range(100):
        order, dim = combos[index % 4]
        tensor = random_b_tensor(order, dim, rng)
        q = rng.uniform(-1.0, 1.0, dim)
        q[int(rng.integers(dim))] = -abs(float(rng.uniform(0.2, 1.0)))
        outcome = tcp_solve(TcpInstance(tensor, q), starts=16, tol=1e-8, seed=index)
        if not outcome.converged:
            continue
        converged += 1
        if outcome.x.any():
            certificate = verify_solution_bounds(tensor, q, outcome)
            margin_checks = [
                (certificate.lb_inf, np.max(np.abs(outcome.x)) ** (order - 1)),
                (certificate.lb_2, float(np.linalg.norm(outcome.x)) ** (order - 1)),
            ]
            if certificate.lb_m is not None:
                m_norm = float(np.sum(np.abs(outcome.x) ** order) ** (1 / order))
                margin_checks.append((certificate.lb_m, m_norm ** (order - 1)))
            if not all(attained - bound >= -1e-12 for bound, attained in margin_checks):
                bound_failures += 1
        if (order, dim) == (3, 2):
            certificate = solution_lower_bounds(tensor, q)
            radius = 1.0 + max(certificate.lb_inf, certificate.lb_2) ** 0.5
            if outcome.residual > grid_min_residual(tensor, q, radius):
                grid_failures += 1

    diag_failures = 0
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        order = int(rng.choice([3, 4]))
        diag = rng.uniform(0.5, 4.0, dim)
        tensor = Tensor.diagonal_tensor(order, dim, diag)
        q = rng.uniform(-2.0, 2.0, dim)
        outcome = tcp_solve(TcpInstance(tensor, q))
        closed_form = (np.maximum(-q, 0.0) / diag) ** (1.0 / (order - 1))
        if not outcome.converged or np.max(np.abs(outcome.x - closed_form)) > 1e-8:
            diag_failures += 1

    elapsed = time.perf_counter() - started
    ok = (
        converged >= 95
        and bound_failures == 0
        and grid_failures == 0
        and diag_failures == 0
        and elapsed < 300.0
    )
    report(
        6,
        ok,
        f"{converged}/100 converged, bound_failures={bound_failures}, "
        f"grid_failures={grid_failures}, diag_failures={diag_failures}, {elapsed:.1f}s",
    )


def test_criterion_7_determinism():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "btensor", "verify-paper", "--seed", "7"],
            capture_output=True,
            env=env,
            check=False,
        )
        for _ in range(2)
    ]
    identical = runs[0].stdout == runs[1].stdout and runs[0].stdout
    clean = runs[0].returncode == 0 and json.loads(runs[0].stdout)["failures"] == 0
    report(7, bool(identical and clean), f"byte-identical={bool(identical)}, exit={runs[0].returncode}")
