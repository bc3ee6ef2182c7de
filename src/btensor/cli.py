"""Command line entry point.

Every subcommand reads tensors from JSON files, writes a JSON report to
stdout, and keeps human-readable notes on stderr, so the output composes
in pipelines.  Exit codes: 0 success, 1 verification failure, 2 usage or
input error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__

# Each handler imports the library modules it uses when it runs, so that
# ``import btensor.cli`` loads no other btensor module.  The argument parser
# is built at the first ``main`` call and reused by every later one.

GOLDEN_TOL = 1e-9


def _default_seed(value) -> int:
    """The seed of ``--seed``, else of ``BTENSOR_SEED``, else 0; ValueError names the source of
    one that is not a non-negative integer."""
    env = os.environ.get("BTENSOR_SEED") or "0"
    source, text = ("--seed", value) if value is not None else ("BTENSOR_SEED", env)
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {text!r}")
    return seed


def _load(path: str):
    from .tensorio import load_tensor

    return load_tensor(path)


def _parse_vector(text: str, dim: int) -> np.ndarray:
    try:
        values = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"vector is not valid JSON: {exc.msg}") from exc
    except RecursionError:
        raise ValueError("vector is nested too deeply to decode") from None
    try:
        vec = np.asarray(values, dtype=float)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"vector must be a JSON list of numbers: {exc}") from exc
    if vec.shape != (dim,):
        raise ValueError(f"vector must have length {dim}, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError("vector entries must be finite")
    return vec


def _non_finite(value, path: str = ""):
    """``(path, value)`` of the first non-finite float in a JSON-ready value, keys in sorted order, else None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (path, value)
    if isinstance(value, dict):
        children = ((f"{path}.{key}" if path else str(key), value[key]) for key in sorted(value))
    elif isinstance(value, (list, tuple)):
        children = ((f"{path}[{index}]", item) for index, item in enumerate(value))
    else:
        return None
    for child_path, child in children:
        found = _non_finite(child, child_path)
        if found:
            return found
    return None


def _to_json(payload: dict) -> str:
    """The report as JSON; a non-finite number raises ValueError naming its field."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        found = _non_finite(payload)
        if found is None:
            raise
        path, value = found
        raise ValueError(f"{path} is {value}: a non-finite number has no JSON form") from None


def _emit(payload: dict, note: str = "") -> None:
    print(_to_json(payload))
    if note:
        print(note, file=sys.stderr)


def _write_manifest(args, payload: dict, started: float) -> None:
    if not getattr(args, "manifest", None):
        return
    import hashlib

    hashes = {}
    for path in [args.file] if hasattr(args, "file") else []:
        with open(path, "rb") as handle:
            hashes[path] = hashlib.sha256(handle.read()).hexdigest()
    manifest = {
        "command": " ".join(args._argv),
        "input_hashes": hashes,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_clock_ms": round(1000.0 * (time.perf_counter() - started), 3),
        "payload": payload,
    }
    with open(args.manifest, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _cmd_classify(args) -> tuple[int, dict]:
    from . import structure

    tensor = _load(args.file)
    report = structure.classify(tensor, tol=args.tol)
    payload = report.to_dict()
    if report.verdict != "Neither":
        payload["diagnostics"] = structure.membership_diagnostics(tensor, report.verdict == "B", report).to_dict()
    _emit(payload, f"verdict: {report.verdict}")
    return 0, payload


def _cmd_semipositive(args) -> tuple[int, dict]:
    from .structure import semipositivity_certificate

    tensor = _load(args.file)
    certificate = semipositivity_certificate(tensor, mode=args.mode, resolution=args.grid)
    note = "violated" if certificate.violated else "no violation found"
    payload = certificate.to_dict()
    _emit(payload, f"{args.mode} semi-positivity at grid {args.grid}: {note}")
    return (1 if certificate.violated else 0), payload


def _cmd_bounds(args) -> tuple[int, dict]:
    from .opnorms import bound_report, closed_form_report

    tensor = _load(args.file)
    p = math.inf if args.norm == "inf" else float(args.p)
    if args.estimate:
        report = bound_report(
            tensor, args.op, p, samples=args.samples, ascent_steps=args.steps, seed=args.seed
        )
    else:
        report = closed_form_report(tensor, args.op, p)
    payload = report.to_dict()
    if args.format == "csv":
        fields = [f for f in payload if f != "estimate_witness"]  # the report's order; a vector has no cell
        print(",".join(fields))
        print(",".join("" if payload[f] is None else str(payload[f]) for f in fields))
    else:
        _emit(payload)
    return 0, payload


def _cmd_eigen(args) -> tuple[int, dict]:
    from .spectral import find_h_eigenpairs, find_z_eigenpairs, verify_eigen_bounds
    from .structure import require_membership

    tensor = _load(args.file)
    if args.kind == "h":
        pairs = find_h_eigenpairs(tensor, starts=args.starts, seed=args.seed)
    else:
        pairs = find_z_eigenpairs(tensor, starts=args.starts, seed=args.seed)
    payload = {"kind": args.kind, "pairs": [pair.to_dict() for pair in pairs]}
    exit_code = 0
    if args.verify_bounds:
        membership = require_membership(tensor, "B0")
        report = verify_eigen_bounds(tensor, pairs, membership.verdict, membership)
        payload["bound_report"] = report.to_dict()
        if not report.all_within:
            exit_code = 1
    _emit(payload, f"found {len(pairs)} {args.kind}-pairs")
    return exit_code, payload


def _cmd_tcp(args) -> tuple[int, dict]:
    from .tcp import TcpInstance, outcome_at, solution_lower_bounds, solve, verify_solution_bounds

    tensor = _load(args.file)
    q = _parse_vector(args.q, tensor.dim)
    instance = TcpInstance(tensor, q)
    if args.tcp_command == "solve":
        outcome = solve(instance, starts=args.starts, tol=args.tol, seed=args.seed)
        payload = outcome.to_dict()
        _emit(payload, f"converged: {outcome.converged} (residual {outcome.residual:.3e})")
        return (0 if outcome.converged else 1), payload
    if args.tcp_command == "bounds":
        certificate = solution_lower_bounds(tensor, q)
        payload = certificate.to_dict()
        _emit(payload)
        return 0, payload
    outcome = outcome_at(instance, _parse_vector(args.x, tensor.dim), args.tol)
    certificate = verify_solution_bounds(tensor, q, outcome)
    payload = certificate.to_dict()
    payload["residual"] = outcome.residual
    _emit(payload, f"bounds hold: {certificate.holds}")
    return (0 if certificate.holds else 1), payload


def _cmd_gen(args) -> tuple[int, dict]:
    from .core import Tensor
    from .structure import random_b0_tensor, random_b_tensor, random_tensor
    from .tensorio import check_entry_budget, dump_tensor, dumps_tensor

    check_entry_budget(args.m, args.n)
    if args.kind == "diagonal":
        tensor = Tensor.diagonal_tensor(args.m, args.n)
    else:
        # The B and B0 generators' tensors classify as their kind by construction.
        generate = {"B": random_b_tensor, "B0": random_b0_tensor, "random": random_tensor}[args.kind]
        tensor = generate(args.m, args.n, np.random.default_rng(args.seed))
    if args.out:
        dump_tensor(tensor, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(dumps_tensor(tensor))
    return 0, {}


def _paper_claims(seed: int):
    """Golden checks for the two bundled tensors; returns (name, ok, detail) triples."""
    from .datasets import load_example
    from .opnorms import closed_form_report, estimate_norm
    from .spectral import find_h_eigenpairs, find_z_eigenpairs, verify_eigen_bounds
    from .structure import classify, random_b_tensor
    from .tcp import TcpInstance, solve, verify_solution_bounds
    from .tensorio import dumps_tensor

    ex41 = load_example("ex41")
    ex42 = load_example("ex42")
    claims = []

    def claim(name, ok, detail):
        claims.append({"name": name, "ok": bool(ok), "detail": detail})

    report41 = classify(ex41)
    claim("ex41-classification", report41.verdict == "B", f"verdict={report41.verdict}")
    target41 = np.array([57.0, 55.5, 54.5])
    err = float(np.max(np.abs(report41.row_sums - target41)))
    claim("ex41-row-sums", err <= GOLDEN_TOL, f"max_err={err:.3e}")
    beta_ok = bool(np.array_equal(report41.beta, np.array([2.0, 2.0, 2.0])))
    claim("ex41-offdiag-caps", beta_ok, f"beta={report41.beta.tolist()}")

    t41 = closed_form_report(ex41, "T", math.inf, report41)
    lower41, upper41, general41 = t41.b_lower, t41.b_upper, t41.general_upper
    ok = abs(upper41 - 54.0) <= GOLDEN_TOL and abs(general41 - 57.0) <= GOLDEN_TOL and upper41 < general41
    claim("ex41-T-inf-upper-tighter", ok, f"b_upper={upper41}, general={general41}")

    f41 = closed_form_report(ex41, "F", 1.0, report41)
    claim(
        "ex41-F-1-upper-tighter",
        f41.b_upper < f41.general_upper,
        f"b_upper={f41.b_upper:.6f}, general={f41.general_upper:.6f}",
    )

    estimate41, _ = estimate_norm(ex41, "T", math.inf, samples=64, ascent_steps=25, seed=seed)
    ok = lower41 <= estimate41 <= min(general41, upper41) + GOLDEN_TOL
    claim("ex41-T-inf-sandwich", ok, f"{lower41:.6f} <= {estimate41:.6f} <= {min(general41, upper41)}")

    report42 = classify(ex42)
    claim("ex42-classification", report42.verdict == "B", f"verdict={report42.verdict}")
    target42 = np.array([65.7, 65.5, 64.5, 65.1])
    err = float(np.max(np.abs(report42.row_sums - target42)))
    claim("ex42-row-sums", err <= GOLDEN_TOL, f"max_err={err:.3e}")

    for p in (1.0, 2.0, 4.0):
        t42 = closed_form_report(ex42, "T", p, report42)
        upper42, general42 = t42.b_upper, t42.general_upper
        floor = 64.0 * 4.0 ** (3.0 / p)
        ok = abs(upper42 - 48.0) <= GOLDEN_TOL and general42 >= floor - GOLDEN_TOL and upper42 < general42
        claim(
            f"ex42-T-p{p:g}-upper-48",
            ok,
            f"b_upper={upper42:.9f}, general={general42:.4f}, floor={floor:.4f}",
        )

    h_pairs = find_h_eigenpairs(ex41, starts=16, seed=seed)
    z_pairs = find_z_eigenpairs(ex41, starts=16, seed=seed)
    eigen_report = verify_eigen_bounds(ex41, h_pairs + z_pairs, "B", report41)
    claim(
        "ex41-eigen-bounds",
        eigen_report.all_within and eigen_report.pairs_checked > 0,
        f"pairs={eigen_report.pairs_checked}, max|h|={eigen_report.max_abs_h:.4f} "
        f"< {eigen_report.h_bound:.4f}, max|z|={eigen_report.max_abs_z:.4f} < {eigen_report.z_bound}",
    )

    q = np.array([-1.0, -1.0, -1.0])
    outcome = solve(TcpInstance(ex41, q), seed=seed)
    ok = outcome.converged
    detail = f"converged={outcome.converged}, residual={outcome.residual:.3e}"
    if ok:
        certificate = verify_solution_bounds(ex41, q, outcome, report41)
        ok = bool(certificate.holds)
        detail += f", bounds_hold={certificate.holds}"
    claim("ex41-tcp-lower-bounds", ok, detail)

    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    bytes_a = dumps_tensor(random_b_tensor(4, 3, rng_a))
    bytes_b = dumps_tensor(random_b_tensor(4, 3, rng_b))
    claim("generator-determinism", bytes_a == bytes_b, f"identical={bytes_a == bytes_b}")
    return claims


def _cmd_verify_paper(args) -> tuple[int, dict]:
    claims = _paper_claims(args.seed)
    failures = sum(1 for c in claims if not c["ok"])
    for c in claims:
        status = "PASS" if c["ok"] else "FAIL"
        print(f"{status} {c['name']}: {c['detail']}", file=sys.stderr)
    print(f"done: {len(claims)} claims, {failures} failures", file=sys.stderr)
    payload = {"claims": claims, "failures": failures, "seed": args.seed}
    print(_to_json(payload))
    return (1 if failures else 0), payload


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, shared by every ``main`` call; callers must not modify it."""
    parser = argparse.ArgumentParser(prog="btensor", description=__doc__)
    parser.add_argument("--manifest", help="write a run manifest (inputs, seed, payload) to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classification report for a tensor file")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=0.0, help="margin required on strict inequalities")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("semipositive", help="sampled semi-positivity certificate")
    p.add_argument("file")
    p.add_argument("--mode", choices=("strict", "weak"), default="strict")
    p.add_argument("--grid", type=int, default=8, help="simplex lattice resolution")
    p.set_defaults(func=_cmd_semipositive)

    p = sub.add_parser("bounds", help="operator norm bounds, optionally with an empirical estimate")
    p.add_argument("file")
    p.add_argument("--op", choices=("T", "F"), required=True)
    p.add_argument("--norm", choices=("inf", "p"), default="inf")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--estimate", action="store_true")
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("eigen", help="multistart eigenpair search")
    p.add_argument("file")
    p.add_argument("--kind", choices=("h", "z"), required=True)
    p.add_argument("--starts", type=int, default=64)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--verify-bounds", action="store_true")
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("tcp", help="complementarity solving and solution bounds")
    tcp_sub = p.add_subparsers(dest="tcp_command", required=True)
    for name in ("solve", "bounds", "verify"):
        sp = tcp_sub.add_parser(name)
        sp.add_argument("file")
        sp.add_argument("--q", required=True, help="JSON vector, e.g. \"[-1,-1,-1]\"")
        if name == "solve":
            sp.add_argument("--starts", type=int, default=16)
            sp.add_argument("--seed", type=int, default=None)
        if name != "bounds":
            sp.add_argument("--tol", type=float, default=1e-8)
        if name == "verify":
            sp.add_argument("--x", required=True, help="candidate solution as a JSON vector")
        sp.set_defaults(func=_cmd_tcp)

    p = sub.add_parser("gen", help="emit a generated tensor as JSON")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("B", "B0", "diagonal", "random"), default="B")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify-paper", help="run the bundled-example golden suite")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args._argv = ["btensor"] + argv
    started = time.perf_counter()
    try:
        if hasattr(args, "seed"):
            args.seed = _default_seed(args.seed)
        code, payload = args.func(args)
        sys.stdout.flush()
        _write_manifest(args, payload, started)
    except BrokenPipeError:
        # The reader closed stdout early; as Python's signal docs advise, point it at devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # Only opnorms raises SandwichViolation, so it is loaded whenever one is caught.
        opnorms = sys.modules.get(f"{__package__}.opnorms")
        if opnorms is None or not isinstance(exc, opnorms.SandwichViolation):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
