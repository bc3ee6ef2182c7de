"""Tensor complementarity: find x >= 0 with w = q + contract(A, x) >= 0 and x.w = 0.

The solver runs :func:`core.damped_newton` on the natural residual
``min(x, w)`` (semismooth, with projection onto the nonnegative orthant and
face-recovery restarts) from a small deterministic multistart.  ``solve``
tries its starts one at a time, as one-row stacks, and keeps the first that
converges; the boundedness probe runs each radius's starts as one stack and
then recovers faces start by start.  For strict-class tensors the solution
set is nonempty and bounded, and every nonzero solution obeys closed-form
lower bounds driven by the positive part of ``-q`` and the diagonal entries;
this module computes those certificates and verifies them against solver
output.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    Tensor,
    contract,
    contract_batch,
    contraction_jacobian,
    damped_newton,
    vector_norm,
    vector_power,
)
from .structure import require_membership

__all__ = [
    "TcpInstance",
    "TcpOutcome",
    "SolutionBoundCertificate",
    "residual",
    "solve",
    "solution_lower_bounds",
    "verify_solution_bounds",
    "boundedness_probe",
]

logger = logging.getLogger(__name__)

DEFAULT_STARTS = 16
DEFAULT_MAX_ITER = 200
DEFAULT_TOL = 1e-8
NEAR_TIE_SLACK = 1e-12


@dataclass(frozen=True)
class TcpInstance:
    tensor: Tensor
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (self.tensor.dim,):
            raise ValueError(f"q must have length {self.tensor.dim}, got shape {q.shape}")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class TcpOutcome:
    x: np.ndarray
    w: np.ndarray
    residual: float
    converged: bool
    starts_used: int

    def to_dict(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "w": [float(v) for v in self.w],
            "residual": self.residual,
            "converged": self.converged,
            "starts_used": self.starts_used,
        }


def residual(instance: TcpInstance, x) -> tuple[float, np.ndarray]:
    """Natural residual ``max |min(x, w)|`` and the slack w at x."""
    x = np.asarray(x, dtype=float)
    w = instance.q + contract(instance.tensor, x)
    return float(np.max(np.abs(np.minimum(x, w)))), w


def _face_recovery(instance: TcpInstance, x: np.ndarray):
    """Restart point for a projected Newton blocked at a face.

    Take the most negative slack coordinate and grow it alone until the
    slack changes sign (the positive diagonal of the structured class
    guarantees it eventually does), then bisect to the sign change.  The
    residual may transiently increase; the caller judges the restart by
    where Newton lands from it.
    """
    tensor, q = instance.tensor, instance.q
    w = q + contract(tensor, x)
    for i in np.argsort(w):
        if w[i] >= 0:
            return None
        lo = float(x[i])
        hi = max(2.0 * lo, 1e-3)
        candidate = x.copy()
        for _ in range(60):
            candidate[i] = hi
            if (q + contract(tensor, candidate))[i] >= 0:
                break
            lo, hi = hi, 2.0 * hi
        else:
            continue
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            candidate[i] = mid
            if (q + contract(tensor, candidate))[i] >= 0:
                hi = mid
            else:
                lo = mid
        candidate[i] = hi
        return candidate
    return None


def _monotone_newton(instance: TcpInstance, x0: np.ndarray, max_iter: int, tol: float):
    """Damped semismooth Newton with projection on a (k, n) stack of starts; stops at stalls.

    Returns the (k, n) points and their (k,) residuals.
    """
    tensor, q = instance.tensor, instance.q
    identity = np.eye(tensor.dim)

    def evaluate(x):
        x = np.maximum(x, 0.0)
        phi = np.minimum(x, q + contract_batch(tensor, x))
        return x, phi, np.abs(phi).max(axis=1)

    def jacobian(x, phi):
        # Rows where min(x, w) picks x (x <= w) differentiate to the identity, the rest to w's.
        return np.where((phi == x)[:, :, None], identity, contraction_jacobian(tensor, x))

    x, _, res = damped_newton(evaluate, jacobian, x0, max_iter, tol, 1e-12)
    return x, res


def _newton_from(instance: TcpInstance, x0: np.ndarray, max_iter: int, tol: float):
    """Semismooth Newton from a (k, n) stack of starts; returns one (x, residual) per start.

    One monotone pass advances all starts together; face-recovery restarts
    then follow start by start.
    """
    results = []
    for x, res in zip(*_monotone_newton(instance, x0, max_iter, tol)):
        res = float(res)
        for _ in range(8):
            if res <= tol:
                break
            restart = _face_recovery(instance, x)
            if restart is None:
                break
            [x_new], [res_new] = _monotone_newton(instance, restart[None], max_iter, tol)
            if res_new >= res:
                break
            x, res = x_new, float(res_new)
        results.append((x, res))
    return results


def _start_points(instance: TcpInstance, starts: int, seed: int):
    """The starts, made as they are asked for: 0.5, 1 and 2 times the base point, then seeded draws."""
    tensor, q = instance.tensor, instance.q
    base = vector_power(np.maximum(-q, 0.0), 1.0 / (tensor.order - 1))
    yield from [0.5 * base, base, 2.0 * base][:starts]
    rng = np.random.default_rng(seed)
    scale = 1.0 + float(base.max(initial=0.0))
    for _ in range(starts - 3):
        yield rng.uniform(0.0, scale, size=tensor.dim)


def solve(
    instance: TcpInstance,
    starts: int = DEFAULT_STARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> TcpOutcome:
    """Multistart semismooth Newton solve.

    Returns the first start that reaches the tolerance, otherwise the best
    point found (smallest residual, ties broken by lexicographically
    smallest x).  Non-convergence is reported, not raised.
    """
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    best: Optional[tuple[np.ndarray, float]] = None
    for used, x0 in enumerate(_start_points(instance, starts, seed), start=1):
        [(x, res)] = _newton_from(instance, x0[None], max_iter, tol)
        if res <= tol:
            best = (x, res)
            break
        if best is None or res < best[1] or (res == best[1] and tuple(x) < tuple(best[0])):
            best = (x, res)
    x, res = best
    w = instance.q + contract(instance.tensor, x)
    return TcpOutcome(x=x, w=w, residual=res, converged=res <= tol, starts_used=used)


@dataclass(frozen=True)
class SolutionBoundCertificate:
    """Lower bounds on ``norm(x) ** (m-1)`` for any nonzero solution x.

    ``lb_inf`` and ``lb_2`` use the max and 2 norms; ``lb_m`` uses the
    m-norm and exists only for even order.  All are zero when q >= 0.
    """

    q_plus_neg: np.ndarray  # componentwise max(-q, 0)
    lb_inf: float
    lb_2: float
    lb_m: Optional[float]
    holds: Optional[bool] = None

    def to_dict(self) -> dict:
        return {
            "q_plus_neg": [float(v) for v in self.q_plus_neg],
            "lb_inf": self.lb_inf,
            "lb_2": self.lb_2,
            "lb_m": self.lb_m,
            "holds": self.holds,
        }


def solution_lower_bounds(tensor: Tensor, q) -> SolutionBoundCertificate:
    """Closed-form certificate for a strict-class tensor."""
    require_membership(tensor, "B")
    q = np.asarray(q, dtype=float)
    if q.shape != (tensor.dim,):
        raise ValueError(f"q must have length {tensor.dim}, got shape {q.shape}")
    m, n = tensor.order, tensor.dim
    diag = tensor.diagonal
    neg = np.maximum(-q, 0.0)
    lb_inf = vector_norm(neg, math.inf) / (n ** (m - 1) * diag.max())
    lb_2 = vector_norm(neg, 2) / (n ** ((m - 1) / 2) * math.sqrt(float(np.sum(diag**2))))
    lb_m = None
    if m % 2 == 0:
        denom = n ** ((m - 1) ** 2 / m) * float(np.sum(diag ** (m / (m - 1)))) ** ((m - 1) / m)
        lb_m = vector_norm(neg, m) / denom
    return SolutionBoundCertificate(q_plus_neg=neg, lb_inf=lb_inf, lb_2=lb_2, lb_m=lb_m)


def verify_solution_bounds(tensor: Tensor, q, outcome: TcpOutcome) -> SolutionBoundCertificate:
    """Check a converged nonzero solution against the certificate.

    The bounds are strict; at floating precision an exact tie is
    indistinguishable from strictness, so each comparison carries a
    ``NEAR_TIE_SLACK`` allowance and near ties are logged rather than
    failed.
    """
    if not outcome.converged:
        raise ValueError("outcome did not converge; bounds apply to solutions only")
    x = np.asarray(outcome.x, dtype=float)
    if not x.any():
        raise ValueError("bounds apply to nonzero solutions; got x = 0")
    certificate = solution_lower_bounds(tensor, q)
    m = tensor.order
    checks = [
        ("inf", certificate.lb_inf, vector_norm(x, math.inf) ** (m - 1)),
        ("2", certificate.lb_2, vector_norm(x, 2) ** (m - 1)),
    ]
    if certificate.lb_m is not None:
        checks.append(("m", certificate.lb_m, vector_norm(x, m) ** (m - 1)))
    holds = True
    for name, bound, attained in checks:
        if abs(bound - attained) <= NEAR_TIE_SLACK:
            logger.warning("near tie on the %s-norm bound: %r vs %r", name, bound, attained)
        if not bound < attained + NEAR_TIE_SLACK:
            holds = False
    return replace(certificate, holds=holds)


def boundedness_probe(
    tensor: Tensor,
    q,
    radius_schedule=(1.0, 10.0, 100.0),
    starts: int = 8,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Falsification probe of solution-set boundedness.

    Solves from random starts scaled to each radius and reports True when
    every converged solution stays within 10x the smallest radius at which
    the solution set stops changing.
    """
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    require_membership(tensor, "B")
    instance = TcpInstance(tensor, q)
    rng = np.random.default_rng(seed)
    per_radius: list[list[np.ndarray]] = []
    for radius in radius_schedule:
        found: list[np.ndarray] = []
        x0 = np.array([rng.uniform(0.0, float(radius), size=tensor.dim) for _ in range(starts)])
        for x, res in _newton_from(instance, x0, DEFAULT_MAX_ITER, tol):
            if res <= tol and not any(np.max(np.abs(x - y)) <= 1e-6 for y in found):
                found.append(x)
        per_radius.append(found)

    def same(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
        return len(a) == len(b) and all(
            any(np.max(np.abs(x - y)) <= 1e-6 for y in b) for x in a
        )

    stable_radius = float(radius_schedule[-1])
    for k in range(1, len(per_radius)):
        if same(per_radius[k - 1], per_radius[k]):
            stable_radius = float(radius_schedule[k - 1])
            break
    all_solutions = [x for found in per_radius for x in found]
    return all(float(np.max(np.abs(x))) < 10.0 * stable_radius for x in all_solutions)
