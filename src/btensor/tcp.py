"""Tensor complementarity: find x >= 0 with w = q + contract(A, x) >= 0 and x.w = 0.

The solver runs :func:`core.damped_newton` on the natural residual
``min(x, w)`` (semismooth, with projection onto the nonnegative orthant) on
a stack of starts, then face-recovery restarts, each round stacked over the
starts still unsolved.  ``solve`` runs its first start alone and, only if
that fails, all its other starts as one stack, keeping the first in start
order that converges; the boundedness probe runs the starts of every radius
as one stack.  For strict-class tensors the solution set is nonempty and
bounded, and every nonzero solution obeys closed-form lower bounds driven by
the positive part of ``-q`` and the diagonal entries; this module computes
those certificates and verifies them against solver output.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    Report,
    Tensor,
    contract,
    contract_batch,
    contraction_jacobian,
    damped_newton,
    vector_norm,
)
from .structure import require_membership

__all__ = [
    "TcpInstance",
    "TcpOutcome",
    "SolutionBoundCertificate",
    "residual",
    "outcome_at",
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
PROBE_RADII = (1.0, 10.0, 100.0)


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
class TcpOutcome(Report):
    x: np.ndarray
    w: np.ndarray
    residual: float
    converged: bool
    starts_used: int


def residual(instance: TcpInstance, x) -> tuple[float, np.ndarray]:
    """Natural residual ``max |min(x, w)|`` and the slack w at x."""
    x = np.asarray(x, dtype=float)
    w = instance.q + contract(instance.tensor, x)
    return float(np.max(np.abs(np.minimum(x, w)))), w


def outcome_at(instance: TcpInstance, x, tol: float, starts_used: int = 0) -> TcpOutcome:
    """The :class:`TcpOutcome` of the point x: its residual and slack, converged when the
    residual is within ``tol``."""
    res, w = residual(instance, x)
    x = np.asarray(x, dtype=float)
    return TcpOutcome(x=x, w=w, residual=res, converged=res <= tol, starts_used=starts_used)


def _face_recovery(instance: TcpInstance, x: np.ndarray):
    """Restarts for projected Newton rows blocked at a face: ``(restarts, has_restart)`` of a (k, n) stack.

    Each row grows its most negative slack coordinate alone until the slack there changes sign
    (the positive diagonal of the structured class guarantees it eventually does): up to 60
    doubling steps, then 40 bisection steps; if it never turns, the next negative coordinate in
    ``argsort`` order.  The rows step together, one :func:`contract_batch` call per step, each as
    it would alone.  The residual may rise; the caller judges a restart by where Newton lands.
    """
    tensor, q = instance.tensor, instance.q
    w = q + contract_batch(tensor, x)
    order = np.argsort(w, axis=1)
    restarts, has_restart = x.copy(), np.zeros(len(x), dtype=bool)

    def below(rows, cols, values):
        # Whether the slack at cols is not >= 0 (so NaN counts as negative) once x[rows, cols] = values.
        probe, at = x[rows], (np.arange(len(rows)), cols)
        probe[at] = values
        return ~((q[cols] + contract_batch(tensor, probe)[at]) >= 0)

    rows = np.arange(len(x))
    for t in range(tensor.dim):
        rows = rows[~(w[rows, order[rows, t]] >= 0)]
        if not rows.size:
            break
        cols = order[rows, t]
        lo, hi = x[rows, cols], np.maximum(2.0 * x[rows, cols], 1e-3)
        climbing = np.arange(len(rows))
        for _ in range(60):
            climbing = climbing[below(rows[climbing], cols[climbing], hi[climbing])]
            if not climbing.size:
                break
            lo[climbing], hi[climbing] = hi[climbing], 2.0 * hi[climbing]
        turned, cols, lo, hi = (np.delete(a, climbing) for a in (rows, cols, lo, hi))
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = np.where(below(turned, cols, mid), (mid, hi), (lo, mid))
        restarts[turned, cols], has_restart[turned] = hi, True
        rows = rows[climbing]
    return restarts, has_restart


def _monotone_newton(instance: TcpInstance, x0: np.ndarray, tol: float):
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

    x, _, res = damped_newton(evaluate, jacobian, x0, DEFAULT_MAX_ITER, tol, 1e-12)
    return x, res


def _newton_from(instance: TcpInstance, x0: np.ndarray, tol: float):
    """Semismooth Newton from a (k, n) stack of starts; returns the (k, n) points and (k,) residuals.

    After one monotone pass, each of up to eight rounds makes one face recovery and one monotone
    pass over the starts above ``tol``; a start keeps a restart only while it lowers the residual.
    """
    x, res = _monotone_newton(instance, x0, tol)
    rows = np.arange(len(x))
    for _ in range(8):
        rows = rows[~(res[rows] <= tol)]
        if not rows.size:
            break
        restarts, has_restart = _face_recovery(instance, x[rows])
        rows = rows[has_restart]
        x_new, res_new = _monotone_newton(instance, restarts[has_restart], tol)
        better = ~(res_new >= res[rows])
        rows = rows[better]
        x[rows], res[rows] = x_new[better], res_new[better]
    return x, res


def solve(
    instance: TcpInstance,
    starts: int = DEFAULT_STARTS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> TcpOutcome:
    """Multistart semismooth Newton solve.

    The starts are 0.5, 1 and 2 times the base point ``max(-q, 0) ** (1/(m-1))``,
    then seeded uniform draws.  The first start runs alone, as it nearly
    always converges; only when it does not are the other starts drawn, and
    they run as one stack.  Returns the first start, in start order, that
    reaches the tolerance, otherwise the best point found (smallest residual,
    ties broken by lexicographically smallest x).  Non-convergence is
    reported, not raised.
    """
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    tensor, q = instance.tensor, instance.q
    base = np.maximum(-q, 0.0) ** (1.0 / (tensor.order - 1))
    [best], [best_res] = _newton_from(instance, 0.5 * base[None], tol)
    if best_res <= tol or starts == 1:
        return outcome_at(instance, best, tol, 1)
    scale = 1.0 + float(base.max(initial=0.0))
    draws = np.random.default_rng(seed).uniform(0.0, scale, size=(max(starts - 3, 0), tensor.dim))
    x0 = np.vstack([base, 2.0 * base, draws])[: starts - 1]
    for used, (x, res) in enumerate(zip(*_newton_from(instance, x0, tol)), start=2):
        if res <= tol:
            return outcome_at(instance, x, tol, used)
        if res < best_res or (res == best_res and tuple(x) < tuple(best)):
            best, best_res = x, res
    return outcome_at(instance, best, tol, starts)


@dataclass(frozen=True)
class SolutionBoundCertificate(Report):
    """Lower bounds on ``norm(x) ** (m-1)`` for any nonzero solution x.

    ``lb_inf`` and ``lb_2`` use the max and 2 norms; ``lb_m`` uses the
    m-norm and exists only for even order.  All are zero when q >= 0.
    """

    q_plus_neg: np.ndarray  # componentwise max(-q, 0)
    lb_inf: float
    lb_2: float
    lb_m: Optional[float]
    holds: Optional[bool] = None


def solution_lower_bounds(tensor: Tensor, q) -> SolutionBoundCertificate:
    """Closed-form certificate for a strict-class tensor.

    Input too large for a bound in floating point raises ``ValueError`` naming the first such bound,
    with numpy's overflow warnings silenced, as the error says it (else the bound would read 0 or inf).
    """
    require_membership(tensor, "B")
    q = np.asarray(q, dtype=float)
    if q.shape != (tensor.dim,):
        raise ValueError(f"q must have length {tensor.dim}, got shape {q.shape}")
    m, n = tensor.order, tensor.dim
    diag = tensor.diagonal
    neg = np.maximum(-q, 0.0)
    with np.errstate(over="ignore"):
        # (name, numerator, denominator) of each bound.
        parts = [
            ("lb_inf", vector_norm(neg, math.inf), float(n ** (m - 1) * diag.max())),
            ("lb_2", vector_norm(neg, 2), n ** ((m - 1) / 2) * math.sqrt(float(np.sum(diag**2)))),
        ]
        if m % 2 == 0:
            denominator = n ** ((m - 1) ** 2 / m) * float(np.sum(diag ** (m / (m - 1)))) ** ((m - 1) / m)
            parts.append(("lb_m", vector_norm(neg, m), denominator))
    bounds = {"lb_m": None}
    for name, numerator, denominator in parts:
        if not (math.isfinite(numerator) and math.isfinite(denominator)):
            raise ValueError(
                f"{name} overflows (numerator {numerator}, denominator {denominator}): "
                "the input is too large for the closed-form bound"
            )
        bounds[name] = numerator / denominator
    return SolutionBoundCertificate(q_plus_neg=neg, **bounds)


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
            logger.warning("near tie on the %s-norm bound: %r vs %r", name, float(bound), float(attained))
        if not bound < attained + NEAR_TIE_SLACK:
            holds = False
    return replace(certificate, holds=holds)


def boundedness_probe(tensor: Tensor, q, starts: int = 8, seed: int = 0) -> bool:
    """Falsification probe of solution-set boundedness.

    Solves from ``starts`` random starts scaled to each radius of
    ``PROBE_RADII`` (1, 10 and 100), drawn radius by radius and run as one
    stack, and reports True when every solution within ``DEFAULT_TOL`` stays
    within 10x the smallest radius at which the solution set stops changing.
    """
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    require_membership(tensor, "B")
    instance = TcpInstance(tensor, q)
    rng = np.random.default_rng(seed)
    shape = (len(PROBE_RADII), starts, tensor.dim)
    x0 = rng.uniform(0.0, np.array(PROBE_RADII)[:, None, None], size=shape)
    x, res = _newton_from(instance, x0.reshape(-1, tensor.dim), DEFAULT_TOL)
    per_radius: list[list[np.ndarray]] = []
    for points, residuals in zip(x.reshape(shape), res.reshape(shape[:2])):
        found: list[np.ndarray] = []
        for point, r in zip(points, residuals):
            if r <= DEFAULT_TOL and not any(np.max(np.abs(point - y)) <= 1e-6 for y in found):
                found.append(point)
        per_radius.append(found)

    def same(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
        return len(a) == len(b) and all(
            any(np.max(np.abs(x - y)) <= 1e-6 for y in b) for x in a
        )

    stable_radius = PROBE_RADII[-1]
    for k in range(1, len(per_radius)):
        if same(per_radius[k - 1], per_radius[k]):
            stable_radius = PROBE_RADII[k - 1]
            break
    all_solutions = [x for found in per_radius for x in found]
    return all(float(np.max(np.abs(x))) < 10.0 * stable_radius for x in all_solutions)
