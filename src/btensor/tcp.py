"""Tensor complementarity: find x >= 0 with w = q + contract(A, x) >= 0 and x.w = 0.

The solver runs :func:`core.damped_newton` on a stack of starts twice: on the natural residual
``min(x, w)`` (semismooth, with projection onto the nonnegative orthant), then, for the starts
that pass leaves unsolved, on the Fischer-Burmeister residual ``x + w - hypot(x, w)`` from the
same starts.  ``solve`` runs its first start alone and, only if that fails, all its other starts
as one stack, keeping the first in start order that converges; the boundedness probe runs the
starts of every radius as one stack.  For strict-class tensors the solution set is nonempty and
bounded, and every nonzero solution obeys closed-form lower bounds driven by the positive part of
``-q`` and the diagonal entries; this module computes those certificates and verifies them
against solver output.
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


def _fb_newton(instance: TcpInstance, x0: np.ndarray, tol: float):
    """Damped Newton on the Fischer-Burmeister residual ``x + w - hypot(x, w)`` from a (k, n) stack.

    Its merit ``max |phi|`` is at least ``(2 - sqrt 2)`` times the natural residual (De Luca,
    Facchinei & Kanzow 1996), so the tolerance ``tol * (2 - sqrt 2)`` implies a natural residual
    within ``tol``.  Returns the (k, n) points, projected onto x >= 0, and their natural residuals.
    """
    tensor, q = instance.tensor, instance.q

    def evaluate(x):
        w = q + contract_batch(tensor, x)
        phi = x + w - np.hypot(x, w)
        return x, phi, np.abs(phi).max(axis=1)

    def jacobian(x, phi):
        # diag(1 - x/r) + diag(1 - w/r) J, with x/r = w/r = 1/sqrt 2 where r = 0.
        w = q + contract_batch(tensor, x)
        r = np.hypot(x, w)
        x_r, w_r = (np.divide(v, r, out=np.full_like(r, math.sqrt(0.5)), where=r > 0) for v in (x, w))
        jac = (1.0 - w_r)[:, :, None] * contraction_jacobian(tensor, x)
        return jac + (1.0 - x_r)[:, :, None] * np.eye(tensor.dim)

    fb_tol = tol * (2.0 - math.sqrt(2.0))
    x = np.maximum(damped_newton(evaluate, jacobian, x0, DEFAULT_MAX_ITER, fb_tol, 1e-12)[0], 0.0)
    return x, np.abs(np.minimum(x, q + contract_batch(tensor, x))).max(axis=1)


def _newton_from(instance: TcpInstance, x0: np.ndarray, tol: float):
    """Newton from a (k, n) stack of starts; returns the (k, n) points and (k,) residuals.

    One monotone pass on the natural residual; the starts it leaves above ``tol`` then make one
    Fischer-Burmeister pass from where they began, whose point a start keeps only where its
    natural residual is strictly lower.
    """
    x, res = _monotone_newton(instance, x0, tol)
    rows = np.flatnonzero(~(res <= tol))
    if rows.size:
        x_fb, res_fb = _fb_newton(instance, x0[rows], tol)
        better = res_fb < np.nan_to_num(res[rows], nan=np.inf)
        rows = rows[better]
        x[rows], res[rows] = x_fb[better], res_fb[better]
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
