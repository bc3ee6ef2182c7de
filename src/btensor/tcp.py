"""Tensor complementarity: find x >= 0 with w = q + contract(A, x) >= 0 and x.w = 0.

The solver runs :func:`core.damped_newton` on a stack of starts in two passes, on the natural
residual ``min(x, w)`` (semismooth, projected onto x >= 0) and on the Fischer-Burmeister residual
``x + w - hypot(x, w)``; the second runs from the same starts on those the first leaves unsolved.
In either pass each residual call makes one ``contract_batch`` call and each Jacobian call one
``contract_batch`` stage call on the pass's slot-sum tensor (:func:`core._slot_sum`) and no
contraction, as the Jacobian reuses the residual's w.
``solve`` runs the natural residual first, its first start alone and, only if that fails, its other
starts as one stack, keeping the first in start order that converges.  The boundedness probe runs
the starts of every radius as one stack, Fischer-Burmeister first, as the min-map pass takes far
starts to x = 0, where the contraction Jacobian vanishes.  For strict-class tensors the solution
set is nonempty and bounded, and every nonzero solution obeys closed-form lower bounds driven by
the positive part of ``-q`` and the diagonal entries; this module computes those certificates and
verifies them against solver output.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    Report,
    Tensor,
    _slot_sum,
    check_count,
    contract,
    contract_batch,
    damped_newton,
    vector_norm,
)
from .structure import _check_tol, require_membership

logger = logging.getLogger(__name__)

DEFAULT_STARTS = 16
DEFAULT_MAX_ITER = 200
DEFAULT_TOL = 1e-8
NEAR_TIE_SLACK = 1e-12
PROBE_RADII = (1.0, 10.0, 100.0)
SAME_SOLUTION = 1e-6  # max-norm distance within which the probe counts two solutions as one


def _checked_q(q, dim: int) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (dim,):
        raise ValueError(f"q must have length {dim}, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError(f"q must be finite, got {q.tolist()}")
    return q


@dataclass(frozen=True)
class TcpInstance:
    tensor: Tensor
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _checked_q(self.q, self.tensor.dim))


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
    return float(np.maximum.reduce(np.abs(np.minimum(x, w)))), w


def outcome_at(instance: TcpInstance, x, tol: float, starts_used: int = 0) -> TcpOutcome:
    """The :class:`TcpOutcome` of the point x: its residual and slack, converged when the
    residual is within ``tol``, which must be finite and >= 0."""
    _check_tol(tol)
    res, w = residual(instance, x)
    x = np.asarray(x, dtype=float)
    return TcpOutcome(x=x, w=w, residual=res, converged=res <= tol, starts_used=starts_used)


def _monotone_newton(instance: TcpInstance, x0: np.ndarray, tol: float):
    """Damped semismooth Newton with projection on a (k, n) stack of starts; stops at stalls.

    Returns the (k, n) points and their (k,) residuals.
    """
    tensor, q = instance.tensor, instance.q
    identity, slots = np.eye(tensor.dim), _slot_sum(tensor)

    def evaluate(x):
        x = np.maximum(x, 0.0)
        phi = np.minimum(x, q + contract_batch(tensor, x))
        return x, phi, np.maximum.reduce(np.abs(phi), axis=1)

    def jacobian(x, phi):
        # Rows where min(x, w) picks x (x <= w) differentiate to the identity, the rest to w's.
        jac = contract_batch(slots, x, matrix=True)
        np.copyto(jac, identity, where=(phi == x)[:, :, None])
        return jac

    x, _, res = damped_newton(evaluate, jacobian, x0, DEFAULT_MAX_ITER, tol, 1e-12, 0)
    return x, res


def _fb_newton(instance: TcpInstance, x0: np.ndarray, tol: float):
    """Damped Newton on the Fischer-Burmeister residual ``x + w - hypot(x, w)`` from a (k, n) stack.

    Its merit ``max |phi|`` is at least ``(2 - sqrt 2)`` times the natural residual (De Luca,
    Facchinei & Kanzow 1996), so the tolerance ``tol * (2 - sqrt 2)`` implies a natural residual
    within ``tol``.  The Jacobian reuses w and ``r = hypot(x, w)`` from ``evaluate``.  Returns the
    (k, n) points, projected onto x >= 0, and their natural residuals.
    """
    tensor, q = instance.tensor, instance.q
    identity, slots = np.eye(tensor.dim), _slot_sum(tensor)

    def evaluate(x):
        w = q + contract_batch(tensor, x)
        r = np.hypot(x, w)
        phi = x + w - r
        return x, phi, np.maximum.reduce(np.abs(phi), axis=1), w, r

    def jacobian(x, phi, w, r):
        # diag(1 - x/r) + diag(1 - w/r) J, with x/r = w/r = 1/sqrt 2 where r = 0.
        live = r > 0
        x_r, w_r = (np.divide(v, r, out=np.full_like(r, math.sqrt(0.5)), where=live) for v in (x, w))
        jac = (1.0 - w_r)[:, :, None] * contract_batch(slots, x, matrix=True)
        return jac + (1.0 - x_r)[:, :, None] * identity

    fb_tol = tol * (2.0 - math.sqrt(2.0))
    x = np.maximum(damped_newton(evaluate, jacobian, x0, DEFAULT_MAX_ITER, fb_tol, 1e-12, 0)[0], 0.0)
    return x, np.maximum.reduce(np.abs(np.minimum(x, q + contract_batch(tensor, x))), axis=1)


def _newton_from(instance: TcpInstance, x0: np.ndarray, tol: float, passes: tuple[Callable, Callable]):
    """Newton from a (k, n) stack of starts; returns the (k, n) points and (k,) residuals.

    ``passes`` is the pair of passes in order, each ``_monotone_newton`` or ``_fb_newton``.  The
    starts the first leaves above ``tol`` make the second from where they began, whose point a
    start keeps only where its natural residual is strictly lower.
    """
    first, second = passes
    x, res = first(instance, x0, tol)
    rows = (~(res <= tol)).nonzero()[0]
    if rows.size:
        x_second, res_second = second(instance, x0[rows], tol)
        better = res_second < np.nan_to_num(res[rows], nan=np.inf)
        rows = rows[better]
        x[rows], res[rows] = x_second[better], res_second[better]
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
    reported, not raised; ``tol`` must be finite and >= 0.
    """
    check_count("starts", starts, instance.tensor.dim)
    _check_tol(tol)
    tensor, q = instance.tensor, instance.q
    base = np.maximum(-q, 0.0) ** (1.0 / (tensor.order - 1))
    passes = (_monotone_newton, _fb_newton)
    [best], [best_res] = _newton_from(instance, 0.5 * base[None], tol, passes)
    if best_res <= tol or starts == 1:
        return outcome_at(instance, best, tol, 1)
    scale = 1.0 + float(base.max(initial=0.0))
    draws = np.random.default_rng(seed).uniform(0.0, scale, size=(max(starts - 3, 0), tensor.dim))
    x0 = np.vstack([base, 2.0 * base, draws])[: starts - 1]
    for used, (x, res) in enumerate(zip(*_newton_from(instance, x0, tol, passes)), start=2):
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


def solution_lower_bounds(tensor: Tensor, q, report=None) -> SolutionBoundCertificate:
    """Closed-form certificate for a strict-class tensor.

    Input too large for a bound in floating point raises ``ValueError`` naming the first such bound,
    with numpy's overflow warnings silenced, as the error says it (else the bound would read 0 or inf).
    ``report`` as for :func:`require_membership`.
    """
    require_membership(tensor, "B", report)
    q = _checked_q(q, tensor.dim)
    m, n = tensor.order, tensor.dim
    diag = tensor.diagonal
    neg = np.maximum(-q, 0.0)
    with np.errstate(over="ignore"):
        # (name, numerator, denominator) of each bound.
        parts = [
            ("lb_inf", vector_norm(neg, math.inf), float(n ** (m - 1) * np.maximum.reduce(diag))),
            ("lb_2", vector_norm(neg, 2), n ** ((m - 1) / 2) * math.sqrt(np.add.reduce(diag**2))),
        ]
        if m % 2 == 0:
            denominator = n ** ((m - 1) ** 2 / m) * float(np.add.reduce(diag ** (m / (m - 1)))) ** ((m - 1) / m)
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


def verify_solution_bounds(tensor: Tensor, q, outcome: TcpOutcome, report=None) -> SolutionBoundCertificate:
    """Check a converged nonzero solution against the certificate.

    The bounds are strict; at floating precision an exact tie is
    indistinguishable from strictness, so each comparison carries a
    ``NEAR_TIE_SLACK`` allowance and near ties are logged rather than
    failed.  ``report`` as for :func:`require_membership`.
    """
    if not outcome.converged:
        raise ValueError("outcome did not converge; bounds apply to solutions only")
    x = np.asarray(outcome.x, dtype=float)
    if not x.any():
        raise ValueError("bounds apply to nonzero solutions; got x = 0")
    certificate = solution_lower_bounds(tensor, q, report)
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

    Solves from ``starts`` random starts scaled to each radius of ``PROBE_RADII``
    (1, 10 and 100), drawn radius by radius and run as one stack, Fischer-Burmeister
    pass first, and reports True when every solution within ``DEFAULT_TOL`` stays
    within 10x the smallest radius at which the solution set stops changing.
    """
    check_count("starts", starts, tensor.dim)
    require_membership(tensor, "B")
    instance = TcpInstance(tensor, q)
    rng = np.random.default_rng(seed)
    shape = (len(PROBE_RADII), starts, tensor.dim)
    x0 = rng.uniform(0.0, np.array(PROBE_RADII)[:, None, None], size=shape)
    x, res = _newton_from(instance, x0.reshape(-1, tensor.dim), DEFAULT_TOL, (_fb_newton, _monotone_newton))
    solved = res.reshape(shape[:2]) <= DEFAULT_TOL
    per_radius = [_distinct(points[rows]) for points, rows in zip(x.reshape(shape), solved)]

    def same(a: np.ndarray, b: np.ndarray) -> bool:
        return len(a) == len(b) and all((np.abs(b - point).max(axis=1) <= SAME_SOLUTION).any() for point in a)

    stable_radius = PROBE_RADII[-1]
    for k in range(1, len(per_radius)):
        if same(per_radius[k - 1], per_radius[k]):
            stable_radius = PROBE_RADII[k - 1]
            break
    return bool((np.abs(np.concatenate(per_radius)).max(axis=1) < 10.0 * stable_radius).all())


def _distinct(points: np.ndarray) -> np.ndarray:
    """The (k, n) points in order, less each within ``SAME_SOLUTION`` in max-norm of an earlier one kept.

    Each kept point rules out its duplicates among all the points in one comparison; the next
    point left is then the next kept, as no earlier kept point is close to it.
    """
    left = np.ones(len(points), dtype=bool)
    kept = []
    while left.any():
        row = int(left.argmax())
        kept.append(row)
        left &= ~(np.abs(points - points[row]).max(axis=1) <= SAME_SOLUTION)
    return points[kept]
