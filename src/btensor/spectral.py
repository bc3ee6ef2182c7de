"""Eigenpair search and diagonal-only eigenvalue bounds.

Two real eigenpair kinds are handled.  An H-pair solves
``contract(A, x) = value * x**(m-1)`` componentwise; a Z-pair solves
``contract(A, x) = value * x * (x.x)**((m-2)/2)``.  The searches are seeded
multistarts of :func:`core.damped_newton` on that equation with ``x.x = 1``
(for Z on symmetric input, after a shifted power iteration), so they return
a subset of the true pairs; bound verification is falsification style: every
found pair must land inside the closed-form bounds from the diagonal alone.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import Tensor, contract, contraction_jacobian, damped_newton, is_entry_symmetric
from .structure import require_membership

__all__ = [
    "EigenPair",
    "EigenBoundReport",
    "eigenvalue_bounds",
    "find_h_eigenpairs",
    "find_z_eigenpairs",
    "h_residual",
    "z_residual",
    "verify_eigen_bounds",
]

ACCEPT_RESIDUAL = 1e-8
VALUE_DEDUP_TOL = 1e-6
VECTOR_DEDUP_TOL = 1e-4
DEFAULT_STARTS = 64
NEWTON_LIMITS = (80, 1e-12, 1e-10)  # max_iter, tol, min_step of damped_newton


@dataclass(frozen=True)
class EigenPair:
    kind: str  # "H" or "Z"
    value: float
    vector: np.ndarray  # max-norm 1 for H, 2-norm 1 for Z
    residual: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "vector": [float(v) for v in self.vector],
            "residual": self.residual,
        }


def h_residual(tensor: Tensor, value: float, x: np.ndarray) -> float:
    """2-norm defect of the componentwise-power eigen equation."""
    return float(np.linalg.norm(contract(tensor, x) - value * x ** (tensor.order - 1)))


def z_residual(tensor: Tensor, value: float, x: np.ndarray) -> float:
    """2-norm defect of the unit-sphere eigen equation."""
    s = float(x @ x) ** ((tensor.order - 2) / 2)
    return float(np.linalg.norm(contract(tensor, x) - value * x * s))


@dataclass(frozen=True)
class EigenBoundReport:
    h_bound: Optional[float]  # None for odd order
    z_bound: float
    strict: bool
    pairs_checked: int = 0
    max_abs_h: float = 0.0
    max_abs_z: float = 0.0
    all_within: bool = True
    h_skipped: bool = False

    def to_dict(self) -> dict:
        return {
            "h_bound": self.h_bound,
            "z_bound": self.z_bound,
            "strict": self.strict,
            "pairs_checked": self.pairs_checked,
            "max_abs_h": self.max_abs_h,
            "max_abs_z": self.max_abs_z,
            "all_within": self.all_within,
            "h_skipped": self.h_skipped,
        }


def eigenvalue_bounds(tensor: Tensor, variant: str = "B") -> EigenBoundReport:
    """Diagonal-only bounds: strict for the strict class, non-strict otherwise.

    The H bound ``(sum diag**(1/(m-1)))**(m-1)`` needs an even order; the Z
    bound ``n**(m/2) * min(max diag, mean diag)`` holds for any order.
    """
    require_membership(tensor, variant)
    m, n = tensor.order, tensor.dim
    diag = tensor.diagonal
    h_bound = None
    if m % 2 == 0:
        h_bound = float(np.sum(diag ** (1.0 / (m - 1))) ** (m - 1))
    z_bound = float(n ** (m / 2) * min(diag.max(), diag.sum() / n))
    return EigenBoundReport(h_bound=h_bound, z_bound=z_bound, strict=variant == "B")


def _h_canonical(x: np.ndarray) -> np.ndarray:
    """Rescale to max-norm 1 with the max-attaining component positive."""
    top = int(np.argmax(np.abs(x)))
    return x / x[top]


def _dedup_and_sort(pairs: list[EigenPair]) -> list[EigenPair]:
    kept: list[EigenPair] = []
    for pair in sorted(pairs, key=lambda p: (p.value, tuple(p.vector))):
        duplicate = False
        for other in kept:
            if abs(pair.value - other.value) > VALUE_DEDUP_TOL:
                continue
            gap = min(
                float(np.max(np.abs(pair.vector - other.vector))),
                float(np.max(np.abs(pair.vector + other.vector))),
            )
            if gap <= VECTOR_DEDUP_TOL:
                duplicate = True
                break
        if not duplicate:
            kept.append(pair)
    return kept


def find_h_eigenpairs(tensor: Tensor, starts: int = DEFAULT_STARTS, seed: int = 0) -> list[EigenPair]:
    """Multistart damped Newton for H-pairs, deduplicated and sorted.

    Non-convergent starts are dropped; every returned pair re-checks its
    defining equation to within ``ACCEPT_RESIDUAL`` at the normalized vector.
    """
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    m, n = tensor.order, tensor.dim
    rng = np.random.default_rng(seed)

    def evaluate(z):
        x, lam = z[:n], z[n]
        g = np.append(contract(tensor, x) - lam * x ** (m - 1), 0.5 * (x @ x - 1.0))
        return z, g, float(np.linalg.norm(g))

    def jacobian(z, g):
        x, lam = z[:n], z[n]
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = contraction_jacobian(tensor, x) - lam * (m - 1) * np.diag(x ** (m - 2))
        jac[:n, n] = -(x ** (m - 1))
        jac[n, :n] = x
        return jac

    pairs: list[EigenPair] = []
    for _ in range(starts):
        x0 = rng.standard_normal(n)
        x0 /= np.linalg.norm(x0)
        powers = x0 ** (m - 1)
        denom = float(powers @ powers)
        lam0 = float(powers @ contract(tensor, x0)) / denom if denom > 0 else 0.0
        z, _, merit = damped_newton(evaluate, jacobian, np.append(x0, lam0), *NEWTON_LIMITS)
        if not merit <= NEWTON_LIMITS[1]:
            continue
        x, lam = z[:n], float(z[n])
        if np.max(np.abs(x)) < 1e-12:
            continue
        x = _h_canonical(x)
        residual = h_residual(tensor, lam, x)
        if residual <= ACCEPT_RESIDUAL:
            pairs.append(EigenPair(kind="H", value=lam, vector=x, residual=residual))
    return _dedup_and_sort(pairs)


def _z_canonical(value: float, x: np.ndarray, order: int) -> tuple[float, np.ndarray]:
    """Unit 2-norm with the max-attaining component positive.

    Flipping the vector sign keeps the value for even order and negates it
    for odd order.
    """
    x = x / np.linalg.norm(x)
    top = int(np.argmax(np.abs(x)))
    if x[top] < 0:
        x = -x
        if order % 2:
            value = -value
    return value, x


def find_z_eigenpairs(
    tensor: Tensor,
    shift: float | str = "auto",
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
) -> list[EigenPair]:
    """Multistart Z-pair search, deduplicated and sorted.

    Symmetric input runs a shifted power iteration (the shift
    ``1 + sum |entries|`` forces monotone convergence) followed by a short
    Newton polish; non-symmetric input goes straight to the Newton
    formulation.  Returned vectors have unit 2-norm and residual at most
    ``ACCEPT_RESIDUAL``.
    """
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    m, n = tensor.order, tensor.dim
    rng = np.random.default_rng(seed)
    symmetric = tensor.symmetric or is_entry_symmetric(tensor)
    alpha = 1.0 + float(np.abs(tensor.entries).sum()) if shift == "auto" else float(shift)

    def evaluate(z):
        x, mu = z[:n], z[n]
        s = float(x @ x) ** ((m - 2) / 2)
        g = np.append(contract(tensor, x) - mu * x * s, 0.5 * (x @ x - 1.0))
        return z, g, float(np.linalg.norm(g))

    def jacobian(z, g):
        x, mu = z[:n], z[n]
        sq = float(x @ x)
        s = sq ** ((m - 2) / 2)
        # (m-2) |x|^(m-4) x x^T tends to 0 at x = 0, where the power alone is 1/0 for m < 4.
        bend = (m - 2) * sq ** ((m - 4) / 2) if sq else 0.0
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = contraction_jacobian(tensor, x) - mu * (s * np.eye(n) + bend * np.outer(x, x))
        jac[:n, n] = -x * s
        jac[n, :n] = x
        return jac

    pairs: list[EigenPair] = []
    for start in range(starts):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        if symmetric:
            # Ascend on alternating starts, descend on the rest, so pairs at
            # both ends of the spectrum are reachable.
            direction = 1.0 if start % 2 == 0 else -1.0
            mu_prev = None
            stable = 0
            for _ in range(10_000):
                y = direction * contract(tensor, x) + alpha * x
                norm_y = float(np.linalg.norm(y))
                if norm_y == 0:
                    break
                x = y / norm_y
                mu = float(x @ contract(tensor, x))
                if mu_prev is not None and abs(mu - mu_prev) < 1e-12:
                    stable += 1
                    if stable >= 5:
                        break
                else:
                    stable = 0
                mu_prev = mu
        mu0 = float(x @ contract(tensor, x))
        z, _, merit = damped_newton(evaluate, jacobian, np.append(x, mu0), *NEWTON_LIMITS)
        x, mu = z[:n], float(z[n])
        if not merit <= NEWTON_LIMITS[1] or float(np.linalg.norm(x)) < 1e-8:
            continue
        mu, x = _z_canonical(mu, x, m)
        residual = z_residual(tensor, mu, x)
        if residual <= ACCEPT_RESIDUAL:
            pairs.append(EigenPair(kind="Z", value=mu, vector=x, residual=residual))
    return _dedup_and_sort(pairs)


def verify_eigen_bounds(tensor: Tensor, pairs: list[EigenPair], variant: str = "B") -> EigenBoundReport:
    """Fill an :class:`EigenBoundReport` against the supplied pairs.

    The comparison is strict for the strict class, non-strict otherwise.
    H-pairs supplied at odd order cannot be compared (no H bound exists);
    they are skipped and flagged.
    """
    skeleton = eigenvalue_bounds(tensor, variant)
    h_values = [abs(p.value) for p in pairs if p.kind == "H"]
    z_values = [abs(p.value) for p in pairs if p.kind == "Z"]
    max_h = max(h_values, default=0.0)
    max_z = max(z_values, default=0.0)

    def within(value: float, bound: float) -> bool:
        return value < bound if skeleton.strict else value <= bound

    h_skipped = bool(h_values) and skeleton.h_bound is None
    h_ok = True
    if h_values and skeleton.h_bound is not None:
        h_ok = within(max_h, skeleton.h_bound)
    z_ok = within(max_z, skeleton.z_bound) if z_values else True
    return replace(
        skeleton,
        pairs_checked=len(pairs),
        max_abs_h=max_h,
        max_abs_z=max_z,
        all_within=h_ok and z_ok,
        h_skipped=h_skipped,
    )
