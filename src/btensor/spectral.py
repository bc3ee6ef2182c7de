"""Eigenpair search and diagonal-only eigenvalue bounds.

Two real eigenpair kinds are handled.  An H-pair solves
``contract(A, x) = value * x**(m-1)`` componentwise; a Z-pair solves
``contract(A, x) = value * x * (x.x)**((m-2)/2)``.  The searches are seeded
multistarts of :func:`core.damped_newton` on that equation with ``x.x = 1``
(for Z on symmetric input, after a shifted power iteration), so they return
a subset of the true pairs; bound verification is falsification style: every
found pair must land inside the closed-form bounds from the diagonal alone.
All starts of a search advance together as one stack, each exactly as it
would alone; the found pairs are then filtered and deduplicated in start
order.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    Tensor,
    contract,
    contract_batch,
    contraction_jacobian,
    damped_newton,
    is_entry_symmetric,
)
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


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, d) stacks, bit for bit the 1-D ``a[i] @ b[i]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """Python's ``float ** exponent`` per entry; numpy's array power can differ in the last bit."""
    return np.array([v**exponent for v in values.tolist()])


def _unit_starts(rng: np.random.Generator, starts: int, n: int) -> np.ndarray:
    """``starts`` standard normal draws of length n in draw order, each scaled to unit 2-norm."""
    x = np.array([rng.standard_normal(n) for _ in range(starts)])
    x /= np.sqrt(_row_dot(x, x))[:, None]
    return x


def find_h_eigenpairs(tensor: Tensor, starts: int = DEFAULT_STARTS, seed: int = 0) -> list[EigenPair]:
    """Multistart damped Newton for H-pairs, deduplicated and sorted.

    All starts advance together as one stack.  Non-convergent starts are
    dropped; every returned pair re-checks its defining equation to within
    ``ACCEPT_RESIDUAL`` at the normalized vector.
    """
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    m, n = tensor.order, tensor.dim
    diag = np.arange(n)

    def evaluate(z):
        x, lam = z[:, :n], z[:, n]
        g = np.empty_like(z)
        g[:, :n] = contract_batch(tensor, x) - lam[:, None] * x ** (m - 1)
        g[:, n] = 0.5 * (_row_dot(x, x) - 1.0)
        return z, g, np.sqrt(_row_dot(g, g))

    def jacobian(z, g):
        x, lam = z[:, :n], z[:, n]
        powers = np.zeros((len(z), n, n))
        powers[:, diag, diag] = x ** (m - 2)
        jac = np.zeros((len(z), n + 1, n + 1))
        jac[:, :n, :n] = contraction_jacobian(tensor, x) - (lam * (m - 1))[:, None, None] * powers
        jac[:, :n, n] = -(x ** (m - 1))
        jac[:, n, :n] = x
        return jac

    x0 = _unit_starts(np.random.default_rng(seed), starts, n)
    powers = x0 ** (m - 1)
    denom = _row_dot(powers, powers)
    lam0 = np.zeros(starts)
    np.divide(_row_dot(powers, contract_batch(tensor, x0)), denom, out=lam0, where=denom > 0)
    z, _, merit = damped_newton(evaluate, jacobian, np.column_stack([x0, lam0]), *NEWTON_LIMITS)
    pairs: list[EigenPair] = []
    for row, value in zip(z, merit):
        if not value <= NEWTON_LIMITS[1]:
            continue
        x, lam = row[:n], float(row[n])
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
    symmetric = tensor.symmetric or is_entry_symmetric(tensor)
    alpha = 1.0 + float(np.abs(tensor.entries).sum()) if shift == "auto" else float(shift)

    def evaluate(z):
        x, mu = z[:, :n], z[:, n]
        sq = _row_dot(x, x)
        s = _row_power(sq, (m - 2) / 2)
        g = np.empty_like(z)
        g[:, :n] = contract_batch(tensor, x) - mu[:, None] * x * s[:, None]
        g[:, n] = 0.5 * (sq - 1.0)
        return z, g, np.sqrt(_row_dot(g, g))

    def jacobian(z, g):
        x, mu = z[:, :n], z[:, n]
        sq = _row_dot(x, x)
        s = _row_power(sq, (m - 2) / 2)[:, None, None]
        # (m-2) |x|^(m-4) x x^T tends to 0 at x = 0, where the power alone is 1/0 for m < 4.
        bend = np.array([(m - 2) * v ** ((m - 4) / 2) if v else 0.0 for v in sq.tolist()])[:, None, None]
        outer = x[:, :, None] * x[:, None, :]
        jac = np.zeros((len(z), n + 1, n + 1))
        jac[:, :n, :n] = contraction_jacobian(tensor, x) - mu[:, None, None] * (s * np.eye(n) + bend * outer)
        jac[:, :n, n] = -x * s[:, :, 0]
        jac[:, n, :n] = x
        return jac

    x = _unit_starts(np.random.default_rng(seed), starts, n)
    values = contract_batch(tensor, x)
    if symmetric:
        x, values = _shifted_power_iteration(tensor, x, values, alpha)
    mu0 = _row_dot(x, values)
    z, _, merit = damped_newton(evaluate, jacobian, np.column_stack([x, mu0]), *NEWTON_LIMITS)
    pairs: list[EigenPair] = []
    for row, value in zip(z, merit):
        x, mu = row[:n], float(row[n])
        if not value <= NEWTON_LIMITS[1] or float(np.linalg.norm(x)) < 1e-8:
            continue
        mu, x = _z_canonical(mu, x, m)
        residual = z_residual(tensor, mu, x)
        if residual <= ACCEPT_RESIDUAL:
            pairs.append(EigenPair(kind="Z", value=mu, vector=x, residual=residual))
    return _dedup_and_sort(pairs)


def _shifted_power_iteration(tensor: Tensor, x: np.ndarray, values: np.ndarray, alpha: float):
    """SS-HOPM (Kolda & Mayo 2011) on a stack of unit starts whose contractions are ``values``.

    Even-indexed starts ascend and odd-indexed ones descend, so pairs at both
    ends of the spectrum are reachable.  A start stops when its iterate
    update is zero or its value has moved by less than 1e-12 on five rounds
    in a row, and after 10 000 rounds at most; one whose update or its norm
    is not finite is dropped.  Returns the iterates and their contractions
    of the kept starts, in start order.
    """
    x, values = x.copy(), values.copy()
    direction = np.where(np.arange(len(x)) % 2 == 0, 1.0, -1.0)[:, None]
    mu_prev = np.full(len(x), np.nan)
    stable = np.zeros(len(x), dtype=int)
    running = np.arange(len(x))
    dropped = np.zeros(len(x), dtype=bool)
    for _ in range(10_000):
        if not running.size:
            break
        y = direction[running] * values[running] + alpha * x[running]
        norm_y = np.sqrt(_row_dot(y, y))
        finite = np.isfinite(norm_y)  # false also where y is not finite
        dropped[running[~finite]] = True
        moving = finite & (norm_y != 0)
        running, y, norm_y = running[moving], y[moving], norm_y[moving]
        x[running] = y / norm_y[:, None]
        values[running] = contract_batch(tensor, x[running])
        mu = _row_dot(x[running], values[running])
        stable[running] = np.where(np.abs(mu - mu_prev[running]) < 1e-12, stable[running] + 1, 0)
        mu_prev[running] = mu
        running = running[stable[running] < 5]
    return x[~dropped], values[~dropped]


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
