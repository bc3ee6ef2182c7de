"""Eigenpair search and diagonal-only eigenvalue bounds.

Two real eigenpair kinds are handled.  An H-pair solves
``contract(A, x) = value * x**(m-1)`` componentwise; a Z-pair solves
``contract(A, x) = value * x * (x.x)**((m-2)/2)``.  The searches are seeded
multistarts of :func:`core.damped_newton` on one bordered system, that
equation with ``x.x = 1`` (for Z on symmetric input, after a power iteration
whose shift each start reads every round off the kernel call that gives its
contraction), so they return a subset of the true pairs; bound verification
is falsification style: every found pair must land inside the closed-form
bounds from the diagonal alone.  All starts of a search advance together as one
stack, each exactly as it would alone; the power iteration keeps only its
running starts packed.  The converged rows are then canonicalised together
and their residuals taken in one stacked contraction; the pairs within
``ACCEPT_RESIDUAL`` are deduplicated and sorted.  Each kind has one stacked
defect of its equation, which the Newton residual, this filter and
:func:`h_residual`/:func:`z_residual` share.

The Newton runs stop a start early in two ways, the last two of
``NEWTON_LIMITS``: its line search ends at 2^-11, where a step lowers the
squared merit by under 0.1% to first order, and the stall stop of
:func:`core.damped_newton` ends it after ten slow rounds in a row.  Over one
pass of the benchmark's eigen pool the two cut the trial points from 499,788
to 140,673; at seeds 1-12 they lose 3 of 2714 H and 2 of 10742 Z pairs.  The
complementarity solver uses neither: its starts seldom stall.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    Report,
    Tensor,
    _slot_sum,
    check_count,
    contract_batch,
    damped_newton,
    is_entry_symmetric,
)
from .structure import require_membership

ACCEPT_RESIDUAL = 1e-8
VALUE_DEDUP_TOL = 1e-6
VECTOR_DEDUP_TOL = 1e-4
DEFAULT_STARTS = 64
# max_iter, tol, min_step, stall of damped_newton.  A row either early stop ends is dropped, as is
# any row left above tol; the eigen rows that stall seldom converge later (module docstring).
NEWTON_LIMITS = (80, 1e-12, 2.0**-12, 10)
# The power iteration's convexity margin tau and its stop on a value change, each times max |a|.
_POWER_MARGIN, _POWER_STOP = 1e-6, 1e-12


@dataclass(frozen=True)
class EigenPair(Report):
    kind: str  # "H" or "Z"
    value: float
    vector: np.ndarray  # max-norm 1 for H, 2-norm 1 for Z
    residual: float


def _h_defect(tensor: Tensor, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``contract(A, x) - lam * x**(m-1)`` per row of a (k, n) stack x with (k,) values lam."""
    return contract_batch(tensor, x) - lam[:, None] * _power(x, tensor.order - 1)


def _z_defect(tensor: Tensor, x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``contract(A, x) - mu * x * (x.x)**((m-2)/2)`` per row of a (k, n) stack x with (k,) values mu."""
    s = _row_power(_row_dot(x, x), (tensor.order - 2) / 2)
    return contract_batch(tensor, x) - mu[:, None] * x * s[:, None]


def _residual(defect, tensor: Tensor, value: float, x) -> float:
    """2-norm of ``defect`` at one vector x with its value."""
    d = defect(tensor, np.asarray(x, dtype=float)[None], np.array([float(value)]))
    return float(np.sqrt(_row_dot(d, d))[0])


def h_residual(tensor: Tensor, value: float, x: np.ndarray) -> float:
    """2-norm defect of the componentwise-power eigen equation."""
    return _residual(_h_defect, tensor, value, x)


def z_residual(tensor: Tensor, value: float, x: np.ndarray) -> float:
    """2-norm defect of the unit-sphere eigen equation."""
    return _residual(_z_defect, tensor, value, x)


@dataclass(frozen=True)
class EigenBoundReport(Report):
    h_bound: Optional[float]  # None for odd order
    z_bound: float
    strict: bool
    pairs_checked: int = 0
    max_abs_h: float = 0.0
    max_abs_z: float = 0.0
    all_within: bool = True
    h_skipped: bool = False


def eigenvalue_bounds(tensor: Tensor, variant: str = "B", report=None) -> EigenBoundReport:
    """Diagonal-only bounds: strict for the strict class in dimension >= 2, non-strict otherwise.

    The H bound ``(sum diag**(1/(m-1)))**(m-1)`` needs an even order; the Z
    bound ``n**(m/2) * min(max diag, mean diag)`` holds for any order.  In
    dimension 1 the only eigenvalue is the diagonal entry, which both bounds
    equal, so they are non-strict there and the H bound is that entry itself
    (its root and power can round below it).  ``report`` as for
    :func:`require_membership`.
    """
    require_membership(tensor, variant, report)
    m, n = tensor.order, tensor.dim
    diag = tensor.diagonal
    h_bound = None
    if m % 2 == 0:
        h_bound = float(diag[0]) if n == 1 else float(np.sum(diag ** (1.0 / (m - 1))) ** (m - 1))
    z_bound = float(n ** (m / 2) * min(diag.max(), diag.sum() / n))
    return EigenBoundReport(h_bound=h_bound, z_bound=z_bound, strict=variant == "B" and n > 1)


def _dedup_and_sort(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Rows of the pairs kept, in (value, vector) order: a pair is a duplicate of a kept pair
    earlier in that order whose value is within ``VALUE_DEDUP_TOL`` and whose vector, or its
    negative, is within ``VECTOR_DEDUP_TOL`` in max-norm.

    Each kept pair rules out its duplicates among all pairs in one comparison; the next pair
    left is then the next kept, as no earlier kept pair is close to it.
    """
    order = np.lexsort((*vectors.T[::-1], values))
    values, vectors = values[order], vectors[order]
    left = np.ones(len(order), dtype=bool)
    kept = []
    while left.any():
        row = int(left.argmax())
        kept.append(row)
        gap = np.minimum(np.abs(vectors - vectors[row]).max(axis=1), np.abs(vectors + vectors[row]).max(axis=1))
        left &= ~((np.abs(values - values[row]) <= VALUE_DEDUP_TOL) & (gap <= VECTOR_DEDUP_TOL))
    return order[kept]


def _accepted_pairs(kind: str, tensor: Tensor, z: np.ndarray, defect) -> list[EigenPair]:
    """The pairs of a stack of canonical (vector, value) rows whose residual, the 2-norm of
    their ``defect``, is within ``ACCEPT_RESIDUAL``, deduplicated and sorted."""
    n = tensor.dim
    d = defect(tensor, z[:, :n], z[:, n])
    residuals = np.sqrt(_row_dot(d, d))
    accepted = residuals <= ACCEPT_RESIDUAL
    z, residuals = z[accepted], residuals[accepted]
    return [
        EigenPair(kind=kind, value=float(z[row, n]), vector=z[row, :n], residual=float(residuals[row]))
        for row in _dedup_and_sort(z[:, n], z[:, :n]).tolist()
    ]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, d) stacks, bit for bit the 1-D ``a[i] @ b[i]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _power(x: np.ndarray, k: int) -> np.ndarray:
    """``x ** k`` for an integer k, as ``|x| ** k`` with the sign of x put back at odd k.

    numpy's array power takes a slow scalar path on negative bases under AVX-512; on non-negative
    ones it is fast.  Where ``pow`` keeps ``pow(-a, k) = (-1)**k pow(a, k)``, as glibc's does,
    the bits are those of ``x ** k``, signed zeros and infinities included; a NaN stays a NaN.
    """
    out = np.abs(x) ** k
    if k % 2:
        np.copysign(out, x, out=out)
    return out


def _row_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """Python's ``float ** exponent`` per entry; numpy's array power can differ in the last bit."""
    return np.array([v**exponent for v in values.tolist()])


def _unit_starts(seed: int, starts: int, n: int) -> np.ndarray:
    """``starts`` standard normal draws of length n in draw order, each scaled to unit 2-norm."""
    check_count("starts", starts, n)
    x = np.random.default_rng(seed).standard_normal((starts, n))
    x /= np.sqrt(_row_dot(x, x))[:, None]
    return x


def _bordered_newton(tensor: Tensor, defect, terms, x0: np.ndarray, values0: np.ndarray) -> np.ndarray:
    """The (vector, value) rows that :func:`core.damped_newton` takes from the starts (x0, values0)
    to ``defect(tensor, x, value) = 0`` with ``x.x = 1``.  ``terms(x, value)`` gives the block the
    value's term takes off the contraction Jacobian, and the value's column of the bordered Jacobian."""
    n = tensor.dim
    slots = _slot_sum(tensor)

    def evaluate(z):
        x = z[:, :n]
        g = np.empty_like(z)
        g[:, :n] = defect(tensor, x, z[:, n])
        g[:, n] = 0.5 * (_row_dot(x, x) - 1.0)
        return z, g, np.sqrt(_row_dot(g, g))

    def jacobian(z, g):
        x = z[:, :n]
        block, column = terms(x, z[:, n])
        jac = np.zeros((len(z), n + 1, n + 1))
        jac[:, :n, :n] = contract_batch(slots, x, matrix=True) - block
        jac[:, :n, n] = column
        jac[:, n, :n] = x
        return jac

    z, _, merit = damped_newton(evaluate, jacobian, np.column_stack([x0, values0]), *NEWTON_LIMITS)
    return z[merit <= NEWTON_LIMITS[1]]  # the merit bounds |x.x - 1| / 2, so |x.x - 1| <= 2e-12


def find_h_eigenpairs(tensor: Tensor, starts: int = DEFAULT_STARTS, seed: int = 0) -> list[EigenPair]:
    """Multistart damped Newton for H-pairs, deduplicated and sorted.

    All starts advance together as one stack.  Non-convergent starts are
    dropped; every returned pair re-checks its defining equation to within
    ``ACCEPT_RESIDUAL`` at the normalized vector.
    """
    m, n = tensor.order, tensor.dim
    diag = np.arange(n)

    def terms(x, lam):
        powers = np.zeros((len(x), n, n))
        powers[:, diag, diag] = _power(x, m - 2)
        return (lam * (m - 1))[:, None, None] * powers, -_power(x, m - 1)

    x0 = _unit_starts(seed, starts, n)
    powers = _power(x0, m - 1)
    # A unit start has max|x_i| >= 1/sqrt(n), so the denominator is at least n**-(m-1) > 0.
    lam0 = _row_dot(powers, contract_batch(tensor, x0)) / _row_dot(powers, powers)
    z = _bordered_newton(tensor, _h_defect, terms, x0, lam0)
    # Canonical vectors: max-norm 1 with the max-attaining component positive.  As x.x >= 1 - 2e-12
    # on a returned row, its max-norm is at least 0.99/sqrt(n).
    x = z[:, :n]
    x /= np.take_along_axis(x, np.abs(x).argmax(axis=1)[:, None], axis=1)
    return _accepted_pairs("H", tensor, z, _h_defect)


def find_z_eigenpairs(tensor: Tensor, starts: int = DEFAULT_STARTS, seed: int = 0) -> list[EigenPair]:
    """Multistart Z-pair search, deduplicated and sorted.

    Input whose entries are symmetric (:func:`is_entry_symmetric`) runs a
    shifted power iteration followed by a short Newton polish; other input
    goes straight to the Newton formulation.  Returned vectors have unit
    2-norm and residual at most ``ACCEPT_RESIDUAL``.
    """
    m, n = tensor.order, tensor.dim

    def terms(x, mu):
        sq = _row_dot(x, x)
        s = _row_power(sq, (m - 2) / 2)[:, None, None]
        # (m-2) |x|^(m-4) x x^T tends to 0 at x = 0, where the power alone is 1/0 for m < 4.
        bend = np.array([(m - 2) * v ** ((m - 4) / 2) if v else 0.0 for v in sq.tolist()])[:, None, None]
        outer = x[:, :, None] * x[:, None, :]
        return mu[:, None, None] * (s * np.eye(n) + bend * outer), -x * s[:, :, 0]

    x = _unit_starts(seed, starts, n)
    if is_entry_symmetric(tensor):
        x, values = _shifted_power_iteration(tensor, x)
    else:
        values = contract_batch(tensor, x)
    z = _bordered_newton(tensor, _z_defect, terms, x, _row_dot(x, values))
    # Canonical vectors: unit 2-norm (no row is near 0, as x.x >= 1 - 2e-12) with the max-attaining
    # component positive.  Flipping the sign keeps the value at even order, negates it at odd.
    x, mu = z[:, :n], z[:, n]
    x /= np.sqrt(_row_dot(x, x))[:, None]
    flip = np.take_along_axis(x, np.abs(x).argmax(axis=1)[:, None], axis=1)[:, 0] < 0
    np.negative(x, out=x, where=flip[:, None])
    if m % 2:
        np.negative(mu, out=mu, where=flip)
    return _accepted_pairs("Z", tensor, z, _z_defect)


def _power_shift(tensor: Tensor) -> float:
    """``1 + (m - 1) ||A||_F``, 1 for the zero tensor.  The norm is ``s sqrt(sum (a / s)**2)`` with
    ``s = max |a|``, so no square overflows; a shift beyond the float range is inf."""
    a = np.abs(tensor.entries)
    s = float(a.max())
    if not s:
        return 1.0
    a /= s
    return 1.0 + (tensor.order - 1) * (s * math.sqrt(float(a @ a)))


def _shifted_power_iteration(tensor: Tensor, x: np.ndarray):
    """SS-HOPM on a stack of unit starts, with an adaptive shift per start and round.

    A fixed shift above ``beta(A) = (m - 1) max_{|x| = 1} rho(A x^(m-2))``, such as the proved
    ``1 + (m - 1) ||A||_F`` of :func:`_power_shift`, makes SS-HOPM monotone (Kolda & Mayo 2011,
    SIAM J. Matrix Anal. Appl. 32(4), Thm 4.4), but slow.  GEAP (Kolda & Mayo 2014, SIAM J. Matrix
    Anal. Appl. 35(4)) takes at each iterate the least shift that keeps the shifted objective
    locally convex, ``max(0, (tau - lambda_min(S)) / m)`` with ``S = d m (m-1) A x^(m-2)`` for a
    start of direction d.  The Gershgorin bound ``min_i (S_ii - sum_{j != i} |S_ij|)`` stands in
    for ``lambda_min(S)``, so the shift is at least GEAP's, and the proved shift caps it; both come
    from the stage ``A x^(m-2)`` of the round's one kernel call (its product with x is the
    contraction).  Even-indexed starts ascend (d = 1), odd-indexed ones descend (d = -1).  A start
    stops when its update is zero or its value moves by less than ``_POWER_STOP max|a|`` on five
    rounds in a row, after 10 000 rounds at most; one whose update is not finite is dropped,
    without numpy's warnings.  As ``tau = _POWER_MARGIN max|a|``, ``2^k A`` takes the iterates of
    A wherever the cap does not bind.  Returns the kept starts' iterates and contractions, in order.
    """
    m, scale = tensor.order, float(np.abs(tensor.entries).max())
    tau, stop, cap = _POWER_MARGIN * scale, _POWER_STOP * scale, _power_shift(tensor)
    out_x, out_values = x.copy(), np.empty_like(x)
    kept = np.ones(len(x), dtype=bool)
    rows = np.arange(len(x))
    direction = np.where(rows % 2 == 0, 1.0, -1.0)[:, None]
    mu_prev = np.full(len(x), np.nan)
    stable = np.zeros(len(x), dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(10_001):
            stage = contract_batch(tensor, x, matrix=True)
            values = (stage @ x[:, :, None])[:, :, 0]
            mu = _row_dot(x, values)
            stable = np.where(np.abs(mu - mu_prev) < stop, stable + 1, 0)
            mu_prev = mu
            diag = direction * np.diagonal(stage, axis1=1, axis2=2)
            gershgorin = (m * (m - 1)) * (diag + np.abs(diag) - np.add.reduce(np.abs(stage), axis=2)).min(axis=1)
            y = direction * values + np.minimum(np.maximum(0.0, (tau - gershgorin) / m), cap)[:, None] * x
            norm_y = np.sqrt(_row_dot(y, y))
            finite = np.isfinite(norm_y)
            if not finite.all():
                # y.y overflows once |y| passes about 1.3e154: a finite such row takes its norm from
                # y scaled exactly by the power of two of its max |y|.  No other row does more work.
                over = ~finite & np.isfinite(y).all(axis=1)
                _, exp = np.frexp(np.abs(y[over]).max(axis=1))
                scaled = np.ldexp(y[over], -exp[:, None])
                norm_y[over] = np.ldexp(np.sqrt(_row_dot(scaled, scaled)), exp)
                finite = np.isfinite(norm_y)
            # The running starts' states stay packed; a start that stops goes back to the outputs.
            # finite is false also where y is not finite.  Round 10 001 stops every start.
            going = (stable < 5) & finite & (norm_y != 0) & (step < 10_000)
            if not going.all():
                kept[rows[(stable < 5) & ~finite]] = False
                out_x[rows[~going]], out_values[rows[~going]] = x[~going], values[~going]
                rows, direction, mu_prev, stable, x, y, norm_y = (
                    part[going] for part in (rows, direction, mu_prev, stable, x, y, norm_y)
                )
                if not rows.size:
                    break
            x = y / norm_y[:, None]
    return out_x[kept], out_values[kept]


def verify_eigen_bounds(tensor: Tensor, pairs: list[EigenPair], variant: str = "B", report=None) -> EigenBoundReport:
    """Fill an :class:`EigenBoundReport` against the supplied pairs.

    The comparison is strict where the bounds are (the strict class in
    dimension >= 2), non-strict otherwise.  H-pairs supplied at odd order
    cannot be compared (no H bound exists); they are skipped and flagged.
    ``report`` as for :func:`require_membership`.
    """
    skeleton = eigenvalue_bounds(tensor, variant, report)
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
