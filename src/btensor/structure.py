"""Structural classification of tensors.

A tensor belongs to the strict class ("B") when every row has a positive
entry sum and the row average ``row_sum / n**(m-1)`` strictly exceeds every
off-diagonal entry of that row; the non-strict class ("B0") relaxes both
inequalities to >=.  This module computes the per-row evidence, the
classification verdict, three derived dominance diagnostics, and a sampled
semi-positivity certificate on the unit simplex.  It also hosts the seeded
generators that produce members of either class by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Tensor, contract_batch

__all__ = [
    "RowProfile",
    "Witness",
    "ClassificationReport",
    "DominanceDiagnostics",
    "SemiPositivityCertificate",
    "GridTooLarge",
    "ClassificationError",
    "row_profile",
    "classify",
    "membership_diagnostics",
    "semipositivity_certificate",
    "simplex_lattice",
    "random_b_tensor",
    "random_b0_tensor",
    "random_tensor",
]

GRID_POINT_LIMIT = 1_000_000


class GridTooLarge(RuntimeError):
    """Simplex lattice would exceed the point budget."""


class ClassificationError(ValueError):
    """Tensor does not have the classification an operation requires."""


def _diag_flat_positions(order: int, dim: int) -> np.ndarray:
    """Flat position of the all-equal-index entry inside each length n**(m-1) row."""
    if dim == 1:
        return np.zeros(1, dtype=int)
    # sum_{k=0}^{m-2} i * dim**k
    stride = (dim ** (order - 1) - 1) // (dim - 1)
    return stride * np.arange(dim)


@dataclass(frozen=True)
class RowProfile:
    """Per-row evidence: entry sums, off-diagonal maxima, and their positive parts."""

    row_sums: np.ndarray
    max_offdiag: np.ndarray  # -inf when the row has no off-diagonal entries (dim 1)
    beta: np.ndarray  # max(0, max_offdiag)


def row_profile(tensor: Tensor) -> RowProfile:
    n, m = tensor.dim, tensor.order
    rows = tensor.array.reshape(n, -1)
    row_sums = rows.sum(axis=1)
    if n == 1:
        max_off = np.full(1, -math.inf)
    else:
        masked = rows.copy()
        masked[np.arange(n), _diag_flat_positions(m, n)] = -math.inf
        max_off = masked.max(axis=1)
    beta = np.maximum(max_off, 0.0)
    return RowProfile(row_sums=row_sums, max_offdiag=max_off, beta=beta)


@dataclass(frozen=True)
class Witness:
    """A row that breaks membership, with the offending off-diagonal index when relevant."""

    row: int  # 1-based
    index: Optional[tuple[int, ...]]  # 1-based (i2, ..., im), None for a row-sum failure
    reason: str  # "row_sum" or "threshold"


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str  # "B", "B0", or "Neither"
    row_sums: np.ndarray
    thresholds: np.ndarray
    max_offdiag: np.ndarray
    beta: np.ndarray
    witnesses: tuple[Witness, ...] = ()

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "row_sums": [float(v) for v in self.row_sums],
            "thresholds": [float(v) for v in self.thresholds],
            "max_offdiag": [None if math.isinf(v) else float(v) for v in self.max_offdiag],
            "beta": [float(v) for v in self.beta],
            "witnesses": [
                {"row": w.row, "index": list(w.index) if w.index else None, "reason": w.reason}
                for w in self.witnesses
            ],
        }


def _offending_index(tensor: Tensor, row: int) -> Optional[tuple[int, ...]]:
    """1-based index of the largest off-diagonal entry of the row."""
    n, m = tensor.dim, tensor.order
    flat = tensor.array.reshape(n, -1)[row].copy()
    if n == 1:
        return None
    flat[_diag_flat_positions(m, n)[row]] = -math.inf
    pos = int(np.argmax(flat))
    index = np.unravel_index(pos, (n,) * (m - 1))
    return tuple(int(i) + 1 for i in index)


def classify(tensor: Tensor, tol: float = 0.0) -> ClassificationReport:
    """Classify a tensor, with ``tol`` as the required margin on the strict inequalities.

    The default ``tol = 0`` applies the definitions with exact floating
    comparisons.  A positive tolerance demands ``> tol`` margins for the
    strict class and allows ``>= -tol`` slack for the non-strict one.  A
    negative (or NaN) ``tol`` would loosen both definitions and is rejected.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    profile = row_profile(tensor)
    n, m = tensor.dim, tensor.order
    scale = float(n ** (m - 1))
    thresholds = profile.row_sums / scale

    gap = thresholds - profile.max_offdiag  # +inf when dim == 1
    is_b = bool(np.all(profile.row_sums > tol) and np.all(gap > tol))
    is_b0 = bool(np.all(profile.row_sums >= -tol) and np.all(gap >= -tol))

    witnesses: list[Witness] = []
    if not is_b and not is_b0:
        for i in range(n):
            if profile.row_sums[i] < -tol:
                witnesses.append(Witness(row=i + 1, index=None, reason="row_sum"))
            elif gap[i] < -tol:
                witnesses.append(
                    Witness(row=i + 1, index=_offending_index(tensor, i), reason="threshold")
                )

    verdict = "B" if is_b else ("B0" if is_b0 else "Neither")
    return ClassificationReport(
        verdict=verdict,
        row_sums=profile.row_sums,
        thresholds=thresholds,
        max_offdiag=profile.max_offdiag,
        beta=profile.beta,
        witnesses=tuple(witnesses),
    )


def require_membership(tensor: Tensor, variant: str) -> ClassificationReport:
    """Check that a tensor belongs to the class named by ``variant`` ("B" or "B0")."""
    if variant not in ("B", "B0"):
        raise ValueError(f"variant must be 'B' or 'B0', got {variant!r}")
    report = classify(tensor)
    if variant == "B" and report.verdict != "B":
        raise ClassificationError(f"operation needs a B tensor, classification is {report.verdict}")
    if variant == "B0" and report.verdict == "Neither":
        raise ClassificationError("operation needs at least a B0 tensor, classification is Neither")
    return report


@dataclass(frozen=True)
class DominanceDiagnostics:
    """Three per-row consequences of membership.

    For a strict-class tensor each must hold strictly in every row:
    the diagonal entry dominates every off-diagonal magnitude, the row sum
    exceeds ``n**(m-1)`` times the positive off-diagonal cap, and the
    diagonal entry covers the total magnitude of the row's negative entries.
    The non-strict class satisfies the same with >=.
    """

    strict: bool
    diag_dominates_offdiag: np.ndarray
    rowsum_exceeds_cap: np.ndarray
    diag_covers_negatives: np.ndarray

    def all_hold(self) -> bool:
        return bool(
            self.diag_dominates_offdiag.all()
            and self.rowsum_exceeds_cap.all()
            and self.diag_covers_negatives.all()
        )

    def to_dict(self) -> dict:
        return {
            "strict": self.strict,
            "diag_dominates_offdiag": [bool(v) for v in self.diag_dominates_offdiag],
            "rowsum_exceeds_cap": [bool(v) for v in self.rowsum_exceeds_cap],
            "diag_covers_negatives": [bool(v) for v in self.diag_covers_negatives],
            "all_hold": self.all_hold(),
        }


def membership_diagnostics(tensor: Tensor, strict: bool = True) -> DominanceDiagnostics:
    require_membership(tensor, "B" if strict else "B0")
    n, m = tensor.dim, tensor.order
    rows = tensor.array.reshape(n, -1)
    diag = tensor.diagonal
    profile = row_profile(tensor)

    if n == 1:
        max_abs_off = np.zeros(1)
    else:
        abs_rows = np.abs(rows)
        abs_rows[np.arange(n), _diag_flat_positions(m, n)] = 0.0
        max_abs_off = abs_rows.max(axis=1)
    neg_sums = np.where(rows < 0, -rows, 0.0).sum(axis=1)
    cap = float(n ** (m - 1)) * profile.beta

    if strict:
        first = diag > max_abs_off
        second = profile.row_sums > cap
        third = diag > neg_sums
    else:
        first = diag >= max_abs_off
        second = profile.row_sums >= cap
        third = diag >= neg_sums
    return DominanceDiagnostics(
        strict=strict,
        diag_dominates_offdiag=first,
        rowsum_exceeds_cap=second,
        diag_covers_negatives=third,
    )


def simplex_lattice(resolution: int, dim: int) -> np.ndarray:
    """All points with coordinates ``k/resolution``, k nonnegative integers
    summing to ``resolution``, in ascending lexicographic order."""
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    count = math.comb(resolution + dim - 1, dim - 1)
    if count > GRID_POINT_LIMIT:
        raise GridTooLarge(f"simplex lattice has {count} points, limit is {GRID_POINT_LIMIT}")
    points = np.empty((count, dim), dtype=float)
    row = 0

    def fill(prefix: list[int], remaining: int, slots: int) -> None:
        nonlocal row
        if slots == 1:
            points[row, : len(prefix)] = prefix
            points[row, -1] = remaining
            row += 1
            return
        for k in range(remaining + 1):
            fill(prefix + [k], remaining - k, slots - 1)

    fill([], resolution, dim)
    return points / resolution


@dataclass(frozen=True)
class SemiPositivityCertificate:
    """Sampled certificate over the simplex lattice.

    ``worst_value`` is the smallest over all lattice points of the largest
    contraction component on the point's support.  Strict mode flags a
    violation when that max is <= 0, weak mode when it is < 0.  By degree
    (m-1) homogeneity a clean lattice extends the verdict to every
    nonnegative nonzero direction at the lattice resolution.
    """

    mode: str  # "strict" or "weak"
    resolution: int
    worst_point: np.ndarray
    worst_value: float
    violated: bool

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "resolution": self.resolution,
            "worst_point": [float(v) for v in self.worst_point],
            "worst_value": float(self.worst_value),
            "violated": self.violated,
        }


def semipositivity_certificate(
    tensor: Tensor, mode: str = "strict", resolution: int = 8
) -> SemiPositivityCertificate:
    if mode not in ("strict", "weak"):
        raise ValueError(f"mode must be 'strict' or 'weak', got {mode!r}")
    points = simplex_lattice(resolution, tensor.dim)
    values = contract_batch(tensor, points)
    supported = points > 0
    support_max = np.where(supported, values, -math.inf).max(axis=1)
    worst = int(np.argmin(support_max))  # first hit is the lexicographically smallest
    worst_value = float(support_max[worst])
    violated = worst_value <= 0 if mode == "strict" else worst_value < 0
    return SemiPositivityCertificate(
        mode=mode,
        resolution=resolution,
        worst_point=points[worst],
        worst_value=worst_value,
        violated=violated,
    )


def random_tensor(
    order: int, dim: int, rng: np.random.Generator, low: float = -1.0, high: float = 1.0
) -> Tensor:
    return Tensor(rng.uniform(low, high, size=(dim,) * order))


def random_b_tensor(
    order: int,
    dim: int,
    rng: np.random.Generator,
    margin_range: tuple[float, float] = (0.01, 1.0),
) -> Tensor:
    """Member of the strict class by construction.

    Off-diagonal entries are uniform in [-1, 1]; each diagonal entry is then
    set so the row sum equals ``n**(m-1) * (beta + margin)`` with a fresh
    margin per row, which makes both defining inequalities hold with real
    slack.
    """
    arr = rng.uniform(-1.0, 1.0, size=(dim,) * order)
    rows = arr.reshape(dim, -1)
    diag_pos = _diag_flat_positions(order, dim)
    scale = float(dim ** (order - 1))
    for i in range(dim):
        rows[i, diag_pos[i]] = 0.0
        off_sum = rows[i].sum()
        margin = rng.uniform(*margin_range)
        if dim == 1:
            rows[i, diag_pos[i]] = margin
            continue
        off_max = max(0.0, rows[i].max())
        rows[i, diag_pos[i]] = scale * (off_max + margin) - off_sum
    return Tensor(arr)


def random_b0_tensor(order: int, dim: int, rng: np.random.Generator) -> Tensor:
    """Member of the non-strict class only: one row's margin is zeroed exactly.

    The chosen row is rebuilt from dyadic entries (multiples of 1/256) so
    that its sum equals ``n**(m-1) * beta`` without rounding error; the
    membership threshold then ties that row's largest off-diagonal entry
    exactly, which defeats the strict class while keeping the non-strict one.
    """
    tensor = random_b_tensor(order, dim, rng)
    arr = np.array(tensor.array)
    rows = arr.reshape(dim, -1)
    target = int(rng.integers(dim))
    if dim == 1:
        rows[0, 0] = 0.0
        return Tensor(arr)
    diag_pos = _diag_flat_positions(order, dim)[target]
    width = rows.shape[1]
    row = rng.integers(-256, 257, size=width).astype(float) / 256.0
    off_mask = np.ones(width, dtype=bool)
    off_mask[diag_pos] = False
    if row[off_mask].max() <= 0.0:
        spot = int(rng.integers(width - 1))
        row[np.flatnonzero(off_mask)[spot]] = float(rng.integers(1, 257)) / 256.0
    beta = row[off_mask].max()
    off_sum = row[off_mask].sum()
    row[diag_pos] = float(dim ** (order - 1)) * beta - off_sum
    rows[target] = row
    return Tensor(arr)
