"""Structural classification of tensors.

A tensor belongs to the strict class ("B") when every row has a positive
entry sum and the row average ``row_sum / n**(m-1)`` strictly exceeds every
off-diagonal entry of that row; the non-strict class ("B0") relaxes both
inequalities to >=.  This module computes the per-row evidence, the
classification verdict, three derived dominance diagnostics, and a sampled
semi-positivity certificate on the unit simplex.  The certificate scores with
the exact kernel only the lattice points that a fast contraction, within a
proved rounding bound, cannot rule out, and so gives the bits of scoring them
all.  It also hosts the seeded generators that produce members of either
class by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import _BATCH_FLOATS, Report, Tensor, contract_batch

GRID_POINT_LIMIT = 1_000_000
# The semi-positivity filter runs only when scoring the whole lattice would take more kernel
# floats (points * n**(m-1)) than this; below it the kernel alone was as fast or faster.
_FILTER_MIN_FLOATS = 1 << 14


class GridTooLarge(ValueError):
    """Simplex lattice would exceed the point budget."""


class ClassificationError(ValueError):
    """Tensor does not have the classification an operation requires."""


def _diag_flat_positions(order: int, dim: int) -> np.ndarray:
    """Flat position of the all-equal-index entry inside each length n**(m-1) row."""
    return np.ravel_multi_index((np.arange(dim),) * (order - 1), (dim,) * (order - 1))


@dataclass(frozen=True)
class RowProfile:
    """Per-row evidence: entry sums, off-diagonal maxima with their places, and their positive parts."""

    row_sums: np.ndarray
    max_offdiag: np.ndarray  # -inf when the row has no off-diagonal entries (dim 1)
    beta: np.ndarray  # max(0, max_offdiag)
    at: np.ndarray  # place in the flat row of its first largest off-diagonal entry


def row_profile(tensor: Tensor) -> RowProfile:
    n, m = tensor.dim, tensor.order
    rows = tensor.array.reshape(n, -1)
    row_sums = rows.sum(axis=1)
    masked = rows.copy()
    masked[np.arange(n), _diag_flat_positions(m, n)] = -math.inf
    at = masked.argmax(axis=1)
    max_off = masked[np.arange(n), at]
    beta = np.maximum(max_off, 0.0)
    return RowProfile(row_sums=row_sums, max_offdiag=max_off, beta=beta, at=at)


@dataclass(frozen=True)
class Witness(Report):
    """A row that breaks membership, with the offending off-diagonal index when relevant."""

    row: int  # 1-based
    index: Optional[tuple[int, ...]]  # 1-based (i2, ..., im), None for a row-sum failure
    reason: str  # "row_sum" or "threshold"


@dataclass(frozen=True)
class ClassificationReport(Report):
    verdict: str  # "B", "B0", or "Neither"
    row_sums: np.ndarray
    thresholds: np.ndarray
    max_offdiag: np.ndarray  # -inf, shown as null, when the row has no off-diagonal entries
    beta: np.ndarray
    witnesses: tuple[Witness, ...] = ()

    def to_dict(self) -> dict:
        payload = super().to_dict()
        payload["max_offdiag"] = [None if math.isinf(v) else v for v in payload["max_offdiag"]]
        return payload


def _check_tol(tol: float) -> None:
    """Raise ValueError for a ``tol`` that is negative, NaN or infinite."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be >= 0 and finite, got {tol}")


def classify(tensor: Tensor, tol: float = 0.0) -> ClassificationReport:
    """Classify a tensor, with ``tol`` as the required margin on the strict inequalities.

    The default ``tol = 0`` applies the definitions with exact floating
    comparisons.  A positive tolerance demands ``> tol`` margins for the
    strict class and allows ``>= -tol`` slack for the non-strict one.  A
    negative (or NaN) ``tol`` would loosen both definitions, and an infinite
    one would label every member non-strict, so both are rejected.
    """
    _check_tol(tol)
    profile = row_profile(tensor)
    n, m = tensor.dim, tensor.order
    scale = float(n ** (m - 1))
    thresholds = profile.row_sums / scale

    gap = thresholds - profile.max_offdiag  # +inf when dim == 1
    is_b = bool((profile.row_sums > tol).all() and (gap > tol).all())
    # The strict margins imply the non-strict ones, as tol >= 0.
    is_b0 = is_b or bool((profile.row_sums >= -tol).all() and (gap >= -tol).all())

    witnesses: list[Witness] = []
    if not is_b and not is_b0:
        for i in range(n):
            if profile.row_sums[i] < -tol:
                witnesses.append(Witness(row=i + 1, index=None, reason="row_sum"))
            elif gap[i] < -tol:
                index = tuple(int(j) + 1 for j in np.unravel_index(profile.at[i], (n,) * (m - 1)))
                witnesses.append(Witness(row=i + 1, index=index, reason="threshold"))

    verdict = "B" if is_b else ("B0" if is_b0 else "Neither")
    return ClassificationReport(
        verdict=verdict,
        row_sums=profile.row_sums,
        thresholds=thresholds,
        max_offdiag=profile.max_offdiag,
        beta=profile.beta,
        witnesses=tuple(witnesses),
    )


def require_membership(tensor: Tensor, variant: str, report=None) -> ClassificationReport:
    """Check that a tensor belongs to the class named by ``variant`` ("B" or "B0"): by its
    classification ``report`` when the caller has one, else by classifying it at ``tol = 0``."""
    if variant not in ("B", "B0"):
        raise ValueError(f"variant must be 'B' or 'B0', got {variant!r}")
    report = classify(tensor) if report is None else report
    if variant == "B" and report.verdict != "B":
        raise ClassificationError(f"operation needs a B tensor, classification is {report.verdict}")
    if variant == "B0" and report.verdict == "Neither":
        raise ClassificationError("operation needs at least a B0 tensor, classification is Neither")
    return report


@dataclass(frozen=True)
class DominanceDiagnostics(Report):
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
        return super().to_dict() | {"all_hold": self.all_hold()}


def membership_diagnostics(tensor: Tensor, strict: bool = True, report=None) -> DominanceDiagnostics:
    """Diagnostics of a member of the class ``strict`` names; ``report`` as for :func:`require_membership`."""
    report = require_membership(tensor, "B" if strict else "B0", report)
    n, m = tensor.dim, tensor.order
    rows = tensor.array.reshape(n, -1)
    diag = tensor.diagonal

    abs_rows = np.abs(rows)
    abs_rows[np.arange(n), _diag_flat_positions(m, n)] = 0.0
    max_abs_off = abs_rows.max(axis=1)
    neg_sums = np.where(rows < 0, -rows, 0.0).sum(axis=1)
    cap = float(n ** (m - 1)) * report.beta

    holds = np.greater if strict else np.greater_equal
    return DominanceDiagnostics(
        strict=strict,
        diag_dominates_offdiag=holds(diag, max_abs_off),
        rowsum_exceeds_cap=holds(report.row_sums, cap),
        diag_covers_negatives=holds(diag, neg_sums),
    )


def simplex_lattice(resolution: int, dim: int) -> np.ndarray:
    """All points with coordinates ``k/resolution``, k nonnegative integers
    summing to ``resolution``, in ascending lexicographic order.

    The points' leading coordinates grow one at a time: each partial row, in
    ascending lexicographic order, is followed by every next coordinate its
    sum leaves room for, so the row-major order of one ``np.nonzero`` over
    (row, next coordinate) keeps that order; the last coordinate is the rest.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    count = math.comb(resolution + dim - 1, dim - 1)
    if count > GRID_POINT_LIMIT:
        raise GridTooLarge(f"simplex lattice has {count} points, limit is {GRID_POINT_LIMIT}")
    heads, sums = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(dim - 1):
        rows, nxt = np.nonzero(sums[:, None] + np.arange(resolution + 1) <= resolution)
        heads, sums = np.column_stack((heads[rows], nxt)), sums[rows] + nxt
    return np.column_stack((heads, resolution - sums)) / resolution


@dataclass(frozen=True)
class SemiPositivityCertificate(Report):
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


def semipositivity_certificate(
    tensor: Tensor, mode: str = "strict", resolution: int = 8
) -> SemiPositivityCertificate:
    """The lattice point whose largest contraction component on its support is smallest.

    Exact: ``worst_point``, ``worst_value`` and ``violated`` are bit for bit
    those of scoring every point of :func:`simplex_lattice` with
    :func:`contract_batch` and taking the first minimum in lattice order.  A
    fast filter (:func:`_candidate_rows`) rules out the points whose support
    max provably lies above that minimum, and only the rest are scored with
    the kernel, in lattice order.  Every point is scored when the filter
    cannot bound its error (entries of magnitude above half the largest float,
    or not finite), and on small lattices, which the kernel alone scores as fast.
    A score past the float range is inf or NaN, as the kernel gives it, without
    numpy's overflow and invalid warnings.
    """
    if mode not in ("strict", "weak"):
        raise ValueError(f"mode must be 'strict' or 'weak', got {mode!r}")
    points = simplex_lattice(resolution, tensor.dim)
    supported = points > 0
    rows = _candidate_rows(tensor, points, supported)
    with np.errstate(over="ignore", invalid="ignore"):
        values = contract_batch(tensor, points[rows])
    support_max = np.where(supported[rows], values, -math.inf).max(axis=1)
    at = int(np.argmin(support_max))  # first hit is the lexicographically smallest
    worst_value = float(support_max[at])
    violated = worst_value <= 0 if mode == "strict" else worst_value < 0
    return SemiPositivityCertificate(
        mode=mode,
        resolution=resolution,
        worst_point=points[rows[at]],
        worst_value=worst_value,
        violated=violated,
    )


def _candidate_rows(tensor: Tensor, points: np.ndarray, supported: np.ndarray) -> np.ndarray:
    """The ascending indices of the lattice points whose :func:`contract_batch` support max may be the smallest.

    Each point's support max is first computed by a GEMM-first contraction
    (the first index moved last, one matrix product per row block, then m - 2
    row-wise vector-matrix products), which sums in another order than the
    kernel.  The points are >= 0 with sum <= 1 + u, so in either path, for
    any summation order or FMA use, every term of a component is within
    gamma_K = Ku / (1 - Ku), K = m(n + 1), of its exact value, and each
    component, hence each support max, within gamma_K * max|a| * (1 + u)**(m - 1)
    of it, plus 2**-1022 per operation, at most K n**(m-1) of them, for
    underflow (Higham 2002, section 3.1).  ``err`` doubles that for the two paths and
    again for the rounding of the bound and of the comparison.  A point whose
    fast value less ``err`` is above the least fast value plus ``err`` has a
    kernel support max above the kernel's minimum, so it is not its first hit.
    """
    m, n = tensor.order, tensor.dim
    if len(points) * n ** (m - 1) <= _FILTER_MIN_FLOATS:
        return np.arange(len(points))
    scale = float(np.abs(tensor.array).max())
    # Every intermediate of either path is below 2 max|a|, so neither overflows when that is finite.
    if not math.isfinite(2.0 * scale):
        return np.arange(len(points))
    u, ops = 2.0**-53, m * (n + 1)
    err = 4.0 * (ops * u / (1.0 - ops * u) * scale * (1.0 + u) ** (m - 1) + ops * n ** (m - 1) * 2.0**-1022)
    flat = np.moveaxis(tensor.array, 0, -1).reshape(n, -1)
    step = max(1, _BATCH_FLOATS // flat.shape[1])
    fast = np.empty(len(points))
    for lo in range(0, len(points), step):
        block = points[lo : lo + step]
        part = block @ flat
        for _ in range(m - 2):
            part = (block[:, None] @ part.reshape(len(block), n, -1))[:, 0]
        fast[lo : lo + step] = np.where(supported[lo : lo + step], part, -math.inf).max(axis=1)
    return np.flatnonzero(fast - err <= (fast + err).min())


def random_tensor(order: int, dim: int, rng: np.random.Generator) -> Tensor:
    """Entries uniform in [-1, 1]."""
    return Tensor(rng.uniform(-1.0, 1.0, size=(dim,) * order))


def random_b_tensor(order: int, dim: int, rng: np.random.Generator) -> Tensor:
    """Member of the strict class by construction.

    Off-diagonal entries are uniform in [-1, 1]; each diagonal entry is then
    set so the row sum equals ``n**(m-1) * (beta + margin)`` with a fresh
    margin per row, uniform in [0.01, 1], which makes both defining
    inequalities hold with real slack.
    """
    arr = rng.uniform(-1.0, 1.0, size=(dim,) * order)
    rows = arr.reshape(dim, -1)
    diag = (np.arange(dim), _diag_flat_positions(order, dim))
    rows[diag] = 0.0  # so that a row's max is its beta, max(0, largest off-diagonal entry)
    margin = rng.uniform(0.01, 1.0, dim)
    rows[diag] = float(dim ** (order - 1)) * (rows.max(axis=1) + margin) - rows.sum(axis=1)
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
