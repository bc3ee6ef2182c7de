"""Operator norm bounds for the two homogeneous maps of a classified tensor.

For any tensor the row absolute sums give closed-form upper bounds on both
map norms.  For members of the strict/non-strict classes much simpler
bounds hold: the lower bounds involve only the positive off-diagonal caps
and the row sums, the upper bounds only the diagonal entries.  A seeded
multistart ascent supplies an empirical lower estimate so every report can
be sandwich checked: ``b_lower <= estimate <= min(general_upper, b_upper)``.
The ascent moves all its starts at once, one batched map call per
(coordinate, sign) move; each start still accepts its moves in sequence,
as if it ran alone; its row norms are ``core._row_norms``.  One private
closed form, ``scale * ||v ** r||_p`` with the in-sum exponent ``p * r``,
gives every bound; :func:`closed_form_report` classifies a tensor once, or
takes the caller's classification, and gives the class bracket at its own
class as a :class:`NormBoundReport` with no estimate, and
:func:`bound_report` adds the checked estimate to it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import Report, Tensor, UnsupportedOrder, _row_norms, check_count, root_map, scaled_map
from .structure import require_membership

SANDWICH_SLACK = 1e-9

_MAPS = {"T": scaled_map, "F": root_map}


class SandwichViolation(ArithmeticError):
    """Empirical estimate escaped the closed-form bracket."""


def _checked_p(operator: str, p: float, order: Optional[int] = None) -> float:
    """``p`` as a float, once the operator, ``p >= 1`` or inf and F's even order (if given) pass, in turn."""
    if operator not in ("T", "F"):
        raise ValueError(f"operator must be 'T' or 'F', got {operator!r}")
    p = float(p)
    if not p >= 1:  # NaN too
        raise ValueError(f"norm exponent must be >= 1 or inf, got {p}")
    if operator == "F" and order is not None and order % 2:
        raise UnsupportedOrder(f"operator F needs an even order, got {order}")
    return p


def _closed_form(v: np.ndarray, p: float, scale: float, r: float):
    """``scale * ||v ** r||_p``; for finite p the in-sum exponent is ``p * r``."""
    if p == math.inf:
        return scale * v.max() ** r
    return scale * np.sum(v ** (p * r)) ** (1 / p)


def general_upper_bound(tensor: Tensor, operator: str, p: float = math.inf) -> float:
    """Row-absolute-sum upper bound, valid for every tensor."""
    m, n = tensor.order, tensor.dim
    p = _checked_p(operator, p, m)
    rabs = np.abs(tensor.array).reshape(n, -1).sum(axis=1)
    scale = n ** ((m - 2) / p) if operator == "T" and p != math.inf else 1
    return float(_closed_form(rabs, p, scale, 1 if operator == "T" else 1 / (m - 1)))


def _bracket(tensor: Tensor, operator: str, p: float, strict: bool, beta: np.ndarray) -> tuple[float, float]:
    """Class bracket of either map: ``scale * ||v ** r||_p`` at v = beta, then at the diagonal.

    ``r`` is the int 1 for T, which keeps its powers exact, and ``1 / (m - 1)``
    for F.  F's max-norm upper is capped by the general bound.  For the strict
    class the map value at the uniform witness (the row-sum term) joins the
    lower bound, through the estimator's batch path, so an estimate that
    includes the uniform start never falls below it.
    """
    m, n = tensor.order, tensor.dim
    r = 1 if operator == "T" else 1.0 / (m - 1)
    if p == math.inf:
        scale = n ** (m / 2) if operator == "T" else n
    else:
        scale = n ** ((m * p - 2) / (2 * p)) if operator == "T" else n ** ((p - 1) / p)
    lower, upper = (_closed_form(v, p, scale, r) for v in (beta, tensor.diagonal))
    if operator == "F" and p == math.inf:
        upper = min(general_upper_bound(tensor, "F", math.inf), upper)
    if strict:
        witness = _normalize_rows(np.ones((1, n)), p)
        lower = max(lower, float(_row_norms(_MAPS[operator](tensor, witness), p)[0]))
    return float(lower), float(upper)


def t_norm_bounds(tensor: Tensor, p: float = math.inf, variant: str = "B") -> tuple[float, float]:
    """Class-specific bracket for the 2-norm rescaled map.

    The lower bound always includes the off-diagonal-cap term, joined for
    the strict class by the uniform-witness value, which makes the bracket
    strict.  The upper bound uses only the diagonal entries.
    """
    p = _checked_p("T", p)
    return _bracket(tensor, "T", p, variant == "B", require_membership(tensor, variant).beta)


def f_norm_bounds(tensor: Tensor, p: float = math.inf, variant: str = "B") -> tuple[float, float]:
    """Class-specific bracket for the componentwise-root map (even order only).

    For the max norm the reported upper is the minimum of the diagonal and
    the general bound.
    """
    p = _checked_p("F", p, tensor.order)
    return _bracket(tensor, "F", p, variant == "B", require_membership(tensor, variant).beta)


def _normalize_rows(points: np.ndarray, p: float) -> np.ndarray:
    """Scale every row of ``points`` to unit p-norm in place and return it; a zero row becomes e1."""
    norms = _row_norms(points, p)
    if np.count_nonzero(norms) < len(norms):
        points[norms == 0, 0] = 1.0
        norms = _row_norms(points, p)
    points /= norms[:, None]
    return points


def estimate_norm(
    tensor: Tensor,
    operator: str,
    p: float = math.inf,
    samples: int = 1024,
    ascent_steps: int = 100,
    seed: int = 0,
    step: float = 0.1,
) -> tuple[float, np.ndarray]:
    """Empirical lower estimate of the operator norm with its witness vector.

    Starts are the normalized uniform vector, the coordinate vectors, and
    ``samples`` seeded random unit vectors; each is refined by a normalized
    coordinate ascent whose per-start step halves on a sweep without
    improvement.  A sweep makes the moves (j, +) and (j, -) for j = 0, ...,
    n - 1 in that order.  Each move scores every start at once: it fills one
    candidate buffer, reused for the whole estimate, with the points moved
    along coordinate j, normalizes it in place and applies the map to it in
    one batch; a start takes its candidate when the value rises, before the
    next move is made, so each row climbs as it would alone.  The result is
    deterministic in the seed and never exceeds the true operator norm.
    ``step``, each start's first move length, must be finite and > 0.
    """
    p = _checked_p(operator, p)
    apply_map = _MAPS[operator]
    check_count("samples", samples, tensor.dim)
    if ascent_steps < 0:
        raise ValueError(f"ascent_steps must be >= 0, got {ascent_steps}")
    step = float(step)
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    n = tensor.dim
    rng = np.random.default_rng(seed)
    starts = np.vstack([np.ones((1, n)), np.eye(n), rng.standard_normal((samples, n))])
    points = _normalize_rows(starts, p)
    values = _row_norms(apply_map(tensor, points), p)

    candidates = np.empty_like(points)
    steps = np.full(len(points), step)
    for _ in range(ascent_steps):
        improved = np.zeros(len(points), dtype=bool)
        moves = (steps, -steps)
        for j in range(n):
            for move in moves:
                np.copyto(candidates, points)
                candidates[:, j] += move
                cand_values = _row_norms(apply_map(tensor, _normalize_rows(candidates, p)), p)
                better = cand_values > values
                np.copyto(points, candidates, where=better[:, None])
                np.copyto(values, cand_values, where=better)
                improved |= better
        steps[~improved] *= 0.5

    best = int(np.argmax(values))
    return float(values[best]), points[best]


@dataclass(frozen=True)
class NormBoundReport(Report):
    operator: str  # "T" or "F"
    p: float  # math.inf for the max norm; written as "norm", "inf" for math.inf
    variant: str  # "B" or "B0"
    strict: bool
    general_upper: float
    b_lower: float
    b_upper: float
    empirical_estimate: Optional[float] = None
    estimate_witness: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        payload = {("norm" if key == "p" else key): value for key, value in super().to_dict().items()}
        return payload | {"norm": "inf" if self.p == math.inf else self.p}


def closed_form_report(tensor: Tensor, operator: str, p: float = math.inf, report=None) -> NormBoundReport:
    """The closed-form bracket of a member of either class, at its own class, with no estimate.

    The operator and ``p`` are checked first, then membership of at least
    the non-strict class; the classification's verdict is the report's
    variant.  Entries that overflow a closed form raise ``ValueError``
    naming the first bound that is not finite; numpy's overflow warnings
    are silenced, as the error says it.  ``report`` as for
    :func:`require_membership`.
    """
    p = _checked_p(operator, p)
    membership = require_membership(tensor, "B0", report)
    variant = membership.verdict  # "B" or "B0"
    with np.errstate(over="ignore"):
        general = general_upper_bound(tensor, operator, p)
        lower, upper = _bracket(tensor, operator, p, variant == "B", membership.beta)
    for name, value in (("general_upper", general), ("b_lower", lower), ("b_upper", upper)):
        if not math.isfinite(value):
            raise ValueError(f"{name} is {value}: the entries overflow the closed-form bound")
    return NormBoundReport(
        operator=operator,
        p=p,
        variant=variant,
        strict=variant == "B",
        general_upper=general,
        b_lower=lower,
        b_upper=upper,
    )


def bound_report(
    tensor: Tensor,
    operator: str,
    p: float = math.inf,
    samples: int = 1024,
    ascent_steps: int = 100,
    seed: int = 0,
) -> NormBoundReport:
    """:func:`closed_form_report` with the empirical estimate, sandwich checked.

    A bound that overflows, or a bad argument, raises ``ValueError``; an
    estimate outside the bracket raises :class:`SandwichViolation`.
    """
    report = closed_form_report(tensor, operator, p)
    lower, general, upper = report.b_lower, report.general_upper, report.b_upper
    estimate, witness = estimate_norm(
        tensor, operator, report.p, samples=samples, ascent_steps=ascent_steps, seed=seed
    )
    # The non-strict class can attain its lower bound exactly, where two
    # float routes to the same real may sit an ulp apart; recognize the tie.
    lower_ok = lower - estimate <= 1e-12 * max(1.0, abs(lower))
    if not (lower_ok and estimate <= min(general, upper) + SANDWICH_SLACK):
        raise SandwichViolation(
            f"estimate {estimate} outside [{lower}, min({general}, {upper})]"
        )
    return replace(report, empirical_estimate=estimate, estimate_witness=witness)
