"""Operator norm bounds for the two homogeneous maps of a classified tensor.

For any tensor the row absolute sums give closed-form upper bounds on both
map norms.  For members of the strict/non-strict classes much simpler
bounds hold: the lower bounds involve only the positive off-diagonal caps
and the row sums, the upper bounds only the diagonal entries.  A seeded
multistart ascent supplies an empirical lower estimate so every report can
be sandwich checked: ``b_lower <= estimate <= min(general_upper, b_upper)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Tensor, UnsupportedOrder, root_map, scaled_map
from .structure import require_membership, row_profile

__all__ = [
    "NormBoundReport",
    "SandwichViolation",
    "general_upper_bound",
    "t_norm_bounds",
    "f_norm_bounds",
    "closed_form_bounds",
    "estimate_norm",
    "bound_report",
]

SANDWICH_SLACK = 1e-9

_MAPS = {"T": scaled_map, "F": root_map}


class SandwichViolation(ArithmeticError):
    """Empirical estimate escaped the closed-form bracket."""


def _check_operator(operator: str) -> str:
    if operator not in ("T", "F"):
        raise ValueError(f"operator must be 'T' or 'F', got {operator!r}")
    return operator


def _check_p(p: float) -> float:
    if p != math.inf and float(p) < 1:
        raise ValueError(f"norm exponent must be >= 1 or inf, got {p}")
    return float(p)


def _row_abs_sums(tensor: Tensor) -> np.ndarray:
    return np.abs(tensor.array).reshape(tensor.dim, -1).sum(axis=1)


def general_upper_bound(tensor: Tensor, operator: str, p: float = math.inf) -> float:
    """Row-absolute-sum upper bound, valid for every tensor."""
    _check_operator(operator)
    p = _check_p(p)
    m, n = tensor.order, tensor.dim
    if operator == "F" and m % 2:
        raise UnsupportedOrder(f"operator F needs an even order, got {m}")
    rabs = _row_abs_sums(tensor)
    if operator == "T":
        if p == math.inf:
            return float(rabs.max())
        return float(n ** ((m - 2) / p) * np.sum(rabs**p) ** (1 / p))
    if p == math.inf:
        return float(rabs.max() ** (1 / (m - 1)))
    return float(np.sum(rabs ** (p / (m - 1))) ** (1 / p))


def _uniform_witness_value(tensor: Tensor, operator: str, p: float) -> float:
    """Map value at the normalized uniform vector, the strict-class lower witness.

    Evaluated through the same batch path as the empirical estimator, so an
    estimate that includes the uniform start can never fall below it.
    """
    witness = _normalize_rows(np.ones((1, tensor.dim)), p)
    return float(_row_norms(_MAPS[operator](tensor, witness), p)[0])


def t_norm_bounds(tensor: Tensor, p: float = math.inf, variant: str = "B") -> tuple[float, float]:
    """Class-specific bracket for the 2-norm rescaled map.

    The lower bound always includes the off-diagonal-cap term; for the
    strict class the map value at the uniform witness (algebraically the
    row-sum term) joins the max and the bracket is strict.  The upper bound
    uses only the diagonal entries.
    """
    p = _check_p(p)
    require_membership(tensor, variant)
    m, n = tensor.order, tensor.dim
    profile = row_profile(tensor)
    diag = tensor.diagonal
    if p == math.inf:
        lower = n ** (m / 2) * profile.beta.max()
        upper = n ** (m / 2) * diag.max()
    else:
        lower = n ** ((m * p - 2) / (2 * p)) * np.sum(profile.beta**p) ** (1 / p)
        upper = n ** ((m * p - 2) / (2 * p)) * np.sum(diag**p) ** (1 / p)
    if variant == "B":
        lower = max(lower, _uniform_witness_value(tensor, "T", p))
    return float(lower), float(upper)


def f_norm_bounds(tensor: Tensor, p: float = math.inf, variant: str = "B") -> tuple[float, float]:
    """Class-specific bracket for the componentwise-root map (even order only).

    For the max norm the diagonal upper bound is itself weaker than the
    general row-absolute-sum bound, so the reported upper is their minimum.
    """
    p = _check_p(p)
    m, n = tensor.order, tensor.dim
    if m % 2:
        raise UnsupportedOrder(f"operator F needs an even order, got {m}")
    require_membership(tensor, variant)
    profile = row_profile(tensor)
    diag = tensor.diagonal
    root = 1.0 / (m - 1)
    if p == math.inf:
        lower = n * profile.beta.max() ** root
        upper = min(general_upper_bound(tensor, "F", math.inf), n * diag.max() ** root)
    else:
        lower = n ** ((p - 1) / p) * np.sum(profile.beta ** (p * root)) ** (1 / p)
        upper = n ** ((p - 1) / p) * np.sum(diag ** (p * root)) ** (1 / p)
    if variant == "B":
        lower = max(lower, _uniform_witness_value(tensor, "F", p))
    return float(lower), float(upper)


def closed_form_bounds(
    tensor: Tensor, operator: str, p: float = math.inf, variant: str = "B"
) -> tuple[float, float, float]:
    """``(general_upper, b_lower, b_upper)`` of a ``variant`` member.

    Entries that overflow a closed form raise ``ValueError`` naming the first
    bound that is not finite; numpy's overflow warnings are silenced, as the
    error says it.
    """
    _check_operator(operator)
    bracket = t_norm_bounds if operator == "T" else f_norm_bounds
    with np.errstate(over="ignore"):
        general = general_upper_bound(tensor, operator, p)
        lower, upper = bracket(tensor, p, variant)
    for name, value in (("general_upper", general), ("b_lower", lower), ("b_upper", upper)):
        if not math.isfinite(value):
            raise ValueError(f"{name} is {value}: the entries overflow the closed-form bound")
    return general, lower, upper


def _row_norms(points: np.ndarray, p: float) -> np.ndarray:
    if p == math.inf:
        return np.abs(points).max(axis=1)
    return np.sum(np.abs(points) ** p, axis=1) ** (1 / p)


def _normalize_rows(points: np.ndarray, p: float) -> np.ndarray:
    norms = _row_norms(points, p)
    dead = norms == 0
    if np.any(dead):
        points = points.copy()
        points[dead, 0] = 1.0
        norms = _row_norms(points, p)
    return points / norms[:, None]


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
    improvement.  The result is deterministic in the seed and never exceeds
    the true operator norm.
    """
    apply_map = _MAPS[_check_operator(operator)]
    p = _check_p(p)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    n = tensor.dim
    rng = np.random.default_rng(seed)
    starts = np.vstack([np.ones((1, n)), np.eye(n), rng.standard_normal((samples, n))])
    points = _normalize_rows(starts, p)
    values = _row_norms(apply_map(tensor, points), p)

    steps = np.full(len(points), float(step))
    for _ in range(ascent_steps):
        improved = np.zeros(len(points), dtype=bool)
        for j in range(n):
            for sign in (1.0, -1.0):
                candidates = points.copy()
                candidates[:, j] += sign * steps
                candidates = _normalize_rows(candidates, p)
                cand_values = _row_norms(apply_map(tensor, candidates), p)
                better = cand_values > values
                points[better] = candidates[better]
                values[better] = cand_values[better]
                improved |= better
        steps[~improved] *= 0.5

    best = int(np.argmax(values))
    return float(values[best]), points[best]


@dataclass(frozen=True)
class NormBoundReport:
    operator: str  # "T" or "F"
    p: float  # math.inf for the max norm
    variant: str  # "B" or "B0"
    strict: bool
    general_upper: float
    b_lower: float
    b_upper: float
    empirical_estimate: float
    estimate_witness: np.ndarray

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "norm": "inf" if self.p == math.inf else self.p,
            "variant": self.variant,
            "strict": self.strict,
            "general_upper": self.general_upper,
            "b_lower": self.b_lower,
            "b_upper": self.b_upper,
            "empirical_estimate": self.empirical_estimate,
            "estimate_witness": [float(v) for v in self.estimate_witness],
        }


def bound_report(
    tensor: Tensor,
    operator: str,
    p: float = math.inf,
    samples: int = 1024,
    ascent_steps: int = 100,
    seed: int = 0,
) -> NormBoundReport:
    """Assemble the full bracket report and enforce the sandwich invariant.

    A bound that overflows raises ``ValueError``; an estimate outside the
    bracket raises :class:`SandwichViolation`.
    """
    _check_operator(operator)
    p = _check_p(p)
    report = require_membership(tensor, "B0")
    variant = report.verdict  # "B" or "B0"
    general, lower, upper = closed_form_bounds(tensor, operator, p, variant)
    estimate, witness = estimate_norm(
        tensor, operator, p, samples=samples, ascent_steps=ascent_steps, seed=seed
    )
    # The non-strict class can attain its lower bound exactly, where two
    # float routes to the same real may sit an ulp apart; recognize the tie.
    lower_ok = lower - estimate <= 1e-12 * max(1.0, abs(lower))
    if not (lower_ok and estimate <= min(general, upper) + SANDWICH_SLACK):
        raise SandwichViolation(
            f"estimate {estimate} outside [{lower}, min({general}, {upper})]"
        )
    return NormBoundReport(
        operator=operator,
        p=p,
        variant=variant,
        strict=variant == "B",
        general_upper=general,
        b_lower=lower,
        b_upper=upper,
        empirical_estimate=estimate,
        estimate_witness=witness,
    )
