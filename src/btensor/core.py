"""Dense hypermatrix arithmetic.

A tensor here is an order-m, dimension-n real hypermatrix stored as a dense
``(n, ..., n)`` float array.  One kernel, a chain of matrix-vector products
contracting the last index first, gives :func:`contract` (one vector) and
:func:`contract_batch` (a ``(k, n)`` batch as a leading axis, any order); a
batch row equals the single-vector result bit for bit.  On it rest the two
degree-one homogeneous maps ``T`` (:func:`scaled_map`) and ``F``
(:func:`root_map`); they and :func:`contraction_jacobian` each take one
vector or a batch.  :func:`damped_newton` is the one Newton driver: it
advances a stack of starts together, and the H- and Z-eigenpair searches
and the complementarity solver supply only a batched residual and its
Jacobian.
"""
from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "Tensor",
    "DimensionMismatch",
    "UnsupportedOrder",
    "contract",
    "contract_batch",
    "contraction_jacobian",
    "damped_newton",
    "homogeneous_form",
    "vector_power",
    "vector_norm",
    "scaled_map",
    "root_map",
    "is_entry_symmetric",
]

# contract_batch takes as many rows at a time as keep its first intermediate
# (rows * n**(m-1) floats) within this cap, and at least one.
_BATCH_FLOATS = 1 << 16
# damped_newton's line search scores at most this many trial points per
# evaluate call, which bounds its memory on a wide stack.
_TRIAL_POINTS = 256


class DimensionMismatch(ValueError):
    """Vector length does not match the tensor dimension."""


class UnsupportedOrder(ValueError):
    """Operation is only defined for even tensor order."""


class Tensor:
    """Order-m, dimension-n real hypermatrix with immutable entries.

    The flat entry order is lexicographic in the index tuple with the first
    index slowest, which is exactly the C-order raveling of the array.
    """

    __slots__ = ("array", "symmetric")

    def __init__(self, array, symmetric: bool = False):
        arr = np.array(array, dtype=float)
        if arr.ndim < 2:
            raise ValueError(f"tensor order must be at least 2, got {arr.ndim}")
        n = arr.shape[0]
        if n < 1 or any(s != n for s in arr.shape):
            raise ValueError(f"tensor axes must all have the same positive length, got {arr.shape}")
        arr.flags.writeable = False
        self.array = arr
        self.symmetric = bool(symmetric)

    @property
    def order(self) -> int:
        return self.array.ndim

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Flat lexicographic view of the entries, length ``dim ** order``."""
        return self.array.reshape(-1)

    @property
    def diagonal(self) -> np.ndarray:
        """The n entries with all indices equal."""
        n, m = self.dim, self.order
        idx = np.arange(n)
        return self.array[(idx,) * m]

    @classmethod
    def from_flat(cls, order: int, dim: int, entries, symmetric: bool = False) -> "Tensor":
        flat = np.asarray(entries, dtype=float).reshape(-1)
        if flat.size != dim**order:
            raise ValueError(
                f"expected {dim**order} entries for order {order}, dim {dim}, got {flat.size}"
            )
        return cls(flat.reshape((dim,) * order), symmetric=symmetric)

    @classmethod
    def diagonal_tensor(cls, order: int, dim: int, values=1.0) -> "Tensor":
        """Tensor with the given values on the all-equal-index positions, zero elsewhere."""
        if order < 2 or dim < 1:
            raise ValueError("need order >= 2 and dim >= 1")
        arr = np.zeros((dim,) * order)
        vals = np.broadcast_to(np.asarray(values, dtype=float), (dim,))
        idx = np.arange(dim)
        arr[(idx,) * order] = vals
        return cls(arr, symmetric=True)

    @classmethod
    def zeros(cls, order: int, dim: int) -> "Tensor":
        return cls(np.zeros((dim,) * order), symmetric=True)

    def scaled(self, factor: float) -> "Tensor":
        return Tensor(factor * self.array, symmetric=self.symmetric)

    def __repr__(self) -> str:
        return f"Tensor(order={self.order}, dim={self.dim})"


def _as_vector(tensor: Tensor, x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (tensor.dim,):
        raise DimensionMismatch(
            f"expected a vector of length {tensor.dim}, got shape {v.shape}"
        )
    return v


def _as_rows(tensor: Tensor, x) -> np.ndarray:
    """A vector (n,) as a one-row batch; a (k, n) batch as it is."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 1:
        return _as_vector(tensor, v)[None]
    if v.ndim != 2 or v.shape[1] != tensor.dim:
        raise DimensionMismatch(f"expected shape (k, {tensor.dim}), got {v.shape}")
    return v


def contract(tensor: Tensor, x) -> np.ndarray:
    """Contract ``x`` into every index but the first.

    Returns the vector whose i-th component is the sum over all remaining
    indices of ``a[i, i2, ..., im] * x[i2] * ... * x[im]``.
    """
    v = _as_vector(tensor, x)
    n = tensor.dim
    out = tensor.array.reshape(-1, n) @ v
    for _ in range(tensor.order - 2):
        out = out.reshape(-1, n) @ v
    return out


def contract_batch(tensor: Tensor, points: np.ndarray) -> np.ndarray:
    """Row-wise :func:`contract`, (k, n) -> (k, n): the same chain with a leading batch axis."""
    pts = np.asarray(points, dtype=float)
    n = tensor.dim
    if pts.ndim != 2 or pts.shape[1] != n:
        raise DimensionMismatch(f"expected shape (k, {n}), got {pts.shape}")
    flat = tensor.array.reshape(-1, n)
    step = max(1, _BATCH_FLOATS // len(flat))
    out = np.empty(pts.shape)
    for lo in range(0, len(pts), step):
        cols = pts[lo : lo + step, :, None]
        part = flat @ cols
        for _ in range(tensor.order - 2):
            part = part.reshape(len(cols), -1, n) @ cols
        out[lo : lo + step] = part[:, :, 0]
    return out


def contraction_jacobian(tensor: Tensor, x) -> np.ndarray:
    """Derivative matrix of ``x -> contract(tensor, x)``: (n,) -> (n, n), or row-wise (k, n) -> (k, n, n).

    Uses the exact multilinear rule: one term per contracted index slot, so
    no symmetry of the entries is assumed.  A batch row is bit for bit the
    single-vector result.
    """
    pts = _as_rows(tensor, x)
    m, n, k = tensor.order, tensor.dim, len(pts)
    # Each row as an (n, 1) column, behind as many unit axes as the partial contraction has index axes.
    cols = [pts.reshape((k,) + (1,) * ones + (n, 1)) for ones in range(m - 2, 0, -1)]
    jac = np.zeros((k, n, n))
    for slot in range(1, m):
        # np.moveaxis(tensor.array, slot, 1), with a leading batch axis.
        part = tensor.array.transpose([0, slot, *range(1, slot), *range(slot + 1, m)])[None]
        for col in cols:
            part = (part @ col)[..., 0]
        jac += part
    return jac.reshape(np.shape(x) + (n,))


@functools.lru_cache(maxsize=16)
def _shorter_lengths(min_step: float) -> np.ndarray:
    """The line-search lengths after the full step, 1/2, 1/4, ... above ``min_step``, as a read-only column."""
    lengths = []
    t = 0.5
    while t > min_step:
        lengths.append(t)
        t *= 0.5
    column = np.array(lengths).reshape(-1, 1)
    column.flags.writeable = False
    return column


def damped_newton(evaluate, jacobian, z0, max_iter: int, tol: float, min_step: float):
    """Newton steps with a halving line search on a (k, d) stack of starts.

    ``evaluate(z)`` takes a (j, d) stack and gives, row by row, the point it
    accepts (it may project it), the residual there and its merit, shaped
    (j, d), (j, d) and (j,); ``jacobian(z, g)`` gives the (j, d, d) residual
    derivatives.  Every row steps as if it ran alone: it takes the first
    length 1, 1/2, ... above ``min_step`` that lowers its merit, and it stops
    at merit ``<= tol``, after ``max_iter`` steps, or when no length does.
    A round makes one stacked solve (per row, ``lstsq`` where ``solve`` finds
    the matrix singular) and one ``evaluate`` at length 1 for the active rows;
    the rows whose full step failed then score all their shorter lengths at
    once, in calls of at most ``_TRIAL_POINTS`` points.  Returns the last
    accepted ``(z, g, merit)`` stacks.
    """
    shorter = _shorter_lengths(min_step)
    z, g, merit = evaluate(np.array(z0, dtype=float))
    # The rows still stepping, by id, and their states; a state goes back to z, g and
    # merit when its row stops.  A NaN merit stops at once, as no length could lower it,
    # and no row steps when even the full length is not above min_step.
    rows, zr, gr, mr = np.arange(len(z)), z, g, merit
    going = (merit > tol) & (min_step < 1.0)
    for _ in range(max_iter):
        moving = np.count_nonzero(going)
        if not moving:
            break
        if moving < len(rows):
            z[rows], g[rows], merit[rows] = zr, gr, mr
            rows, zr, gr, mr = rows[going], zr[going], gr[going], mr[going]
        jac = jacobian(zr, gr)
        try:
            delta = np.linalg.solve(jac, -gr[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            delta = np.empty_like(gr)
            for r in range(len(rows)):
                try:
                    delta[r] = np.linalg.solve(jac[r], -gr[r])
                except np.linalg.LinAlgError:
                    delta[r] = np.linalg.lstsq(jac[r], -gr[r], rcond=None)[0]
        tz, tg, tm = evaluate(zr + delta)
        helped = tm < mr
        if np.count_nonzero(helped) < len(rows):
            # Every shorter length of a failed row is scored at once, for a group of rows per
            # call; the row takes the first length that helps.
            failed = np.flatnonzero(~helped)
            group = max(1, _TRIAL_POINTS // max(1, len(shorter)))
            for lo in range(0, len(failed) if len(shorter) else 0, group):
                part = failed[lo : lo + group]
                trial = zr[part, None] + shorter * delta[part, None]
                sz, sg, sm = evaluate(trial.reshape(-1, z.shape[1]))
                helps = sm.reshape(len(part), -1) < mr[part, None]
                found = helps.any(axis=1)
                pick = (helps.argmax(axis=1) + len(shorter) * np.arange(len(part)))[found]
                hit = part[found]
                tz[hit], tg[hit], tm[hit] = sz[pick], sg[pick], sm[pick]
                helped[hit] = True
            # A row that no length helps keeps its point and stops.
            tz = np.where(helped[:, None], tz, zr)
            tg = np.where(helped[:, None], tg, gr)
            tm = np.where(helped, tm, mr)
        zr, gr, mr = tz, tg, tm
        going = helped & (mr > tol)
    z[rows], g[rows], merit[rows] = zr, gr, mr
    return z, g, merit


def homogeneous_form(tensor: Tensor, x) -> float:
    """Degree-m polynomial value ``x . contract(tensor, x)``."""
    v = _as_vector(tensor, x)
    return float(np.dot(v, contract(tensor, v)))


def vector_power(x, exponent: float) -> np.ndarray:
    """Componentwise power.

    Integer exponents apply the plain signed power (odd powers keep the
    sign).  Non-integer exponents require nonnegative components.
    """
    v = np.asarray(x, dtype=float)
    r = float(exponent)
    if r.is_integer():
        return v ** int(r)
    if np.any(v < 0):
        raise ValueError(f"negative component with non-integer exponent {r}")
    return v**r


def vector_norm(x, p: float = 2.0) -> float:
    """The p-norm for p >= 1, or the max-abs norm for ``p = math.inf``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if p == math.inf:
        return float(np.max(np.abs(v)))
    p = float(p)
    if p < 1:
        raise ValueError(f"norm exponent must be >= 1, got {p}")
    return float(np.linalg.norm(v, ord=p))




def scaled_map(tensor: Tensor, x) -> np.ndarray:
    """Degree-one homogeneous map: the contraction rescaled by ``|x|_2 ** (2 - m)``.

    Takes one vector (n,) or a batch (k, n), row by row; a zero row maps to 0.
    """
    pts = _as_rows(tensor, x)
    values = contract_batch(tensor, pts)
    norms = np.linalg.norm(pts, axis=1)
    scale = np.zeros_like(norms)
    scale[norms > 0] = norms[norms > 0] ** (2 - tensor.order)
    return (values * scale[:, None]).reshape(np.shape(x))


def root_map(tensor: Tensor, x) -> np.ndarray:
    """Degree-one homogeneous map: componentwise (m-1)-th root of the contraction.

    Only defined for even order m; m - 1 is then odd and the real root keeps
    the sign of each component.  Takes one vector (n,) or a batch (k, n).
    """
    if tensor.order % 2:
        raise UnsupportedOrder(f"map needs an even order, got {tensor.order}")
    values = contract_batch(tensor, _as_rows(tensor, x))
    return (np.sign(values) * np.abs(values) ** (1.0 / (tensor.order - 1))).reshape(np.shape(x))


def is_entry_symmetric(tensor: Tensor) -> bool:
    """Whether the entries are invariant under every permutation of the indices.

    Adjacent index swaps generate all permutations, so only those m - 1 are checked.
    """
    arr = tensor.array
    return all(np.array_equal(arr, np.swapaxes(arr, k, k + 1)) for k in range(tensor.order - 1))
