"""Dense hypermatrix arithmetic.

A tensor here is an order-m, dimension-n real hypermatrix stored as a dense
``(n, ..., n)`` float array and nothing else: its symmetry is read from the
entries (:func:`is_entry_symmetric`), never declared.  One kernel,
:func:`contract_batch`, a chain of matrix-vector products contracting the
last index first with a ``(k, n)`` batch as a leading axis (any order), does
every contraction; :func:`contract` is its one-row case.  On it rest the two
degree-one homogeneous maps ``T`` (:func:`scaled_map`) and ``F``
(:func:`root_map`); they and :func:`contraction_jacobian` each take one
vector or a batch.  The Jacobian is the same kernel too: it is linear in the
entries, so it is the ``matrix=True`` stage ``B x^(m-2)`` of the slot-sum
tensor B, the sum over the m-1 contracted slots of A with that slot moved
next to the first index, which a Newton pass builds once and reuses.
:func:`damped_newton` is the one Newton driver: it
advances a stack of starts together, and the H- and Z-eigenpair searches and
the complementarity solver supply only a batched residual and its Jacobian;
the residual may hand the Jacobian arrays it computed at the same rows.
:class:`Report` is the base of every result dataclass and gives them their
one JSON serialiser.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

# The most entries a tensor file may hold, and the most floats a stack of starts or samples
# may hold: counts times dim.
ENTRY_LIMIT = 2**24
# contract_batch takes as many rows at a time as keep its first intermediate
# (rows * n**(m-1) floats) within this cap, and at least one.
_BATCH_FLOATS = 1 << 16
# damped_newton's stall stop counts a round slow whose step lowers the squared merit by less than this.
_SLOW_GAIN = 1e-3
# damped_newton's line search fills each evaluate call with up to this many
# trial points: the next lengths of every row still failing, or one length each
# when more rows fail, so a call holds no more points than this or the stack.
_TRIAL_POINTS = 256


class Report:
    """Base of the frozen result dataclasses, with their one JSON serialiser.

    ``to_dict`` maps each field to its name: an ndarray as its ``tolist()``, a tuple
    as a list, a nested report as its dict.  An override edits ``super().to_dict()``.
    """

    def to_dict(self) -> dict:
        return {field.name: _plain(getattr(self, field.name)) for field in dataclasses.fields(self)}


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Report):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


class DimensionMismatch(ValueError):
    """Vector length does not match the tensor dimension."""


class UnsupportedOrder(ValueError):
    """Operation is only defined for even tensor order."""


class Tensor:
    """Order-m, dimension-n real hypermatrix with immutable entries.

    The flat entry order is lexicographic in the index tuple with the first
    index slowest, which is exactly the C-order raveling of the array.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        arr = np.array(array, dtype=float)
        if arr.ndim < 2:
            raise ValueError(f"tensor order must be at least 2, got {arr.ndim}")
        n = arr.shape[0]
        if n < 1 or any(s != n for s in arr.shape):
            raise ValueError(f"tensor axes must all have the same positive length, got {arr.shape}")
        arr.flags.writeable = False
        self.array = arr

    @property
    def symmetric(self) -> bool:
        """:func:`is_entry_symmetric` of this tensor."""
        return is_entry_symmetric(self)

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
        return self.array[(np.arange(self.dim),) * self.order]

    @classmethod
    def from_flat(cls, order: int, dim: int, entries) -> "Tensor":
        flat = np.asarray(entries, dtype=float).reshape(-1)
        if flat.size != dim**order:
            raise ValueError(
                f"expected {dim**order} entries for order {order}, dim {dim}, got {flat.size}"
            )
        return cls(flat.reshape((dim,) * order))

    @classmethod
    def diagonal_tensor(cls, order: int, dim: int, values=1.0) -> "Tensor":
        """Tensor with the given values on the all-equal-index positions, zero elsewhere."""
        if order < 2 or dim < 1:
            raise ValueError("need order >= 2 and dim >= 1")
        arr = np.zeros((dim,) * order)
        arr[(np.arange(dim),) * order] = np.broadcast_to(np.asarray(values, dtype=float), (dim,))
        return cls(arr)

    @classmethod
    def zeros(cls, order: int, dim: int) -> "Tensor":
        return cls(np.zeros((dim,) * order))

    def scaled(self, factor: float) -> "Tensor":
        return Tensor(factor * self.array)

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


def check_count(name: str, count: int, dim: int) -> None:
    """Raise ValueError for a count of starts or samples below 1, or one whose rows of length
    dim hold more than ``ENTRY_LIMIT`` floats; callers check before they allocate the rows."""
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    if count > ENTRY_LIMIT // dim:
        raise ValueError(f"{name} {count} at dim {dim} is over the limit of {ENTRY_LIMIT} entries")


def contract(tensor: Tensor, x) -> np.ndarray:
    """Contract ``x`` into every index but the first: one row of :func:`contract_batch`.

    Returns the vector whose i-th component is the sum over all remaining
    indices of ``a[i, i2, ..., im] * x[i2] * ... * x[im]``.
    """
    return contract_batch(tensor, _as_vector(tensor, x)[None])[0]


def contract_batch(tensor: Tensor, points: np.ndarray, matrix: bool = False) -> np.ndarray:
    """Row-wise :func:`contract`, (k, n) -> (k, n): the one chain of matrix-vector products.

    The last product of each chunk is written straight into the output.  With ``matrix=True``
    the chain stops one product early and gives the (k, n, n) stack ``A x^(m-2)``, whose
    (i, j) entry contracts x into every index but the first two (A itself at m = 2); its
    product with the points, ``stack @ points[:, :, None]``, is the ordinary output bit for bit.
    """
    pts = np.asarray(points, dtype=float)
    arr = tensor.array
    n = len(arr)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise DimensionMismatch(f"expected shape (k, {n}), got {pts.shape}")
    flat = arr.reshape(-1, n)
    step = max(1, _BATCH_FLOATS // len(flat))
    out = np.empty(pts.shape + ((n,) if matrix else (1,)))
    for lo in range(0, len(pts), step):
        cols = pts[lo : lo + step, :, None]
        part = flat
        for _ in range(arr.ndim - 2):
            part = (part @ cols).reshape(len(cols), -1, n)
        if matrix:
            out[lo : lo + step] = part
        else:
            np.matmul(part, cols, out=out[lo : lo + step])
    return out if matrix else out[:, :, 0]


def contraction_jacobian(tensor: Tensor, x) -> np.ndarray:
    """Derivative matrix of ``x -> contract(tensor, x)``: (n,) -> (n, n), or row-wise (k, n) -> (k, n, n).

    The ``matrix=True`` stage of :func:`contract_batch` on :func:`_slot_sum` of the tensor.
    """
    stage = contract_batch(_slot_sum(tensor), _as_rows(tensor, x), matrix=True)
    return stage.reshape(np.shape(x) + (tensor.dim,))


def _slot_sum(tensor: Tensor) -> Tensor:
    """The tensor B whose stage ``B x^(m-2)`` is the Jacobian of ``x -> A x^(m-1)`` at x.

    By the multilinear rule the Jacobian has one term per contracted slot s = 1 .. m-1, A with
    index s held, so B is the sum of ``np.moveaxis(A, s, 1)``, added to a copy of A in slot order;
    no symmetry of the entries is assumed.  A sum past the float range is inf, without numpy's
    warnings, and makes its Jacobian rows non-finite.  Newton passes build it once per pass.
    """
    arr = tensor.array
    m = arr.ndim
    total = arr.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for slot in range(2, m):
            # np.moveaxis(arr, slot, 1), without its argument checks.
            total += arr.transpose(0, slot, *range(1, slot), *range(slot + 1, m))
    return Tensor(total)


@functools.lru_cache(maxsize=16)
def _shorter_lengths(min_step: float) -> np.ndarray:
    """The line-search lengths after the full step, 1/2, 1/4, ... above ``min_step``, as a read-only column."""
    halves = itertools.takewhile(lambda t: t > min_step, (0.5**k for k in itertools.count(1)))
    column = np.array(list(halves)).reshape(-1, 1)
    column.flags.writeable = False
    return column


def damped_newton(evaluate, jacobian, z0, max_iter: int, tol: float, min_step: float, stall: int):
    """Newton steps with a halving line search on a (k, d) stack of starts.

    ``evaluate(z)`` takes a (j, d) stack and gives, row by row, the point it accepts (it
    may project it), the residual there and its merit, shaped (j, d), (j, d) and (j,),
    then any row-aligned arrays for the Jacobian to reuse; ``jacobian(z, g, *more)`` gets
    those of the accepted rows and gives the (j, d, d) residual derivatives.  Every row
    steps as if it ran alone: it takes the first length 1, 1/2, ... above ``min_step``
    that lowers its merit, and it stops at merit ``<= tol``, after ``max_iter`` steps, or
    when no length does; an inf or NaN trial merit never does, so the starts and the rounds
    are evaluated without numpy's overflow and invalid warnings.  With ``stall > 0`` it also stops after
    ``stall`` rounds in a row whose accepted step lowered its squared merit by less than
    0.1%, ``1 - (new / old)**2 < _SLOW_GAIN``: MINPACK's ``hybrd`` stops on ten such
    rounds (``actred < 0.001``) as "not making good progress", ``info = 5`` (More, Garbow
    & Hillstrom 1980, User Guide for MINPACK-1, ANL-80-74).  At ``stall = 0`` no round is
    counted.  A round makes one ``jacobian`` call, one stacked solve (per row, ``lstsq``
    where ``solve`` finds the matrix singular, or a NaN step, which stops the row, where
    that system is not finite) and one ``evaluate`` at length 1 for the active rows.  The
    rows whose full step failed then score their shorter lengths in order: each call
    takes the next ``max(1, _TRIAL_POINTS // failing)`` lengths of each of the
    ``failing`` rows, and a row leaves after the call that holds its first helping
    length.  Returns the last accepted ``(z, g, merit)`` stacks.
    """
    shorter = _shorter_lengths(min_step)
    with np.errstate(over="ignore", invalid="ignore"):
        state = evaluate(np.array(z0, dtype=float))
        # The rows still stepping, by id, and their arrays; a row's arrays go back into state
        # when it stops.  A NaN merit stops at once, as no length could lower it, and no row
        # steps when even the full length is not above min_step.
        rows, live = np.arange(len(state[0])), state
        going = (state[2] > tol) & (min_step < 1.0)
        # Each live row's count of slow rounds in a row, compacted with the live arrays.
        slow = np.zeros(len(rows), dtype=int) if stall else None
        for _ in range(max_iter):
            moving = np.count_nonzero(going)
            if not moving:
                break
            if moving < len(rows):
                for whole, part in zip(state, live):
                    whole[rows] = part
                rows, live = rows[going], [part[going] for part in live]
                if stall:
                    slow = slow[going]
            zr, gr, mr = live[:3]
            jac = jacobian(zr, gr, *live[3:])
            try:
                delta = np.linalg.solve(jac, -gr[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                delta = np.empty_like(gr)
                for r in range(len(rows)):
                    try:
                        delta[r] = np.linalg.solve(jac[r], -gr[r])
                    except np.linalg.LinAlgError:
                        # lstsq never returns on a non-finite system; a NaN step stops the row.
                        finite = np.isfinite(jac[r]).all() and np.isfinite(gr[r]).all()
                        delta[r] = np.linalg.lstsq(jac[r], -gr[r], rcond=None)[0] if finite else np.nan
            trial = evaluate(zr + delta)
            helped = trial[2] < mr
            if np.count_nonzero(helped) < len(rows):
                failing, at = (~helped).nonzero()[0], 0
                while failing.size and at < len(shorter):
                    lengths = shorter[at : at + max(1, _TRIAL_POINTS // len(failing))]
                    at += len(lengths)
                    points = zr[failing, None] + lengths * delta[failing, None]
                    scored = evaluate(points.reshape(-1, zr.shape[1]))
                    helps = scored[2].reshape(len(failing), -1) < mr[failing, None]
                    found = helps.any(axis=1)
                    pick = (helps.argmax(axis=1) + len(lengths) * np.arange(len(failing)))[found]
                    hit = failing[found]
                    for into, part in zip(trial, scored):
                        into[hit] = part[pick]
                    helped[hit] = True
                    failing = failing[~found]
                # A row that no length helps keeps its arrays and stops.
                if failing.size:
                    for into, part in zip(trial, live):
                        into[failing] = part[failing]
            live = trial
            going = helped & (live[2] > tol)
            if stall:
                # A going row's old merit is above tol >= 0; a row that stops keeps its accepted arrays.
                slow = np.where(1.0 - (live[2] / mr) ** 2 < _SLOW_GAIN, slow + 1, 0)
                going &= slow < stall
    for whole, part in zip(state, live):
        whole[rows] = part
    return state[:3]


def vector_norm(x, p: float = 2.0) -> float:
    """The p-norm for p >= 1, or the max-abs norm for ``p = math.inf``: the ufuncs (and bits)
    of ``np.linalg.norm(x, p)`` on a vector, without its dispatch."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    p = float(p)
    if not p >= 1:
        raise ValueError(f"norm exponent must be >= 1, got {p}")
    if p == math.inf:
        return float(np.maximum.reduce(np.abs(v)))
    if p == 2.0:
        v = v.ravel(order="K")
        return math.sqrt(v.dot(v))
    powers = np.abs(v)
    powers **= p
    return float(np.add.reduce(powers) ** (1.0 / p))


def scaled_map(tensor: Tensor, x) -> np.ndarray:
    """Degree-one homogeneous map: the contraction rescaled by ``|x|_2 ** (2 - m)``.

    Takes one vector (n,) or a batch (k, n), row by row; a zero row maps to 0.
    """
    pts = _as_rows(tensor, x)
    values = contract_batch(tensor, pts)
    # The ufuncs of np.linalg.norm(pts, axis=1), without its dispatch.
    norms = np.sqrt(np.add.reduce(pts * pts, axis=1))
    if np.count_nonzero(norms) < len(norms):
        scale = np.zeros_like(norms)
        live = norms > 0
        scale[live] = norms[live] ** (2 - tensor.order)
    else:
        scale = norms ** (2 - tensor.order)
    values *= scale[:, None]
    return values.reshape(np.shape(x))


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
