"""Tensor JSON serialization.

Two on-disk forms are accepted:

* dense: ``{"order": m, "dim": n, "dense": [.. n**m reals ..]}`` with the
  flat lexicographic entry order (first index slowest);
* sparse with a fill value: ``{"order": m, "dim": n, "entries_default": v0,
  "entries": [[[i1, ..., im], value], ...]}`` with 1-based indices, where
  every position not listed takes ``entries_default``; a position listed
  more than once takes its last value.

Every entry must be a finite JSON number: NaN, infinities, integers beyond
the float range, strings and booleans are rejected, and so is a size over
``ENTRY_LIMIT`` entries, before anything is allocated.

Serialization always emits the dense form with a fixed key order, so a
parse/serialize round trip of a file written here is byte identical.
"""
from __future__ import annotations

import itertools
import json
import math
from typing import Any

import numpy as np

from .core import Tensor

__all__ = [
    "TensorFormatError",
    "check_entry_budget",
    "tensor_from_obj",
    "tensor_to_obj",
    "loads_tensor",
    "dumps_tensor",
    "load_tensor",
    "dump_tensor",
]


ENTRY_LIMIT = 2**24


class TensorFormatError(ValueError):
    """Raised for a structurally invalid tensor document."""


def check_entry_budget(order: int, dim: int) -> None:
    """Raise :class:`TensorFormatError` for no tensor (order < 2 or dim < 1), more than
    ``ENTRY_LIMIT`` entries or numpy's 64 axes."""
    if order < 2 or dim < 1:
        raise TensorFormatError(f"a tensor needs order >= 2 and dim >= 1, got order {order}, dim {dim}")
    if order > 64:
        raise TensorFormatError(f"order {order} is over numpy's limit of 64 axes")
    if dim**order > ENTRY_LIMIT:
        raise TensorFormatError(
            f"order {order}, dim {dim} is {dim**order} entries, over the limit of {ENTRY_LIMIT}"
        )


def _require_int(obj: dict, key: str, minimum: int) -> int:
    if key not in obj:
        raise TensorFormatError(f"missing required key '{key}'")
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise TensorFormatError(f"'{key}' must be an integer >= {minimum}, got {value!r}")
    return value


def _require_finite(value, what: str) -> float:
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise TensorFormatError(f"{what} must be a finite number")
    return number


def _sparse_arrays(entries: list, order: int, dim: int):
    """Flat positions and values of the sparse entries, each position once with its last
    value; None when the list is empty or some entry is malformed."""
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    indices, values = zip(*entries)
    if set(map(type, indices)) != {list} or set(map(len, indices)) != {order}:
        return None
    parts = set(map(type, itertools.chain.from_iterable(indices)))
    if parts != {int} or not set(map(type, values)) <= {int, float}:
        return None
    try:
        index = np.array(indices, dtype=np.int64)
        value = np.array(values, dtype=float)
    except OverflowError:  # an integer beyond the int64 or float range
        return None
    if not (((index >= 1) & (index <= dim)).all() and np.isfinite(value).all()):
        return None
    flat = np.ravel_multi_index(tuple(index.T - 1), (dim,) * order)
    last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]
    return flat[last], value[last]


def tensor_from_obj(obj: Any) -> Tensor:
    """Build a :class:`Tensor` from a decoded JSON document."""
    if not isinstance(obj, dict):
        raise TensorFormatError(f"tensor document must be an object, got {type(obj).__name__}")
    order = _require_int(obj, "order", 2)
    dim = _require_int(obj, "dim", 1)
    check_entry_budget(order, dim)

    if "dense" in obj:
        dense = obj["dense"]
        # numpy would convert numeric strings and booleans, so check the JSON types first.
        if not isinstance(dense, list) or not set(map(type, dense)) <= {int, float}:
            raise TensorFormatError("'dense' must be a list of numbers")
        try:
            flat = np.asarray(dense, dtype=float)
        except OverflowError as exc:  # an integer beyond the float range
            raise TensorFormatError("'dense' entries must be finite") from exc
        if flat.ndim != 1 or flat.size != dim**order:
            raise TensorFormatError(
                f"'dense' must hold {dim**order} numbers for order {order}, dim {dim}, "
                f"got {flat.size}"
            )
        if not np.isfinite(flat).all():
            raise TensorFormatError("'dense' entries must be finite")
        return Tensor.from_flat(order, dim, flat)

    if "entries" not in obj:
        raise TensorFormatError("tensor document needs either 'dense' or 'entries'")
    default = obj.get("entries_default", 0.0)
    if not isinstance(default, (int, float)) or isinstance(default, bool):
        raise TensorFormatError(f"'entries_default' must be a number, got {default!r}")
    default = _require_finite(default, "'entries_default'")
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise TensorFormatError("'entries' must be a list of [index, value] pairs")

    arr = np.full((dim,) * order, default)
    parsed = _sparse_arrays(entries, order, dim)
    if parsed is not None:
        arr.reshape(-1)[parsed[0]] = parsed[1]
        return Tensor(arr)
    # No entries, or a malformed one: the checks below run in entry order and name the first bad one.
    for pos, item in enumerate(entries):
        pair = isinstance(item, list) and len(item) == 2 and isinstance(item[0], list)
        if not (pair and isinstance(item[1], (int, float)) and not isinstance(item[1], bool)):
            raise TensorFormatError(f"entry {pos}: expected [[i1, ..., im], value]")
        index, value = item
        if len(index) != order:
            raise TensorFormatError(f"entry {pos}: index needs {order} components, got {len(index)}")
        for axis, i in enumerate(index):
            if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= dim:
                raise TensorFormatError(
                    f"entry {pos}: index component {axis} must be in 1..{dim}, got {i!r}"
                )
        arr[tuple(i - 1 for i in index)] = _require_finite(value, f"entry {pos}: value")
    return Tensor(arr)


def tensor_to_obj(tensor: Tensor) -> dict:
    """Canonical dense document for a tensor."""
    return {
        "order": tensor.order,
        "dim": tensor.dim,
        "dense": [float(v) for v in tensor.entries],
    }


def loads_tensor(text: str) -> Tensor:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TensorFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return tensor_from_obj(obj)


def dumps_tensor(tensor: Tensor) -> str:
    return json.dumps(tensor_to_obj(tensor))


def load_tensor(path) -> Tensor:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_tensor(handle.read())


def dump_tensor(tensor: Tensor, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_tensor(tensor))
        handle.write("\n")
