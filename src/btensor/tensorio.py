"""Tensor JSON serialization.

Two on-disk forms are accepted:

* dense: ``{"order": m, "dim": n, "dense": [.. n**m reals ..]}`` with the
  flat lexicographic entry order (first index slowest);
* sparse with a fill value: ``{"order": m, "dim": n, "entries_default": v0,
  "entries": [[[i1, ..., im], value], ...]}`` with 1-based indices, where
  every position not listed takes ``entries_default``.

Every entry must be a finite JSON number: NaN, infinities, integers beyond
the float range, strings and booleans are rejected.

Serialization always emits the dense form with a fixed key order, so a
parse/serialize round trip of a file written here is byte identical.
"""
from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .core import Tensor

__all__ = [
    "TensorFormatError",
    "tensor_from_obj",
    "tensor_to_obj",
    "loads_tensor",
    "dumps_tensor",
    "load_tensor",
    "dump_tensor",
]


class TensorFormatError(ValueError):
    """Raised for a structurally invalid tensor document."""


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


def tensor_from_obj(obj: Any) -> Tensor:
    """Build a :class:`Tensor` from a decoded JSON document."""
    if not isinstance(obj, dict):
        raise TensorFormatError(f"tensor document must be an object, got {type(obj).__name__}")
    order = _require_int(obj, "order", 2)
    dim = _require_int(obj, "dim", 1)

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
    for pos, item in enumerate(entries):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], list)
            or not isinstance(item[1], (int, float))
            or isinstance(item[1], bool)
        ):
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
