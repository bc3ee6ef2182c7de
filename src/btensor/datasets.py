"""Bundled example tensors.

Two small strict-class tensors ship with the package: ``ex41`` (order 4,
dimension 3) and ``ex42`` (order 4, dimension 4).  Both are written in the
sparse-with-default JSON form, load like any tensor file, and exercise every
bound in the library at desk scale.  Their entries are symmetric, which
``Tensor.symmetric`` reads from them.
"""
from __future__ import annotations

from importlib import resources

from .core import Tensor
from .tensorio import loads_tensor

EXAMPLE_NAMES = ("ex41", "ex42")


def example_path(name: str):
    if name not in EXAMPLE_NAMES:
        raise ValueError(f"unknown example {name!r}, choose from {EXAMPLE_NAMES}")
    return resources.files(__package__) / "data" / f"{name}.json"


def load_example(name: str) -> Tensor:
    return loads_tensor(example_path(name).read_text(encoding="utf-8"))
