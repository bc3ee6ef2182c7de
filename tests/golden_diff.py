"""Compare two versions of a golden file key by key.

    python tests/golden_diff.py OLD NEW

For each top-level key the table prints whether the structure is the same
(the same keys, list lengths and non-float leaves, so the same pair counts
and exit codes), the largest relative change of any float, and, apart from
it, the largest relative change of a residual (any float under a key whose
name contains ``residual``), since a residual near rounding level can move
by its whole size when the point it is taken at moves by an ulp.  Floats in
``float.hex`` form are decoded, and a string that parses as JSON (the CLI
golden's stdout) is compared as the document it holds.  Keys found in one
file only are listed.  The exit code is 0 when every key is in both files
with the same structure, and 1 otherwise.
"""
from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Optional

HEX_FLOAT = re.compile(r"-?0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+")


@dataclass
class KeyDiff:
    """The comparison of one top-level key: ``difference`` is the first path whose structure
    differs (None when the structure is the same); the two maxima are over the floats compared."""

    difference: Optional[str] = None
    floats: int = 0
    max_rel: float = 0.0
    residuals: int = 0
    max_rel_residual: float = 0.0


def _leaf(value):
    """The value with a hex float decoded and a JSON document in a string parsed."""
    if isinstance(value, str):
        if HEX_FLOAT.fullmatch(value):
            return float.fromhex(value)
        try:
            return json.loads(value)
        except ValueError:
            return value
    return value


def relative_change(old: float, new: float) -> float:
    """``|new - old| / max(|old|, |new|)``: 0 for equal values, inf where only one is not finite."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new))


def _walk(old, new, path: str, residual: bool, out: KeyDiff) -> None:
    old, new = _leaf(old), _leaf(new)
    if isinstance(old, float) and isinstance(new, float):
        change = relative_change(old, new)
        if residual:
            out.residuals += 1
            out.max_rel_residual = max(out.max_rel_residual, change)
        else:
            out.floats += 1
            out.max_rel = max(out.max_rel, change)
    elif isinstance(old, dict) and isinstance(new, dict):
        if sorted(old) != sorted(new):
            out.difference = out.difference or f"{path}: keys {sorted(old)} -> {sorted(new)}"
            return
        for key in old:
            _walk(old[key], new[key], f"{path}/{key}", residual or "residual" in key, out)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.difference = out.difference or f"{path}: length {len(old)} -> {len(new)}"
            return
        for k, (a, b) in enumerate(zip(old, new)):
            _walk(a, b, f"{path}[{k}]", residual, out)
    elif type(old) is not type(new) or old != new:
        out.difference = out.difference or f"{path}: {old!r} -> {new!r}"


def compare(old: dict, new: dict) -> dict[str, Optional[KeyDiff]]:
    """Each top-level key of either document to its :class:`KeyDiff`, or None if one lacks it."""
    diffs: dict[str, Optional[KeyDiff]] = {}
    for key in sorted(set(old) | set(new)):
        if key in old and key in new:
            diffs[key] = KeyDiff()
            _walk(old[key], new[key], "", "residual" in key, diffs[key])
        else:
            diffs[key] = None
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    old, new = documents
    diffs = compare(old, new)
    same = True
    print("key\tstructure\tfloats\tmax_rel\tresiduals\tmax_rel_residual")
    for key, diff in diffs.items():
        if diff is None:
            same = False
            print(f"{key}\tonly in {'OLD' if key in old else 'NEW'}")
            continue
        same = same and diff.difference is None
        structure = "same" if diff.difference is None else f"differs at {diff.difference}"
        print(f"{key}\t{structure}\t{diff.floats}\t{diff.max_rel:.3g}\t{diff.residuals}\t{diff.max_rel_residual:.3g}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
