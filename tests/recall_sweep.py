"""What the eigen searches' early stop costs in pairs.

    PYTHONPATH=src python tests/recall_sweep.py [--members N] [--bench-seeds A-B]

Runs ``find_h_eigenpairs`` and ``find_z_eigenpairs`` at 64 starts twice on
each tensor: once with ``spectral.NEWTON_LIMITS`` as shipped, and once with
no early stop, ``UNSTOPPED``: ``min_step`` 1e-10, so the line search of
``core.damped_newton`` halves down to 2^-33.  So it prices the shipped
``min_step`` of 2^-12.  The tensors are ex41, ex42 and N seeded order-4
strict members (default 24), of dims 2, 3 and 4 in turn, general and
symmetric in turn; with ``--bench-seeds`` they are instead the items of the
``eigen_search`` benchmark pool at those seeds, each with its own start seed.

A pair of the run without the early stop is lost when no pair of the
shipped run has its value within 1e-9 and its vector, or its negative,
within 1e-6 in max-norm; a pair of the shipped run is gained when no pair of the other run
matches it so.  A search whose pairs differ in any bit of a value, vector or
residual differs.  One line is printed per search that loses, gains or
differs, then one total per kind and one overall.  It only reports: the
exit code is 0 whatever it finds.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import conftest  # noqa: F401  (first: it pins numpy's dispatch before numpy loads)
import numpy as np

import btensor
from btensor import find_h_eigenpairs, find_z_eigenpairs, load_example, spectral
from test_solver_golden import _general
from test_spectral import _symmetric_member

STARTS = 64
VALUE_TOL = 1e-9
VECTOR_TOL = 1e-6
SEARCHES = {"H": find_h_eigenpairs, "Z": find_z_eigenpairs}
# damped_newton's min_step without the early stop.
UNSTOPPED = 1e-10


def members(count: int):
    """(label, tensor, start seed) of ex41, ex42 and ``count`` seeded order-4 strict members."""
    yield "ex41", load_example("ex41"), 0
    yield "ex42", load_example("ex42"), 1
    for k in range(count):
        dim = 2 + k % 3
        make, name = (_symmetric_member, "sym") if k % 2 else (_general, "gen")
        yield f"{name}{dim}-{k}", make(100 + k, 4, dim), k + 2


def bench_members(seeds):
    """(label, tensor, start seed) of every item of the ``eigen_search`` benchmark pool at each seed."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    for seed in seeds:
        for item in workloads.make_pool("eigen_search", seed, btensor, Path()):
            yield f"seed{seed}/item{item.index}", item.data["tensor"], item.data["start_seed"]


def unmatched(pairs, others) -> list:
    """The pairs with no pair of ``others`` within ``VALUE_TOL`` in value and ``VECTOR_TOL`` in vector
    or its negative, as ``spectral._dedup_and_sort`` matches: a canonical vector flips sign when its
    two largest |components| swap."""
    return [
        p
        for p in pairs
        if not any(
            abs(p.value - q.value) <= VALUE_TOL
            and min(np.abs(p.vector - q.vector).max(), np.abs(p.vector + q.vector).max()) <= VECTOR_TOL
            for q in others
        )
    ]


def _bits(pairs) -> list:
    return [[float(v).hex() for v in (p.value, p.residual, *p.vector)] for p in pairs]


def _search(search, tensor, seed, limits):
    shipped = spectral.NEWTON_LIMITS
    spectral.NEWTON_LIMITS = limits
    try:
        return search(tensor, starts=STARTS, seed=seed)
    finally:
        spectral.NEWTON_LIMITS = shipped


def sweep(cases) -> None:
    """Print the table for ``cases`` of (label, tensor, start seed).  The totals per kind are
    [searches, pairs without the early stop, lost, gained, searches that differ]."""
    shipped = spectral.NEWTON_LIMITS
    unstopped = shipped[:2] + (UNSTOPPED,)
    totals = {kind: [0, 0, 0, 0, 0] for kind in SEARCHES}
    print("search\tkind\tpairs\tlost\tgained\tbits\tvalues lost | gained")
    for label, tensor, seed in cases:
        for kind, search in SEARCHES.items():
            before = _search(search, tensor, seed, unstopped)
            after = _search(search, tensor, seed, shipped)
            lost, gained = unmatched(before, after), unmatched(after, before)
            differs = _bits(before) != _bits(after)
            for k, count in enumerate((1, len(before), len(lost), len(gained), differs)):
                totals[kind][k] += count
            if differs:
                values = " ".join(f"{p.value:.6g}" for p in lost) + " | " + " ".join(f"{p.value:.6g}" for p in gained)
                print(f"{label}\t{kind}\t{len(before)}\t{len(lost)}\t{len(gained)}\tdiffer\t{values}")
    overall = [sum(column) for column in zip(*totals.values())]
    for kind, (searches, pairs, lost, gained, differ) in [*totals.items(), ("all", overall)]:
        print(f"total\t{kind}\t{pairs}\t{lost}\t{gained}\t{differ} of {searches} differ")


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--members", type=int, default=24, help="seeded strict members besides ex41 and ex42")
    parser.add_argument("--bench-seeds", type=_seed_range, help="the eigen_search pool at seeds A-B instead")
    args = parser.parse_args(argv)
    sweep(bench_members(args.bench_seeds) if args.bench_seeds else members(args.members))
    return 0


if __name__ == "__main__":
    sys.exit(main())
