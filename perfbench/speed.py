"""Host speed probe: a fixed kernel timed between the benchmark's items.

On a shared host the speed of a fixed loop swings by up to 1.7x over a few
seconds, and by tens of percent between runs minutes apart; the swing
reaches Python and numpy code alike.  The benchmark therefore runs this
kernel, which uses no btensor code, on a schedule between items, and
reports each item time at the reference speed, the speed at which the
kernel takes ``REFERENCE_S``:

    time at reference speed = wall time * REFERENCE_S / local kernel time

where the local kernel time is the median of the ``WINDOW`` probes
nearest the item.  A change to btensor does not change the kernel, so it
shows in full; a change in host speed scales both and cancels.
"""
from __future__ import annotations

import time

import numpy as np

# Kernel time at reference speed: its typical time on an Intel Xeon vCPU,
# Python 3.11, numpy 2.4, one BLAS thread, in a calm period.
REFERENCE_S = 4.0e-4
# After an item, one probe runs for each EVERY_S since the last probe, at
# most MAX_BURST: about 4% of the run, and probes on both sides of a long item.
EVERY_S = 0.01
MAX_BURST = 8
# Probes whose median sets an item's local kernel time.
WINDOW = 9

_rng = np.random.default_rng(20240101)
_TENSOR = _rng.uniform(-1.0, 1.0, (4, 4, 4, 4))
_VECTOR = _rng.uniform(-1.0, 1.0, 4)
_MATRIX = _rng.uniform(-1.0, 1.0, (5, 5)) + 5.0 * np.eye(5)
_ROWS = _rng.uniform(-1.0, 1.0, (64, 4))
_KEYS = [tuple(int(v) for v in row) for row in _rng.integers(0, 9, (40, 4))]


def kernel() -> float:
    """A fixed mix like the library's: interpreter loops, dict and tuple work,
    small einsum contractions, a small solve, a reduction and one batched
    contraction with einsum's path search."""
    acc = 0.0
    counts: dict = {}
    for _ in range(3):
        for key in _KEYS:
            counts[key] = counts.get(key, 0) + sum(key)
    for i in range(150):
        acc += (i * 7) % 13 * 0.5
    x = _VECTOR
    for _ in range(8):
        y = np.einsum("ijkl,j,k,l->i", _TENSOR, x, x, x)
        x = y / np.abs(y).max()
    for _ in range(6):
        acc += float(np.linalg.solve(_MATRIX, _MATRIX[0])[0])
    acc += float(np.einsum("ij,kj->ik", _ROWS, _ROWS).sum())
    acc += float(np.einsum("abcd,zb,zc,zd->za", _TENSOR, _ROWS, _ROWS, _ROWS, optimize=True).sum())
    return acc + len(counts) + float(x.sum())


class Probe:
    """Times of the kernel at their midpoints, in perf_counter seconds."""

    def __init__(self):
        self.mid: list[float] = []
        self.took: list[float] = []
        self.last = -np.inf
        kernel()  # untimed: the first call pays for einsum's lazy set-up

    def run(self, count: int = 1):
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.mid.append(0.5 * (start + end))
            self.took.append(end - start)
            self.last = end

    def maybe(self):
        due = int((time.perf_counter() - self.last) / EVERY_S)
        if due:
            self.run(min(due, MAX_BURST))

    def normalise(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Durations of the intervals [start, end] at reference speed."""
        mid = np.asarray(self.mid)
        took = np.asarray(self.took)
        # The WINDOW probes nearest each interval's centre: a window of that
        # width that starts at most WINDOW // 2 probes before the first probe
        # past the centre.
        first = np.searchsorted(mid, 0.5 * (start + end)) - WINDOW // 2
        first = np.clip(first, 0, max(len(mid) - WINDOW, 0))
        windows = took[np.minimum(first[:, None] + np.arange(WINDOW), len(took) - 1)]
        return (end - start) * REFERENCE_S / np.median(windows, axis=1)
