"""Span tracing around the public functions of each ``btensor`` module.

The tracer replaces a function under every name by which a ``btensor``
module refers to it (``btensor.tcp.contract`` as well as
``btensor.core.contract``), so calls between library modules are seen too.
A span holds a name, start, end, parent span and item id; spans stay in
flat arrays in memory and are written out once, when the run ends.  Work
counts are taken at the same boundaries.  Self time is a span's duration
minus the time its child spans cover.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

ITEM = "bench.item"

# span name -> (home module, attribute).  Two functions may share a span
# name when a layer treats them as one step (the two class brackets).
TARGETS = {
    "core.contract_batch": [("core", "contract_batch")],
    "core.contract": [("core", "contract")],
    "core.contraction_jacobian": [("core", "contraction_jacobian")],
    "spectral.is_entry_symmetric": [("core", "is_entry_symmetric")],
    "tensorio.loads_tensor": [("tensorio", "loads_tensor")],
    "tensorio.load_tensor": [("tensorio", "load_tensor")],
    "tensorio.dumps_tensor": [("tensorio", "dumps_tensor")],
    "structure.classify": [("structure", "classify")],
    "structure.membership_diagnostics": [("structure", "membership_diagnostics")],
    "structure.semipositivity_certificate": [("structure", "semipositivity_certificate")],
    "structure.simplex_lattice": [("structure", "simplex_lattice")],
    "opnorms.general_upper_bound": [("opnorms", "general_upper_bound")],
    "opnorms.bracket": [("opnorms", "t_norm_bounds"), ("opnorms", "f_norm_bounds")],
    "opnorms.estimate_norm": [("opnorms", "estimate_norm")],
    "spectral.find_h_eigenpairs": [("spectral", "find_h_eigenpairs")],
    "spectral.find_z_eigenpairs": [("spectral", "find_z_eigenpairs")],
    "spectral.verify_eigen_bounds": [("spectral", "verify_eigen_bounds")],
    "tcp.solve": [("tcp", "solve")],
    "tcp.boundedness_probe": [("tcp", "boundedness_probe")],
    "tcp.verify_solution_bounds": [("tcp", "verify_solution_bounds")],
    "cli.main": [("cli", "main")],
    "cli.build_parser": [("cli", "build_parser")],
}
CORE_KERNELS = ("core.contract", "core.contract_batch", "core.contraction_jacobian")

# Unit of every per-layer metric, in the order they are reported.
LAYER_UNITS = {
    "core.contract_batch.calls": "count",
    "core.contract_batch.rows": "count",
    "core.contract_batch.self_s": "s",
    "core.contract_batch.us_per_call": "us",
    "core.contract.calls": "count",
    "core.contract.self_s": "s",
    "core.contraction_jacobian.calls": "count",
    "core.contraction_jacobian.self_s": "s",
    "core.flops_computed": "flop",
    "core.bytes_computed": "B",
    "core.ns_per_flop": "ns/flop",
    "tensorio.loads_tensor.calls": "count",
    "tensorio.loads_tensor.self_s": "s",
    "tensorio.load_tensor.self_s": "s",
    "tensorio.bytes_parsed": "B",
    "tensorio.dumps_tensor.self_s": "s",
    "tensorio.bytes_written": "B",
    "tensorio.rejected": "count",
    "structure.classify.calls": "count",
    "structure.classify.self_s": "s",
    "structure.classify_per_item": "calls/item",
    "structure.membership_diagnostics.self_s": "s",
    "structure.semipositivity_certificate.self_s": "s",
    "structure.simplex_lattice.self_s": "s",
    "structure.lattice_points": "count",
    "opnorms.estimate_norm.calls": "count",
    "opnorms.estimate_norm.self_s": "s",
    "opnorms.bracket.self_s": "s",
    "opnorms.batch_calls_per_estimate": "calls/estimate",
    "opnorms.rows_per_batch_call": "rows/call",
    "spectral.find_h_eigenpairs.self_s": "s",
    "spectral.find_z_eigenpairs.self_s": "s",
    "spectral.find_z_symmetric.self_s": "s",
    "spectral.find_z_general.self_s": "s",
    "spectral.starts": "count",
    "spectral.pairs_per_start": "pairs/start",
    "spectral.contract_calls_per_start": "calls/start",
    "spectral.jacobian_calls_per_start": "calls/start",
    "spectral.is_entry_symmetric.self_s": "s",
    "tcp.solve.calls": "count",
    "tcp.solve.self_s": "s",
    "tcp.boundedness_probe.self_s": "s",
    "tcp.verify_solution_bounds.self_s": "s",
    "tcp.starts_used_mean": "starts/solve",
    "tcp.contract_calls_per_solve": "calls/solve",
    "tcp.jacobian_calls_per_solve": "calls/solve",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.build_parser.self_s": "s",
    "cli.stdout_bytes": "B",
    "cli.exit_2": "count",
    "trace.overhead_frac": "ratio",
}


def _exactly_symmetric(tensor) -> bool:
    """Whether find_z_eigenpairs takes its symmetric path.  Adjacent index
    swaps generate all permutations, so checking those suffices."""
    arr = tensor.array
    return bool(tensor.symmetric) or all(
        np.array_equal(arr, np.swapaxes(arr, k, k + 1)) for k in range(arr.ndim - 1)
    )


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")  # rows of a contract_batch span, 0 for others
        self._stack = [-1]
        self._item = -1
        self.counts: Counter = Counter()
        # (span name, order, dim) -> [calls, rows] for the kernel cost model
        self.kernel_work: dict[tuple, list[int]] = {}
        self._patched: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self._item)
        self.end.append(0.0)
        self.rows.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_item(self, item_id: int, fn, *args):
        """Run one benchmark item under a root span."""
        self._item = item_id
        idx = self._open(self._id(ITEM))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._item = -1

    def _wrapper(self, fn, span: str):
        nid = self._id(span)
        count = getattr(self, "_count_" + span.replace(".", "_"), None)
        if span == "spectral.find_z_eigenpairs":
            sym, gen = self._id("spectral.find_z_symmetric"), self._id("spectral.find_z_general")

        def traced(*args, **kwargs):
            this = nid
            if span == "spectral.find_z_eigenpairs":
                this = sym if _exactly_symmetric(args[0]) else gen
            idx = self._open(this)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(idx)
                if count is not None:
                    count(idx, args, kwargs, None)
                raise
            self._close(idx)
            if count is not None:
                count(idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for span, homes in TARGETS.items():
            for home, attr in homes:
                original = getattr(sys.modules[f"{package.__name__}.{home}"], attr)
                wrapper = self._wrapper(original, span)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # Work counters, called after the span closes with its index and the
    # call's arguments and result (None when it raised).

    def _kernel(self, span, tensor, rows):
        entry = self.kernel_work.setdefault((span, tensor.order, tensor.dim), [0, 0])
        entry[0] += 1
        entry[1] += rows

    def _count_core_contract(self, idx, args, kwargs, result):
        self._kernel("core.contract", args[0], 1)

    def _count_core_contract_batch(self, idx, args, kwargs, result):
        self.rows[idx] = len(args[1])
        self._kernel("core.contract_batch", args[0], len(args[1]))

    def _count_core_contraction_jacobian(self, idx, args, kwargs, result):
        self._kernel("core.contraction_jacobian", args[0], 1)

    def _count_tensorio_loads_tensor(self, idx, args, kwargs, result):
        self.counts["tensorio.bytes_parsed"] += len(args[0].encode("utf-8"))
        if result is None:
            self.counts["tensorio.rejected"] += 1

    def _count_tensorio_dumps_tensor(self, idx, args, kwargs, result):
        if result is not None:
            self.counts["tensorio.bytes_written"] += len(result.encode("utf-8"))

    def _count_structure_simplex_lattice(self, idx, args, kwargs, result):
        if result is not None:
            self.counts["structure.lattice_points"] += len(result)

    def _count_spectral_find_h_eigenpairs(self, idx, args, kwargs, result):
        self.counts["spectral.starts"] += kwargs.get("starts", 64)
        self.counts["spectral.pairs"] += len(result or ())

    _count_spectral_find_z_eigenpairs = _count_spectral_find_h_eigenpairs

    def _count_tcp_solve(self, idx, args, kwargs, result):
        if result is not None:
            self.counts["tcp.starts_used"] += result.starts_used

    def _count_cli_main(self, idx, args, kwargs, result):
        if result == 2:
            self.counts["cli.exit_2"] += 1

    # -------------------------------------------------------------- output

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item": np.frombuffer(self.item, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "rows": np.frombuffer(self.rows, dtype=np.int64),
        }


def self_times(spans: dict) -> np.ndarray:
    dur = spans["end"] - spans["start"]
    child = np.zeros(len(dur))
    inner = spans["parent"] >= 0
    np.add.at(child, spans["parent"][inner], dur[inner])
    return dur - child


def kernel_cost(span: str, order: int, dim: int, calls: int, rows: int) -> tuple[int, int]:
    """Flops and bytes of the kernel calls under a stated model.

    A contraction of one row contracts the last index first, one index at
    a time: ``2 * (n**m + n**(m-1) + ... + n**2)`` flops.  The Jacobian does
    that down to an n-by-n matrix once per contracted slot and adds it:
    ``(m-1) * (2 * (n**m + ... + n**3) + n**2)``.  Bytes are the float64
    tensor read once per call plus each row's input and output vector, and
    for the Jacobian the tensor once per slot plus the matrix written.
    """
    n, m = dim, order
    if span == "core.contraction_jacobian":
        flops = (m - 1) * (2 * sum(n**k for k in range(3, m + 1)) + n * n) * rows
        nbytes = 8 * ((m - 1) * n**m + n * n + n) * calls
    else:
        flops = 2 * sum(n**k for k in range(2, m + 1)) * rows
        nbytes = 8 * (n**m * calls + 2 * n * rows)
    return flops, nbytes


def layer_metrics(tracer: Tracer, spans: dict, items: int, stdout_bytes: int, overhead_frac: float) -> dict:
    names = spans["name"]
    parent = spans["parent"]
    own = self_times(spans)
    ids = {name: k for k, name in enumerate(spans["names"])}

    def mask(*span_names):
        wanted = [ids[s] for s in span_names if s in ids]
        return np.isin(names, wanted)

    def calls(*span_names):
        return int(np.count_nonzero(mask(*span_names)))

    def self_s(*span_names):
        return float(own[mask(*span_names)].sum())

    def under(*span_names):
        """Spans with an ancestor among ``span_names``."""
        target = mask(*span_names)
        found = np.zeros(len(names), dtype=bool)
        cursor = parent.copy()
        while np.any(cursor >= 0):
            live = cursor >= 0
            found[live] |= target[cursor[live]]
            cursor[live] = parent[cursor[live]]
        return found

    def ratio(a, b):
        return a / b if b else 0.0

    flops = nbytes = 0
    for (span, order, dim), (n_calls, rows) in tracer.kernel_work.items():
        f, b = kernel_cost(span, order, dim, n_calls, rows)
        flops += f
        nbytes += b
    c = tracer.counts
    is_batch = mask("core.contract_batch")
    in_estimate = under("opnorms.estimate_norm")
    in_search = under("spectral.find_h_eigenpairs", "spectral.find_z_symmetric", "spectral.find_z_general")
    in_solve = under("tcp.solve")
    is_contract, is_jac = mask("core.contract"), mask("core.contraction_jacobian")
    batch_in_estimate = int(np.count_nonzero(is_batch & in_estimate))
    n_estimates = calls("opnorms.estimate_norm")
    n_solves = calls("tcp.solve")
    starts = c["spectral.starts"]
    return {
        "core.contract_batch.calls": calls("core.contract_batch"),
        "core.contract_batch.rows": int(spans["rows"].sum()),
        "core.contract_batch.self_s": self_s("core.contract_batch"),
        "core.contract_batch.us_per_call": 1e6 * ratio(self_s("core.contract_batch"), calls("core.contract_batch")),
        "core.contract.calls": calls("core.contract"),
        "core.contract.self_s": self_s("core.contract"),
        "core.contraction_jacobian.calls": calls("core.contraction_jacobian"),
        "core.contraction_jacobian.self_s": self_s("core.contraction_jacobian"),
        "core.flops_computed": flops,
        "core.bytes_computed": nbytes,
        "core.ns_per_flop": 1e9 * ratio(self_s(*CORE_KERNELS), flops),
        "tensorio.loads_tensor.calls": calls("tensorio.loads_tensor"),
        "tensorio.loads_tensor.self_s": self_s("tensorio.loads_tensor"),
        "tensorio.load_tensor.self_s": self_s("tensorio.load_tensor"),
        "tensorio.bytes_parsed": c["tensorio.bytes_parsed"],
        "tensorio.dumps_tensor.self_s": self_s("tensorio.dumps_tensor"),
        "tensorio.bytes_written": c["tensorio.bytes_written"],
        "tensorio.rejected": c["tensorio.rejected"],
        "structure.classify.calls": calls("structure.classify"),
        "structure.classify.self_s": self_s("structure.classify"),
        "structure.classify_per_item": ratio(calls("structure.classify"), items),
        "structure.membership_diagnostics.self_s": self_s("structure.membership_diagnostics"),
        "structure.semipositivity_certificate.self_s": self_s("structure.semipositivity_certificate"),
        "structure.simplex_lattice.self_s": self_s("structure.simplex_lattice"),
        "structure.lattice_points": c["structure.lattice_points"],
        "opnorms.estimate_norm.calls": n_estimates,
        "opnorms.estimate_norm.self_s": self_s("opnorms.estimate_norm"),
        "opnorms.bracket.self_s": self_s("opnorms.bracket"),
        "opnorms.batch_calls_per_estimate": ratio(batch_in_estimate, n_estimates),
        "opnorms.rows_per_batch_call": ratio(int(spans["rows"][is_batch & in_estimate].sum()), batch_in_estimate),
        "spectral.find_h_eigenpairs.self_s": self_s("spectral.find_h_eigenpairs"),
        "spectral.find_z_eigenpairs.self_s": self_s("spectral.find_z_symmetric", "spectral.find_z_general"),
        "spectral.find_z_symmetric.self_s": self_s("spectral.find_z_symmetric"),
        "spectral.find_z_general.self_s": self_s("spectral.find_z_general"),
        "spectral.starts": starts,
        "spectral.pairs_per_start": ratio(c["spectral.pairs"], starts),
        "spectral.contract_calls_per_start": ratio(int(np.count_nonzero(is_contract & in_search)), starts),
        "spectral.jacobian_calls_per_start": ratio(int(np.count_nonzero(is_jac & in_search)), starts),
        "spectral.is_entry_symmetric.self_s": self_s("spectral.is_entry_symmetric"),
        "tcp.solve.calls": n_solves,
        "tcp.solve.self_s": self_s("tcp.solve"),
        "tcp.boundedness_probe.self_s": self_s("tcp.boundedness_probe"),
        "tcp.verify_solution_bounds.self_s": self_s("tcp.verify_solution_bounds"),
        "tcp.starts_used_mean": ratio(c["tcp.starts_used"], n_solves),
        "tcp.contract_calls_per_solve": ratio(int(np.count_nonzero(is_contract & in_solve)), n_solves),
        "tcp.jacobian_calls_per_solve": ratio(int(np.count_nonzero(is_jac & in_solve)), n_solves),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.build_parser.self_s": self_s("cli.build_parser"),
        "cli.stdout_bytes": stdout_bytes,
        "cli.exit_2": c["cli.exit_2"],
        "trace.overhead_frac": overhead_frac,
    }
