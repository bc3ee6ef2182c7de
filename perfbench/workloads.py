"""Seeded inputs and item runners for the four benchmark workloads.

The tensors are built here, not by the library's own generators, so the
inputs for a seed stay the same when the library changes.  Each workload
builds a pool of items from the seed; a run cycles over the pool.  An item
runner calls only the public API of ``btensor`` and returns a record of
plain Python values (floats kept at full precision), which the oracles
check and the run digests.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

INF = math.inf

# Shapes (order, dim) per workload.  The mixes are fixed; the seed only
# changes the entries.
CLI_SHAPES = (
    [(3, n) for n in range(2, 9)]
    + [(4, n) for n in range(2, 9)]
    + [(5, n) for n in range(2, 6)]
    + [(6, n) for n in range(2, 5)]
)
CLI_MALFORMED = ("bad_json", "wrong_count", "index_range", "nan_entry")
# The timing metrics are taken over a median pass (each pool item once, at
# its median time), so pools hold enough items for ten of them to lie
# beyond the tail percentile.
CLI_COPIES = 4
NORM_SHAPES = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4), (6, 3)]
NORM_REPEATS = 8
NORM_SAMPLES, NORM_STEPS = 64, 20
EIGEN_STARTS = 64
# Nearly one pass over many members.  Bundled ex41/ex42 and the random
# symmetric members take the shifted power iteration (about 40% of the
# time); the general members take Newton only.  Dimension 4 is the largest
# share, so the median item is a dimension-4 member.


def _eigen_mix() -> tuple:
    mix = []
    for block in range(6):
        mix += ["gen4", "gen2", "gen4", f"sym{2 + block % 3}", "gen4", "gen3", "gen4"]
    mix.insert(3, "ex41")
    mix.insert(22, "ex42")
    return tuple(mix)


EIGEN_MIX = _eigen_mix()
TCP_SHAPES = [(3, 2), (3, 3), (4, 2), (4, 3), (3, 5), (4, 4)]
TCP_STARTS = 16
# Per block of 50 items: 42 with a negative entry in q, 4 with q >= 0 and 4
# diagonal tensors with a closed-form solution.  The first item of a block
# is the bundled ex41 with a q that has a negative entry, and it also runs
# boundedness_probe.  Probe cost is heavy-tailed (about 1 probe in 20 costs
# 4x to 10x the median), and the probes are the slowest items, so a seeded
# draw of them would move the tail and the pass time by a third from seed
# to seed.  Their q and start seeds are fixed instead, and they are not
# permuted (below): the probe share costs the same for every seed.
TCP_BLOCKS = 48
TCP_BLOCK = 50
TCP_PROBE_SEED = 4409
# The cost of a random eigen or TCP member varies several-fold (starts that
# do not converge), so 44 eigen members, or the few slow ones among 2400 TCP
# members, moved throughput and the tail by 0.10 to 0.16 of their medians
# from seed to seed.  Their members (tensors and q) therefore come from a
# generator with this fixed seed, and --seed draws a simultaneous
# permutation of each member's coordinates and its solver start seed: an
# equivalent problem, solved from other starts.
MEMBER_SEED = 9127

WORKLOADS = ("cli_structure", "norm_sandwich", "eigen_search", "tcp_solve")
# Number of leading pool items each workload's quality metric is taken over.
PROBE_ITEMS = {"norm_sandwich": 14, "eigen_search": 12, "tcp_solve": 150}


@dataclass
class Item:
    index: int
    kind: str
    shape: tuple
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------- tensors


def _diag_positions(order: int, dim: int) -> np.ndarray:
    """Flat position of a[i, i, ..., i] inside row i of the (n, n**(m-1)) view."""
    return (dim ** (order - 1) - 1) // (dim - 1) * np.arange(dim)


def _symmetrize(values: np.ndarray) -> np.ndarray:
    """Give every permutation of an index tuple the value at its sorted tuple."""
    shape = values.shape
    idx = np.indices(shape).reshape(values.ndim, -1)
    return values.ravel()[np.ravel_multi_index(tuple(np.sort(idx, axis=0)), shape)].reshape(shape)


def strict_member(rng, order, dim, zero_frac=0.0, dyadic=False, symmetric=False) -> np.ndarray:
    """Strict-class member: each row's average exceeds its off-diagonal cap.

    Off-diagonal entries are uniform in [-1, 1] (multiples of 1/256 when
    ``dyadic``, so row sums are exact); a share ``zero_frac`` of them is
    zeroed.  Each diagonal entry is then chosen so the row sum is
    ``n**(m-1) * (cap + margin)``.
    """
    shape = (dim,) * order
    if dyadic:
        arr = rng.integers(-256, 257, size=shape) / 256.0
    else:
        arr = rng.uniform(-1.0, 1.0, size=shape)
    zeros = rng.random(shape) < zero_frac
    if symmetric:
        arr, zeros = _symmetrize(arr), _symmetrize(zeros)
    arr[zeros] = 0.0
    rows = arr.reshape(dim, -1)
    diag = _diag_positions(order, dim)
    rows[np.arange(dim), diag] = 0.0
    cap = np.maximum(rows.max(axis=1), 0.0)
    if dyadic:
        margin = rng.integers(3, 257, size=dim) / 256.0
    else:
        margin = rng.uniform(0.01, 1.0, size=dim)
    rows[np.arange(dim), diag] = dim ** (order - 1) * (cap + margin) - rows.sum(axis=1)
    return arr


def tie_member(rng, order, dim, zero_frac=0.0) -> np.ndarray:
    """Non-strict-only member: one row's average equals its cap exactly."""
    arr = strict_member(rng, order, dim, zero_frac, dyadic=True)
    rows = arr.reshape(dim, -1)
    i = int(rng.integers(dim))
    d = _diag_positions(order, dim)[i]
    rows[i, d] = 0.0
    cap = max(rows[i].max(), 0.0)
    rows[i, d] = dim ** (order - 1) * cap - rows[i].sum()
    return arr


def neither_member(rng, order, dim, zero_frac=0.0) -> np.ndarray:
    """Member of neither class: one row breaks the row-sum or the cap condition."""
    arr = strict_member(rng, order, dim, zero_frac)
    rows = arr.reshape(dim, -1)
    i = int(rng.integers(dim))
    d = _diag_positions(order, dim)[i]
    if rng.random() < 0.5:
        rows[i, d] -= rows[i].sum() + 1.0  # row sum becomes -1
    else:
        j = (d + 1) % rows.shape[1]  # an off-diagonal slot above the new average
        rows[i, j] = (rows[i].sum() - rows[i, j]) / (dim ** (order - 1) - 1) + 1.0
    return arr


def dense_doc(arr: np.ndarray) -> dict:
    return {"order": arr.ndim, "dim": arr.shape[0], "dense": arr.ravel().tolist()}


def sparse_doc(arr: np.ndarray) -> dict:
    entries = [
        [[int(i) + 1 for i in index], float(arr[index])]
        for index in zip(*np.nonzero(arr))
    ]
    return {"order": arr.ndim, "dim": arr.shape[0], "entries_default": 0.0, "entries": entries}


# ---------------------------------------------------------------- pools


def cli_pool(rng, bt):
    """Tensor files for the CLI: B, B0 and Neither, dense and sparse, plus malformed ones."""
    makers = {"B": strict_member, "B0": tie_member, "Neither": neither_member}
    kinds = ("B", "B0", "Neither")
    for k, (order, dim) in enumerate(CLI_SHAPES * CLI_COPIES):
        kind = kinds[k % 3]
        form = "dense" if k % 2 == 0 else "sparse"
        arr = makers[kind](rng, order, dim, zero_frac=0.0 if form == "dense" else 0.6)
        doc = dense_doc(arr) if form == "dense" else sparse_doc(arr)
        yield kind, (order, dim), {"form": form, "text": json.dumps(doc), "gen": ((order, dim), "B0" if kind == "B0" else "B")}
        if k % 5 == 4:  # a malformed document after every fifth valid one
            bad = CLI_MALFORMED[(k // 5) % len(CLI_MALFORMED)]
            yield "malformed", (3, 2), {"form": bad, "text": malformed_text(rng, bad), "gen": ((3, 3), "B")}


def malformed_text(rng, flaw: str) -> str:
    arr = strict_member(rng, 3, 2)
    if flaw == "bad_json":
        return json.dumps(dense_doc(arr))[:-7]
    if flaw == "wrong_count":
        doc = dense_doc(arr)
        doc["dense"] = doc["dense"][:-1]
        return json.dumps(doc)
    if flaw == "index_range":
        doc = sparse_doc(arr)
        doc["entries"][-1][0][-1] = 3
        return json.dumps(doc)
    doc = dense_doc(arr)
    doc["dense"][3] = float("nan")
    return json.dumps(doc)  # writes a bare NaN token


def norm_pool(rng, bt):
    for _ in range(NORM_REPEATS):
        for order, dim in NORM_SHAPES:
            yield "B", (order, dim), {"tensor": bt.Tensor(strict_member(rng, order, dim))}


def permute(arr: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The tensor with the same permutation applied to every index."""
    return arr[np.ix_(*[perm] * arr.ndim)]


def _start_seed(rng) -> int:
    return int(rng.integers(2**31))


def eigen_pool(rng, bt):
    members = np.random.default_rng([MEMBER_SEED, WORKLOADS.index("eigen_search")])
    for index, label in enumerate(EIGEN_MIX):
        if label.startswith("ex"):
            # Bundled ex41 and ex42 as they are, with fixed start seeds, as
            # the TCP probes: ex42 is a fifth of a pass, and start seeds
            # moved its cost by up to 17%.
            arr, start_seed = bt.load_example(label).array, index
        else:
            arr = strict_member(members, 4, int(label[3]), symmetric=label.startswith("sym"))
            arr, start_seed = permute(arr, rng.permutation(arr.shape[0])), _start_seed(rng)
        # Without the symmetric flag, as the CLI loads a file, so that
        # is_entry_symmetric runs (and holds on the symmetric members).
        yield label, (4, arr.shape[0]), {"tensor": bt.Tensor(arr), "start_seed": start_seed}


def _negative_q(rng, dim: int) -> np.ndarray:
    q = rng.uniform(-1.0, 1.0, dim)
    q[int(rng.integers(dim))] = -float(rng.uniform(0.2, 1.0))
    return q


def tcp_pool(rng, bt):
    ex41 = bt.Tensor(bt.load_example("ex41").array)
    probe_rng = np.random.default_rng(TCP_PROBE_SEED)
    members = np.random.default_rng([MEMBER_SEED, WORKLOADS.index("tcp_solve")])
    for block in range(TCP_BLOCKS):
        for slot in range(TCP_BLOCK):
            order, dim = TCP_SHAPES[(block * TCP_BLOCK + slot) % len(TCP_SHAPES)]
            if slot == 0:
                yield "q_neg", (4, 3), {"tensor": ex41, "q": _negative_q(probe_rng, 3), "probe": True}
                continue
            perm = rng.permutation(dim)
            data = {"start_seed": _start_seed(rng)}
            if slot < TCP_BLOCK - 8:
                kind, arr = "q_neg", strict_member(members, order, dim)
                q = _negative_q(members, dim)
            elif slot < TCP_BLOCK - 4:
                kind, arr = "q_nonneg", strict_member(members, order, dim)
                q = members.uniform(0.0, 1.0, dim)
            else:
                kind, diag = "diagonal", members.uniform(0.5, 4.0, dim)
                arr = np.zeros((dim,) * order)
                arr[(np.arange(dim),) * order] = diag
                q = members.uniform(-2.0, 2.0, dim)
                data["diag"] = diag[perm]
            data.update(tensor=bt.Tensor(permute(arr, perm)), q=q[perm])
            yield kind, (order, dim), data


POOLS = {"cli_structure": cli_pool, "norm_sandwich": norm_pool, "eigen_search": eigen_pool, "tcp_solve": tcp_pool}


def make_pool(name: str, seed: int, bt, workdir: Path, limit: int | None = None) -> list[Item]:
    """The first ``limit`` items (all when None) of a workload's pool for a seed.

    CLI items are written to files under ``workdir``.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    items = [
        Item(index, kind, shape, data)
        for index, (kind, shape, data) in enumerate(itertools.islice(POOLS[name](rng, bt), limit))
    ]
    if name == "cli_structure":
        workdir.mkdir(parents=True, exist_ok=True)
        for item in items:
            path = workdir / f"cli_{item.index:02d}.json"
            path.write_text(item.data["text"] + "\n", encoding="utf-8")
            item.data["path"] = str(path)
            item.data["gen_path"] = str(workdir / f"gen_{item.index:02d}.json")
    return items


# ---------------------------------------------------------------- items


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """In-process ``btensor.cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_cli_item(bt, item: Item) -> dict:
    path = item.data["path"]
    (m, n), kind = item.data["gen"]
    gen_path = item.data["gen_path"]
    record = {}
    for name, argv in (
        ("classify", ["classify", path]),
        ("semipositive", ["semipositive", path, "--grid", "8"]),
        ("gen", ["gen", "--m", str(m), "--n", str(n), "--kind", kind, "--seed", str(item.index), "-o", gen_path]),
    ):
        code, out, err = run_cli(bt.cli, argv)
        record[name] = {"code": code, "stdout": out, "stderr": err}
    if record["gen"]["code"] == 0:
        with open(gen_path, encoding="utf-8") as handle:
            record["gen"]["file"] = handle.read()
    return record


def run_norm_item(bt, item: Item) -> dict:
    tensor = item.data["tensor"]
    brackets = []
    for op in ("T",) if tensor.order % 2 else ("T", "F"):
        bracket = bt.t_norm_bounds if op == "T" else bt.f_norm_bounds
        for p in (INF, 1.0, 2.0):
            general = bt.general_upper_bound(tensor, op, p)
            lower, upper = bracket(tensor, p, "B")
            estimate, witness = bt.estimate_norm(
                tensor, op, p, samples=NORM_SAMPLES, ascent_steps=NORM_STEPS, seed=item.index
            )
            brackets.append({
                "op": op, "p": "inf" if p == INF else p, "general": general, "lower": lower,
                "upper": upper, "estimate": estimate, "witness": [float(v) for v in witness],
            })
    return {"brackets": brackets}


def run_eigen_item(bt, item: Item) -> dict:
    tensor = item.data["tensor"]
    h_pairs = bt.find_h_eigenpairs(tensor, starts=EIGEN_STARTS, seed=item.data["start_seed"])
    z_pairs = bt.find_z_eigenpairs(tensor, starts=EIGEN_STARTS, seed=item.data["start_seed"])
    report = bt.verify_eigen_bounds(tensor, h_pairs + z_pairs, "B")
    return {
        "h": [pair.to_dict() for pair in h_pairs],
        "z": [pair.to_dict() for pair in z_pairs],
        "report": report.to_dict(),
    }


def run_tcp_item(bt, item: Item) -> dict:
    tensor, q = item.data["tensor"], item.data["q"]
    # The probe items keep fixed start seeds, as their q are fixed.
    outcome = bt.tcp_solve(bt.TcpInstance(tensor, q), starts=TCP_STARTS, seed=item.data.get("start_seed", item.index))
    record = {"outcome": outcome.to_dict()}
    if outcome.converged and outcome.x.any():
        record["certificate"] = bt.verify_solution_bounds(tensor, q, outcome).to_dict()
    if item.data.get("probe"):
        record["bounded"] = bt.boundedness_probe(tensor, q, seed=item.index)
    return record


RUNNERS = {
    "cli_structure": run_cli_item,
    "norm_sandwich": run_norm_item,
    "eigen_search": run_eigen_item,
    "tcp_solve": run_tcp_item,
}


# ---------------------------------------------------------------- quality


def estimate_ratios(record: dict) -> list[float]:
    return [b["estimate"] / min(b["general"], b["upper"]) for b in record["brackets"]]


def pair_count(record: dict) -> int:
    return len(record["h"]) + len(record["z"])


def converged(record: dict) -> bool:
    return bool(record["outcome"]["converged"])
