"""Self-test of the benchmark at smoke size.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Each workload runs twice untraced and twice traced with tiny pools.  The
test checks that every metric named in BENCHMARK.json is emitted with its
unit, that the self times of each traced item's spans add up to the item's
wall time, and that deterministic counters and output digests agree
between the two runs.  Exit code 0 when all checks pass.
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_structure", "norm_sandwich", "eigen_search", "tcp_solve")
# Self times telescope to the item's duration; the tolerance covers float
# rounding of the perf_counter differences.
SELF_TIME_TOL_S = 1e-6
# Per-layer "*_per_*" metrics that are timings, not counts.
TIMED_RATIOS = ("core.contract_batch.us_per_call", "core.ns_per_flop")

sys.path.insert(0, str(HERE))
from tracing import self_times  # noqa: E402


def smoke(workload: str, trace: int):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = json.loads((HERE / "_work" / f"result_{workload}_trace{trace}.json").read_text())
    return result, details


def deterministic(name: str) -> bool:
    if name in ("pairs_per_item", "converged_frac", "estimate_ratio"):
        return True
    layer = "." in name
    return layer and (name.endswith(".calls") or ("_per_" in name and name not in TIMED_RATIOS))


def check_self_times(workload: str) -> list[str]:
    spans = dict(np.load(HERE / "_work" / f"spans_{workload}.npz"))
    own = self_times(spans)
    roots = np.flatnonzero(spans["parent"] == -1)
    problems = []
    for root in roots:
        item = spans["item"][root]
        wall = spans["end"][root] - spans["start"][root]
        total = own[spans["item"] == item].sum()
        if abs(total - wall) > SELF_TIME_TOL_S:
            problems.append(f"{workload} item {item}: self times sum to {total!r}, wall {wall!r}")
    if len(roots) == 0:
        problems.append(f"{workload}: no item spans recorded")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            (first, d1), (second, d2) = smoke(workload, trace), smoke(workload, trace)
            tag = f"{workload} trace {trace}"
            for result in (first, second):
                if not result["correct"] or result["failed"]:
                    problems.append(f"{tag}: {result['failed']} failed items")
            got = {name: m["unit"] for name, m in first["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics/units {sorted(got.items())} differ from BENCHMARK.json")
            for name in first["metrics"]:
                if deterministic(name) and first["metrics"][name] != second["metrics"][name]:
                    problems.append(f"{tag}: {name} differs between runs")
            for key in ("output_sha256", "verify_paper_sha256"):
                if d1[key] != d2[key]:
                    problems.append(f"{tag}: {key} differs between runs")
            if trace:
                problems += check_self_times(workload)
            print(f"{tag}: checked", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
