"""Layered benchmark for btensor.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eigen_search --seed 1 --seconds 20 --trace 0

One process and one caller: each item starts after the previous one
returns (a closed loop).  The run builds a pool of items from the seed,
warms up, then cycles over the pool for ``--seconds`` and checks every
output with the oracles in ``oracles.py``.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` also runs one traced pass over the pool
and prints the per-layer metrics instead.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
import os
import sys
import time

_T0 = time.perf_counter()
# One BLAS/OpenMP thread, pinned before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_REPS = 5
WARMUP_SEED = 0
SMOKE_ITEMS = {"cli_structure": 6, "norm_sandwich": 2, "eigen_search": 2, "tcp_solve": 10}

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "estimate_ratio": "ratio",
    "pairs_per_item": "pairs/item",
    "converged_frac": "ratio",
}


def conditions() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def canonical(record) -> str:
    """Deterministic text of an item's output: floats as repr, CLI stderr left out
    (it names file paths)."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "stderr"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return json.dumps(strip(record), sort_keys=True)


def fresh_import(src: Path) -> tuple[float, float]:
    """Wall time to import numpy and btensor in a new interpreter, with this
    process's environment (one BLAS thread), and the median time of a burst
    of speed probes run there after it: the child may run on another CPU
    than this process, at another speed."""
    code = (
        "import statistics, sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import numpy, btensor.cli; took = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
        "import speed; probe = speed.Probe(); probe.run(speed.WINDOW); print(took, statistics.median(probe.took))"
    )
    done = subprocess.run([sys.executable, "-c", code, str(src), str(HERE)], capture_output=True, text=True,
                          timeout=120, check=True)
    took, probe_s = map(float, done.stdout.split())
    return took, probe_s


def tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the slowest time that still has ten times beyond it."""
    ordered = sorted(times)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def per_item(index: np.ndarray, times: np.ndarray, count: int) -> list[np.ndarray]:
    """The times of each of ``count`` items, in the order they were taken."""
    order = np.argsort(index, kind="stable")
    return np.split(times[order], np.searchsorted(index[order], np.arange(1, count)))


def median_pass(times: list[np.ndarray]) -> dict:
    """Median time of every pool item that was timed, by item index.

    The timing metrics are taken over this pass, each item once at the
    median of its times: the spread of cost across the generated inputs
    stays in, while an item's odd slow or fast run does not."""
    return {i: float(np.median(ts)) for i, ts in enumerate(times) if len(ts)}


class Run:
    def __init__(self, args, bt):
        self.args, self.bt = args, bt
        self.name = args.workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # one message per problem found

    def pool(self, name, limit=None):
        if self.args.smoke:
            limit = min(limit or SMOKE_ITEMS[name], SMOKE_ITEMS[name])
        return workloads.make_pool(name, self.args.seed, self.bt, WORK, limit)

    def fail(self, name, item, problem):
        self.failures.append(f"workload={name} seed={self.args.seed} item={item.index} ({item.kind} {item.shape}): {problem}")

    def check(self, name, item, record) -> bool:
        problems = oracles.CHECKS[name](item, record)
        for problem in problems:
            self.fail(name, item, problem)
        return not problems

    def setup(self, imported):
        """Set-up time at reference speed: the median import time (this
        process's and fresh interpreters') plus the median of pool builds with
        a warm-up item, SETUP_REPS of each.  Each import is scaled by speed
        probes run in its own process, the pool builds by the median of the
        probes this process runs during set-up.  ``imported`` is when this
        process's import ended."""
        self.probe = probe = speed.Probe()
        probe.run(speed.WINDOW)
        imports = [(imported - _T0, statistics.median(probe.took))]
        imports += [fresh_import(ROOT / "src") for _ in range(SETUP_REPS - 1)]
        reps = []
        for _ in range(SETUP_REPS):
            started = time.perf_counter()
            pool = self.pool(self.name)
            # The warm-up item comes from a fixed seed, so that set-up time
            # does not depend on --seed.
            warm = workloads.make_pool(self.name, WARMUP_SEED, self.bt, WORK / "warmup", limit=1)[0]
            workloads.RUNNERS[self.name](self.bt, warm)
            reps.append(time.perf_counter() - started)
            probe.run(speed.WINDOW)
        self.items = pool
        self.setup_wall_s = statistics.median(took for took, _ in imports) + statistics.median(reps)
        import_s = statistics.median(took * speed.REFERENCE_S / probe_s for took, probe_s in imports)
        return import_s + statistics.median(reps) * speed.REFERENCE_S / statistics.median(probe.took)

    def timed_loop(self):
        """Closed loop over the pool for --seconds, with speed probes between
        items; returns per-item wall times and times at reference speed."""
        pool, probe = self.items, self.probe
        index, start, end = array("l"), array("d"), array("d")
        self.first = [None] * len(pool)
        ok_runs = [0] * len(pool)
        deadline = time.perf_counter() + self.args.seconds
        k = 0
        while time.perf_counter() < deadline:
            item = pool[k % len(pool)]
            k += 1
            started = time.perf_counter()
            record = self.attempt(self.name, item)
            end.append(time.perf_counter())
            start.append(started)
            index.append(item.index)
            self.record(item, record, ok_runs)
            probe.maybe()
        probe.run(speed.WINDOW)
        for item in pool:  # finish the first pass, untimed, for the digest
            if self.first[item.index] is None:
                self.record(item, self.attempt(self.name, item), ok_runs)
        for item in pool:
            record, _ = self.first[item.index]
            if record is not None and not self.check(self.name, item, record):
                # every other run of this item gave the same output
                self.failed += ok_runs[item.index]
        index, start, end = np.asarray(index), np.asarray(start), np.asarray(end)
        WORK.mkdir(parents=True, exist_ok=True)
        np.savez(WORK / f"timeline_{self.name}.npz", item=index, start=start, end=end,
                 probe_mid=np.array(probe.mid), probe_took=np.array(probe.took))
        return per_item(index, end - start, len(pool)), per_item(index, probe.normalise(start, end), len(pool))

    def attempt(self, name, item):
        """Run one item; an item that raises is a failed item and gives None."""
        self.attempted += 1
        try:
            return workloads.RUNNERS[name](self.bt, item)
        except Exception as exc:
            self.failed += 1
            self.fail(name, item, f"raised {type(exc).__name__}: {exc}")
            return None

    def record(self, item, record, ok_runs):
        if record is None:
            if self.first[item.index] is None:
                self.first[item.index] = (None, "raised")
            return
        text = canonical(record)
        if self.first[item.index] is None:
            self.first[item.index] = (record, text)
        elif text != self.first[item.index][1]:
            self.failed += 1
            self.fail(self.name, item, "output differs from the first pass")
            return
        ok_runs[item.index] += 1

    def digest(self) -> str:
        return hashlib.sha256("\n".join(text for _, text in self.first).encode()).hexdigest()

    def verify_paper(self) -> str:
        code, out, err = workloads.run_cli(self.bt.cli, ["verify-paper", "--seed", "7"])
        self.attempted += 1
        if code != 0 or "Traceback" in err:
            self.failed += 1
            self.failures.append(f"verify-paper --seed 7: exit {code}")
        return hashlib.sha256(out.encode()).hexdigest()

    def probe_records(self, name):
        """Records of the leading items of a workload, reused when it is this run's."""
        count = workloads.PROBE_ITEMS[name]
        if name == self.name:
            return [record for record, _ in self.first[:count] if record is not None]
        records = []
        for item in self.pool(name, count):
            record = self.attempt(name, item)
            if record is not None:
                self.failed += not self.check(name, item, record)
                records.append(record)
        return records

    def quality(self) -> dict:
        ratios = [r for rec in self.probe_records("norm_sandwich") for r in workloads.estimate_ratios(rec)]
        eigen = self.probe_records("eigen_search")
        tcp = self.probe_records("tcp_solve")
        return {
            "estimate_ratio": statistics.fmean(ratios),
            "pairs_per_item": statistics.fmean(workloads.pair_count(rec) for rec in eigen),
            "converged_frac": sum(workloads.converged(rec) for rec in tcp) / len(tcp),
        }

    def traced_pass(self, untraced):
        """One traced pass over the pool, with speed probes between items;
        ``untraced`` maps item index to its median untraced time at reference
        speed, for the tracing overhead."""
        tracer = tracing.Tracer()
        tracer.install(self.bt)
        stdout_bytes = 0
        try:
            for item in self.items:
                record = tracer.run_item(item.index, self.attempt, self.name, item)
                if record is None:
                    continue
                if canonical(record) != self.first[item.index][1]:
                    self.failed += 1
                    self.fail(self.name, item, "traced output differs from the untraced one")
                if self.name == "cli_structure":
                    stdout_bytes += sum(len(r["stdout"].encode()) for r in record.values())
                self.probe.maybe()
        finally:
            tracer.uninstall()
        self.probe.run(speed.WINDOW)
        spans = tracer.arrays()
        WORK.mkdir(parents=True, exist_ok=True)
        np.savez(WORK / f"spans_{self.name}.npz", **spans)
        roots = spans["name"] == tracer.names.index(tracing.ITEM)
        traced = dict(zip(spans["item"][roots].tolist(),
                          self.probe.normalise(spans["start"][roots], spans["end"][roots]).tolist()))
        overhead = sum(traced[i] for i in untraced) / sum(untraced.values()) - 1.0
        return tracing.layer_metrics(tracer, spans, len(self.items), stdout_bytes, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny pools, for the self-test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "btensor" / "__init__.py").is_file():
        print(f"error: no btensor sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import btensor.cli  # binds btensor, with btensor.cli loaded for the CLI items

    imported = time.perf_counter()
    cond = conditions()
    run = Run(args, btensor)
    setup_s = run.setup(imported)
    wall, times = run.timed_loop()
    typical = median_pass(times)
    tail_s, tail_pct = tail(list(typical.values()))
    wall_pass = median_pass(wall)
    digest = run.digest()
    paper_digest = run.verify_paper()

    if args.trace:
        metrics = run.traced_pass(typical)
        units = tracing.LAYER_UNITS
    else:
        metrics = {
            "setup_s": setup_s,
            "items_per_s": len(typical) / sum(typical.values()),
            "item_p50_ms": 1e3 * statistics.median(typical.values()),
            "item_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **run.quality(),
        }
        units = E2E_UNITS

    failed = run.failed
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "conditions": cond, "pool_items": len(run.items),
        "timed_items": sum(map(len, times)), "median_pass_items": len(typical), "item_tail_percentile": tail_pct,
        "wall": {
            "setup_s": run.setup_wall_s,
            "items_per_s": len(wall_pass) / sum(wall_pass.values()),
            "item_p50_ms": 1e3 * statistics.median(wall_pass.values()),
            "item_tail_ms": 1e3 * tail(list(wall_pass.values()))[0],
        },
        "speed_probes": len(run.probe.took),
        "probe_ms_quartiles": [1e3 * q for q in statistics.quantiles(run.probe.took, n=4)],
        "failed_frac": failed / max(run.attempted, 1), "failures": run.failures,
        "output_sha256": digest, "verify_paper_sha256": paper_digest, "result": result,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result_{args.workload}_trace{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n")

    for failure in run.failures[:20]:
        print("FAIL", failure)
    for key in ("workload", "seed", "conditions", "pool_items", "timed_items", "median_pass_items", "item_tail_percentile",
                "wall", "speed_probes", "probe_ms_quartiles", "failed_frac", "output_sha256", "verify_paper_sha256"):
        print(f"{key}: {details[key]}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
