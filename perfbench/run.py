"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced and then traced with the same
seed, and reports the per-layer metrics from the traced run plus
``trace_overhead`` (untraced throughput over traced throughput).

Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record of the run (all numbers,
sample counts, machine fingerprint) is written to
``.perfbench/result-<workload>-<seed>-trace<t>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: Set-ups per --trace 0 run: setup_s is their median, and the pooled
#: served mixes time one slice after each (one server process per slice).
SETUP_REPS = 5

#: Workloads and metrics (names, units) come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])
#: End-to-end metrics every workload reports (the JSON line of --trace 0).
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
#: Per-layer metrics of the traced run (the JSON line of --trace 1); a
#: layer a workload does not cross reads 0.
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
#: End-to-end numbers that exist on some workloads only: printed and
#: recorded, but not in the JSON line (see README.md, "Metrics").
REPORTED = {
    "batch_ms_p99": "ms",
    "estimate_ms_p50": "ms",
    "estimate_ms_p99": "ms",
    "recovery_s": "s",
    "store_bytes_per_vote": "B",
    "failed_share": "ratio",
    "batch_requests": "count",
    "estimate_requests": "count",
    "sweep_runs": "count",
}


def _check_checkout() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    # The server and set-up child processes import the same sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    import repro

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        sys.exit(2)


def machine(workload: str) -> dict:
    """Machine and policy fingerprint recorded with every result."""
    import numpy

    topology = {
        "sweep": "in-process EstimationRunner (batch engine, numpy, n_jobs=1)",
        "poll-few": "repro serve: one process, ThreadingHTTPServer, WAL store",
        "ingest-workers": "repro serve --workers 2: parent + 2 shard worker processes",
    }[workload]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": importlib.util.find_spec("numba") is not None,
        "wal_flush": "sync=False (repro serve default): appends are written, not fsynced",
        "disk": "store under the checkout; latencies are the page cache's, not a device's",
        "topology": topology,
        "load": "closed loop, 2 connections" if workload != "sweep" else "closed loop, 1 caller",
    }


def _cpu_ticks() -> list:
    """The machine-wide ``cpu`` line of /proc/stat (user, nice, system, idle, ..., steal)."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def _steal_share(before: list, after: list) -> float:
    """Share of the machine's CPU time the hypervisor gave to other guests."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # guest time is already counted in user and nice
    return delta[7] / total if total else 0.0


def _measure(workload: str, seed: int, seconds: float, work: Path, traced: bool, full: bool):
    """One run; returns (outcome, end-to-end numbers, attempted, failed)."""
    if workload == "sweep":
        import sweep

        outcome = sweep.run(seed, seconds, ROOT, traced=traced, setup_reps=SETUP_REPS if full else 1)
        numbers = sweep.end_to_end(outcome)
        attempted, failed = outcome.attempted, outcome.failed
    else:
        import serving

        outcome = serving.run(
            serving.MIXES[workload], seed, seconds, ROOT, work,
            traced=traced, setup_reps=SETUP_REPS if full else 1, restart=full or traced,
        )
        numbers = serving.end_to_end(outcome)
        attempted, failed = serving.check(outcome, seed)
    numbers["failed_share"] = failed / attempted
    return outcome, numbers, attempted, failed


def _throughput(workload: str, numbers: dict) -> float:
    return numbers["sweep_cells_per_s" if workload == "sweep" else "columns_per_s"]


def _print_numbers(numbers: dict, units: dict) -> None:
    for name, unit in units.items():
        if name in numbers:
            value = numbers[name]
            text = "n/a (fewer than 10 samples beyond it)" if value is None else f"{value:.6g}"
            print(f"{name:>34} {text} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every server process started is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _check_checkout()

    out = ROOT / ".perfbench"
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ticks = _cpu_ticks()
    try:
        if args.trace:
            _, plain, attempted, failed = _measure(args.workload, args.seed, args.seconds, work, False, False)
            outcome, traced, more_attempted, more_failed = _measure(
                args.workload, args.seed, args.seconds, work, True, False
            )
            attempted, failed = attempted + more_attempted, failed + more_failed
            if args.workload == "sweep":
                import sweep

                layers = sweep.per_layer(outcome)
            else:
                import serving

                layers = serving.per_layer(outcome)
            layers["trace_overhead"] = _throughput(args.workload, plain) / _throughput(args.workload, traced)
            metrics = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
            units = PER_LAYER
            record = {"untraced": plain, "traced": traced, "per_layer": metrics}
        else:
            _, numbers, attempted, failed = _measure(args.workload, args.seed, args.seconds, work, False, True)
            metrics = {name: float(numbers[name]) for name in END_TO_END}
            units = END_TO_END
            record = {"end_to_end": numbers}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(
        host_steal_share=_steal_share(ticks, _cpu_ticks()),
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        attempted=attempted, failed=failed, machine=machine(args.workload),
    )
    (out / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key, value in record["machine"].items():
        print(f"#   {key}: {value}")
    print(f"#   host_steal_share: {record['host_steal_share']:.4f}")
    if args.trace:
        _print_numbers(metrics, PER_LAYER)
        for label in ("untraced", "traced"):
            print(f"# {label} end-to-end:")
            _print_numbers(record[label], {**END_TO_END, **REPORTED})
    else:
        _print_numbers(record["end_to_end"], {**END_TO_END, **REPORTED})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
