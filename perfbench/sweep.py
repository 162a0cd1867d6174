"""The ``sweep`` workload: the paper's permutation-averaged estimator sweep.

``EstimationRunner(...).run(matrix)`` with the default configuration
(batch engine, numpy backend, ``n_jobs=1``) over a seeded 5000 items x
200 columns vote matrix with ~15 % of cells voted: R = 10 permutations,
20 checkpoints, 6 estimators.  The timed runs are in this process, since
the runner is a library call; each timed set-up is a fresh interpreter
(``python3 perfbench/sweep.py <seed>``), so every ``setup_s`` sample pays
for the imports as well as the matrix and the warm-up run.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from spans import SpanRecorder, self_times

ITEMS, COLUMNS, DENSITY = 5000, 200, 0.15
PERMUTATIONS, CHECKPOINTS = 10, 20
ESTIMATORS = ("voting", "chao92", "vchao92", "extrapolation", "switch", "switch_total")


def build_matrix(seed: int):
    """A seeded vote matrix: 10 % of items erroneous, voted dirty w.p. 0.8 (else 0.05)."""
    from repro.crowd.response_matrix import ResponseMatrix

    rng = np.random.default_rng([seed, 7])
    dirty = rng.random(ITEMS) < 0.1
    voted = rng.random((ITEMS, COLUMNS)) < DENSITY
    positive = rng.random((ITEMS, COLUMNS)) < np.where(dirty, 0.8, 0.05)[:, None]
    votes = np.where(voted, positive.astype(np.int8), np.int8(-1)).astype(np.int8)
    return ResponseMatrix.from_array(votes)


def fingerprint(result) -> bytes:
    """Every per-permutation estimate of every estimator, as exact bytes."""
    rows = []
    for name in sorted(result.series):
        for point in result.series[name].points:
            rows.append([point.num_tasks, point.mean, point.std, *point.values])
    return np.asarray(rows, dtype=np.float64).tobytes()


def _runner(engine: str = "batch"):
    from repro.experiments.runner import EstimationRunner, RunnerConfig

    return EstimationRunner(
        list(ESTIMATORS),
        RunnerConfig(num_permutations=PERMUTATIONS, num_checkpoints=CHECKPOINTS, engine=engine),
    )


@dataclass
class Outcome:
    setup_s: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)  # one per timed run, seconds
    attempted: int = 0
    failed: int = 0
    recorder: Optional[SpanRecorder] = None


def set_up(seed: int):
    """Imports, the seeded matrix, the runner and one warm-up run."""
    matrix = build_matrix(seed)
    runner = _runner()
    return matrix, runner, runner.run(matrix)


def _timed_set_up(seed: int, root: Path) -> float:
    """One :func:`set_up` in a fresh interpreter, timed from its spawn until it is ready."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), str(seed)], cwd=root, stdout=subprocess.PIPE
    )
    try:
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - start
    except BaseException:  # SIGTERM included: do not leave the child running
        child.kill()
        raise
    finally:
        child.stdout.close()
        child.wait()
    if child.returncode != 0 or ready != b"ready\n":
        raise RuntimeError(f"sweep set-up exited with {child.returncode}")
    return elapsed


def run(seed: int, seconds: float, root: Path, *, traced: bool = False, setup_reps: int) -> Outcome:
    """Time ``setup_reps`` fresh-interpreter set-ups, then run sweeps until ``seconds`` pass."""
    outcome = Outcome()
    outcome.setup_s = [_timed_set_up(seed, root) for _ in range(setup_reps)]
    matrix, runner, warm = set_up(seed)

    # Output check reference: one serial-engine run, outside every timer.
    reference = fingerprint(_runner("serial").run(matrix))
    results = [warm]
    if traced:
        outcome.recorder = _install_spans()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        began = time.perf_counter()
        results.append(runner.run(matrix))
        outcome.latencies.append(time.perf_counter() - began)
    outcome.attempted = len(results)
    outcome.failed = sum(fingerprint(result) != reference for result in results)
    return outcome


def _install_spans() -> SpanRecorder:
    """Time the runner and the core entry points it calls, from outside."""
    import repro.experiments.runner as runner_module

    recorder = SpanRecorder()
    recorder.wrap(runner_module.EstimationRunner, "run", lambda *a, **k: "runner.run")
    recorder.wrap(runner_module, "PermutationBatch", lambda *a, **k: "core.batch_build")
    recorder.wrap(
        runner_module,
        "batch_estimates",
        lambda estimator, batch, *a, **k: f"core.estimate.{estimator.name}",
    )
    return recorder


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    # Rates at the median run time: a short burst of slow runs hardly moves them.
    run_s = float(np.percentile(outcome.latencies, 50))
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "columns_per_s": PERMUTATIONS * COLUMNS / run_s,
        "sweep_cells_per_s": PERMUTATIONS * CHECKPOINTS * len(ESTIMATORS) / run_s,
        "batch_ms_p50": run_s * 1000.0,
        # ru_maxrss is in KiB on Linux: the peak of this process, which runs the program.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sweep_runs": len(outcome.latencies),
    }


def per_layer(outcome: Outcome) -> Dict[str, float]:
    spans = outcome.recorder.spans
    selfs = self_times(spans)

    def self_s(name: str) -> float:
        return sum(selfs[span["id"]] for span in spans if span["name"] == name) / 1e9

    layers = {
        "core.batch_build.self_s": self_s("core.batch_build"),
        "runner.self_s": self_s("runner.run"),
    }
    for name in ESTIMATORS:
        layers[f"core.estimate.self_s.{name}"] = self_s(f"core.estimate.{name}")
    return layers


if __name__ == "__main__":
    set_up(int(sys.argv[1]))
    print("ready", flush=True)
