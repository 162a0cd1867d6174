"""Command-line interface for the DQM reproduction.

The CLI exposes the experiment harness without writing any Python::

    python -m repro list                      # available experiments / estimators
    python -m repro example1                  # worked Example 1 (Section 3.2.1)
    python -m repro figure3 --tasks 300       # restaurant dataset experiment
    python -m repro figure7 --scenario both   # robustness simulation
    python -m repro quality --items 1000 --errors 100 --tasks 150
    python -m repro stream --items 500 --errors 50 --tasks 120
    python -m repro sweep --tasks 150 --permutations 5 --n-jobs 4
    python -m repro scenario list                # the declarative suite
    python -m repro scenario run spammer-infested --seed 7
    python -m repro scenario record              # refresh golden files
    python -m repro bench --smoke --check        # record perf, fail on regression
    python -m repro session create mydata --items 500   # durable serving session
    python -m repro session ingest mydata --votes batch.json --source loader --sequence 1
    python -m repro session estimate mydata
    python -m repro session compact mydata    # fold the session's log into a snapshot
    python -m repro session create other --items 200 --shards 4   # hash-sharded store
    python -m repro serve --port 8080 --store .repro-sessions     # HTTP JSON API

Every command prints the same text tables the benchmark harness produces,
so the CLI is the quickest way to eyeball a figure without running pytest.
``stream`` drives the online :class:`~repro.streaming.StreamingSession`;
``sweep`` drives the (optionally process-parallel) permutation runner;
``scenario`` drives the declarative scenario suite (``run`` prints the
canonical trajectory JSON — byte-identical to the golden file when run at
the scenario's default seed); ``session`` drives the multi-tenant serving
layer against an on-disk session store, so successive invocations build
one durable estimation session (idempotent when ``--source/--sequence``
accompany each ingested batch).  The store is log-structured: ingests
append to a per-session write-ahead log and ``session compact`` folds the
log into a fresh snapshot; ``--shards N`` partitions sessions across N
hash-routed stores under the same root (the shard count is recorded in
the root manifest and reused by later invocations).  Store errors —
unknown sessions, corrupt session directories, malformed ``--votes``
payloads — exit with code 2 and a one-line ``error:`` message instead of
a traceback.  ``serve`` exposes the same store over a JSON HTTP API
(:mod:`repro.serving.http`): it prints one parseable ``serving on
http://host:port`` line, runs until SIGTERM/SIGINT, and shuts down
cleanly with exit code 0; bind failures and store errors exit 2 with the
same one-line diagnosis.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.registry import available_estimators
from repro.core.remaining import data_quality_report
from repro.crowd.simulator import CrowdSimulator, SimulationConfig
from repro.crowd.worker import WorkerProfile
from repro.data.synthetic import SyntheticPairConfig, generate_synthetic_pairs
from repro.experiments.examples_numeric import NumericExampleConfig, run_numeric_example
from repro.experiments.prioritization_study import PrioritizationConfig, epsilon_sweep
from repro.experiments.real_world import RealWorldExperimentConfig, run_real_world_experiment
from repro.experiments.reporting import render_series_table
from repro.experiments.robustness import SCENARIOS, RobustnessConfig, run_robustness_scenario
from repro.experiments.runner import EstimationRunner, RunnerConfig
from repro.experiments.sensitivity import SensitivityConfig, coverage_sweep, precision_sweep
from repro.experiments.workloads import address_workload, product_workload, restaurant_workload
from repro.streaming import StreamingSession

#: Experiments the CLI knows how to run.
EXPERIMENTS = (
    "example1",
    "example2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
)

#: Workload-independent tool commands.
TOOLS = (
    "list",
    "quality",
    "stream",
    "sweep",
    "scenario",
    "replay",
    "bench",
    "session",
    "serve",
)

#: Where ``repro session`` keeps its snapshots unless ``--store`` says else.
DEFAULT_SESSION_STORE = ".repro-sessions"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the DQM (VLDB 2017) experiments from the command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments and estimators")

    for name in ("example1", "example2"):
        example = sub.add_parser(name, help=f"run worked {name} from Section 3.2.1")
        example.add_argument("--seed", type=int, default=42)

    for name, helptext in (
        ("figure3", "restaurant dataset experiment (FP-heavy crowd)"),
        ("figure4", "product dataset experiment (FN-heavy crowd)"),
        ("figure5", "address dataset experiment (both error types)"),
    ):
        figure = sub.add_parser(name, help=helptext)
        figure.add_argument("--tasks", type=int, default=300, help="number of crowd tasks")
        figure.add_argument("--scale", type=float, default=0.25, help="dataset scale (1.0 = paper size)")
        figure.add_argument("--permutations", type=int, default=3)
        figure.add_argument("--seed", type=int, default=0)

    figure6 = sub.add_parser("figure6", help="sensitivity sweeps (precision and coverage)")
    figure6.add_argument("--trials", type=int, default=3)
    figure6.add_argument("--seed", type=int, default=0)

    figure7 = sub.add_parser("figure7", help="robustness simulation")
    figure7.add_argument("--scenario", choices=SCENARIOS, default="both")
    figure7.add_argument("--tasks", type=int, default=150)
    figure7.add_argument("--seed", type=int, default=0)

    figure8 = sub.add_parser("figure8", help="epsilon-prioritisation sweep")
    figure8.add_argument("--trials", type=int, default=3)
    figure8.add_argument("--seed", type=int, default=0)

    quality = sub.add_parser("quality", help="run a synthetic quality-report demo")
    quality.add_argument("--items", type=int, default=1000)
    quality.add_argument("--errors", type=int, default=100)
    quality.add_argument("--tasks", type=int, default=150)
    quality.add_argument("--fn-rate", type=float, default=0.1)
    quality.add_argument("--fp-rate", type=float, default=0.01)
    quality.add_argument("--seed", type=int, default=0)

    stream = sub.add_parser(
        "stream",
        help="feed a simulated crowd through a streaming session, printing live estimates",
    )
    stream.add_argument("--items", type=int, default=500)
    stream.add_argument("--errors", type=int, default=50)
    stream.add_argument("--tasks", type=int, default=120)
    stream.add_argument("--report-every", type=int, default=20, help="tasks between printed rows")
    stream.add_argument("--fn-rate", type=float, default=0.1)
    stream.add_argument("--fp-rate", type=float, default=0.01)
    stream.add_argument(
        "--estimators",
        nargs="+",
        default=["voting", "chao92", "switch_total"],
        help="registry names to track",
    )
    stream.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser(
        "sweep",
        help="permutation-averaged sweep over a simulated crowd (optionally parallel)",
    )
    sweep.add_argument("--items", type=int, default=1000)
    sweep.add_argument("--errors", type=int, default=100)
    sweep.add_argument("--tasks", type=int, default=150)
    sweep.add_argument("--permutations", type=int, default=5)
    sweep.add_argument("--checkpoints", type=int, default=10)
    sweep.add_argument("--n-jobs", type=int, default=1, help="worker processes for the permutation loop")
    sweep.add_argument(
        "--backend",
        default=None,
        help="array backend for the tensor engine (numpy/numba; "
        "default: $REPRO_BACKEND or numpy)",
    )
    sweep.add_argument("--fn-rate", type=float, default=0.1)
    sweep.add_argument("--fp-rate", type=float, default=0.01)
    sweep.add_argument(
        "--estimators",
        nargs="+",
        default=["voting", "chao92", "vchao92", "switch_total"],
        help="registry names to evaluate",
    )
    sweep.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench",
        help="time the runner workloads and update BENCH_runner.json",
    )
    # Options are defined once in repro.experiments.bench and shared with
    # tools/bench_record.py, so the two entry points cannot drift.
    from repro.experiments.bench import add_bench_arguments

    add_bench_arguments(bench)

    scenario = sub.add_parser(
        "scenario",
        help="run the declarative scenario suite (adversarial regimes + goldens)",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser("list", help="list registered scenarios with tags")
    scenario_run = scenario_sub.add_parser(
        "run", help="run one scenario and print its canonical trajectory JSON"
    )
    scenario_run.add_argument("name", help="registered scenario name")
    scenario_run.add_argument(
        "--seed", type=int, default=None, help="override the scenario's default seed"
    )
    scenario_record = scenario_sub.add_parser(
        "record", help="(re)write golden trajectory files under tests/golden/"
    )
    scenario_record.add_argument(
        "names", nargs="*", help="scenarios to record (default: all)"
    )
    scenario_check = scenario_sub.add_parser(
        "check", help="replay scenarios against their golden files and diff"
    )
    scenario_check.add_argument(
        "names", nargs="*", help="scenarios to check (default: all)"
    )

    replay = sub.add_parser(
        "replay",
        help="convert a recorded session WAL into a traced scenario "
        "(the trace-replay regression codec)",
    )
    replay.add_argument("wal", help="path to a session write-ahead log file")
    replay.add_argument(
        "--name", required=True, help="name for the traced scenario"
    )
    replay.add_argument(
        "--estimators",
        nargs="+",
        default=None,
        help="override the estimator list recorded in the log",
    )
    replay.add_argument(
        "--run",
        action="store_true",
        help="run the traced scenario and print its canonical trajectory "
        "JSON instead of the scenario spec",
    )

    session = sub.add_parser(
        "session",
        help="durable serving sessions: create/ingest/estimate/compact/snapshot/restore/list",
    )
    session_sub = session.add_subparsers(dest="session_command", required=True)

    def _session_parser(command: str, helptext: str, named: bool = True):
        sub_parser = session_sub.add_parser(command, help=helptext)
        if named:
            sub_parser.add_argument("name", help="session name")
        sub_parser.add_argument(
            "--store",
            default=DEFAULT_SESSION_STORE,
            help=f"session store directory (default: {DEFAULT_SESSION_STORE})",
        )
        sub_parser.add_argument(
            "--shards",
            type=int,
            default=None,
            help="partition sessions across N hash-routed shard stores "
            "(recorded in the store root on first use; later invocations "
            "may omit it)",
        )
        return sub_parser

    session_create = _session_parser("create", "create a new named session")
    items = session_create.add_mutually_exclusive_group(required=True)
    items.add_argument("--items", type=int, help="item ids 0..N-1")
    items.add_argument("--item-ids", type=int, nargs="+", help="explicit item ids")
    session_create.add_argument(
        "--estimators", nargs="+", default=None, help="registry names to track"
    )
    session_create.add_argument(
        "--no-keep-votes",
        action="store_true",
        help="run in O(state) memory (no matrix materialisation)",
    )

    session_ingest = _session_parser("ingest", "ingest a JSON batch of task columns")
    session_ingest.add_argument(
        "--votes",
        required=True,
        help="JSON file of columns ('-' for stdin): "
        '[{"votes": {"0": 1, "5": 0}, "worker": 3}, ...] or plain vote maps',
    )
    session_ingest.add_argument("--source", default=None, help="delivery source id")
    session_ingest.add_argument(
        "--sequence", type=int, default=None, help="delivery sequence number"
    )

    _session_parser("estimate", "print the session's current estimates")
    _session_parser("compact", "fold the session's write-ahead log into a snapshot")
    session_snapshot = _session_parser("snapshot", "persist the session snapshot")
    session_snapshot.add_argument(
        "--out", default=None, help="also export the snapshot to this directory"
    )
    session_restore = _session_parser("restore", "activate a session from a snapshot")
    session_restore.add_argument(
        "--from",
        dest="source_dir",
        default=None,
        help="import a foreign snapshot directory under this name",
    )
    _session_parser("list", "list stored sessions with progress", named=False)

    serve = sub.add_parser(
        "serve",
        help="serve the session store over a JSON HTTP API (see docs/http.md)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default: 0 = ephemeral; the resolved port is printed)",
    )
    serve.add_argument(
        "--store",
        default=DEFAULT_SESSION_STORE,
        help=f"session store directory (default: {DEFAULT_SESSION_STORE})",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition sessions across N hash-routed shard stores",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run each shard in its own worker process (process-per-shard "
        "serving; implies a sharded store with this many shards)",
    )
    return parser


def _print_numeric_example(result: dict) -> None:
    for key in ("nominal", "chao92_total", "chao92_remaining", "switch_total", "true_errors"):
        print(f"  {key:>16}: {result[key]:.1f}")


def _run_real_world(name: str, args: argparse.Namespace) -> None:
    builders = {
        "figure3": lambda: restaurant_workload(scale=args.scale, seed=7),
        "figure4": lambda: product_workload(scale=max(0.02, args.scale / 2), seed=11),
        "figure5": lambda: address_workload(scale=min(1.0, args.scale * 4), seed=13),
    }
    workload = builders[name]()
    config = RealWorldExperimentConfig(
        num_tasks=args.tasks,
        num_permutations=args.permutations,
        seed=args.seed,
    )
    panels = run_real_world_experiment(workload, config)
    print(render_series_table(panels["total_error"], max_rows=12))
    print()
    print(render_series_table(panels["positive_switches"], max_rows=6))
    print()
    print(render_series_table(panels["negative_switches"], max_rows=6))


def _simulate_crowd(args: argparse.Namespace):
    """Build the synthetic crowd simulation the tool commands share."""
    dataset = generate_synthetic_pairs(
        SyntheticPairConfig(num_items=args.items, num_errors=args.errors), seed=args.seed
    )
    simulation = CrowdSimulator(
        dataset,
        SimulationConfig(
            num_tasks=args.tasks,
            items_per_task=15,
            worker_profile=WorkerProfile(
                false_negative_rate=args.fn_rate, false_positive_rate=args.fp_rate
            ),
            seed=args.seed,
        ),
    ).run()
    return simulation


def _run_stream(args: argparse.Namespace) -> None:
    simulation = _simulate_crowd(args)
    matrix = simulation.matrix
    # Registry estimators all consume the live state, so the session can
    # drop the raw columns and run in O(state) memory.
    session = StreamingSession(matrix.item_ids, args.estimators, keep_votes=False)
    names = [est.name for est in session.estimators]
    print(
        f"streaming {matrix.num_columns} tasks over {session.num_items} items "
        f"(true errors: {simulation.true_error_count})"
    )
    print(f"  {'tasks':>6} {'votes':>7} " + "".join(f"{name:>14}" for name in names))
    report_every = max(1, args.report_every)
    workers = matrix.column_workers
    for column in range(matrix.num_columns):
        session.add_column(matrix.column_votes(column), workers[column])
        if (column + 1) % report_every == 0 or column + 1 == matrix.num_columns:
            results = session.estimate()
            row = f"  {session.num_columns:>6} {session.total_votes:>7} "
            row += "".join(f"{results[name].estimate:>14.1f}" for name in names)
            print(row)


def _run_sweep(args: argparse.Namespace) -> None:
    simulation = _simulate_crowd(args)
    runner = EstimationRunner(
        args.estimators,
        RunnerConfig(
            num_permutations=args.permutations,
            num_checkpoints=args.checkpoints,
            seed=args.seed,
            n_jobs=args.n_jobs,
            backend=args.backend,
        ),
    )
    result = runner.run(
        simulation.matrix,
        ground_truth=float(simulation.true_error_count),
        name="cli_sweep",
    )
    print(
        f"sweep over {simulation.matrix.num_columns} tasks, "
        f"{args.permutations} permutations, n_jobs={args.n_jobs}"
    )
    print(render_series_table(result, max_rows=args.checkpoints))


def _print_sweep(result) -> None:
    names = sorted(result.srmse)
    print(f"  {result.parameter_name:>16} " + "".join(f"{str(n):>14}" for n in names))
    for index, value in enumerate(result.values):
        row = f"  {value:>16.2f} "
        for name in names:
            row += f"{result.srmse[name][index]:>14.3f}"
        print(row)


def _run_scenario_command(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        ScenarioRunner,
        available_scenarios,
        check_scenarios,
        get_scenario,
        record_scenarios,
    )
    from repro.scenarios.golden import report_check_results

    if args.scenario_command == "list":
        print(f"{'scenario':<22} {'tags':<24} description")
        for name in available_scenarios():
            scenario = get_scenario(name)
            print(f"{name:<22} {','.join(scenario.tags):<24} {scenario.description}")
        return 0

    if args.scenario_command == "run":
        trajectory = ScenarioRunner().run(get_scenario(args.name), seed=args.seed)
        print(trajectory.canonical_json())
        return 0

    if args.scenario_command == "record":
        for path in record_scenarios(args.names or None):
            print(f"recorded {path}")
        return 0

    if args.scenario_command == "check":
        failures = report_check_results(check_scenarios(args.names or None))
        return 1 if failures else 0

    return 1  # pragma: no cover - argparse enforces the subcommand choices


def _run_replay_command(args: argparse.Namespace) -> int:
    """``repro replay``: session WAL in, traced scenario (or trajectory) out.

    Prints canonical JSON either way — piping the spec into a file and
    registering it, or diffing the ``--run`` trajectory against a pinned
    golden, both work byte-for-byte.
    """
    import json as _json

    from repro.scenarios import ScenarioRunner, scenario_from_wal

    scenario = scenario_from_wal(
        args.wal, args.name, estimators=args.estimators
    )
    if args.run:
        print(ScenarioRunner().run(scenario).canonical_json())
        return 0
    print(
        _json.dumps(
            scenario.to_dict(), sort_keys=True, indent=2, ensure_ascii=True
        )
    )
    return 0


def _print_estimates(results) -> None:
    print(f"  {'estimator':>16} {'estimate':>12} {'observed':>12} {'remaining':>12}")
    for name in sorted(results):
        result = results[name]
        print(
            f"  {name:>16} {result.estimate:>12.1f} "
            f"{result.observed:>12.1f} {result.remaining:>12.1f}"
        )


def _build_session_service(args: argparse.Namespace):
    """The serving façade behind ``repro session`` — sharded when asked.

    ``--workers N`` gets the process-per-shard
    :class:`~repro.serving.workers.ProcessShardedService` (each shard in
    its own worker process, exclusively owning its store).  A root that
    carries a shard manifest (or an explicit ``--shards``) gets the
    in-process hash-partitioned :class:`ShardedEstimationService`;
    anything else stays a single :class:`EstimationService` over a
    directory store, exactly as before the split.
    """
    from repro.streaming import DirectorySessionStore, EstimationService
    from repro.streaming.serving import SHARD_MANIFEST_FILENAME, ShardedEstimationService

    shards = getattr(args, "shards", None)
    workers = getattr(args, "workers", None)
    if workers is not None:
        from repro.common.exceptions import ConfigurationError
        from repro.serving.workers import ProcessShardedService

        if shards is not None and shards != workers:
            raise ConfigurationError(
                f"--workers {workers} conflicts with --shards {shards}: "
                "process serving runs exactly one worker per shard"
            )
        return ProcessShardedService(args.store, num_shards=workers)
    manifest = Path(args.store) / SHARD_MANIFEST_FILENAME
    if shards is not None or manifest.exists():
        return ShardedEstimationService(args.store, num_shards=shards)
    return EstimationService(DirectorySessionStore(args.store))


def _run_session_command(args: argparse.Namespace) -> int:
    import json as _json

    from repro.streaming import read_snapshot, write_snapshot

    service = _build_session_service(args)
    # On a log-structured store every mutation is durable the moment the
    # call returns, so the explicit post-command snapshots below are only
    # needed for stores without a write-ahead log.
    needs_snapshot = not service.wal_enabled

    if args.session_command == "create":
        item_ids = args.item_ids if args.item_ids is not None else range(args.items)
        service.create_session(
            args.name,
            list(item_ids),
            args.estimators,
            keep_votes=not args.no_keep_votes,
        )
        if needs_snapshot:
            service.snapshot(args.name)  # durable from the first moment
        print(f"created session {args.name!r} in {args.store}")
        return 0

    if args.session_command == "ingest":
        from repro.common.exceptions import ConfigurationError, ValidationError
        from repro.serving.http import parse_columns_payload

        try:
            if args.votes == "-":
                payload = _json.load(sys.stdin)
            else:
                with open(args.votes, "r", encoding="utf-8") as handle:
                    payload = _json.load(handle)
        except _json.JSONDecodeError as error:
            raise ValidationError(
                f"--votes payload is not valid JSON: {error}"
            ) from error
        except OSError as error:
            raise ConfigurationError(
                f"cannot read --votes file {args.votes!r}: {error}"
            ) from error
        # Same column grammar as the HTTP batch endpoint: either
        # {"votes": {...}, "worker": n} or the bare {item: vote} mapping,
        # with every malformed shape diagnosed as a ValidationError.
        columns, workers = parse_columns_payload(payload)
        result = service.ingest(
            args.name,
            columns,
            worker_ids=workers,
            source=args.source,
            sequence=args.sequence,
        )
        if needs_snapshot:
            service.snapshot(args.name)
        status = "duplicate batch skipped" if result.duplicate else "applied"
        print(
            f"{status}: {result.applied} column(s); session now at "
            f"{result.num_columns} column(s), {result.total_votes} vote(s)"
        )
        return 0

    if args.session_command == "estimate":
        _print_estimates(service.estimates(args.name))
        return 0

    if args.session_command == "compact":
        service.compact(args.name)
        print(f"compacted {args.name!r}: log folded into a fresh snapshot")
        return 0

    if args.session_command == "snapshot":
        snapshot = service.snapshot(args.name)
        print(f"snapshotted {args.name!r} -> {Path(args.store) / args.name}")
        if args.out:
            write_snapshot(snapshot, args.out)
            print(f"exported -> {args.out}")
        return 0

    if args.session_command == "restore":
        snapshot = read_snapshot(args.source_dir) if args.source_dir else None
        progress = service.restore(args.name, snapshot)
        if needs_snapshot:
            service.snapshot(args.name)
        print(f"restored {args.name!r}: " + ", ".join(
            f"{key}={value:.0f}" for key, value in progress.items()
        ))
        return 0

    if args.session_command == "list":
        names = service.sessions()
        if not names:
            print(f"no sessions in {args.store}")
            return 0
        print(f"{'session':<24} {'columns':>8} {'votes':>8} {'majority':>9}")
        for name in names:
            progress = service.progress(name)
            print(
                f"{name:<24} {progress['num_columns']:>8.0f} "
                f"{progress['total_votes']:>8.0f} {progress['majority_count']:>9.0f}"
            )
        return 0

    return 1  # pragma: no cover - argparse enforces the subcommand choices


def _run_serve_command(args: argparse.Namespace) -> int:
    """``repro serve``: the session store behind the JSON HTTP API.

    Prints one parseable ``serving on http://host:port`` line once the
    socket is bound (ephemeral ``--port 0`` included), then serves until
    SIGTERM/SIGINT asks for a clean shutdown.  Runs the listener on its
    own thread and waits on an event here, because calling
    ``shutdown()`` from a signal handler on the serving thread would
    deadlock the poll loop it interrupts.
    """
    import signal
    import threading

    from repro.serving.http import HttpServingServer

    service = _build_session_service(args)
    server = HttpServingServer(service, host=args.host, port=args.port)

    # Handlers go in before the banner: a supervisor that signals the
    # moment it parses the URL must still get a clean shutdown.
    stop = threading.Event()
    previous = {
        signum: signal.signal(signum, lambda *_: stop.set())
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    print(f"serving on {server.url} (store: {args.store})", flush=True)
    try:
        server.start()
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        server.shutdown()
        # Process-sharded services drain their shard workers here; the
        # in-process façades expose no close() and are skipped.
        drain = getattr(service, "close", None)
        if callable(drain):
            drain()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print("shutdown complete", flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.  Returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "scenario":
        return _run_scenario_command(args)

    if args.command == "replay":
        from repro.common.exceptions import ConfigurationError, ValidationError

        try:
            return _run_replay_command(args)
        except (ConfigurationError, ValidationError, OSError) as error:
            # Missing or torn log files, logs without a create record:
            # operator-facing problems get a one-line diagnosis.
            print(f"error: {error}", file=sys.stderr)
            return 2

    if args.command in ("session", "serve"):
        from repro.common.exceptions import ConfigurationError, ValidationError

        try:
            if args.command == "serve":
                return _run_serve_command(args)
            return _run_session_command(args)
        except (ConfigurationError, ValidationError, OSError) as error:
            # Unknown sessions, corrupt session directories, bad batches,
            # occupied ports: operator-facing problems get a one-line
            # diagnosis and a distinct exit code, not a traceback.
            print(f"error: {error}", file=sys.stderr)
            return 2

    if args.command in ("bench", "sweep"):
        from repro.common.exceptions import ConfigurationError, ValidationError

        try:
            if args.command == "bench":
                from repro.experiments.bench import run_from_args

                return run_from_args(args)
            _run_sweep(args)
            return 0
        except (ConfigurationError, ValidationError) as error:
            # Unknown or unavailable backends (--backend numba without
            # numba, a stray REPRO_BACKEND): a one-line diagnosis naming
            # the usable backends, never a traceback.
            print(f"error: {error}", file=sys.stderr)
            return 2

    if args.command == "list":
        print("experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("tools:")
        for name in TOOLS:
            print(f"  {name}")
        print("estimators:")
        for name in available_estimators():
            print(f"  {name}")
        return 0

    if args.command == "stream":
        _run_stream(args)
        return 0

    if args.command in ("example1", "example2"):
        fp_rate = 0.0 if args.command == "example1" else 0.01
        result = run_numeric_example(
            NumericExampleConfig(false_positive_rate=fp_rate, seed=args.seed)
        )
        print(f"{args.command} (false positive rate = {fp_rate})")
        _print_numeric_example(result)
        return 0

    if args.command in ("figure3", "figure4", "figure5"):
        _run_real_world(args.command, args)
        return 0

    if args.command == "figure6":
        config = SensitivityConfig(num_trials=args.trials, seed=args.seed)
        print("Figure 6(a): scaled error vs precision")
        _print_sweep(precision_sweep(config))
        print()
        print("Figure 6(b): scaled error vs items per task")
        _print_sweep(coverage_sweep(config))
        return 0

    if args.command == "figure7":
        config = RobustnessConfig(num_tasks=args.tasks, seed=args.seed)
        result = run_robustness_scenario(args.scenario, config)
        print(render_series_table(result, max_rows=12))
        return 0

    if args.command == "figure8":
        config = PrioritizationConfig(num_trials=args.trials, seed=args.seed)
        result = epsilon_sweep(config)
        print("Figure 8: SWITCH scaled error vs epsilon")
        header = "  epsilon " + "".join(f"  h-err={rate:>4.0%}" for rate in sorted(result.srmse))
        print(header)
        for index, epsilon in enumerate(result.epsilons):
            row = f"  {epsilon:>7.2f} "
            for rate in sorted(result.srmse):
                row += f"  {result.srmse[rate][index]:>10.3f}"
            print(row)
        return 0

    if args.command == "quality":
        simulation = _simulate_crowd(args)
        report = data_quality_report(simulation.matrix)
        print(f"detected errors      : {report.detected_errors:.0f}")
        print(f"estimated total      : {report.estimated_total_errors:.1f}")
        print(f"estimated remaining  : {report.estimated_remaining_errors:.1f}")
        print(f"quality score        : {report.quality_score:.2f}")
        print(f"(true errors         : {simulation.true_error_count})")
        return 0

    return 1  # pragma: no cover - argparse enforces the command choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
