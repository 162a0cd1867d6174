"""Run ``repro serve`` with spans around each serving layer's entry points.

Usage::

    python3 perfbench/traced_serve.py TRACE_OUT serve --store DIR [--workers N]

The launcher wraps the public entry points below (see
:class:`spans.SpanRecorder`), then builds and runs the server exactly as
``repro serve`` does, by calling the program's own CLI.  When the server
shuts down (SIGTERM), the spans are written to ``TRACE_OUT``.

Every ``GET /health`` request additionally records a ``marker`` event
holding the public counters (``ServingApi.stats()``,
``estimates_served``, ``estimate_cache_hits``); the load generator sends
one right before and one right after its timed phase, so counter deltas
and span windows cover exactly that phase.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import SpanRecorder  # noqa: E402


def route_of(method: str, path: str) -> str:
    """The route label of a request: ``batches``, ``estimates``, ..."""
    parts = [part for part in path.partition("?")[0].split("/") if part]
    if len(parts) == 3 and parts[0] == "sessions":
        return parts[2]
    if parts == ["sessions"] and method.upper() == "POST":
        return "create"
    return parts[0] if parts else "root"


def install(recorder: SpanRecorder) -> None:
    """Wrap every serving-layer entry point the benchmark reports on."""
    from repro.serving.http import ServingApi
    from repro.serving.workers import ProcessShardedService
    from repro.streaming.serving import EstimationService
    from repro.streaming.session import StreamingSession
    from repro.streaming.store import DirectorySessionStore

    def fixed(label):
        return lambda *args, **kwargs: label

    def request_attrs(api, method, path, *rest, **kwargs):
        return {"route": route_of(method, path), "key": f"{method.upper()} {path}"}

    def marker(result, api, method, path, *rest, **kwargs):
        if path == "/health":
            service = api.service
            recorder.event(
                "marker",
                errors=api.stats()["errors"],
                estimates_served=int(service.estimates_served),
                estimate_cache_hits=int(service.estimate_cache_hits),
            )
        return {}

    recorder.wrap(ServingApi, "handle", fixed("http.handle"), request_attrs, marker)
    recorder.wrap(ProcessShardedService, "ingest", fixed("workers.ingest"))
    recorder.wrap(
        ProcessShardedService, "estimate_report", fixed("workers.estimate_report")
    )
    recorder.wrap(EstimationService, "ingest", fixed("service.ingest"))
    recorder.wrap(
        EstimationService, "estimate_report", fixed("service.estimate_report")
    )
    recorder.wrap(
        StreamingSession,
        "add_columns",
        fixed("session.add_columns"),
        lambda session, columns, *rest, **kwargs: {"_columns": columns},
    )
    recorder.wrap(StreamingSession, "estimate", fixed("session.estimate"))
    recorder.wrap(
        DirectorySessionStore,
        "append",
        fixed("store.append"),
        lambda store, name, record: {"_record": record},
    )
    recorder.wrap(DirectorySessionStore, "log_size", fixed("store.log_size"))
    recorder.wrap(DirectorySessionStore, "save", fixed("store.save"))
    recorder.wrap(DirectorySessionStore, "recovery", fixed("store.recovery"))


def finalize(span: dict) -> None:
    """Turn the references kept during the run into numbers."""
    from repro.streaming.wal import encode_record

    columns = span.pop("_columns", None)
    if columns is not None:
        span["votes"] = sum(len(column) for column in columns)
    record = span.pop("_record", None)
    if record is not None:
        span["bytes"] = len(encode_record(record))


def main(argv) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(trace_out, finalize)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
