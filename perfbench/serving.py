"""The served-traffic workloads: ``repro serve`` under a closed-loop mix.

One run has five phases, all against a server process started from the
checkout's own sources:

1. **set-up** — start the server on a fresh store, create the sessions,
   run a few warm-up cycles per connection.  Repeated ``setup_reps``
   times; the last set-up is the one that goes on to be timed.
2. **timed** — every connection runs whole cycles until the deadline.
   A ``GET /health`` right before and right after marks the window for
   the traced launcher.
3. **verify** — one estimates read of every session (the pre-restart
   reference), then peak RSS and store size are read.
4. **restart** — stop the server, start it again on the same store and
   read every session's estimates once (``recovery_s``).
5. **check** (untimed) — a fresh ``StreamingSession`` per session is fed
   that session's acknowledged batches in order and must reproduce
   every served estimate bit for bit; every re-sent delivery must have
   come back as a duplicate with the session totals unchanged; every
   post-restart read must equal the pre-restart one (estimates and
   session totals; see :func:`_recovered_view`).
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from loadgen import CONNECTIONS, Client, Mix, Op, Sent, Stream, drive, send, session_name
from spans import self_times

HERE = Path(__file__).resolve().parent

MIXES = {
    # Served by parent + 2 shard worker processes, so the pipe hop is timed.
    "ingest-workers": Mix(
        name="ingest-workers",
        workers=2,
        keep_alive=False,
        sessions=200,
        items=100,
        estimators=("voting", "chao92", "switch_total"),
        columns=(3, 3),
        votes=8,
        deliveries=4,
        reads=1,
        retry_last=True,
        warmup_cycles=5,
        # One slice per set-up, each on its own server process: a server
        # process can keep one slower thread-scheduling pattern for its life.
        pooled=True,
    ),
    "poll-few": Mix(
        name="poll-few",
        workers=None,
        keep_alive=True,
        sessions=4,
        items=5000,
        estimators=("voting", "chao92", "vchao92", "extrapolation", "switch", "switch_total"),
        # Batch sizes vary per batch so the two connections' cycles do not
        # lock into one relative phase (writes overlapping or not) for a run.
        columns=(20, 60),
        votes=40,
        deliveries=1,
        reads=2,
        retry_last=False,
        warmup_cycles=2,
        # One long slice, after a history of 3 x 460-column batches per
        # session (~500 KB of log each, ~360 B per column).  A 20-second
        # slice appends 0.8-1.1 MB per session at the speeds measured, so it
        # crosses the 1 MiB compaction trigger once per session, after
        # ~550 KB, and the second crossing (~1.6 MB) stays out of reach, so
        # the number of compactions in a run does not depend on the host's speed.
        pooled=False,
        history=(3, 460),
    ),
}

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

# --------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------- #
class Server:
    """``repro serve`` (or the traced launcher) as a child process."""

    def __init__(self, root: Path, store: Path, workers: Optional[int], trace_out: Optional[Path], log: Path) -> None:
        args = ["serve", "--store", str(store), "--port", "0"]
        if workers is not None:
            args += ["--workers", str(workers)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"), str(trace_out), *args]
        self._log = open(log, "ab")
        self.process = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, stderr=self._log)
        self.host, self.port = self._banner(deadline=time.monotonic() + 60.0)

    def _banner(self, deadline: float) -> Tuple[str, int]:
        stdout = self.process.stdout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([stdout], [], [], max(remaining, 0))
            if not ready:
                self.stop()
                raise RuntimeError("server did not print its banner in time")
            chunk = os.read(stdout.fileno(), 1)
            if not chunk:
                self.stop()
                raise RuntimeError("server exited before listening (see .perfbench/server.log)")
            line += chunk
        url = line.decode("utf-8").split()[2]  # "serving on http://host:port ..."
        host, _, port = url.removeprefix("http://").rpartition(":")
        return host, int(port)

    def client(self, keep_alive: bool) -> Client:
        return Client(self.host, self.port, keep_alive)

    def pids(self) -> List[int]:
        """The server process and its direct children (shard workers)."""
        pids = [self.process.pid]
        task_dir = Path(f"/proc/{self.process.pid}/task")
        for task in task_dir.iterdir():
            try:
                children = (task / "children").read_text().split()
            except FileNotFoundError:  # a handler thread that just ended
                continue
            pids.extend(int(child) for child in children)
        return pids

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (VmHWM) of the server and its workers."""
        total_kb = 0
        for pid in self.pids():
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (a clean drain, which also writes the trace) and wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


# --------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------- #
@dataclass
class Outcome:
    mix: Mix
    setup_s: List[float] = field(default_factory=list)
    #: every request sent to each timed server instance, in phase order
    logs: List[List[Sent]] = field(default_factory=list)
    streams: List[List[Stream]] = field(default_factory=list)
    #: per timed slice: (columns/s, estimate reads/s), each the sum of the connections' own rates
    rates: List[Tuple[float, float]] = field(default_factory=list)
    recovery_s: float = 0.0
    peak_rss_mb: float = 0.0
    store_bytes: int = 0
    trace: Optional[Path] = None
    restart_trace: Optional[Path] = None


def _parallel(work) -> List[List[Sent]]:
    """Run ``work(connection, log)`` on one thread per connection.

    An exception on any thread is raised here once all threads are done.
    """
    logs: List[List[Sent]] = [[] for _ in range(CONNECTIONS)]
    errors: List[BaseException] = []

    def guarded(connection: int) -> None:
        try:
            work(connection, logs[connection])
        except BaseException as error:  # re-raised on the calling thread
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(connection,)) for connection in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return logs


def _send_each(clients, ops_of, phase: str, log: List[Sent]) -> None:
    """Send ``ops_of(connection)`` in order on each connection's own thread."""

    def work(connection: int, thread_log: List[Sent]) -> None:
        for op in ops_of(connection):
            send(clients[connection], op, phase, thread_log)

    for thread_log in _parallel(work):
        log.extend(thread_log)


def _read_all(server: Server, mix: Mix, phase: str, log: List[Sent]) -> None:
    """One estimates read of every session, each by its owning connection."""
    clients = [server.client(mix.keep_alive) for _ in range(CONNECTIONS)]

    def reads(connection: int) -> List[Op]:
        return [
            Op("GET", f"/sessions/{session_name(index)}/estimates", None, index)
            for index in mix.owned(connection)
        ]

    _send_each(clients, reads, phase, log)
    for client in clients:
        client.close()


def _set_up(mix: Mix, seed: int, root: Path, store: Path, trace: Optional[Path], log_path: Path):
    """Start a server, create the sessions, warm up; returns what the run needs."""
    server = Server(root, store, mix.workers, trace, log_path)
    try:
        log: List[Sent] = []
        creator = server.client(mix.keep_alive)
        for index in range(mix.sessions):
            body = json.dumps(
                {"name": session_name(index), "items": mix.items, "estimators": list(mix.estimators)}
            ).encode("utf-8")
            send(creator, Op("POST", "/sessions", body, index), "setup", log)
        creator.close()
        streams = [Stream(mix, seed, connection) for connection in range(CONNECTIONS)]
        clients = [server.client(mix.keep_alive) for _ in range(CONNECTIONS)]
        _phase(clients, streams, "setup", log, cycles=mix.warmup_cycles)
    except BaseException:
        server.stop()
        raise
    return server, streams, clients, log


def _phase(clients, streams, phase: str, log: List[Sent], **limits) -> List[List[Sent]]:
    """Drive every connection's stream on its own thread; returns per-connection logs."""

    def work(connection: int, thread_log: List[Sent]) -> None:
        drive(clients[connection], streams[connection], phase, thread_log, **limits)

    logs = _parallel(work)
    for thread_log in logs:
        log.extend(thread_log)
    return logs


def _timed(mix: Mix, server: Server, clients, streams, seconds: float, log: List[Sent]) -> Tuple[float, float]:
    """One timed slice between two ``/health`` markers; returns its rates.

    Each connection's rate is its work per cycle over its median cycle
    time.  A cycle lasts from the end of the one before it (or the start)
    to the end of its last request, so the cycles tile the connection's
    span, and a short burst of slow cycles hardly moves the median.
    """
    marker = server.client(keep_alive=False)
    send(marker, Op("GET", "/health", None, -1), "marker", log)
    start = time.perf_counter()
    logs = _phase(clients, streams, "timed", log, deadline=start + seconds)
    send(marker, Op("GET", "/health", None, -1), "marker", log)
    per_cycle = mix.deliveries + mix.reads
    columns_rate = reads_rate = 0.0
    for thread_log in logs:
        ends = [sent.end for sent in thread_log[per_cycle - 1 :: per_cycle]]
        per_s = 1.0 / (len(ends) * float(np.median(np.diff([start, *ends]))))
        columns_rate += sum(len(sent.op.columns) for sent in thread_log if sent.op.columns and sent.ok) * per_s
        reads_rate += sum(1 for sent in thread_log if sent.op.method == "GET" and sent.ok) * per_s
    return columns_rate, reads_rate


def run(
    mix: Mix,
    seed: int,
    seconds: float,
    root: Path,
    work: Path,
    *,
    traced: bool = False,
    setup_reps: int,
    restart: bool = True,
) -> Outcome:
    """One run of ``mix``; returns raw observations (see :func:`check`).

    With ``mix.pooled`` every set-up is followed by its own timed slice
    (``seconds / setup_reps`` each) and the numbers pool all slices, so
    one run samples several server processes; otherwise only the last
    set-up is timed, for the whole ``seconds``, after the mix's seeded
    write-only history has been loaded (untimed).
    """
    outcome = Outcome(mix)
    log_path = work.parent / "server.log"
    store = work / "store"
    if traced:
        outcome.trace = work / "trace-main.json"
        outcome.restart_trace = work / "trace-restart.json"
    server = None
    try:
        for rep in range(setup_reps):
            last = rep == setup_reps - 1
            shutil.rmtree(store, ignore_errors=True)
            start = time.perf_counter()
            server, streams, clients, log = _set_up(mix, seed, root, store, outcome.trace, log_path)
            outcome.setup_s.append(time.perf_counter() - start)
            if mix.pooled or last:
                if mix.history[0]:
                    _send_each(clients, lambda connection: streams[connection].history(), "history", log)
                slice_s = seconds / setup_reps if mix.pooled else seconds
                outcome.rates.append(_timed(mix, server, clients, streams, slice_s, log))
                outcome.logs.append(log)
                outcome.streams.append(streams)
            for client in clients:
                client.close()
            if not last:
                server.stop()
                server = None

        _read_all(server, mix, "verify", log)
        outcome.peak_rss_mb = server.peak_rss_mb()
        outcome.store_bytes = sum(path.stat().st_size for path in store.rglob("*") if path.is_file())
        server.stop()
        server = None

        if restart:
            start = time.perf_counter()
            server = Server(root, store, mix.workers, outcome.restart_trace, log_path)
            _read_all(server, mix, "restart", log)
            outcome.recovery_s = time.perf_counter() - start
            server.stop()
            server = None
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(store, ignore_errors=True)
    return outcome


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #
def _plain(value):
    """JSON-safe Python values.  The benchmark's own, not the program's
    wire codec, so a codec defect cannot hide from the check."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    return value


def _reference_view(session) -> str:
    results = session.estimate()
    return json.dumps(
        {
            "version": [int(part) for part in session.state.version],
            "estimates": {
                name: {
                    "estimate": float(result.estimate),
                    "observed": float(result.observed),
                    "remaining": float(result.remaining),
                    "details": _plain(dict(result.details)),
                }
                for name, result in results.items()
            },
        },
        sort_keys=True,
    )


def _served_view(data: bytes) -> str:
    payload = json.loads(data)
    return json.dumps({"version": payload["version"], "estimates": payload["estimates"]}, sort_keys=True)


def _recovered_view(view: str) -> str:
    """What a restart must preserve: the estimates and the session totals.

    The third version component is the fingerprint's mutation counter,
    which snapshot recovery does not carry over, so it is left out.
    """
    payload = json.loads(view)
    return json.dumps({"version": payload["version"][:2], "estimates": payload["estimates"]}, sort_keys=True)


def check(outcome: Outcome, seed: int) -> Tuple[int, int]:
    """Check every served output; returns ``(attempted, failed)``.

    Attempted counts every request sent to a timed server instance, plus
    one stream-determinism check per instance.  A request fails when it got
    no 2xx answer or its output check does not match.
    """
    mix = outcome.mix
    attempted = failed = 0
    for log, streams in zip(outcome.logs, outcome.streams):
        attempted += len(log) + 1
        failed += _check_log(mix, log) + (not _same_stream(mix, seed, streams))
    return attempted, failed


def _check_log(mix: Mix, log: List[Sent]) -> int:
    """Failed requests of one server instance's log (fresh references)."""
    from repro.streaming.session import StreamingSession

    references = {
        index: StreamingSession(list(range(mix.items)), list(mix.estimators))
        for index in range(mix.sessions)
    }
    views: Dict[Tuple[int, int], str] = {}
    answers: Dict[int, dict] = {}  # id(op) of a fresh delivery -> its reply
    before_restart: Dict[int, str] = {}
    failed = 0
    for sent in log:
        try:
            good = sent.ok and _check_one(sent, references, views, answers, before_restart)
        except (ValueError, KeyError, TypeError):
            good = False
        failed += not good
    return failed


def _same_stream(mix: Mix, seed: int, streams: List[Stream]) -> bool:
    """The same seed must give byte-identical request streams.

    Regenerates as many cycles as each connection sent, from a fresh
    generator, and compares the SHA-256 of all request bytes.
    """
    for stream in streams:
        fresh = Stream(mix, seed, stream.connection)
        fresh.replay(stream.kinds)
        if fresh.digest.digest() != stream.digest.digest():
            return False
    return True


def _check_one(sent: Sent, references, views, answers, before_restart) -> bool:
    op = sent.op
    if op.session < 0 or op.path == "/sessions":
        return True  # markers and creates: the 2xx status is the check
    reference = references[op.session]
    if op.method == "POST":
        reply = json.loads(sent.data)
        if op.retry_of is not None:
            original = answers[id(op.retry_of)]
            return (
                reply["duplicate"] is True
                and reply["applied"] == 0
                and reply["num_columns"] == original["num_columns"]
                and reply["total_votes"] == original["total_votes"]
            )
        reference.add_columns(op.columns, op.workers)
        answers[id(op)] = reply
        return (
            reply["duplicate"] is False
            and reply["applied"] == len(op.columns)
            and reply["num_columns"] == reference.num_columns
            and reply["total_votes"] == reference.total_votes
        )
    key = (op.session, reference.num_columns)
    if key not in views:
        views[key] = _reference_view(reference)
    served = _served_view(sent.data)
    if sent.phase == "verify":
        before_restart[op.session] = served
    if sent.phase == "restart":
        before = before_restart.get(op.session)
        return before is not None and _recovered_view(served) == _recovered_view(before) == _recovered_view(views[key])
    return served == views[key]


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def _percentile(values: List[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or None when fewer than TAIL_SAMPLES lie beyond it."""
    if not values or len(values) * (100.0 - q) / 100.0 < TAIL_SAMPLES:
        return None
    return float(np.percentile(values, q))


def end_to_end(outcome: Outcome) -> Dict[str, object]:
    """Every end-to-end number of the run (tracing off)."""
    mix = outcome.mix
    timed = [sent for log in outcome.logs for sent in log if sent.phase == "timed"]
    posts = [sent.ms for sent in timed if sent.op.method == "POST"]
    reads = [sent.ms for sent in timed if sent.op.method == "GET"]
    votes = sum(
        sum(len(column) for column in sent.op.columns)
        for sent in outcome.logs[-1]
        if sent.op.columns and sent.ok
    )
    return {
        "setup_s": statistics.median(outcome.setup_s),
        # Medians over the slices, so one slice in a slow phase of the host does not move them.
        "columns_per_s": statistics.median(rate for rate, _ in outcome.rates),
        "sweep_cells_per_s": statistics.median(rate for _, rate in outcome.rates) * len(mix.estimators),
        "batch_ms_p50": float(np.percentile(posts, 50)),
        "peak_rss_mb": outcome.peak_rss_mb,
        "batch_ms_p99": _percentile(posts, 99),
        "estimate_ms_p50": float(np.percentile(reads, 50)),
        "estimate_ms_p99": _percentile(reads, 99),
        "recovery_s": outcome.recovery_s,
        "store_bytes_per_vote": outcome.store_bytes / votes,
        "batch_requests": len(posts),
        "estimate_requests": len(reads),
    }


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def per_layer(outcome: Outcome) -> Dict[str, float]:
    """Per-layer numbers from the traced server's spans (timed window only)."""
    main = _load(outcome.trace)
    restart = _load(outcome.restart_trace)
    markers = [event for event in main["events"] if event["name"] == "marker"]
    first, last = markers[0], markers[-1]
    spans = main["spans"]
    selfs = self_times(spans)
    window = [
        span
        for span in spans
        if first["at"] < span["start"] < last["at"] and span.get("route") != "health"
    ]

    def self_s(name: str, chosen=None) -> float:
        chosen = window if chosen is None else chosen
        return sum(selfs[span["id"]] for span in chosen if span["name"] == name) / 1e9

    def calls(name: str) -> int:
        return sum(1 for span in window if span["name"] == name)

    def route(name: str) -> List[dict]:
        return [span for span in window if span.get("route") == name]

    votes = sum(span.get("votes", 0) for span in window if span["name"] == "session.add_columns")
    apply_s = self_s("session.add_columns")
    restart_selfs = self_times(restart["spans"])

    def restart_self_s(name: str) -> float:
        return sum(restart_selfs[span["id"]] for span in restart["spans"] if span["name"] == name) / 1e9

    timed_posts = [sent for sent in outcome.logs[-1] if sent.phase == "timed" and sent.op.method == "POST"]
    duplicates = sum(1 for sent in timed_posts if sent.ok and json.loads(sent.data).get("duplicate"))
    served = last["estimates_served"] - first["estimates_served"]
    hits = last["estimate_cache_hits"] - first["estimate_cache_hits"]
    return {
        "session.add_columns.self_s": apply_s,
        "session.add_columns.calls": calls("session.add_columns"),
        "session.votes_applied": votes,
        "session.apply_us_per_vote": apply_s / votes * 1e6 if votes else 0.0,
        "session.replay.self_s": restart_self_s("session.add_columns"),
        "session.estimate.self_s": self_s("session.estimate"),
        "session.estimate.calls": calls("session.estimate"),
        "service.ingest.self_s": self_s("service.ingest"),
        "service.estimate_report.self_s": self_s("service.estimate_report"),
        "service.duplicate_share": duplicates / len(timed_posts) if timed_posts else 0.0,
        "service.estimate_cache_hit_rate": hits / served if served else 0.0,
        "store.append.self_s": self_s("store.append"),
        "store.append.calls": calls("store.append"),
        "store.bytes_appended": sum(span.get("bytes", 0) for span in window if span["name"] == "store.append"),
        "store.log_size.self_s": self_s("store.log_size"),
        "store.save.self_s": self_s("store.save"),
        "store.save.calls": calls("store.save"),
        "store.recovery.self_s": restart_self_s("store.recovery"),
        "http.handle.self_s.batches": self_s("http.handle", route("batches")),
        "http.handle.self_s.estimates": self_s("http.handle", route("estimates")),
        "http.transport_ms_p50.batches": _transport_p50(outcome, spans, "batches"),
        "http.transport_ms_p50.estimates": _transport_p50(outcome, spans, "estimates"),
        "http.errors": last["errors"] - first["errors"],
        "workers.ingest.self_s": self_s("workers.ingest"),
        "workers.estimate_report.self_s": self_s("workers.estimate_report"),
    }


def _transport_p50(outcome: Outcome, spans: List[dict], route_name: str) -> float:
    """p50 of client latency minus the server's ``ServingApi.handle`` span.

    That remainder is covered by no span: socket, HTTP parsing in the
    stdlib server, thread hand-off and the client itself.  Requests pair
    with handle spans by their ``(method, path)`` key in order, which is
    exact because each session is owned by one connection.
    """
    handles: Dict[str, List[dict]] = {}
    for span in sorted(spans, key=lambda span: span["start"]):
        if span["name"] == "http.handle" and span["route"] == route_name:
            handles.setdefault(span["key"], []).append(span)
    sent_by_key: Dict[str, List[Sent]] = {}
    for sent in outcome.logs[-1]:
        if sent.phase != "restart":
            sent_by_key.setdefault(f"{sent.op.method} {sent.op.path}", []).append(sent)
    gaps = []
    for key, matched in handles.items():
        sents = sent_by_key.get(key, [])
        if len(sents) != len(matched):
            continue  # a request that never reached the handler: pairing unknown
        for sent, span in zip(sents, matched):
            if sent.phase == "timed":
                gaps.append(sent.ms - (span["end"] - span["start"]) / 1e6)
    return float(np.percentile(gaps, 50)) if gaps else 0.0
