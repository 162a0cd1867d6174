"""Process-per-shard serving: each shard owned by its own worker process.

:class:`~repro.streaming.serving.ShardedEstimationService` routes
sessions across N shards by a hash of their name; this module keeps that
router and moves each shard into its **own worker process**.  Why
processes:

* **Ownership instead of locking** — exactly one process opens a shard's
  store (enforced with an advisory ``flock``,
  ``DirectorySessionStore(exclusive=True)``), so WAL appends and
  compactions for a shard can never interleave between writers.
* **Fault containment** — a crashed (even ``kill -9``-ed) worker takes
  down one shard, not the server; the parent restarts it and the
  standard snapshot + WAL replay recovers the shard bit-identically,
  because every acknowledged batch was logged before it was applied.
* **True multi-core ingestion** — shard workers are separate
  interpreters, so CPU-bound estimation and ingestion scale across
  cores instead of serialising on one GIL.

Topology::

    HTTP clients ──► HttpServingServer ──► ServingApi
                                             │
                                  ProcessShardedService (parent)
                                  = ShardedEstimationService router
                                   │ sha256 shard_index(name) │
                            ┌──────┴──────┐           ┌───────┴─────┐
                            ▼             ▼           ▼             ▼
                        worker 0      worker 1    ...           worker N-1
                   (ServingApi over EstimationService over shard-0000/, flock-owned)

There is one dispatch table: each worker runs a plain
:class:`~repro.serving.http.ServingApi`, and the parent's per-shard
handle is a :class:`~repro.serving.http.SessionClient` whose transport is
the worker's stdin/stdout pipe instead of HTTP.  A request frame carries
``(method, path, body)``, a reply frame ``(status, payload)``; both are
length-prefixed (4-byte big-endian length, then a UTF-8 head line, a
newline and the JSON body bytes), so each direction of a round trip
costs one JSON encode and one decode.  Error replies map back
to typed exceptions through :func:`~repro.serving.http.error_from_kind`,
and an unmapped exception in a worker is logged to stderr by
:func:`~repro.serving.http.log_internal_error` exactly like an HTTP 500.

Failure contract (what callers may rely on):

* **Per-request timeout** — a worker that does not answer within
  ``request_timeout`` seconds is killed and the call raises
  :class:`~repro.streaming.serving.ShardUnavailableError`; the shard
  recovers on its next request.
* **Crash before the request was delivered** — transparently restarted
  and retried once; the caller never notices.
* **Crash mid-request** — :class:`ShardUnavailableError`, because the
  parent cannot know whether the operation applied.  Retrying an ingest
  with its ``(source, sequence)`` pair is always safe: if the batch was
  applied (and therefore logged) before the crash, the retry is a
  duplicate no-op.
* **Restart budget** — each worker may be restarted at most
  ``max_restarts`` times over the service's lifetime; beyond it the
  shard stays unavailable (``ShardUnavailableError``) instead of
  crash-looping.
* **Graceful drain** — :meth:`ProcessShardedService.close` closes every
  worker's stdin (EOF is the worker's shutdown signal) and waits,
  escalating to terminate/kill on a deadline.  Nothing is lost either
  way: all state is already in the WAL.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.exceptions import ConfigurationError
from repro.serving.http import (
    ServingApi,
    SessionClient,
    classify_error,
    error_from_kind,
    log_internal_error,
)
from repro.streaming.serving import (
    DEFAULT_COMPACT_BYTES,
    EstimationService,
    ShardedEstimationService,
    ShardUnavailableError,
    reconcile_shard_manifest,
)
from repro.streaming.store import DirectorySessionStore

#: Pipe protocol version, sent in the boot handshake.
PROTOCOL_VERSION = 2

#: Upper bound on one frame; a longer length prefix means the stream is
#: desynchronised (or the peer is hostile) and the connection is torn
#: down rather than trusted.
MAX_FRAME_BYTES = 256 << 20

#: How long the parent waits for a worker's boot handshake.  Boot
#: includes WAL recovery of the shard's sessions, so it gets a more
#: generous deadline than steady-state requests.
DEFAULT_BOOT_TIMEOUT = 60.0

#: Default per-request deadline, after which the worker is presumed
#: wedged, killed, and the request fails with ShardUnavailableError.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Default restart budget per worker over the parent's lifetime.
DEFAULT_MAX_RESTARTS = 3


# --------------------------------------------------------------------- #
# framing (shared by both ends of the pipe)
# --------------------------------------------------------------------- #
def write_frame(stream: BinaryIO, head: str, body: bytes = b"") -> None:
    """Write one length-prefixed ``head`` line + ``body`` frame and flush it."""
    data = head.encode("utf-8") + b"\n" + body
    stream.write(struct.pack(">I", len(data)) + data)
    stream.flush()


def _split_frame(data: bytes) -> Tuple[str, bytes]:
    head, _, body = data.partition(b"\n")
    return head.decode("utf-8"), body


def read_frame(stream: BinaryIO) -> Optional[Tuple[str, bytes]]:
    """Read one ``(head, body)`` frame from a blocking stream; ``None`` on EOF."""
    header = stream.read(4)
    if len(header) < 4:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise ConfigurationError(
            f"oversized frame ({length} bytes): stream desynchronised"
        )
    data = stream.read(length)
    if len(data) < length:
        return None
    return _split_frame(data)


def _write_reply(stream: BinaryIO, status: int, payload: Dict[str, object]) -> None:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    write_frame(stream, str(status), body)


def _reply_error(status: int, payload: Dict[str, object]) -> Exception:
    """The typed exception for a worker's ``(status, payload)`` error reply."""
    message = str(payload.get("error", "worker error"))
    return error_from_kind(status, message, str(payload.get("kind", "internal")))


# --------------------------------------------------------------------- #
# the worker process (python -m repro.serving._worker_main)
# --------------------------------------------------------------------- #
def serve_worker(service, shard: int, stdin: BinaryIO, stdout: BinaryIO) -> int:
    """The worker request loop: ``(method, path, body)`` frames through a
    :class:`ServingApi` over ``service``, ``(status, payload)`` frames out.

    Returns the process exit code.  EOF on stdin is the shutdown signal:
    every acknowledged mutation is already in the shard's WAL.
    """
    api = ServingApi(service)
    _write_reply(
        stdout,
        200,
        {"hello": {"pid": os.getpid(), "shard": shard, "protocol": PROTOCOL_VERSION}},
    )
    while True:
        request = read_frame(stdin)
        if request is None:
            return 0
        head, body = request
        method, _, path = head.partition(" ")
        try:
            status, payload = api.handle(method, path, body)
        except Exception as error:  # logged here, never a traceback on the pipe
            status, payload = 500, log_internal_error(error, method, path)
        _write_reply(stdout, status, payload)


def worker_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.serving._worker_main``.

    Opens the shard store with **exclusive ownership** (another live
    owner is a boot failure, reported as a structured handshake error),
    recovers its sessions lazily through the normal service path, then
    serves frames until EOF.
    """
    parser = argparse.ArgumentParser(
        prog="repro-shard-worker",
        description="One shard of a process-sharded estimation service.",
    )
    parser.add_argument("--shard-dir", required=True, help="this shard's store directory")
    parser.add_argument("--shard-index", type=int, required=True)
    parser.add_argument("--max-active", type=int, default=None)
    parser.add_argument(
        "--compact-after-bytes", type=int, default=DEFAULT_COMPACT_BYTES
    )
    parser.add_argument("--sync", action="store_true")
    args = parser.parse_args(argv)

    # The frame stream must stay clean: keep a private handle on the real
    # stdout pipe and point fd 1 at stderr, so any stray print() from
    # library code lands in the parent's log instead of desynchronising
    # the framing.  SIGINT is ignored — a Ctrl-C on the foreground CLI
    # reaches the whole process group, and the parent must stay in
    # charge of draining its workers.
    rpc_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    try:
        store = DirectorySessionStore(
            args.shard_dir, sync=args.sync, exclusive=True
        )
        service = EstimationService(
            store,
            max_active=args.max_active,
            wal=True,
            compact_after_bytes=args.compact_after_bytes or None,
        )
    except Exception as error:
        mapped = classify_error(error)
        if mapped is None:
            _write_reply(rpc_out, 500, log_internal_error(error, "BOOT", args.shard_dir))
        else:
            _write_reply(rpc_out, mapped[0], {"error": str(error), "kind": mapped[1]})
        return 1
    return serve_worker(service, args.shard_index, sys.stdin.buffer, rpc_out)


# --------------------------------------------------------------------- #
# the parent-side worker handle
# --------------------------------------------------------------------- #
class _WorkerDied(Exception):
    """Internal: EOF from the worker pipe mid-read."""


class _WorkerTimeout(Exception):
    """Internal: the per-request deadline passed without a full reply."""


class _ShardWorker(SessionClient):
    """The parent's handle on one shard worker process.

    Its façade methods are :class:`SessionClient`'s own; only
    :meth:`_request` differs, sending each request down the worker's
    pipe instead of over HTTP.  One request is in flight per worker at a
    time (``self.lock``), which is what makes the framed pipe a
    sufficient transport: replies cannot interleave.  Cross-shard
    parallelism comes from having N workers, not from pipelining within
    one.
    """

    #: Workers always ingest through their shard's write-ahead log.
    wal_enabled = True

    def __init__(
        self,
        index: int,
        shard_dir: Path,
        *,
        max_active: Optional[int],
        compact_after_bytes: Optional[int],
        sync: bool,
        request_timeout: float,
        boot_timeout: float,
        max_restarts: int,
    ) -> None:
        self.index = index
        self.shard_dir = shard_dir
        self.max_active = max_active
        self.compact_after_bytes = compact_after_bytes
        self.sync = sync
        self.request_timeout = float(request_timeout)
        self.boot_timeout = float(boot_timeout)
        self.max_restarts = int(max_restarts)
        self.restarts = 0
        self.closed = False
        self.lock = threading.Lock()
        self.process: Optional[subprocess.Popen] = None
        #: whether a worker was ever spawned: every spawn after the first
        #: is a restart and must be charged against the budget, even when
        #: the corpse has already been reaped away.
        self._ever_spawned = False

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #
    def _command(self) -> List[str]:
        command = [
            sys.executable,
            "-m",
            "repro.serving._worker_main",
            "--shard-dir",
            str(self.shard_dir),
            "--shard-index",
            str(self.index),
        ]
        if self.max_active is not None:
            command += ["--max-active", str(self.max_active)]
        command += [
            "--compact-after-bytes",
            str(self.compact_after_bytes or 0),
        ]
        if self.sync:
            command.append("--sync")
        return command

    def _spawn(self) -> None:
        import repro

        env = dict(os.environ)
        # The worker must import the same repro tree as the parent,
        # however the parent itself was launched.
        package_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        self._ever_spawned = True
        self.process = subprocess.Popen(
            self._command(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # worker diagnostics flow to the parent's stderr
            env=env,
        )
        try:
            status, payload = self._read_reply(time.monotonic() + self.boot_timeout)
        except (_WorkerDied, _WorkerTimeout) as error:
            self._kill()
            raise ShardUnavailableError(
                f"shard {self.index} worker failed to boot: {error!r}"
            ) from None
        if status != 200:
            self._kill()
            raise _reply_error(status, payload)

    def _alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def _reap(self) -> None:
        if self.process is not None:
            try:
                self.process.stdin.close()
            except Exception:
                pass
            try:
                self.process.stdout.close()
            except Exception:
                pass
            self.process.wait()
            self.process = None

    def _kill(self) -> None:
        if self.process is not None:
            if self.process.poll() is None:
                self.process.kill()
            self._reap()

    def _ensure_started(self) -> None:
        """Spawn (or lazily respawn) the worker, charging the budget.

        The first spawn is free; every spawn after a death costs one
        restart.  A worker beyond its budget stays down — the shard
        reports :class:`ShardUnavailableError` rather than crash-looping
        over a poisoned store.
        """
        if self._alive():
            return
        if self.process is not None:  # a corpse awaiting reaping
            self._reap()
        if self._ever_spawned:  # this start is a restart
            if self.restarts >= self.max_restarts:
                raise ShardUnavailableError(
                    f"shard {self.index} worker exceeded its restart budget "
                    f"({self.max_restarts}); the shard stays unavailable "
                    "until the service is reopened"
                )
            self.restarts += 1
        self._spawn()

    # -------------------------------------------------------------- #
    # framed I/O with deadline
    # -------------------------------------------------------------- #
    def _read_exact(self, count: int, deadline: float) -> bytes:
        descriptor = self.process.stdout.fileno()
        chunks = b""
        while len(chunks) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _WorkerTimeout(f"no reply within deadline")
            ready, _, _ = select.select([descriptor], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(descriptor, count - len(chunks))
            if not chunk:
                raise _WorkerDied("EOF from worker")
            chunks += chunk
        return chunks

    def _read_reply(self, deadline: float) -> Tuple[int, Dict[str, object]]:
        (length,) = struct.unpack(">I", self._read_exact(4, deadline))
        if length > MAX_FRAME_BYTES:
            raise _WorkerDied(f"oversized frame ({length} bytes)")
        head, body = _split_frame(self._read_exact(length, deadline))
        return int(head), json.loads(body.decode("utf-8"))

    # -------------------------------------------------------------- #
    # the request path
    # -------------------------------------------------------------- #
    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """One pipe round trip, with restart/timeout/crash handling.

        A death detected *before* the worker received the request is
        retried transparently after a restart (the operation cannot have
        applied).  A death or deadline *after* the request was delivered
        raises :class:`ShardUnavailableError` — whether it applied is
        unknowable here, and the ``(source, sequence)`` idempotency pair
        exists precisely so the caller's retry is safe either way.
        """
        head = f"{method} {path}"
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        with self.lock:
            if self.closed:
                raise ConfigurationError(
                    "ProcessShardedService is closed; reopen it to serve again"
                )
            for attempt in (1, 2):
                self._ensure_started()
                try:
                    write_frame(self.process.stdin, head, body)
                except (BrokenPipeError, OSError):
                    # The pipe's read end is gone: the worker died before
                    # this request could reach it.  Restart and retry once.
                    self._reap()
                    if attempt == 2:
                        raise ShardUnavailableError(
                            f"shard {self.index} worker died before accepting "
                            f"{head!r} twice in a row"
                        ) from None
                    continue
                try:
                    status, reply = self._read_reply(
                        time.monotonic() + self.request_timeout
                    )
                except _WorkerDied:
                    self._reap()
                    raise ShardUnavailableError(
                        f"shard {self.index} worker died while handling {head!r}; "
                        "it will be restarted and recovered from its WAL on "
                        "the next request (retrying with the same "
                        "source/sequence is safe)"
                    ) from None
                except _WorkerTimeout:
                    self._kill()
                    raise ShardUnavailableError(
                        f"shard {self.index} worker exceeded the "
                        f"{self.request_timeout:.1f}s request deadline on "
                        f"{head!r} and was killed; it will be restarted on "
                        "the next request"
                    ) from None
                break
        if status >= 400:
            raise _reply_error(status, reply)
        return reply

    def close(self, timeout: float = 5.0) -> None:
        """Drain this worker: EOF on its stdin, then terminate, then kill."""
        with self.lock:
            self.closed = True
            if self.process is None:
                return
            if self.process.poll() is None:
                try:
                    self.process.stdin.close()
                except Exception:
                    pass
                try:
                    self.process.wait(timeout)
                except subprocess.TimeoutExpired:
                    self.process.terminate()
                    try:
                        self.process.wait(2.0)
                    except subprocess.TimeoutExpired:
                        self.process.kill()
            self._reap()


# --------------------------------------------------------------------- #
# the parent façade
# --------------------------------------------------------------------- #
class ProcessShardedService(ShardedEstimationService):
    """The :class:`ShardedEstimationService` router over worker processes.

    Same routing (sha256 :func:`~repro.streaming.serving.shard_index`),
    same on-disk layout (``<root>/shard-<i>/`` + ``shards.json``), same
    manifest rules — a root written by the in-process sharded service
    reopens under workers and vice versa.  What changes is *where* each
    shard runs: in its own interpreter, which exclusively owns its store.
    Every façade method is the inherited router's; this class only
    supplies the worker shards, :meth:`worker_pids` and :meth:`close`.

    Parameters
    ----------
    root:
        The sharded store root.  Required — worker recovery is built on
        the durable snapshot+WAL layout, so a memory-backed process
        shard would turn every crash into data loss.
    num_shards:
        Worker count.  ``None`` reads the root's manifest (a fresh root
        defaults to 1); a mismatch with an existing manifest raises.
    max_active / compact_after_bytes / sync:
        Forwarded to each worker's :class:`EstimationService` and store.
    request_timeout / boot_timeout:
        Per-request and per-boot deadlines (seconds) before a worker is
        declared unavailable.
    max_restarts:
        Crash-restart budget per worker over this service's lifetime.

    Use as a context manager (or call :meth:`close`) so workers drain
    instead of being orphaned.

    Each shard is a :class:`~repro.serving.http.SessionClient`, so the
    process boundary brings the client's divergences from the in-process
    façade: :meth:`snapshot` / :meth:`compact` return a confirmation
    mapping instead of the :class:`SessionSnapshot` object,
    :meth:`restore` only restores from the shard's own store (a foreign
    snapshot object cannot cross the pipe — save it into the store
    first), :meth:`collusion_report` returns the report's payload
    mapping, and ``estimators`` must be registry names, not estimator
    objects.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        num_shards: Optional[int] = None,
        max_active: Optional[int] = None,
        compact_after_bytes: Optional[int] = DEFAULT_COMPACT_BYTES,
        sync: bool = False,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        boot_timeout: float = DEFAULT_BOOT_TIMEOUT,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
    ) -> None:
        # The router's state, with worker handles as the shards (the base
        # constructor would build in-process EstimationService shards).
        self.root = Path(root)
        self._num_shards = reconcile_shard_manifest(self.root, num_shards)
        self._shards: Tuple[_ShardWorker, ...] = tuple(
            _ShardWorker(
                index,
                self.root / f"shard-{index:04d}",
                max_active=max_active,
                compact_after_bytes=compact_after_bytes,
                sync=sync,
                request_timeout=request_timeout,
                boot_timeout=boot_timeout,
                max_restarts=max_restarts,
            )
            for index in range(self._num_shards)
        )
        # Boot every worker up front: configuration errors (a lock held
        # by another owner, a corrupt store) surface here, not on the
        # first unlucky request.
        try:
            for worker in self._shards:
                with worker.lock:
                    worker._ensure_started()
        except Exception:
            self.close()
            raise

    def worker_pids(self) -> List[Optional[int]]:
        """Current worker PIDs by shard index (``None`` for a dead one)."""
        return [
            worker.process.pid if worker._alive() else None
            for worker in self._shards
        ]

    def close(self, timeout: float = 5.0) -> None:
        """Drain every worker (EOF → terminate → kill).  Idempotent."""
        for worker in self._shards:
            worker.close(timeout)

    def __enter__(self) -> "ProcessShardedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
