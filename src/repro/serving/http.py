"""The HTTP boundary of the serving layer: a JSON API over a service.

:class:`ServingApi` maps a small REST surface onto an
:class:`~repro.streaming.serving.EstimationService` (or the hash-sharded
:class:`~repro.streaming.serving.ShardedEstimationService` — the façade
is identical, so the wire layer cannot tell them apart):

====== =================================== =====================================
Method Path                                Meaning
====== =================================== =====================================
GET    ``/health``                         liveness + session/shard counts
GET    ``/sessions``                       known session names
POST   ``/sessions``                       create a session
GET    ``/sessions/<name>``                progress summary
DELETE ``/sessions/<name>``                drop the session everywhere
POST   ``/sessions/<name>/batches``        ingest one batch (idempotent)
GET    ``/sessions/<name>/estimates``      cached estimates + state version
POST   ``/sessions/<name>/snapshot``       persist a snapshot to the store
POST   ``/sessions/<name>/compact``        fold the session's log into a snapshot
====== =================================== =====================================

The ``(source, sequence)`` pair of the ingest body is the **wire-level
retry contract**: a client that dies before reading its acknowledgement
simply re-POSTs the whole batch, and a batch whose sequence does not
advance its source's high-water mark is acknowledged as a no-op
(``duplicate: true``, 200) instead of double-counting votes.  The
``version`` triple in the estimates response lets that client verify the
retry really changed nothing.

Errors are structured, never tracebacks:

* unknown session → **404** (:class:`~repro.streaming.store.UnknownSessionError`)
* malformed body / bad votes / bad names → **400** (``ValidationError``)
* conflicting configuration (name already exists, unknown estimator)
  → **409** (``ConfigurationError``)
* unreadable stored bytes → **500**
  (:class:`~repro.streaming.store.StoreCorruptionError`)
* anything else → **500** ``{"error": "internal error", "kind":
  "internal", "error_id": ...}``; the exception and its traceback go to
  the server's stderr as one JSON line under the same ``error_id``

Transport is the stdlib :class:`http.server.ThreadingHTTPServer` — one
thread per connection, which the per-session locks of the service were
built for.  :class:`ServingApi` itself is transport-free (``handle`` maps
``(method, path, body)`` to ``(status, payload)``), so tests can drive
the full routing and error mapping without opening a socket, and
:class:`SessionClient` is the matching stdlib ``urllib`` client whose
methods return the same dataclasses as the in-process façade.
"""

from __future__ import annotations

import json
import sys
import threading
import traceback
import urllib.error
import urllib.parse
import urllib.request
import uuid
from dataclasses import dataclass
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.exceptions import ConfigurationError, ReproError, ValidationError
from repro.core.base import EstimateResult
from repro.streaming.serving import EstimateReport, IngestResult, ShardUnavailableError
from repro.streaming.store import StoreCorruptionError, UnknownSessionError

#: Bodies larger than this are rejected up front (64 MiB is far beyond
#: any sane vote batch and keeps a misbehaving client from ballooning
#: the handler thread).
MAX_BODY_BYTES = 64 << 20

_JSON_CONTENT_TYPE = "application/json"


class HttpApiError(ReproError):
    """An error response from the serving API, with its HTTP status.

    Raised by :class:`SessionClient`; ``status`` carries the mapped code
    (404 unknown session, 400 validation, 409 conflict, 500 corruption or
    internal failure) and ``kind`` the server's error classification.

    Known error kinds raise the dual-typed subclasses below
    (:class:`HttpUnknownSessionError` and friends), which are *also* the
    exception type the in-process façade would have raised — so code
    written against :class:`~repro.streaming.serving.EstimationService`
    catches exactly the same exceptions over the wire (``except
    UnknownSessionError`` keeps meaning "no such session", and a 404 is
    no longer catchable as a 409-style ``ConfigurationError`` conflict).
    Only responses the client cannot classify (unknown kinds, non-JSON
    bodies, unroutable paths) surface as this bare base class.
    """

    def __init__(self, status: int, message: str, kind: str = "error") -> None:
        super().__init__(message)
        self.status = int(status)
        self.kind = str(kind)


class HttpUnknownSessionError(UnknownSessionError, HttpApiError):
    """404: the named session does not exist (in-process twin: ``UnknownSessionError``)."""


class HttpValidationError(ValidationError, HttpApiError):
    """400: the request was malformed (in-process twin: ``ValidationError``)."""


class HttpConflictError(ConfigurationError, HttpApiError):
    """409: conflicting configuration (in-process twin: ``ConfigurationError``)."""


class HttpStoreCorruptionError(StoreCorruptionError, HttpApiError):
    """500: unreadable stored bytes (in-process twin: ``StoreCorruptionError``)."""


class HttpShardUnavailableError(ShardUnavailableError, HttpApiError):
    """500: a shard worker process is down (in-process twin: ``ShardUnavailableError``)."""


#: How the server classifies library errors: ``(exception, status, kind)``,
#: checked in order (subclasses before their bases).  Shared by
#: :meth:`ServingApi.handle` and the per-shard worker processes
#: (:mod:`repro.serving.workers`), so the two boundaries cannot drift.
SERVER_ERROR_TAXONOMY: Tuple[Tuple[type, int, str], ...] = (
    (UnknownSessionError, 404, "unknown_session"),
    (StoreCorruptionError, 500, "store_corruption"),
    (ShardUnavailableError, 500, "shard_unavailable"),
    (ValidationError, 400, "validation"),
    (ConfigurationError, 409, "conflict"),
)

#: The client-side inverse: the server's ``kind`` field back to the typed
#: exception a caller of the in-process façade would have seen.
CLIENT_ERROR_TYPES: Dict[str, type] = {
    "unknown_session": HttpUnknownSessionError,
    "validation": HttpValidationError,
    "conflict": HttpConflictError,
    "store_corruption": HttpStoreCorruptionError,
    "shard_unavailable": HttpShardUnavailableError,
}


def classify_error(error: BaseException) -> Optional[Tuple[int, str]]:
    """Map a library exception onto ``(status, kind)`` — ``None`` if unmapped."""
    for exception_type, status, kind in SERVER_ERROR_TAXONOMY:
        if isinstance(error, exception_type):
            return status, kind
    return None


def error_from_kind(status: int, message: str, kind: str) -> HttpApiError:
    """Build the typed client-side exception for a structured error response.

    Known kinds return the dual-typed subclass (e.g. ``unknown_session``
    → :class:`HttpUnknownSessionError`, catchable as
    ``UnknownSessionError``); unknown kinds fall back to the bare
    :class:`HttpApiError`.  Status and kind stay attached either way.
    """
    return CLIENT_ERROR_TYPES.get(kind, HttpApiError)(status, message, kind)


# --------------------------------------------------------------------- #
# wire codecs (shared by the server, the client and the CLI)
# --------------------------------------------------------------------- #
def _plain(value):
    """JSON-safe value: numpy scalars and arrays become Python equivalents."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        # Estimator ``details`` legitimately carry arrays (frequency
        # tables, per-checkpoint traces); ``tolist`` yields nested lists
        # of exact Python scalars instead of crashing ``json.dumps``.
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    return value


def parse_columns_payload(
    payload: object,
) -> Tuple[List[Dict[int, int]], List[Optional[int]]]:
    """Decode the JSON wire shape of a vote batch into ingest arguments.

    The accepted shape — shared by ``POST /sessions/<name>/batches`` and
    ``repro session ingest`` — is a list with one entry per task column,
    each either ``{"votes": {"<item>": vote, ...}, "worker": id}`` or the
    bare ``{"<item>": vote}`` mapping itself.  Anything else raises
    ``ValidationError`` with the offending entry's position; nothing here
    lets a malformed body escape as a raw traceback.
    """
    if not isinstance(payload, list):
        raise ValidationError(
            f"vote batch must be a JSON list of column objects, "
            f"got {type(payload).__name__}"
        )
    columns: List[Dict[int, int]] = []
    workers: List[Optional[int]] = []
    for position, entry in enumerate(payload):
        if not isinstance(entry, dict):
            raise ValidationError(
                f"column {position} must be an object, got {type(entry).__name__}"
            )
        worker = None
        votes = entry
        if "votes" in entry:
            votes = entry["votes"]
            if not isinstance(votes, dict):
                raise ValidationError(
                    f"column {position}: 'votes' must be an object mapping "
                    f"item ids to votes, got {type(votes).__name__}"
                )
            worker = entry.get("worker")
            unknown = sorted(set(entry) - {"votes", "worker"})
            if unknown:
                raise ValidationError(
                    f"column {position}: unknown key(s) {unknown}; "
                    "expected 'votes' and optional 'worker'"
                )
        column: Dict[int, int] = {}
        for item, vote in votes.items():
            try:
                column[int(item)] = int(vote)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"column {position}: item ids and votes must be "
                    f"integers, got {item!r}: {vote!r}"
                ) from None
        try:
            workers.append(None if worker is None else int(worker))
        except (TypeError, ValueError):
            raise ValidationError(
                f"column {position}: 'worker' must be an integer, got {worker!r}"
            ) from None
        columns.append(column)
    return columns, workers


def result_to_payload(result: EstimateResult) -> Dict[str, object]:
    """One :class:`EstimateResult` as its JSON wire object."""
    return {
        "estimate": _plain(float(result.estimate)),
        "observed": _plain(float(result.observed)),
        "remaining": _plain(float(result.remaining)),
        "details": _plain(dict(result.details)),
    }


def result_from_payload(payload: Mapping[str, object]) -> EstimateResult:
    """The client-side inverse of :func:`result_to_payload`.

    JSON floats round-trip exactly (the encoder emits the shortest
    representation that parses back to the identical double), so the
    reconstructed :class:`EstimateResult` compares equal bit for bit with
    the server's — the property the end-to-end harness pins.
    """
    return EstimateResult(
        estimate=float(payload["estimate"]),
        observed=float(payload["observed"]),
        details={str(key): value for key, value in dict(payload.get("details", {})).items()},
    )


def report_to_payload(report: EstimateReport) -> Dict[str, object]:
    """One :class:`EstimateReport` as the estimates response body."""
    return {
        "session": report.session,
        "version": [int(part) for part in report.version],
        "estimates": {
            name: result_to_payload(result)
            for name, result in sorted(report.results.items())
        },
    }


def report_from_payload(payload: Mapping[str, object]) -> EstimateReport:
    """The client-side inverse of :func:`report_to_payload`."""
    return EstimateReport(
        session=str(payload["session"]),
        version=tuple(int(part) for part in payload["version"]),
        results={
            str(name): result_from_payload(result)
            for name, result in dict(payload["estimates"]).items()
        },
    )


# --------------------------------------------------------------------- #
# the transport-free API core
# --------------------------------------------------------------------- #
class ServingApi:
    """Route ``(method, path, body)`` requests onto a serving façade.

    Works over anything with the :class:`EstimationService` surface —
    including :class:`ShardedEstimationService`.  Thread-safe to exactly
    the degree the underlying service is; the only state of its own is a
    lock-guarded request counter.
    """

    def __init__(self, service) -> None:
        self.service = service
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._errors = 0

    def stats(self) -> Dict[str, int]:
        """Requests handled and error responses sent so far."""
        with self._stats_lock:
            return {"requests": self._requests, "errors": self._errors}

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def handle(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, Dict[str, object]]:
        """One request in, ``(status, JSON-safe payload)`` out.

        Every library error is mapped to a structured JSON error body —
        the transport layer never sees an exception for a client-caused
        problem.
        """
        with self._stats_lock:
            self._requests += 1
        try:
            status, payload = self._route(method.upper(), path, body)
        except ReproError as error:
            mapped = classify_error(error)
            if mapped is None:
                raise  # unmapped library error: the transport's 500 path
            status, kind = mapped
            payload = {"error": str(error), "kind": kind}
        if status >= 400:
            with self._stats_lock:
                self._errors += 1
        return status, payload

    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        route, _, raw_query = path.partition("?")
        parts = [part for part in route.split("/") if part]
        query = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(raw_query).items()
        }
        if parts == ["health"] and method == "GET":
            return self._health()
        if parts == ["sessions"]:
            if method == "GET":
                return 200, {"sessions": self.service.sessions()}
            if method == "POST":
                return self._create(self._json_body(body))
        if len(parts) == 2 and parts[0] == "sessions":
            name = parts[1]
            if method == "GET":
                return 200, {
                    "session": name,
                    "progress": _plain(self.service.progress(name)),
                }
            if method == "DELETE":
                self.service.drop(name)
                return 200, {"session": name, "dropped": True}
        if len(parts) == 3 and parts[0] == "sessions":
            name, action = parts[1], parts[2]
            if action == "batches" and method == "POST":
                return self._ingest(name, self._json_body(body))
            if action == "estimates" and method == "GET":
                payload = report_to_payload(self.service.estimate_report(name))
                if _query_flag(query, "collusion"):
                    payload["collusion"] = self._collusion(name, query)
                return 200, payload
            if action == "snapshot" and method == "POST":
                self.service.snapshot(name)
                return 200, {"session": name, "snapshotted": True}
            if action == "compact" and method == "POST":
                self.service.compact(name)
                return 200, {"session": name, "compacted": True}
        return 404, {
            "error": f"no route for {method} {path}",
            "kind": "unknown_route",
        }

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def _collusion(self, name: str, query: Dict[str, str]) -> Dict[str, object]:
        """The estimates route's ``?collusion=1`` extension.

        Optional ``threshold`` / ``min_overlap`` query parameters tune
        the agreement scan; a service without the capability (the
        process-sharded facade keeps its worker RPC surface minimal)
        answers with a 400 rather than a confusing unknown-route 404.
        """
        reporter = getattr(self.service, "collusion_report", None)
        if reporter is None:
            raise ValidationError(
                "this service does not support collusion reports "
                "(process-sharded serving keeps the worker protocol to the "
                "core ingest/estimate surface)"
            )
        kwargs: Dict[str, object] = {}
        if "threshold" in query:
            try:
                kwargs["threshold"] = float(query["threshold"])
            except ValueError:
                raise ValidationError(
                    f"'threshold' must be a number, got {query['threshold']!r}"
                ) from None
        if "min_overlap" in query:
            try:
                kwargs["min_overlap"] = int(query["min_overlap"])
            except ValueError:
                raise ValidationError(
                    f"'min_overlap' must be an integer, got {query['min_overlap']!r}"
                ) from None
        return reporter(name, **kwargs).to_dict()

    def _health(self) -> Tuple[int, Dict[str, object]]:
        service = self.service
        return 200, {
            "status": "ok",
            "sessions": len(service.sessions()),
            "active_sessions": len(service.active_sessions()),
            "shards": int(getattr(service, "num_shards", 1)),
            "wal": bool(getattr(service, "wal_enabled", False)),
        }

    def _create(self, payload: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        name = payload.get("name")
        if not isinstance(name, str):
            raise ValidationError("create body requires a string 'name'")
        unknown = sorted(
            set(payload) - {"name", "item_ids", "items", "estimators", "keep_votes"}
        )
        if unknown:
            raise ValidationError(
                f"unknown create key(s) {unknown}; expected 'name', "
                "'item_ids' or 'items', optional 'estimators' and 'keep_votes'"
            )
        if ("item_ids" in payload) == ("items" in payload):
            raise ValidationError(
                "create body requires exactly one of 'item_ids' (explicit id "
                "list) or 'items' (ids 0..N-1)"
            )
        if "item_ids" in payload:
            raw = payload["item_ids"]
            if not isinstance(raw, list):
                raise ValidationError("'item_ids' must be a list of integers")
            try:
                item_ids = [int(item) for item in raw]
            except (TypeError, ValueError):
                raise ValidationError("'item_ids' must be a list of integers") from None
        else:
            try:
                item_ids = list(range(int(payload["items"])))
            except (TypeError, ValueError):
                raise ValidationError("'items' must be an integer") from None
        estimators = payload.get("estimators")
        if estimators is not None:
            if not isinstance(estimators, list) or not all(
                isinstance(entry, str) for entry in estimators
            ):
                raise ValidationError("'estimators' must be a list of registry names")
        keep_votes = payload.get("keep_votes", True)
        if not isinstance(keep_votes, bool):
            raise ValidationError("'keep_votes' must be a boolean")
        self.service.create_session(name, item_ids, estimators, keep_votes=keep_votes)
        return 201, {
            "session": name,
            "num_items": len(item_ids),
            "keep_votes": keep_votes,
        }

    def _ingest(
        self, name: str, payload: Dict[str, object]
    ) -> Tuple[int, Dict[str, object]]:
        if not isinstance(payload, dict):
            raise ValidationError(
                f"ingest body must be an object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"columns", "source", "sequence"})
        if unknown:
            raise ValidationError(
                f"unknown ingest key(s) {unknown}; expected 'columns', "
                "optional 'source' and 'sequence'"
            )
        columns, workers = parse_columns_payload(payload.get("columns"))
        source = payload.get("source")
        if source is not None and not isinstance(source, str):
            raise ValidationError(f"'source' must be a string, got {source!r}")
        sequence = payload.get("sequence")
        if sequence is not None:
            try:
                sequence = int(sequence)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"'sequence' must be an integer, got {sequence!r}"
                ) from None
        result = self.service.ingest(
            name, columns, worker_ids=workers, source=source, sequence=sequence
        )
        return 200, {
            "session": result.session,
            "applied": result.applied,
            "duplicate": result.duplicate,
            "num_columns": result.num_columns,
            "total_votes": result.total_votes,
        }

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, object]:
        if not body:
            raise ValidationError("request body must be a JSON object, got nothing")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValidationError(f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ValidationError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        return payload


# --------------------------------------------------------------------- #
# the stdlib transport
# --------------------------------------------------------------------- #
class _ServingRequestHandler(BaseHTTPRequestHandler):
    """Thin glue: bytes in from the socket, ``ServingApi.handle``, JSON out."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serving"

    def _respond(self) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length > MAX_BODY_BYTES:
            status, payload = 400, {
                "error": f"request body exceeds {MAX_BODY_BYTES} bytes",
                "kind": "validation",
            }
            # Never materialise (or even wait for) the declared body: a
            # single ``read(length)`` here would allocate whatever
            # Content-Length the client claimed — exactly the ballooning
            # the guard exists to prevent — and would block until those
            # bytes actually arrived.  The connection is closed after the
            # error response instead of drained for keep-alive; a client
            # that declares gigabytes does not deserve its socket back.
            self.close_connection = True
        else:
            body = self.rfile.read(length) if length else b""
            try:
                status, payload = self.server.api.handle(self.command, self.path, body)
            except Exception as error:  # never leak a traceback onto the wire
                status, payload = 500, self._internal_error(error)
        encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = [
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {_JSON_CONTENT_TYPE}",
            f"Content-Length: {len(encoded)}",
        ]
        if self.close_connection:
            head.append("Connection: close")
        # Status line, headers and body leave in ONE write.  Headers and
        # body as two writes make the body a second small segment, which
        # Nagle's algorithm holds until the client's delayed ACK of the
        # first (~40 ms) on every request of a keep-alive connection.
        self.wfile.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + encoded)

    def _internal_error(self, error: Exception) -> Dict[str, object]:
        """The 500 body of an unmapped exception, logged server-side.

        The client gets an opaque ``error_id`` only; the exception text
        and traceback go to stderr as one JSON line carrying the same id.
        Call it from the ``except`` block that caught ``error``.
        """
        error_id = uuid.uuid4().hex
        record = {
            "error_id": error_id,
            "exception": type(error).__name__,
            "method": self.command,
            "path": self.path,
            "traceback": traceback.format_exc(),
        }
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        sys.stderr.flush()
        return {"error": "internal error", "kind": "internal", "error_id": error_id}

    do_GET = do_POST = do_DELETE = _respond

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the per-request stderr chatter (stats() has the counts)."""


class _ServingHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    #: Ephemeral test servers come and go on the same port; don't linger.
    allow_reuse_address = True

    def __init__(self, address, api: ServingApi) -> None:
        super().__init__(address, _ServingRequestHandler)
        self.api = api


class HttpServingServer:
    """An :class:`EstimationService` behind a real TCP port.

    Parameters
    ----------
    service:
        The façade to serve — an
        :class:`~repro.streaming.serving.EstimationService` or
        :class:`~repro.streaming.serving.ShardedEstimationService`.
    host / port:
        Bind address.  ``port=0`` (the default) binds an ephemeral port;
        read the resolved one from :attr:`port` / :attr:`url`.

    The socket is bound (and the port resolved) at construction time;
    :meth:`start` begins serving on a daemon thread and is what the
    context-manager protocol calls.  ``repro serve`` uses
    :meth:`serve_forever` instead to stay in the foreground.

    Examples
    --------
    >>> from repro.serving import EstimationService
    >>> with HttpServingServer(EstimationService()) as server:
    ...     client = SessionClient(server.url)
    ...     client.health()["status"]
    'ok'
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0) -> None:
        self.api = ServingApi(service)
        self._server = _ServingHTTPServer((host, int(port)), self.api)
        self._thread: Optional[threading.Thread] = None
        #: whether ``serve_forever`` ever began: ``BaseServer.shutdown``
        #: waits on an event only ``serve_forever`` sets, so calling it on
        #: a server that never served would block forever.
        self._serving = False

    @property
    def service(self):
        """The façade being served."""
        return self.api.service

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound TCP port (resolved even when constructed with 0)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpServingServer":
        """Serve on a background daemon thread; returns ``self``."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name=f"repro-serving:{self.port}",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` is called."""
        self._serving = True
        self._server.serve_forever()

    def shutdown(self) -> None:
        """Stop serving and release the port (idempotent).

        Safe on a server that was constructed but never started: the
        stdlib ``BaseServer.shutdown`` waits on an event only
        ``serve_forever`` sets, so it is skipped unless serving actually
        began — the port is released either way.
        """
        if self._serving:
            self._serving = False
            self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "HttpServingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# --------------------------------------------------------------------- #
# the stdlib client
# --------------------------------------------------------------------- #
def _query_flag(query: Mapping[str, str], key: str) -> bool:
    """Whether a query parameter is present and truthy (``0``/``false`` off)."""
    value = query.get(key)
    if value is None:
        return False
    return value.strip().lower() not in {"", "0", "false", "no"}


class SessionClient:
    """A ``urllib``-based client speaking the :class:`ServingApi` wire format.

    Methods mirror the in-process façade and return the same dataclasses
    (:class:`IngestResult`, :class:`EstimateReport`,
    :class:`~repro.core.base.EstimateResult`), so code — including the
    load generator — can run against either without changes.  Error
    responses raise the typed exception the façade would have raised
    (``unknown_session`` → :class:`HttpUnknownSessionError`, catchable as
    ``UnknownSessionError``, and so on per :data:`CLIENT_ERROR_TYPES`);
    every raised error is also an :class:`HttpApiError` carrying the HTTP
    status and the server's error kind.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        data = None
        headers = {"Accept": _JSON_CONTENT_TYPE}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = _JSON_CONTENT_TYPE
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raw = error.read().decode("utf-8", errors="replace")
            try:
                parsed = json.loads(raw)
                message = str(parsed.get("error", raw))
                kind = str(parsed.get("kind", "error"))
            except json.JSONDecodeError:
                message, kind = raw or str(error), "error"
            raise error_from_kind(error.code, message, kind) from None
        return body

    def health(self) -> Dict[str, object]:
        return self._request("GET", "/health")

    def sessions(self) -> List[str]:
        return [str(name) for name in self._request("GET", "/sessions")["sessions"]]

    def create_session(
        self,
        name: str,
        item_ids: Optional[Sequence[int]] = None,
        estimators: Optional[Sequence[str]] = None,
        *,
        items: Optional[int] = None,
        keep_votes: bool = True,
    ) -> str:
        payload: Dict[str, object] = {"name": name, "keep_votes": keep_votes}
        if item_ids is not None:
            payload["item_ids"] = [int(item) for item in item_ids]
        if items is not None:
            payload["items"] = int(items)
        if estimators is not None:
            payload["estimators"] = list(estimators)
        self._request("POST", "/sessions", payload)
        return name

    def progress(self, name: str) -> Dict[str, float]:
        payload = self._request("GET", f"/sessions/{name}")["progress"]
        return {str(key): float(value) for key, value in payload.items()}

    def ingest(
        self,
        name: str,
        columns: Sequence[Mapping[int, int]],
        *,
        worker_ids: Optional[Sequence[Optional[int]]] = None,
        source: Optional[str] = None,
        sequence: Optional[int] = None,
    ) -> IngestResult:
        if worker_ids is not None and len(worker_ids) != len(columns):
            # The same check the in-process façade makes; without it a
            # short ``worker_ids`` would escape as a bare ``IndexError``
            # below instead of a diagnosable validation failure.
            raise ValidationError(
                f"worker_ids length {len(worker_ids)} does not match "
                f"{len(columns)} column(s)"
            )
        wire_columns: List[Dict[str, object]] = []
        for index, votes in enumerate(columns):
            entry: Dict[str, object] = {
                "votes": {str(item): int(vote) for item, vote in votes.items()}
            }
            if worker_ids is not None and worker_ids[index] is not None:
                entry["worker"] = int(worker_ids[index])
            wire_columns.append(entry)
        payload: Dict[str, object] = {"columns": wire_columns}
        if source is not None:
            payload["source"] = source
        if sequence is not None:
            payload["sequence"] = int(sequence)
        body = self._request("POST", f"/sessions/{name}/batches", payload)
        return IngestResult(
            session=str(body["session"]),
            applied=int(body["applied"]),
            duplicate=bool(body["duplicate"]),
            num_columns=int(body["num_columns"]),
            total_votes=int(body["total_votes"]),
        )

    def estimate_report(self, name: str) -> EstimateReport:
        return report_from_payload(
            self._request("GET", f"/sessions/{name}/estimates")
        )

    def estimates(self, name: str) -> Dict[str, EstimateResult]:
        return self.estimate_report(name).results

    def collusion_report(
        self,
        name: str,
        *,
        threshold: Optional[float] = None,
        min_overlap: Optional[int] = None,
    ) -> Dict[str, object]:
        """The estimates route's collusion extension, as a plain payload.

        Mirrors ``EstimationService.collusion_report`` over the wire
        (``GET /sessions/{name}/estimates?collusion=1``); omitted knobs
        take the server-side defaults.
        """
        params = {"collusion": "1"}
        if threshold is not None:
            params["threshold"] = repr(float(threshold))
        if min_overlap is not None:
            params["min_overlap"] = str(int(min_overlap))
        body = self._request(
            "GET",
            f"/sessions/{name}/estimates?" + urllib.parse.urlencode(params),
        )
        return dict(body["collusion"])

    def snapshot(self, name: str) -> Dict[str, object]:
        return self._request("POST", f"/sessions/{name}/snapshot", {})

    def compact(self, name: str) -> Dict[str, object]:
        return self._request("POST", f"/sessions/{name}/compact", {})

    def drop(self, name: str) -> None:
        self._request("DELETE", f"/sessions/{name}")
