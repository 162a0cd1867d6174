"""Multi-tenant serving façade over streaming estimation sessions.

The paper's use case is operational: a data-cleaning pipeline
continuously asks "how many undetected errors remain?" while crowd votes
trickle in.  :class:`~repro.streaming.StreamingSession` answers that for
one in-process session; :class:`EstimationService` turns it into a
serving layer that hosts **many named sessions** behind one façade, with
the robustness features a long-running deployment needs:

* **Named sessions** — ``create_session`` / ``ingest`` / ``estimates``
  address sessions by name; unknown names fail with the available ones
  listed.
* **Idempotent ingestion** — each ingest batch may carry a
  ``(source, sequence)`` pair; a batch whose sequence does not advance
  its source's high-water mark is a **no-op**, so at-least-once delivery
  (retrying loaders, replayed queues) cannot double-count votes.
* **Cached estimates** — ``estimates`` recomputes only when the
  session's :class:`~repro.core.state.StreamingState` version (which
  folds in the :class:`~repro.core.fstatistics.IncrementalFingerprint`
  mutation counter) has moved; a dashboard polling an idle session costs
  O(1) per poll.
* **Durability** — ``snapshot`` / ``restore`` round sessions through the
  versioned npz + JSON snapshot codec and a pluggable
  :class:`~repro.streaming.store.SessionStore`; a restored session's
  estimates are bit-identical to one that never stopped.
* **Log-structured ingestion** — on a store with a write-ahead log
  (:class:`~repro.streaming.store.DirectorySessionStore`), every applied
  batch is appended as one O(batch) log record *before* it mutates the
  in-memory session, so the store copy is never behind the live one;
  recovery is last snapshot + log replay, and a size-triggered
  **compaction** folds the log into a fresh snapshot.  A snapshot-only
  store (:class:`~repro.streaming.store.MemorySessionStore`) is the
  degenerate no-WAL case with exactly the pre-WAL behaviour.
* **Bounded memory** — with ``max_active`` set, the least-recently-used
  live sessions are transparently evicted to the store and revived on
  next touch (free under a WAL, since the store already holds every
  applied batch).
* **Thread safety** — ingestion into one session is serialised by a
  per-session lock; different sessions proceed concurrently.

For deployments whose throughput outgrows one service,
:class:`ShardedEstimationService` partitions sessions across N
single-process shards by session-key hash behind the same façade —
``N=1`` is exactly one :class:`EstimationService`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.common.exceptions import ConfigurationError, ValidationError
from repro.common.labels import CLEAN, DIRTY
from repro.common.validation import check_int
from repro.core.base import EstimateResult, EstimatorProtocol
from repro.streaming.session import SessionSnapshot, StreamingSession
from repro.streaming.store import (
    DirectorySessionStore,
    MemorySessionStore,
    SessionStore,
    StoreCorruptionError,  # noqa: F401 - re-exported for error-mapping callers
    UnknownSessionError,
    check_session_name,
)
from repro.streaming.wal import BatchRecord, CreateRecord, check_batch_record

#: Compact a session once its write-ahead log grows past this size.
DEFAULT_COMPACT_BYTES = 1 << 20


class ShardUnavailableError(ConfigurationError):
    """A shard's backing worker cannot serve requests right now.

    Raised by process-sharded deployments when the worker process owning
    a session's shard has died mid-request, exceeded its per-request
    timeout, or exhausted its restart budget.  The session's durable
    state (snapshot + write-ahead log) is intact — retrying after the
    worker recovers, with the same idempotency ``(source, sequence)``
    pair, is always safe.  Maps to HTTP 500 with kind
    ``"shard_unavailable"``.
    """


def _unknown_session(name: str, available: List[str]) -> UnknownSessionError:
    """The error every topology raises for an unknown session name."""
    return UnknownSessionError(f"unknown session {name!r}; available: {available}")


def replay_batch_record(
    session: StreamingSession, sources: Dict[str, int], record: BatchRecord
) -> bool:
    """Apply one logged batch to ``session``; returns False for duplicates.

    The replay twin of :meth:`EstimationService.ingest`: the same
    ``(source, sequence)`` high-water-mark check guards it, so a
    re-appended duplicate batch record is a no-op on recovery exactly as
    its delivery was live.
    """
    if record.source is not None:
        last = sources.get(record.source)
        if last is not None and record.sequence <= last:
            return False
    session.add_columns(record.column_mappings(), record.worker_ids)
    if record.source is not None:
        sources[record.source] = record.sequence
    return True


@dataclass(frozen=True)
class EstimateReport:
    """One :meth:`EstimationService.estimate_report` read, with its version.

    Attributes
    ----------
    session:
        The session the read addressed.
    version:
        The state's mutation version at read time — ``(num_columns,
        total_votes, fingerprint_version)``.  Two reads with equal
        versions saw the identical state, which is what lets a wire
        client assert "that retried batch really was a no-op" without
        comparing every estimate.
    results:
        ``{estimator name: EstimateResult}``, exactly what
        :meth:`EstimationService.estimates` returns (and served from the
        same version-keyed cache).
    """

    session: str
    version: Tuple[int, int, int]
    results: Dict[str, EstimateResult]


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one :meth:`EstimationService.ingest` call.

    Attributes
    ----------
    session:
        The session the batch addressed.
    applied:
        Number of columns actually ingested (0 for a duplicate batch).
    duplicate:
        True when the batch was dropped because its ``(source, sequence)``
        did not advance the source's high-water mark.
    num_columns / total_votes:
        Session totals *after* the call — what a client needs to decide
        whether to poll ``estimates``.
    """

    session: str
    applied: int
    duplicate: bool
    num_columns: int
    total_votes: int


class _ActiveSession:
    """A live session plus its serving bookkeeping (lock, cache, sources)."""

    __slots__ = ("session", "lock", "sources", "cache_version", "cache", "evicted")

    def __init__(
        self, session: StreamingSession, sources: Optional[Dict[str, int]] = None
    ) -> None:
        self.session = session
        self.lock = threading.RLock()
        #: per-source ingestion high-water marks (idempotency state).
        self.sources: Dict[str, int] = dict(sources or {})
        self.cache_version: Optional[tuple] = None
        self.cache: Optional[Dict[str, EstimateResult]] = None
        #: set under the service lock when the handle leaves the table; any
        #: caller that raced the eviction re-activates instead of mutating
        #: a parked session.
        self.evicted = False


class EstimationService:
    """Host many named :class:`StreamingSession`s behind one façade.

    Parameters
    ----------
    store:
        Snapshot store for durability and eviction
        (:class:`~repro.streaming.store.MemorySessionStore` by default;
        pass a :class:`~repro.streaming.store.DirectorySessionStore` to
        survive restarts).
    max_active:
        Maximum number of live in-memory sessions; beyond it the
        least-recently-used session is snapshotted to the store and
        dropped from memory.  ``None`` (default) keeps every session live.
    wal:
        ``"auto"`` (default) uses the store's write-ahead log when it has
        one (``store.supports_wal``); ``True`` requires one; ``False``
        forces the snapshot-only behaviour even on a log-structured
        store.  With a WAL, creation and every applied ingest batch are
        durable before the call returns, in O(batch).
    compact_after_bytes:
        Fold the log into a fresh snapshot once it grows past this many
        bytes (checked after each applied batch).  ``None`` disables
        automatic compaction; :meth:`compact` always remains available.

    Examples
    --------
    >>> service = EstimationService()
    >>> _ = service.create_session("tenant-a", item_ids=[0, 1, 2], estimators=["voting"])
    >>> service.ingest("tenant-a", [{0: 1, 1: 0}], source="loader", sequence=1).applied
    1
    >>> service.ingest("tenant-a", [{0: 1, 1: 0}], source="loader", sequence=1).duplicate
    True
    >>> sorted(service.estimates("tenant-a"))
    ['voting']
    """

    def __init__(
        self,
        store: Optional[SessionStore] = None,
        *,
        max_active: Optional[int] = None,
        wal: Union[str, bool] = "auto",
        compact_after_bytes: Optional[int] = DEFAULT_COMPACT_BYTES,
    ) -> None:
        self._store = store if store is not None else MemorySessionStore()
        if max_active is not None:
            max_active = check_int(max_active, "max_active", minimum=1)
        self._max_active = max_active
        if wal == "auto":
            self._wal = bool(getattr(self._store, "supports_wal", False))
        elif isinstance(wal, bool):
            if wal and not getattr(self._store, "supports_wal", False):
                raise ConfigurationError(
                    f"wal=True requires a log-structured store; "
                    f"{type(self._store).__name__} has no write-ahead log"
                )
            self._wal = wal
        else:
            raise ValidationError(f"wal must be 'auto', True or False, got {wal!r}")
        if compact_after_bytes is not None:
            compact_after_bytes = check_int(
                compact_after_bytes, "compact_after_bytes", minimum=1
            )
        self._compact_after_bytes = compact_after_bytes
        self._active: "OrderedDict[str, _ActiveSession]" = OrderedDict()
        self._lock = threading.Lock()
        #: tombstones of dropped names: closes the race where an accessor
        #: that loaded a snapshot just before ``drop`` would resurrect the
        #: session afterwards.  ``create_session`` clears the tombstone.
        self._dropped: Set[str] = set()
        #: serving counters (observability + the caching tests/benchmark);
        #: guarded by their own lock so concurrent handlers don't lose
        #: increments.
        self._counter_lock = threading.Lock()
        self.estimates_served = 0
        self.estimate_cache_hits = 0
        self.sessions_restored = 0
        self.sessions_evicted = 0

    def _count(self, counter: str, delta: int = 1) -> None:
        with self._counter_lock:
            setattr(self, counter, getattr(self, counter) + delta)

    # ------------------------------------------------------------------ #
    # session lifecycle
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> SessionStore:
        """The snapshot store backing eviction and durability."""
        return self._store

    @property
    def wal_enabled(self) -> bool:
        """Whether ingestion lands in the store's write-ahead log."""
        return self._wal

    def create_session(
        self,
        name: str,
        item_ids: Sequence[int],
        estimators: Optional[Sequence[Union[str, EstimatorProtocol]]] = None,
        *,
        keep_votes: bool = True,
    ) -> str:
        """Create and activate a new named session; returns the name.

        Raises ``ConfigurationError`` when the name is already in use —
        live or stored — since silently rebinding a tenant's name would
        orphan its history.

        On a write-ahead-log store the creation itself is durable before
        the call returns — as one O(1) create record, not a snapshot.
        """
        check_session_name(name)
        session = StreamingSession(item_ids, estimators, keep_votes=keep_votes)
        with self._lock:
            if name in self._active or name in self._store:
                raise ConfigurationError(
                    f"session {name!r} already exists; drop it first or pick "
                    "another name"
                )
            self._dropped.discard(name)
            self._active[name] = _ActiveSession(session)
        if self._wal:
            try:
                self._store.append(
                    name,
                    CreateRecord(
                        item_ids=tuple(int(item) for item in session.state.item_ids),
                        estimators=tuple(est.name for est in session.estimators),
                        keep_votes=keep_votes,
                    ),
                )
            except Exception:
                with self._lock:
                    self._active.pop(name, None)
                raise
        self._enforce_limit(keep=name)
        return name

    def sessions(self) -> List[str]:
        """Every known session name — live and stored — sorted."""
        with self._lock:
            names = set(self._active)
        names.update(self._store.names())
        return sorted(names)

    def active_sessions(self) -> List[str]:
        """Names of the sessions currently live in memory (LRU order)."""
        with self._lock:
            return list(self._active)

    def drop(self, name: str) -> None:
        """Forget a session everywhere: live table and store.

        The live removal, the store delete and the tombstone are applied
        in one critical section, so an accessor racing the drop either
        sees the session fully alive or fully gone — never a store copy
        it could resurrect from.
        """
        check_session_name(name)
        with self._lock:
            handle = self._active.pop(name, None)
            if handle is not None:
                handle.evicted = True
            stored = name in self._store
            if stored:
                self._store.delete(name)
            if handle is not None or stored:
                self._dropped.add(name)
                return
        raise _unknown_session(name, self.sessions())

    # ------------------------------------------------------------------ #
    # ingestion and estimation
    # ------------------------------------------------------------------ #
    def ingest(
        self,
        name: str,
        columns: Sequence[Mapping[int, int]],
        *,
        worker_ids: Optional[Sequence[Optional[int]]] = None,
        source: Optional[str] = None,
        sequence: Optional[int] = None,
    ) -> IngestResult:
        """Ingest a batch of task columns into the named session.

        Parameters
        ----------
        columns:
            One ``{item_id: vote}`` mapping per task column, applied in
            order.
        worker_ids:
            Optional worker id per column (aligned with ``columns``).
        source, sequence:
            Idempotency pair.  When given (always together), the batch is
            applied only if ``sequence`` is strictly greater than the last
            sequence accepted from ``source``; otherwise the whole batch
            is skipped and ``duplicate=True`` is reported.  Retried
            deliveries of the same batch are therefore no-ops.

        The batch is atomic with respect to validation: every column is
        checked (known item ids, DIRTY/CLEAN votes) before any column is
        applied, so a rejected batch leaves the session untouched and can
        be fixed and redelivered under the same sequence number.

        On a write-ahead-log store the validated batch is appended to the
        session's log — one O(batch) record — *before* it mutates the
        in-memory session, so an applied batch is always durable and the
        store never lags the live state.  Once the log outgrows
        ``compact_after_bytes`` it is folded into a fresh snapshot.
        """
        if (source is None) != (sequence is None):
            raise ValidationError(
                "source and sequence must be provided together (the pair is "
                "what makes retried deliveries idempotent)"
            )
        if sequence is not None:
            sequence = check_int(sequence, "sequence", minimum=0)
        if worker_ids is not None and len(worker_ids) != len(columns):
            raise ValidationError(
                f"worker_ids length {len(worker_ids)} does not match "
                f"{len(columns)} column(s)"
            )
        while True:
            handle = self._activate(name)
            with handle.lock:
                if handle.evicted:
                    continue  # lost a race with eviction; revive and retry
                session = handle.session
                if source is not None:
                    last = handle.sources.get(source)
                    if last is not None and sequence <= last:
                        return IngestResult(
                            session=name,
                            applied=0,
                            duplicate=True,
                            num_columns=session.num_columns,
                            total_votes=session.total_votes,
                        )
                # Validate the whole batch before applying any of it: a
                # half-applied batch whose high-water mark never advanced
                # would be double-counted by the (legitimate) retry.
                state = session.state
                for votes in columns:
                    for item_id, vote in votes.items():
                        state.row_index(item_id)  # raises on unknown ids
                        if vote not in (DIRTY, CLEAN):
                            raise ValidationError(
                                f"votes must be DIRTY ({DIRTY}) or CLEAN "
                                f"({CLEAN}); got {vote!r} for item {item_id}"
                            )
                if self._wal:
                    # Log first, apply second: a crash between the two
                    # replays the record on recovery, so the durable state
                    # is never behind what the client saw acknowledged.
                    self._store.append(
                        name,
                        BatchRecord.from_columns(
                            columns, worker_ids, source, sequence
                        ),
                    )
                session.add_columns(columns, worker_ids)
                if source is not None:
                    handle.sources[source] = sequence
                if (
                    self._wal
                    and self._compact_after_bytes is not None
                    and self._store.log_size(name) >= self._compact_after_bytes
                ):
                    self._store.save(name, self._snapshot_locked(handle))
                return IngestResult(
                    session=name,
                    applied=len(columns),
                    duplicate=False,
                    num_columns=session.num_columns,
                    total_votes=session.total_votes,
                )

    def estimates(self, name: str) -> Dict[str, EstimateResult]:
        """Current estimates of the named session, cached between mutations.

        The cache key is the session state's mutation version; polling an
        idle session returns the previously computed ``EstimateResult``
        objects without touching an estimator.
        """
        return self.estimate_report(name).results

    def estimate_report(self, name: str) -> EstimateReport:
        """Like :meth:`estimates`, plus the state version the read saw.

        Version and results are captured under the session lock, so the
        pair is consistent — the wire contract a retrying client needs to
        verify its duplicate delivery left the session untouched.
        """
        while True:
            handle = self._activate(name)
            with handle.lock:
                if handle.evicted:
                    continue
                self._count("estimates_served")
                version = handle.session.state.version
                if handle.cache is not None and handle.cache_version == version:
                    self._count("estimate_cache_hits")
                    return EstimateReport(name, version, dict(handle.cache))
                results = handle.session.estimate()
                handle.cache = results
                handle.cache_version = version
                return EstimateReport(name, version, dict(results))

    def progress(self, name: str) -> Dict[str, float]:
        """The named session's stream-progress summary."""
        while True:
            handle = self._activate(name)
            with handle.lock:
                if handle.evicted:
                    continue
                return handle.session.progress()

    def collusion_report(
        self, name: str, *, threshold: float = 0.9, min_overlap: int = 5
    ):
        """Pairwise-agreement collusion diagnostics for the session.

        Materialises the session's retained votes and runs
        :func:`repro.core.descriptive.collusion_report` over them — the
        detection-side answer to the cross-session clique regimes.
        Requires the session to have been created with
        ``keep_votes=True`` (the materialisation raises
        ``ConfigurationError`` otherwise, which the HTTP layer maps to a
        400).
        """
        from repro.core.descriptive import collusion_report as _collusion_report

        while True:
            handle = self._activate(name)
            with handle.lock:
                if handle.evicted:
                    continue
                matrix = handle.session.matrix()
                return _collusion_report(
                    matrix, threshold=threshold, min_overlap=min_overlap
                )

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #
    def snapshot(self, name: str) -> SessionSnapshot:
        """Snapshot the named session and persist it to the store.

        The returned snapshot carries the serving-layer idempotency state
        (per-source sequence high-water marks) in its manifest, so a
        restored session keeps rejecting the duplicates its predecessor
        already saw.  The session stays live.

        On a write-ahead-log store this **is** compaction: the store
        folds the session's log into the fresh snapshot and restarts the
        log empty (see :meth:`compact`).
        """
        while True:
            handle = self._activate(name)
            with handle.lock:
                if handle.evicted:
                    continue
                snapshot = self._snapshot_locked(handle)
                self._store.save(name, snapshot)
                return snapshot

    def compact(self, name: str) -> SessionSnapshot:
        """Fold the named session's log into a fresh snapshot now.

        Recovery cost is proportional to the log tail, so a periodic
        compaction (or the automatic ``compact_after_bytes`` trigger)
        keeps reopen latency flat.  On a snapshot-only store this is
        simply :meth:`snapshot`.  Returns the compacted snapshot.
        """
        return self.snapshot(name)

    def restore(
        self,
        name: str,
        snapshot: Optional[SessionSnapshot] = None,
        estimators: Optional[Sequence[Union[str, EstimatorProtocol]]] = None,
    ) -> Dict[str, float]:
        """Activate a session from a snapshot (explicit or from the store).

        With ``snapshot=None`` the store's copy is loaded — which is also
        what every other accessor does transparently, so an explicit
        ``restore`` is only needed to import a foreign snapshot or to
        override the estimator set.  Any live session under the name is
        replaced.  Returns the restored session's progress summary.
        """
        check_session_name(name)
        if snapshot is None:
            try:
                session, sources = self._recover_session(name, estimators)
            except UnknownSessionError:
                raise _unknown_session(name, self.sessions()) from None
        else:
            session = StreamingSession.from_snapshot(snapshot, estimators)
            sources = self._serving_sources(snapshot)
        with self._lock:
            previous = self._active.pop(name, None)
            if previous is not None:
                previous.evicted = True
            self._dropped.discard(name)
            handle = _ActiveSession(session, sources)
            self._active[name] = handle
        if self._wal and snapshot is not None:
            # An imported foreign snapshot exists nowhere in the store;
            # persist it so the WAL invariant (store ≥ live state) holds
            # and a later eviction can stay write-free.
            with handle.lock:
                self._store.save(name, self._snapshot_locked(handle))
        self._count("sessions_restored")
        self._enforce_limit(keep=name)
        return session.progress()

    def evict(self, name: Optional[str] = None) -> Optional[str]:
        """Park a live session in the store and free its memory.

        ``name=None`` picks the least-recently-used live session.  Returns
        the evicted name, or ``None`` when nothing is live.  The session
        remains addressable: the next touch restores it from the store.
        """
        with self._lock:
            if name is None:
                name = next(
                    (
                        key
                        for key, candidate in self._active.items()
                        if not candidate.evicted
                    ),
                    None,
                )
                if name is None:
                    return None
            handle = self._active.get(name)
            if handle is None or handle.evicted:
                raise ConfigurationError(
                    f"session {name!r} is not live; active: {list(self._active)}"
                )
        self._evict_handle(name, handle)
        return name

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _snapshot_locked(self, handle: _ActiveSession) -> SessionSnapshot:
        """Build a snapshot (caller holds the handle lock)."""
        snapshot = handle.session.snapshot()
        snapshot.manifest["serving"] = {
            "sources": {key: int(value) for key, value in handle.sources.items()}
        }
        return snapshot

    @staticmethod
    def _serving_sources(snapshot: SessionSnapshot) -> Dict[str, int]:
        serving = snapshot.manifest.get("serving", {})
        sources = serving.get("sources", {}) if isinstance(serving, dict) else {}
        return {str(key): int(value) for key, value in sources.items()}

    def _recover_session(
        self,
        name: str,
        estimators: Optional[Sequence[Union[str, EstimatorProtocol]]] = None,
    ) -> Tuple[StreamingSession, Dict[str, int]]:
        """Rebuild ``name`` from the store: base snapshot + log replay.

        On a snapshot-only store this degenerates to plain snapshot
        restoration (the record list is empty).  On a log-structured
        store the base may even be absent — then the log's leading
        create record builds the empty session — and every batch record
        replays through the same idempotency gate live ingestion uses,
        so duplicate records are no-ops and the recovered state is
        bit-identical to the pre-crash live session.
        """
        snapshot, records = self._store.recovery(name)
        if snapshot is not None:
            session = StreamingSession.from_snapshot(snapshot, estimators)
            sources = self._serving_sources(snapshot)
        else:
            head = records[0] if records else None
            if not isinstance(head, CreateRecord):
                raise ConfigurationError(
                    f"stored session {name!r} has neither a snapshot nor a "
                    "leading create record — its log is not a valid "
                    "ingestion history"
                )
            session = StreamingSession(
                list(head.item_ids),
                list(head.estimators) if estimators is None else estimators,
                keep_votes=head.keep_votes,
            )
            sources = {}
            records = records[1:]
        for record in records:
            replay_batch_record(session, sources, check_batch_record(record))
        return session, sources

    def _activate(self, name: str) -> _ActiveSession:
        """Return the live handle for ``name``, reviving from the store.

        Every touch moves the session to the most-recently-used end of
        the table; activation beyond ``max_active`` evicts from the LRU
        end.
        """
        check_session_name(name)
        with self._lock:
            handle = self._active.get(name)
            if handle is not None and not handle.evicted:
                self._active.move_to_end(name)
                return handle
            if handle is not None:
                # An evicted husk awaiting table removal; its state is
                # already durable (snapshot saved before the evicted flag
                # flips, or every batch logged under a WAL), so reviving
                # from the store is safe.
                del self._active[name]
        # Recover outside the table lock: store I/O can be slow and must
        # not serialise unrelated sessions.
        try:
            session, sources = self._recover_session(name)
        except UnknownSessionError:
            raise _unknown_session(name, self.sessions()) from None
        with self._lock:
            if name in self._dropped:
                raise _unknown_session(name, self.sessions())
            existing = self._active.get(name)
            if existing is not None:  # someone else revived it first
                self._active.move_to_end(name)
                return existing
            handle = _ActiveSession(session, sources)
            self._active[name] = handle
        self._count("sessions_restored")
        self._enforce_limit(keep=name)
        return handle

    def _enforce_limit(self, keep: str) -> None:
        """Evict LRU sessions until at most ``max_active`` are live.

        Runs *outside* the table lock: each victim is picked under the
        lock, then snapshotted and saved while holding only its own
        session lock, so a slow store write never stalls unrelated
        sessions.
        """
        if self._max_active is None:
            return
        while True:
            with self._lock:
                live = [
                    key
                    for key, handle in self._active.items()
                    if not handle.evicted
                ]
                if len(live) <= self._max_active:
                    return
                victim = next((key for key in live if key != keep), None)
                if victim is None:
                    return
                handle = self._active[victim]
            self._evict_handle(victim, handle)

    def _evict_handle(self, name: str, handle: _ActiveSession) -> None:
        """Snapshot ``handle`` into the store, then drop it from the table.

        The save happens under the handle's own lock (so in-flight
        ingestion is included and later mutation is impossible — any
        writer acquiring the lock afterwards sees ``evicted`` and
        re-activates); the ``evicted`` flag flips only once the snapshot
        is durable, so a concurrent revival always loads complete state.

        Under a write-ahead log the save is skipped entirely: every
        mutation was already logged before it was applied, so the store
        copy is complete and eviction is a free in-memory drop — what
        lets ``max_active`` bound memory over very large session counts
        without turning eviction into an O(state) write.
        """
        with handle.lock:
            if not handle.evicted:
                if not self._wal:
                    self._store.save(name, self._snapshot_locked(handle))
                handle.evicted = True
                self._count("sessions_evicted")
        with self._lock:
            if self._active.get(name) is handle:
                del self._active[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"EstimationService(active={len(self._active)}, "
            f"stored={len(self._store)}, max_active={self._max_active})"
        )


#: Root manifest of a sharded serving directory.
SHARD_MANIFEST_FILENAME = "shards.json"

#: Sharded-root manifest format version; bump when the layout changes.
SHARD_MANIFEST_VERSION = 1


def reconcile_shard_manifest(root: Path, num_shards: Optional[int]) -> int:
    """Validate ``num_shards`` against ``root``'s manifest, or write one.

    The single source of truth for a sharded root's shard count, shared
    by every deployment shape (in-process :class:`ShardedEstimationService`
    and the process-per-shard parent): an existing ``shards.json`` wins —
    reopening with a different requested count raises, since resharding
    would silently strand every session whose hash moved — and a fresh
    root records the requested count (default 1) atomically.
    Returns the authoritative shard count.
    """
    manifest_path = root / SHARD_MANIFEST_FILENAME
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"unreadable shard manifest {manifest_path}: {error}"
            ) from error
        if not isinstance(manifest, dict):
            raise ConfigurationError(
                f"unreadable shard manifest {manifest_path}: expected a "
                f"JSON object, got {type(manifest).__name__}"
            )
        if manifest.get("format_version") != SHARD_MANIFEST_VERSION:
            raise ConfigurationError(
                f"unsupported shard manifest version in {manifest_path}: "
                f"{manifest.get('format_version')!r}"
            )
        recorded = int(manifest["num_shards"])
        if num_shards is not None and num_shards != recorded:
            raise ConfigurationError(
                f"shard count mismatch for {root}: the root was "
                f"created with {recorded} shard(s) but {num_shards} were "
                "requested — resharding would strand sessions whose hash "
                "moved; open with the recorded count (or omit num_shards)"
            )
        return recorded
    resolved = 1 if num_shards is None else num_shards
    root.mkdir(parents=True, exist_ok=True)
    descriptor, staging = tempfile.mkstemp(
        prefix=f".{SHARD_MANIFEST_FILENAME}.tmp-", dir=root
    )
    with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "format_version": SHARD_MANIFEST_VERSION,
                "num_shards": int(resolved),
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    os.replace(staging, manifest_path)
    return resolved


def shard_index(name: str, num_shards: int) -> int:
    """The shard owning session ``name`` (stable across processes).

    A keyed hash (not Python's salted ``hash``) so every process — and
    every future reopen of the same root — routes a name to the same
    shard.
    """
    digest = hashlib.sha256(check_session_name(name).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % check_int(
        num_shards, "num_shards", minimum=1
    )


class ShardedEstimationService:
    """Partition sessions across N single-process service shards.

    Each shard is a full :class:`EstimationService` over its own store;
    a session lives on exactly one shard, chosen by a stable hash of its
    name (:func:`shard_index`).  The façade is the same as a single
    service — ``N=1`` **is** exactly today's service, shard 0 — and this
    class is the one router for every sharded topology: a shard only
    needs the service surface, so
    :class:`~repro.serving.workers.ProcessShardedService` reuses the
    router unchanged over shard handles that live in worker processes.

    Parameters
    ----------
    root:
        Directory holding one :class:`DirectorySessionStore` per shard
        (``<root>/shard-<i>/``) plus a ``shards.json`` manifest
        recording the shard count.  Reopening a root with a different
        ``num_shards`` raises — resharding would silently strand every
        session whose hash moved.  ``None`` serves from per-shard
        in-memory stores instead.
    num_shards:
        Shard count.  ``None`` reads the manifest (new in-memory or new
        on-disk roots default to 1).
    max_active:
        Per-shard live-session bound, passed to each shard's service.
    wal / compact_after_bytes:
        Passed to each shard's service (see :class:`EstimationService`).
    store_factory:
        Build shard ``i``'s store (overrides ``root``/memory defaults);
        mostly for tests.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        *,
        num_shards: Optional[int] = None,
        max_active: Optional[int] = None,
        wal: Union[str, bool] = "auto",
        compact_after_bytes: Optional[int] = DEFAULT_COMPACT_BYTES,
        store_factory: Optional[Callable[[int], SessionStore]] = None,
    ) -> None:
        self.root = None if root is None else Path(root)
        if self.root is not None:
            num_shards = reconcile_shard_manifest(self.root, num_shards)
        elif num_shards is None:
            num_shards = 1
        self._num_shards = check_int(num_shards, "num_shards", minimum=1)
        if store_factory is None:
            if self.root is None:
                store_factory = lambda index: MemorySessionStore()  # noqa: E731
            else:
                store_factory = lambda index: DirectorySessionStore(  # noqa: E731
                    self.root / f"shard-{index:04d}"
                )
        self._shards: Tuple[EstimationService, ...] = tuple(
            EstimationService(
                store_factory(index),
                max_active=max_active,
                wal=wal,
                compact_after_bytes=compact_after_bytes,
            )
            for index in range(self._num_shards)
        )

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """The shard count recorded for this root."""
        return self._num_shards

    @property
    def shards(self) -> Tuple[EstimationService, ...]:
        """The per-shard services, by shard index."""
        return self._shards

    def shard_of(self, name: str) -> int:
        """The shard index owning session ``name``."""
        return shard_index(name, self._num_shards)

    @property
    def wal_enabled(self) -> bool:
        """True when every shard ingests through a write-ahead log."""
        return all(shard.wal_enabled for shard in self._shards)

    @contextmanager
    def _owner(self, name: str) -> Iterator[EstimationService]:
        """The shard owning ``name``.

        An unknown-session error from it is re-raised listing every
        shard's sessions, so the error reads the same in every topology.
        """
        try:
            yield self._shards[self.shard_of(name)]
        except UnknownSessionError:
            raise _unknown_session(name, self.sessions()) from None

    # ------------------------------------------------------------------ #
    # the EstimationService façade, routed by session-name hash
    # ------------------------------------------------------------------ #
    def create_session(
        self,
        name: str,
        item_ids: Sequence[int],
        estimators: Optional[Sequence[Union[str, EstimatorProtocol]]] = None,
        *,
        keep_votes: bool = True,
    ) -> str:
        """Create the session on its owning shard; returns the name."""
        with self._owner(name) as shard:
            return shard.create_session(
                name, item_ids, estimators, keep_votes=keep_votes
            )

    def ingest(
        self,
        name: str,
        columns: Sequence[Mapping[int, int]],
        *,
        worker_ids: Optional[Sequence[Optional[int]]] = None,
        source: Optional[str] = None,
        sequence: Optional[int] = None,
    ) -> IngestResult:
        """Ingest into the owning shard (same contract as one service)."""
        with self._owner(name) as shard:
            return shard.ingest(
                name, columns, worker_ids=worker_ids, source=source, sequence=sequence
            )

    def estimates(self, name: str) -> Dict[str, EstimateResult]:
        """Current (cached) estimates from the owning shard."""
        with self._owner(name) as shard:
            return shard.estimates(name)

    def estimate_report(self, name: str) -> EstimateReport:
        """Versioned estimate read from the owning shard."""
        with self._owner(name) as shard:
            return shard.estimate_report(name)

    def progress(self, name: str) -> Dict[str, float]:
        """The named session's stream-progress summary."""
        with self._owner(name) as shard:
            return shard.progress(name)

    def collusion_report(
        self, name: str, *, threshold: float = 0.9, min_overlap: int = 5
    ):
        """Collusion diagnostics from the owning shard."""
        with self._owner(name) as shard:
            return shard.collusion_report(
                name, threshold=threshold, min_overlap=min_overlap
            )

    def snapshot(self, name: str) -> SessionSnapshot:
        """Snapshot (compact) the session on its owning shard."""
        with self._owner(name) as shard:
            return shard.snapshot(name)

    def compact(self, name: str) -> SessionSnapshot:
        """Fold the session's log into a fresh snapshot on its shard."""
        with self._owner(name) as shard:
            return shard.compact(name)

    def restore(
        self,
        name: str,
        snapshot: Optional[SessionSnapshot] = None,
        estimators: Optional[Sequence[Union[str, EstimatorProtocol]]] = None,
    ) -> Dict[str, float]:
        """Restore on the owning shard (hash routing keeps imports findable)."""
        with self._owner(name) as shard:
            return shard.restore(name, snapshot, estimators)

    def drop(self, name: str) -> None:
        """Forget the session on its owning shard."""
        with self._owner(name) as shard:
            shard.drop(name)

    def evict(self, name: str) -> str:
        """Park the live session ``name`` on its owning shard."""
        with self._owner(name) as shard:
            return shard.evict(name)

    def sessions(self) -> List[str]:
        """Every known session name across all shards, sorted."""
        names: Set[str] = set()
        for shard in self._shards:
            names.update(shard.sessions())
        return sorted(names)

    def active_sessions(self) -> List[str]:
        """Live in-memory session names across shards (shard order)."""
        return [name for shard in self._shards for name in shard.active_sessions()]

    # ------------------------------------------------------------------ #
    # aggregated serving counters
    # ------------------------------------------------------------------ #
    @property
    def estimates_served(self) -> int:
        return sum(shard.estimates_served for shard in self._shards)

    @property
    def estimate_cache_hits(self) -> int:
        return sum(shard.estimate_cache_hits for shard in self._shards)

    @property
    def sessions_restored(self) -> int:
        return sum(shard.sessions_restored for shard in self._shards)

    @property
    def sessions_evicted(self) -> int:
        return sum(shard.sessions_evicted for shard in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"{type(self).__name__}(num_shards={self._num_shards}, "
            f"root={str(self.root) if self.root else None!r})"
        )
