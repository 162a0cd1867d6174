"""Seeded request streams and a closed-loop stdlib HTTP load generator.

The streams are made with numpy from the benchmark's ``--seed`` alone,
never with the program's own simulators or clients, so a change to the
program cannot change the load.  Each connection owns a fixed set of
sessions and walks a deterministic sequence of *cycles*; a cycle is
``deliveries`` deliveries followed by ``reads`` estimate reads of the
session written last.  Within a cycle the last delivery may be a
re-send of the one before it (a retried delivery that must come back as
a duplicate).  The loop is closed: each request waits for the previous
reply.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import socket
import struct
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Connections (and load threads) of every served mix: ``nproc`` of the
#: 2-CPU machine the benchmark was sized on.
CONNECTIONS = 2
#: Client socket timeout, far beyond any reply the mixes expect.
TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Mix:
    """One served-traffic mix (see README.md for why each exists)."""

    name: str
    workers: Optional[int]  # None: one process; N: ``repro serve --workers N``
    keep_alive: bool  # False: one fresh connection per request
    sessions: int
    items: int
    estimators: Tuple[str, ...]
    columns: Tuple[int, int]  # task columns per batch: seeded, uniform in [low, high]
    votes: int  # votes per column
    deliveries: int  # deliveries per cycle, the retry included
    reads: int  # estimate reads after the cycle's deliveries
    retry_last: bool  # the cycle's last delivery re-sends the one before it
    warmup_cycles: int
    pooled: bool  # time a slice after every set-up (else only after the last)
    #: untimed history loaded before the timed phase: (batches per session, columns per batch)
    history: Tuple[int, int] = (0, 0)

    def owned(self, connection: int) -> List[int]:
        """Session indices owned by ``connection`` (each session has one owner)."""
        return list(range(connection, self.sessions, CONNECTIONS))


def session_name(index: int) -> str:
    """Session names do not depend on the mix, so two mixes can be byte-identical."""
    return f"s{index:04d}"


@dataclass
class Op:
    """One request of a stream, plus what the reference check needs."""

    method: str
    path: str
    body: Optional[bytes]
    session: int
    columns: Optional[List[Dict[int, int]]] = None  # fresh deliveries only
    workers: Optional[List[int]] = None
    retry_of: Optional["Op"] = None  # re-sent deliveries only


class Stream:
    """The deterministic request sequence of one connection.

    Everything is drawn from ``np.random.default_rng([seed, connection])``
    in request order, so the same seed yields byte-identical requests
    whatever the server answers or how fast it runs.
    """

    def __init__(self, mix: Mix, seed: int, connection: int) -> None:
        self.mix = mix
        self.connection = connection
        self.sessions = mix.owned(connection)
        self._rng = np.random.default_rng([seed, connection])
        # Each session has its own seeded set of erroneous items: workers
        # mark those dirty with probability 0.8, the rest with 0.05.
        self._dirty = {
            index: np.random.default_rng([seed, 1_000_003, index]).random(mix.items) < 0.1
            for index in self.sessions
        }
        self._next_session = 0
        self._sequence = {index: 0 for index in self.sessions}
        self._columns_sent = {index: 0 for index in self.sessions}
        self.digest = hashlib.sha256()
        self.kinds: List[str] = []  # what was generated, in order (see Stream.replay)

    def _fresh(self, index: int, count: Optional[int] = None) -> Op:
        mix, rng = self.mix, self._rng
        columns: List[Dict[int, int]] = []
        if count is None:
            low, high = mix.columns
            count = low if low == high else int(rng.integers(low, high + 1))
        for _ in range(count):
            items = np.sort(rng.choice(mix.items, size=mix.votes, replace=False))
            dirty = self._dirty[index][items]
            votes = rng.random(mix.votes) < np.where(dirty, 0.8, 0.05)
            columns.append({int(i): int(v) for i, v in zip(items, votes)})
        first = self._columns_sent[index]
        workers = list(range(first, first + len(columns)))
        self._columns_sent[index] += len(columns)
        self._sequence[index] += 1
        body = json.dumps(
            {
                "columns": [
                    {"votes": {str(i): v for i, v in column.items()}, "worker": worker}
                    for column, worker in zip(columns, workers)
                ],
                "source": f"loader-{self.connection}",
                "sequence": self._sequence[index],
            }
        ).encode("utf-8")
        name = session_name(index)
        return Op("POST", f"/sessions/{name}/batches", body, index, columns, workers)

    def next_cycle(self) -> List[Op]:
        """The next cycle's requests."""
        mix = self.mix
        ops: List[Op] = []
        fresh = mix.deliveries - (1 if mix.retry_last else 0)
        for _ in range(fresh):
            index = self.sessions[self._next_session % len(self.sessions)]
            self._next_session += 1
            ops.append(self._fresh(index))
        last = ops[-1]
        if mix.retry_last:
            ops.append(Op("POST", last.path, last.body, last.session, retry_of=last))
        read = f"/sessions/{session_name(last.session)}/estimates"
        ops.extend(Op("GET", read, None, last.session) for _ in range(mix.reads))
        return self._emit(ops, "cycle")

    def history(self) -> List[Op]:
        """The history deliveries: ``mix.history`` big batches per owned session."""
        batches, columns = self.mix.history
        ops = [self._fresh(index, columns) for _ in range(batches) for index in self.sessions]
        return self._emit(ops, "history")

    def replay(self, kinds: List[str]) -> None:
        """Generate again what another stream of the same seed generated."""
        for kind in kinds:
            if kind == "history":
                self.history()
            else:
                self.next_cycle()

    def _emit(self, ops: List[Op], kind: str) -> List[Op]:
        for op in ops:
            self.digest.update(f"{op.method} {op.path}\n".encode("utf-8"))
            self.digest.update(op.body or b"")
        self.kinds.append(kind)
        return ops


#: ``SO_LINGER`` on with a zero timeout: ``close()`` sends a reset.
_ABORT_ON_CLOSE = struct.pack("ii", 1, 0)


class Client:
    """A stdlib HTTP client with a fixed connection behaviour.

    ``keep_alive=False`` opens a fresh connection per request and asks
    the server to close it (``Connection: close``, the wire behaviour of
    ``urllib``); ``keep_alive=True`` reuses one persistent connection.
    """

    def __init__(self, host: str, port: int, keep_alive: bool) -> None:
        self.host, self.port = host, port
        self.keep_alive = keep_alive
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if not self.keep_alive:
            headers["Connection"] = "close"
        conn = self._conn
        try:
            if conn is None:
                conn = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)
                conn.connect()
                if not self.keep_alive:
                    # Close with a reset once the reply is read.  A graceful
                    # close leaves a TIME_WAIT socket per request on this one
                    # host (~25k after three runs), which slows every later
                    # run's connections; clients on other hosts would not.
                    conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _ABORT_ON_CLOSE)
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
        except Exception:
            if conn is not None:
                conn.close()
            self._conn = None
            raise
        if self.keep_alive:
            self._conn = conn
        else:
            conn.close()
        return response.status, data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Sent:
    """One request as the client saw it."""

    op: Op
    phase: str
    start: float
    end: float
    status: Optional[int]  # None: connection error
    data: bytes

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def ok(self) -> bool:
        return self.status is not None and 200 <= self.status < 300


def send(client: Client, op: Op, phase: str, log: List[Sent]) -> Sent:
    start = time.perf_counter()
    try:
        status, data = client.request(op.method, op.path, op.body)
    except (OSError, http.client.HTTPException) as error:
        status, data = None, repr(error).encode("utf-8")
    sent = Sent(op, phase, start, time.perf_counter(), status, data)
    log.append(sent)
    return sent


def drive(
    client: Client,
    stream: Stream,
    phase: str,
    log: List[Sent],
    *,
    cycles: Optional[int] = None,
    deadline: Optional[float] = None,
) -> None:
    """Run whole cycles until ``cycles`` are done or ``deadline`` passes."""
    done = 0
    while (cycles is None or done < cycles) and (
        deadline is None or time.perf_counter() < deadline
    ):
        for op in stream.next_cycle():
            send(client, op, phase, log)
        done += 1
