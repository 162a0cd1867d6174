"""Persistent HTTP/1.1 connections pay no per-request stall.

The server once wrote each response as two segments, headers then body.
On a keep-alive connection the second small segment waited for the
client's delayed ACK of the first (Nagle's algorithm), ~40 ms per
request.  These tests drive one ``http.client.HTTPConnection`` through a
long alternation of vote batches and estimates reads and pin that the
connection is reused throughout, that the median round trip is far below
the stall, and that a response larger than 64 KiB still arrives intact
over the same connection.
"""

from __future__ import annotations

import http.client
import json
import statistics
import time

import numpy as np
import pytest

from repro.serving import EstimationService, HttpServingServer, MemorySessionStore
from repro.streaming import StreamingSession

ITEMS = 100
ESTIMATORS = ["voting", "chao92", "switch_total"]
#: Each batch is 4 columns x 10 votes = 40 votes.
COLUMNS_PER_BATCH = 4
VOTES_PER_COLUMN = 10
ROUNDS = 40  # 80 requests: a batch, then an estimates read, per round

#: The stall costs >= 40 ms per request; a healthy loopback round trip
#: is a few ms even on a slow CI machine.
MAX_MEDIAN_ROUND_TRIP_S = 0.020


@pytest.fixture
def server():
    with HttpServingServer(EstimationService(MemorySessionStore())) as running:
        yield running


def _batches(seed: int):
    rng = np.random.default_rng(seed)
    for batch in range(ROUNDS):
        columns = []
        for column in range(COLUMNS_PER_BATCH):
            items = rng.choice(ITEMS, size=VOTES_PER_COLUMN, replace=False)
            votes = rng.integers(0, 2, size=VOTES_PER_COLUMN)
            columns.append(
                {
                    "votes": {str(int(i)): int(v) for i, v in zip(items, votes)},
                    "worker": batch * COLUMNS_PER_BATCH + column,
                }
            )
        yield columns


class _Connection:
    """One HTTPConnection that refuses to reconnect behind the test's back."""

    def __init__(self, server: HttpServingServer) -> None:
        self.http = http.client.HTTPConnection(server.host, server.port, timeout=10)
        self.http.connect()
        self.socket = self.http.sock
        self.local_address = self.socket.getsockname()

    def request(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        started = time.perf_counter()
        self.http.request(method, path, body=body, headers=headers)
        response = self.http.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - started
        # Same socket object, same local port: http.client silently
        # reconnects when the server closes, so check both after each reply.
        assert self.http.sock is self.socket, f"reconnected before {method} {path}"
        assert self.socket.getsockname() == self.local_address
        assert not response.will_close, f"server closed after {method} {path}"
        return response.status, raw, elapsed

    def close(self) -> None:
        self.http.close()


def test_one_connection_serves_every_request_without_the_stall(server):
    connection = _Connection(server)
    try:
        status, _, _ = connection.request(
            "POST",
            "/sessions",
            {"name": "ka", "items": ITEMS, "estimators": ESTIMATORS},
        )
        assert status == 201
        reference = StreamingSession(range(ITEMS), ESTIMATORS)
        round_trips = []
        for sequence, columns in enumerate(_batches(seed=3), start=1):
            status, raw, elapsed = connection.request(
                "POST",
                "/sessions/ka/batches",
                {"columns": columns, "source": "ka", "sequence": sequence},
            )
            assert status == 200, raw
            round_trips.append(elapsed)
            reference.add_columns(
                [{int(i): v for i, v in c["votes"].items()} for c in columns],
                [c["worker"] for c in columns],
            )
            status, raw, elapsed = connection.request("GET", "/sessions/ka/estimates")
            assert status == 200, raw
            round_trips.append(elapsed)
            served = json.loads(raw)
            assert served["version"] == list(reference.state.version)
            expected = reference.estimate()
            for name in ESTIMATORS:
                assert served["estimates"][name]["estimate"] == expected[name].estimate
    finally:
        connection.close()
    assert len(round_trips) >= 60
    median = statistics.median(round_trips)
    assert median < MAX_MEDIAN_ROUND_TRIP_S, (
        f"median keep-alive round trip {median * 1e3:.1f} ms: "
        "responses are stalling on Nagle + delayed ACK"
    )


def test_a_large_response_arrives_intact_on_the_same_connection(server):
    connection = _Connection(server)
    try:
        connection.request("POST", "/sessions", {"name": "big", "items": ITEMS})
        for sequence, columns in enumerate(_batches(seed=4), start=1):
            status, raw, _ = connection.request(
                "POST", "/sessions/big/batches", {"columns": columns}
            )
            assert status == 200, raw
        # Every co-voting column pair flagged: a body of many thousand pairs.
        path = "/sessions/big/estimates?collusion=1&threshold=0&min_overlap=1"
        status, raw, _ = connection.request("GET", path)
        assert status == 200
        assert len(raw) > 64 * 1024
        payload = json.loads(raw)
        assert payload["collusion"]["num_pairs"] == len(
            payload["collusion"]["flagged_pairs"]
        )
        # The connection is still usable after the large body.
        status, raw, _ = connection.request("GET", "/health")
        assert status == 200
        assert json.loads(raw)["status"] == "ok"
    finally:
        connection.close()
