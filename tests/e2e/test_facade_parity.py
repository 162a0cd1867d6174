"""One request script, four serving topologies, byte-identical answers.

The same ``(method, path, body)`` script runs through
:meth:`~repro.serving.http.ServingApi.handle` over

* a single :class:`~repro.streaming.serving.EstimationService`,
* the in-process :class:`~repro.streaming.serving.ShardedEstimationService`,
* the process-per-shard :class:`~repro.serving.workers.ProcessShardedService`,
* a :class:`~repro.serving.http.SessionClient` talking to a live
  :class:`~repro.serving.http.HttpServingServer`,

and every response — status and canonical JSON payload — must be the
same bytes.  This table is the façade contract: a route or method that
behaves differently in one topology fails here.
"""

from __future__ import annotations

import json

import pytest

from repro.serving import (
    DirectorySessionStore,
    EstimationService,
    ProcessShardedService,
    ServingApi,
    SessionClient,
    ShardedEstimationService,
)

from .conftest import start_server


def _json(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _batch(sequence: int) -> bytes:
    votes = {str((sequence * 5 + item) % 12): (item + sequence) % 2 for item in range(6)}
    columns = [{"votes": votes, "worker": worker} for worker in range(3)]
    return _json({"columns": columns, "source": "loader", "sequence": sequence})


#: ``(label, method, path, body)``; labels name the step in a failure.
SCRIPT = [
    ("create alpha", "POST", "/sessions",
     _json({"name": "alpha", "items": 12, "estimators": ["voting", "chao92"]})),
    ("create beta", "POST", "/sessions",
     _json({"name": "beta", "item_ids": [3, 5, 8], "estimators": ["voting"]})),
    ("ingest 1", "POST", "/sessions/alpha/batches", _batch(1)),
    ("ingest 2", "POST", "/sessions/alpha/batches", _batch(2)),
    ("duplicate retry", "POST", "/sessions/alpha/batches", _batch(2)),
    ("estimates + collusion", "GET",
     "/sessions/alpha/estimates?collusion=1&threshold=0&min_overlap=1", b""),
    ("collusion", "GET", "/sessions/alpha/collusion?threshold=0.5&min_overlap=2", b""),
    ("cached estimates", "GET", "/sessions/alpha/estimates", b""),
    ("progress", "GET", "/sessions/alpha", b""),
    ("snapshot", "POST", "/sessions/alpha/snapshot", b"{}"),
    ("compact", "POST", "/sessions/alpha/compact", b"{}"),
    ("active", "GET", "/sessions?active=1", b""),
    ("evict", "POST", "/sessions/alpha/evict", b"{}"),
    ("active after evict", "GET", "/sessions?active=1", b""),
    ("restore", "POST", "/sessions/alpha/restore", _json({"estimators": ["voting"]})),
    ("estimates after restore", "GET", "/sessions/alpha/estimates", b""),
    ("stats", "GET", "/stats", b""),
    ("sessions", "GET", "/sessions", b""),
    ("unknown session", "GET", "/sessions/ghost/estimates", b""),
    ("restore unknown", "POST", "/sessions/ghost/restore", b""),
    ("bad body", "POST", "/sessions/alpha/batches", b"{not json"),
    ("bad restore key", "POST", "/sessions/alpha/restore", _json({"snapshot": 1})),
    ("duplicate create", "POST", "/sessions", _json({"name": "alpha", "items": 3})),
    ("drop", "DELETE", "/sessions/alpha", b""),
    ("sessions after drop", "GET", "/sessions", b""),
    ("dropped is unknown", "GET", "/sessions/alpha", b""),
    ("final stats", "GET", "/stats", b""),
]


def run_script(service):
    """``(label, status, canonical JSON payload)`` per step of :data:`SCRIPT`."""
    api = ServingApi(service)
    transcript = []
    for label, method, path, body in SCRIPT:
        status, payload = api.handle(method, path, body)
        transcript.append((label, status, json.dumps(payload, sort_keys=True)))
    return transcript


@pytest.fixture
def transcripts(tmp_path):
    """The script's transcript under each topology, keyed by topology."""
    results = {
        "service": run_script(EstimationService(DirectorySessionStore(tmp_path / "one"))),
        "sharded": run_script(ShardedEstimationService(tmp_path / "sharded", num_shards=3)),
    }
    with ProcessShardedService(tmp_path / "workers", num_shards=2) as workers:
        results["workers"] = run_script(workers)
    remote = EstimationService(DirectorySessionStore(tmp_path / "remote"))
    with start_server(remote) as server:
        results["client"] = run_script(SessionClient(server.url))
    return results


def test_every_topology_answers_byte_identically(transcripts):
    reference = transcripts["service"]
    for topology, transcript in transcripts.items():
        for expected, actual in zip(reference, transcript):
            assert actual == expected, f"{topology} diverges at {expected[0]!r}"


def test_the_script_covers_successes_and_each_error_class(transcripts):
    statuses = {label: status for label, status, _ in transcripts["service"]}
    assert statuses["create alpha"] == 201
    assert statuses["unknown session"] == statuses["restore unknown"] == 404
    assert statuses["bad body"] == statuses["bad restore key"] == 400
    assert statuses["duplicate create"] == 409
    payloads = {label: json.loads(body) for label, _, body in transcripts["service"]}
    assert payloads["duplicate retry"]["duplicate"] is True
    assert payloads["estimates + collusion"]["collusion"]["flagged_pairs"]
    assert payloads["active after evict"]["sessions"] == ["beta"]
    assert sorted(payloads["estimates after restore"]["estimates"]) == ["voting"]
    assert payloads["stats"]["sessions_evicted"] == 1
    assert payloads["stats"]["sessions_restored"] == 1
    assert payloads["stats"]["estimate_cache_hits"] == 1
    assert "['alpha', 'beta']" in payloads["unknown session"]["error"]
