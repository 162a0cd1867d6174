"""The shard worker's request loop, driven in-process through byte pipes.

:func:`~repro.serving.workers.serve_worker` runs a plain ``ServingApi``
over its service, so the loop itself only frames requests and replies —
and turns an unmapped exception into the same logged, opaque 500 the
HTTP transport sends.
"""

from __future__ import annotations

import io
import json

from repro.serving.workers import read_frame, serve_worker, write_frame


class _IngestRaises:
    """A service stub whose ingest fails with an unmapped exception."""

    SECRET = "stub-ingest-exploded"

    def ingest(self, name, columns, **kwargs):
        raise RuntimeError(self.SECRET)


def run_worker(service, *requests):
    """Feed ``(method, path, body)`` frames to a worker; its replies out."""
    stdin = io.BytesIO()
    for method, path, body in requests:
        write_frame(stdin, f"{method} {path}", body)
    stdin.seek(0)
    stdout = io.BytesIO()
    assert serve_worker(service, 3, stdin, stdout) == 0  # EOF is a clean exit
    stdout.seek(0)
    replies = []
    while (frame := read_frame(stdout)) is not None:
        head, body = frame
        replies.append((int(head), json.loads(body)))
    return replies


def test_handshake_then_routed_replies():
    replies = run_worker(
        _IngestRaises(),
        ("GET", "/nowhere", b""),
        ("POST", "/sessions/s/batches", b"not json"),
    )
    (status, hello), unrouted, invalid = replies
    assert status == 200 and hello["hello"]["shard"] == 3
    assert unrouted[0] == 404 and unrouted[1]["kind"] == "unknown_route"
    assert invalid[0] == 400 and invalid[1]["kind"] == "validation"


def test_unmapped_worker_exception_is_logged_like_an_http_500(capsys):
    body = json.dumps({"columns": [{"0": 1}]}).encode("utf-8")
    replies = run_worker(_IngestRaises(), ("POST", "/sessions/s/batches", body))
    status, payload = replies[1]
    assert status == 500
    assert set(payload) == {"error", "kind", "error_id"}
    assert payload["error"] == "internal error" and payload["kind"] == "internal"
    assert _IngestRaises.SECRET not in json.dumps(payload)

    records = [
        json.loads(line)
        for line in capsys.readouterr().err.splitlines()
        if line.startswith("{")
    ]
    assert len(records) == 1
    (record,) = records
    assert record["error_id"] == payload["error_id"]
    assert record["exception"] == "RuntimeError"
    assert record["method"] == "POST"
    assert record["path"] == "/sessions/s/batches"
    assert _IngestRaises.SECRET in record["traceback"]
