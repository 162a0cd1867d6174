"""Outside-in span recorder: times calls into the program's public entry points.

Nothing here edits the program's source.  :meth:`SpanRecorder.wrap`
replaces an attribute at run time (a method on a class, or a name a
module imported) with a wrapper that records one span per call: name,
start, end, parent span and request id.  Spans of one thread nest
through a thread-local stack;
a span opened with no parent starts a new request id, which every
nested span inherits.  Spans stay in memory and are written out once,
at exit (:meth:`SpanRecorder.dump`).

A span's *self time* is its duration minus the part of it that its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """Collect spans in memory; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.events: List[dict] = []
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: Callable[..., str],
        attrs: Optional[Callable[..., dict]] = None,
        after: Optional[Callable[..., dict]] = None,
    ) -> None:
        """Time every call of ``owner.attribute`` as a span.

        ``name(*args, **kwargs)`` gives the span name; ``attrs`` adds
        attributes computed before the call, ``after(result, *args,
        **kwargs)`` attributes computed from its result.  Both run
        outside the span's own start/end, so their cost is charged to
        the parent span's self time: keep them to cheap references and
        derive costly values at :meth:`dump` time.
        """
        original = getattr(owner, attribute)
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            span_id = next(recorder._ids)
            if stack:
                parent, request = stack[-1]
            else:
                parent, request = None, next(recorder._requests)
            stack.append((span_id, request))
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = {
                    "id": span_id,
                    "name": name(*args, **kwargs),
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request": request,
                    **extra,
                }
                recorder.spans.append(span)
            if after is not None:
                span.update(after(result, *args, **kwargs))
            return result

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)

    def event(self, name: str, **values) -> None:
        """Record a point-in-time event (e.g. a counter snapshot)."""
        self.events.append({"name": name, "at": time.perf_counter_ns(), **values})

    def dump(self, path: str, finalize: Optional[Callable[[dict], None]] = None) -> None:
        """Write spans and events as JSON; ``finalize(span)`` runs first on each."""
        if finalize is not None:
            for span in self.spans:
                finalize(span)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "events": self.events}, handle)


def self_times(spans: List[dict]) -> Dict[int, int]:
    """Self time (ns) of every span: duration minus its children's union."""
    children: Dict[int, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    result = {}
    for span in spans:
        covered, reach = 0, span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            start = max(child["start"], reach)
            end = min(child["end"], span["end"])
            if end > start:
                covered += end - start
                reach = end
        result[span["id"]] = span["end"] - span["start"] - covered
    return result
