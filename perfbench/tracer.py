"""The traced run: timing spans around the program's public entry points.

Nothing here touches ``src/``.  :func:`install` replaces each wrapped
callable (a method on its class, or a function in every ``repro`` module
that imported it by name) with a wrapper that records a span in memory;
:meth:`Tracer.uninstall` puts the originals back.  A span's parent is the
innermost open span on the calling thread.  Work handed to another thread
keeps its parent: ``ThreadPoolExecutor.submit`` (shard fan-out) and
``AdmissionController.submit`` (server workers) adopt the submitter's span,
and a wire request carries a benchmark-issued ``id`` that links the
server's ``Session.handle`` back to the client's round trip.

A layer's self time is its span's duration minus the part of that interval
its children cover (children may run on other threads).
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT = "bench.op"
RECOVER = "bench.recover"


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, name, start, attrs):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.attrs = attrs


class Tracer:
    """In-memory span recorder; one per traced phase."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.requests: dict[str, Span] = {}
        self._ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent: Span | None = None, **attrs) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), parent, name, perf_counter(), attrs)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attrs):
        span = self.open(name, parent, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    def record(self, name: str, parent: Span | None, start: float,
               end: float, **attrs) -> None:
        """Append an already-finished span (measured by the caller)."""
        span = Span(next(self._ids), parent, name, start, attrs)
        span.end = end
        self.spans.append(span)

    @contextmanager
    def adopt(self, parent: Span | None):
        """Run on this thread as if ``parent`` were the innermost span."""
        stack = self._stack()
        saved = stack[:]
        stack[:] = [parent] if parent is not None else []
        try:
            yield
        finally:
            stack[:] = saved

    # -- patching --------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else
                              getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def timed(self, func, name: str, before=None, after=None):
        """``func`` wrapped in a span; hooks may annotate it."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            if before is not None:
                before(span, args)
            try:
                result = func(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result
            finally:
                tracer.close(span)
        return traced

    def wrap_method(self, cls, attr: str, name: str, before=None,
                    after=None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            self._set(cls, attr, classmethod(
                self.timed(original.__func__, name, before, after)))
        else:
            self._set(cls, attr, self.timed(original, name, before, after))

    def wrap_function(self, func, replacement) -> None:
        """Rebind ``func`` in every loaded ``repro`` module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry point (see workloads.json layer_map)."""
    import concurrent.futures

    from repro.core import optimizer, selector
    from repro.core.cascade import Cascade
    from repro.core.model import TrainedModel
    from repro.db import results
    from repro.db.database import VisualDatabase
    from repro.db.executor import QueryExecutor
    from repro.db.planner import QueryPlanner
    from repro.db.wal import TableWal
    from repro.query import sql
    from repro.server import client, protocol, server
    from repro.server.admission import AdmissionController
    from repro.server.plan_cache import PlanCache
    from repro.server.protocol import BackpressureError
    from repro.server.session import Session
    from repro.storage.store import RepresentationStore
    from repro.transforms.spec import TransformSpec

    t = tracer

    def rows_of(index):
        def hook(span, args):
            span.attrs["rows"] = int(args[index].shape[0])
        return hook

    # Query front end and planning.
    t.wrap_function(sql.parse_query, t.timed(sql.parse_query, "sql.parse"))
    t.wrap_method(QueryPlanner, "plan", "planner.plan")

    def cascades(span, args):
        span.attrs["cascades"] = len(args[0].cascades)
    t.wrap_method(optimizer.TahomaOptimizer, "evaluate", "evaluator.evaluate",
                  before=cascades)
    t.wrap_function(selector.select_cascade,
                    t.timed(selector.select_cascade, "selector.select"))

    def outcome(span, args, result):
        span.attrs["outcome"] = result[0]
    t.wrap_method(PlanCache, "lookup", "plan_cache.lookup", after=outcome)

    # Execution.
    t.wrap_method(VisualDatabase, "execute", "database.execute")

    def rows_in(span, args):
        span.attrs["rows_in"] = len(args[0].corpus)

    def rows_out(span, args, result):
        span.attrs["rows_out"] = len(result)
    t.wrap_method(QueryExecutor, "execute", "executor.execute",
                  before=rows_in, after=rows_out)

    def level_stats(span, args, result):
        _, stats = result
        span.attrs["evaluated"] = [int(v) for v in stats["evaluated"]]
        span.attrs["decided"] = [int(v) for v in stats["decided"]]
    t.wrap_method(Cascade, "classify_with_stats", "cascade.classify",
                  before=rows_of(1), after=level_stats)

    def model_kind(span, args):
        span.attrs["kind"] = "reference" if args[0].is_reference else "small"
        span.attrs["rows"] = int(args[1].shape[0])
    t.wrap_method(TrainedModel, "predict_proba_transformed", "model.infer",
                  before=model_kind)
    t.wrap_method(RepresentationStore, "get_or_transform", "store.get")
    t.wrap_method(RepresentationStore, "extend", "store.extend")
    t.wrap_method(RepresentationStore, "append_rows", "store.extend")
    t.wrap_method(TransformSpec, "apply_batch", "transforms.apply",
                  before=rows_of(1))
    t.wrap_function(results.build_result_set,
                    t.timed(results.build_result_set, "results.build"))
    t.wrap_method(results.FanoutResultSet, "__init__", "results.build")
    t.wrap_method(results.AggregateResultSet, "from_fanout", "results.build")

    # Fan-out shards run on a thread pool: keep the submitter's span.
    pool_submit = concurrent.futures.ThreadPoolExecutor.submit

    def submit_in_pool(self, fn, /, *args, **kwargs):
        parent = t.current()

        def run():
            with t.adopt(parent):
                return fn(*args, **kwargs)
        return pool_submit(self, run)
    t._set(concurrent.futures.ThreadPoolExecutor, "submit", submit_in_pool)

    # Serving.
    admission_submit = AdmissionController.submit

    def submit_admitted(self, fn):
        parent = t.current()
        submitted = perf_counter()

        def run():
            t.record("admission.queue_wait", parent, submitted,
                     perf_counter())
            with t.adopt(parent):
                return fn()
        try:
            return admission_submit(self, run)
        except BackpressureError:
            t.record("admission.rejected", parent, submitted, submitted)
            raise
    t._set(AdmissionController, "submit", submit_admitted)

    handle = Session.handle

    def handle_traced(self, request):
        parent = t.requests.get(request.get("id"))
        with t.span("session.handle", parent):
            return handle(self, request)
    t._set(Session, "handle", handle_traced)

    encode, decode = protocol.encode, protocol.decode

    def client_encode(message):
        # Re-key the request so the server side can find this round trip.
        with t.span("protocol.encode") as span:
            request_id = f"perfbench-{next(t._request_ids)}"
            message["id"] = request_id
            t.requests[request_id] = span.parent
            return encode(message)

    def client_decode(line):
        with t.span("protocol.decode"):
            return decode(line)

    def server_decode(line):
        with t.span("protocol.decode") as span:
            request = decode(line)
            span.parent = t.requests.get(request.get("id"))
            return request

    def server_encode(message):
        with t.span("protocol.encode") as span:
            span.parent = t.requests.pop(message.get("id"), None)
            data = encode(message)
            span.attrs["bytes"] = len(data)
            return data
    t._set(client, "encode", client_encode)
    t._set(client, "decode", client_decode)
    t._set(server, "encode", server_encode)
    t._set(server, "decode", server_decode)
    for attr in ("execute", "fetch", "close_cursor"):
        t.wrap_method(client.Connection, attr, "wire.roundtrip")

    # Durable ingest and recovery.
    t.wrap_method(QueryExecutor, "ingest", "executor.ingest")
    t.wrap_method(TableWal, "log_segment", "wal.append")
    t.wrap_method(TableWal, "log_drop", "wal.append")
    t._set(os, "fsync", t.timed(os.fsync, "wal.fsync"))

    def dropped(span, args, result):
        span.attrs["rows"] = int(result)
    t.wrap_method(QueryExecutor, "retain", "retention.retain", after=dropped)
    t.wrap_method(VisualDatabase, "load", "persistence.load")
    t.wrap_method(QueryExecutor, "replay_wal", "wal.replay")
    records = TableWal.records

    def records_traced(self, *args, **kwargs):
        # Replay pulls records lazily; time each pull (a payload load).
        iterator = records(self, *args, **kwargs)
        while True:
            span = t.open("wal.replay")
            try:
                record = next(iterator)
            except StopIteration:
                return
            finally:
                t.close(span)
            yield record
    t._set(TableWal, "records", records_traced)


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    total, cur_start, cur_end = 0.0, None, None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[Span]) -> dict:
    """Per-name totals: ``{name: {"n", "time", "self", ...attr sums}}``.

    Also reports the root spans' unattributed time and the time of spans
    that do not descend from a root (``orphan_s``, expected to be 0).
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent.sid].append(span)
    layers: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    roots = {"time": 0.0, "self": 0.0, "n": 0}
    orphan_s = 0.0
    for span in spans:
        duration = span.end - span.start
        kids = children.get(span.sid, [])
        own = duration - _covered(span, kids) if kids else duration
        if span.name in (ROOT, RECOVER):
            if span.name == ROOT:
                roots["time"] += duration
                roots["self"] += own
                roots["n"] += 1
            continue
        if span.parent is None:
            orphan_s += duration
        entry = layers[span.name]
        entry["n"] += 1
        entry["time"] += duration
        entry["self"] += own
        if span.name == "store.get" and not any(
                kid.name == "transforms.apply" for kid in kids):
            entry["hits"] += 1
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry[key] += value
            elif isinstance(value, list):
                entry[key + ".0"] += value[0]
                entry[key + ".all"] += sum(value)
            elif isinstance(value, str):
                entry[f"{key}={value}.n"] += 1
                entry[f"{key}={value}.time"] += duration
                entry[f"{key}={value}.rows"] += span.attrs.get("rows", 0)
    return {"layers": {name: dict(entry) for name, entry in layers.items()},
            "roots": roots, "orphan_s": orphan_s}
