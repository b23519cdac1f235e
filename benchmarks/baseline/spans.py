"""Benchmark-side tracing: timing wrappers installed around layer entry points.

Nothing under ``src/`` is edited. :data:`WRAPPERS` maps ``(importing
module, attribute)`` to a span name; :func:`install` replaces each
attribute with a timing wrapper for the duration of a traced phase and
:func:`uninstall` puts the originals back. The *importing* module matters:
``repro.core.dataset`` does ``from ..bat.query import query_file``, so the
name to patch is ``repro.core.dataset.query_file``.

A span is ``(id, parent id, op id, name, start, end)``. The parent comes
from a context-variable stack, so nesting follows the call tree; the
scheduler's ``submit`` is wrapped to carry the submitting context onto the
worker thread, which keeps a served request's worker-side spans under the
client-side op that caused them. Spans are only recorded inside an op
(:meth:`Recorder.op`); they stay in memory until the run ends.

A layer's **self time** is its spans' duration minus the part of that
interval their child spans cover (children on other threads included).

In-program spans (``repro.trace``, ROADMAP item 2) will replace this table
without renaming any span or metric.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import importlib
import itertools
import json
import time
from collections import defaultdict

#: (importing module, attribute path, span name, kind)
#: kind: "call" plain function/method · "gen" generator (each ``next`` is a
#: span) · "submit" scheduler hand-off (context propagation + span)
WRAPPERS = [
    # write side
    ("repro.core.writer", "TwoPhaseWriter.write", "core.writer", "call"),
    ("repro.core.writer", "build_aggregation_tree", "core.aggtree", "call"),
    ("repro.core.writer", "publish_bytes", "atomic", "call"),
    ("repro.bat.builder", "select_codecs", "bat.codecs.encode", "call"),
    # read side
    ("repro.core.dataset", "BATDataset.query", "core.dataset", "call"),
    ("repro.core.dataset", "BATDataset.stream", "core.dataset", "gen"),
    ("repro.core.dataset", "BATDataset.neighbors", "core.dataset", "call"),
    ("repro.core.planner", "PlanCache.get_or_build", "core.planner", "call"),
    ("repro.core.planner", "PlanCache.get_or_build_neighbor", "core.planner.neighbor", "call"),
    ("repro.core.dataset", "query_file", "bat.query", "call"),
    ("repro.core.dataset", "stream_query_file", "bat.query", "gen"),
    ("repro.bat.file", "BATFile.__init__", "bat.file.open", "call"),
    ("repro.bat.file", "BATFile.treelet", "bat.file.treelet", "call"),
    ("repro.bat.file", "decode_column", "bat.codecs.decode", "call"),
    ("repro.core.dataset", "box_members", "bat.neighbors", "call"),
    ("repro.core.dataset", "knn_neighbors", "bat.neighbors", "call"),
    ("repro.core.dataset", "radius_neighbors", "bat.neighbors", "call"),
    ("repro.core.dataset", "materialize_rows", "bat.neighbors", "call"),
    # serve side
    ("repro.serve.scheduler", "RequestScheduler.submit", "serve.service", "submit"),
    ("repro.serve.service", "reassemble_stream", "api.reassemble", "call"),
    ("repro.serve.shard", "reassemble_stream", "api.reassemble", "call"),
    ("repro.serve.shard", "request_to_doc", "api.doc", "call"),
    ("repro.serve.streaming", "StreamOutbox.push", "serve.streaming", "call"),
]

#: (span id, op id) of the innermost open span on this thread / task
_current: contextvars.ContextVar = contextvars.ContextVar("baseline_span", default=None)


class Recorder:
    """In-memory span store for one traced phase."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def op(self, name: str = "op"):
        """Context manager: the root span of one benchmark op."""
        return _RootSpan(self, name)

    def _wrap_call(self, fn, name):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cur = _current.get()
            if cur is None:
                return fn(*args, **kwargs)
            sid = next(rec._ids)
            token = _current.set((sid, cur[1]))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _current.reset(token)
                rec.spans.append((sid, cur[0], cur[1], name, t0, t1))

        return wrapper

    def _wrap_gen(self, fn, name):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if _current.get() is None:
                return inner
            return rec._timed_iter(inner, name)

        return wrapper

    def _timed_iter(self, inner, name):
        step = self._wrap_call(lambda: next(inner), name)
        try:
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item
        finally:
            inner.close()

    def _wrap_submit(self, fn, name):
        rec = self

        @functools.wraps(fn)
        def wrapper(self_, work, *args, **kwargs):
            if _current.get() is None:
                return fn(self_, work, *args, **kwargs)
            ctx = contextvars.copy_context()
            traced = rec._wrap_call(work, name)
            return fn(self_, lambda ticket: ctx.run(traced, ticket), *args, **kwargs)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Patch every entry of :data:`WRAPPERS` plus the registries."""
        kinds = {"call": self._wrap_call, "gen": self._wrap_gen, "submit": self._wrap_submit}
        for module, path, name, kind in WRAPPERS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            self._patch(owner, attr, kinds[kind](getattr(owner, attr), name))
        # codecs are reached through registry instances, not module names
        from repro.bat import codecs

        classes = {type(codecs.get_codec(n)) for n in codecs.available_codecs()}
        classes.add(codecs.Codec)
        for cls in classes:
            if "encode_segments" in vars(cls):
                self._patch(
                    cls, "encode_segments",
                    self._wrap_call(vars(cls)["encode_segments"], "bat.codecs.encode"),
                )
        # the writer builds through the layout registry's stored callable
        from repro import layouts

        spec = layouts.get_layout("bat")
        self._layout = spec
        layouts.register_layout(
            dataclasses.replace(spec, build=self._wrap_call(spec.build, "bat.builder"))
        )

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        from repro import layouts

        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        layouts.register_layout(self._layout)

    # -- analysis ------------------------------------------------------------

    def orphans(self) -> int:
        """Spans whose parent id names no recorded span."""
        ids = {s[0] for s in self.spans}
        return sum(1 for s in self.spans if s[1] is not None and s[1] not in ids)

    def self_times(self) -> dict:
        """``{name: {"count", "total_s", "self_s"}}`` over all spans."""
        children = defaultdict(list)
        for sid, parent, _op, _name, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out: dict = {}
        for sid, _parent, _op, name, t0, t1 in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - covered
        return out

    def dump(self, path, **header) -> None:
        """One JSON line of header, then one per span."""
        with open(path, "a") as f:
            f.write(json.dumps({"header": header, "spans": len(self.spans)}) + "\n")
            for sid, parent, op, name, t0, t1 in self.spans:
                f.write(json.dumps(
                    {"id": sid, "parent": parent, "op": op, "name": name,
                     "start": t0, "end": t1}
                ) + "\n")


class _RootSpan:
    """The driver's per-op span: every wrapper span below it shares its id as op id."""

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.sid = next(self.rec._ids)
        self._token = _current.set((self.sid, self.sid))
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        _current.reset(self._token)
        self.rec.spans.append((self.sid, None, self.sid, self.name, self.t0, t1))


class NullRecorder:
    """Tracing off: ``op()`` costs one no-op context manager."""

    spans: list = []

    def op(self, name: str = "op"):
        return _NULL


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL = _NullSpan()
