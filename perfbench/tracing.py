"""Spans recorded around calls into each layer's public functions.

:func:`install` wraps the layer entry points listed in ``_TARGETS``
(module attributes, so callers that imported a function by name are
covered too).  Nothing inside ``src/`` is edited.  A span is the
tuple ``(id, parent, query, name, start, end)``; every span of one query
carries that query's id, and a layer's *self time* is its span's
duration minus the part of it that child spans cover.

The executor hands work to another thread (and the fleet to another
process), so the thread-local span stack cannot carry the parent
across.  ``QueryExecutor.submit`` therefore registers its span under
the query id, and the execute entry points re-attach to it.  Fleet
workers are forked after :func:`install`, inherit the wrappers, and
ship their spans back on the outcome's trace.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

SPAN_ID, PARENT, QUERY, NAME, START, END = range(6)

# (module, attribute path, span name).
_TARGETS = (
    ("repro.graph.graph", "Graph.freeze", "graph.freeze"),
    ("repro.core.cache", "multi_source_dijkstra", "graph.label_sweep"),
    ("repro.core.context", "multi_source_dijkstra", "graph.label_sweep"),
    ("repro.core.allpaths", "label_enhanced_distances", "graph.teleport"),
    ("repro.core.cache", "LabelDistanceCache.distances", "cache.distances"),
    ("repro.core.context", "QueryContext.build", "context.build"),
    ("repro.core.allpaths", "RouteTables.build", "allpaths.build"),
    ("repro.core.engine", "SearchEngine.run", "engine.search"),
    ("repro.core.engine", "build_feasible_tree", "feasible"),
    ("repro.core.engine", "steiner_tree_from_edges", "feasible"),
    ("repro.core.engine", "prune_redundant_leaves", "feasible"),
)


class Recorder:
    """In-memory span store for one benchmark process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._links: Dict[object, tuple] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, query=None) -> tuple:
        """Open a span; returns the token :meth:`end` closes."""
        stack = self._stack()
        parent, parent_query = stack[-1] if stack else (0, None)
        span = (
            next(self._ids),
            parent,
            parent_query if query is None else query,
            name,
            time.perf_counter(),
        )
        stack.append((span[SPAN_ID], span[QUERY]))
        return span

    def end(self, span: tuple) -> None:
        # Closed spans are flat tuples of atoms, which the cyclic garbage
        # collector stops tracking, so a long trace does not slow it.
        self.spans.append(span + (time.perf_counter(),))
        self._stack().pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    # ------------------------------------------------------------------
    def wrap_submit(self, fn):
        """``QueryExecutor.submit``: a span from the call to the future."""

        @functools.wraps(fn)
        def traced(executor, labels, **kwargs):
            stack = self._stack()
            parent, parent_query = stack[-1] if stack else (0, None)
            query = kwargs.get("query_id")
            span = (
                next(self._ids),
                parent,
                query if parent_query is None else parent_query,
                "executor",
                time.perf_counter(),
            )
            self._links[query] = (span[SPAN_ID], span[QUERY])
            future = fn(executor, labels, **kwargs)

            def finished(_future) -> None:
                self.spans.append(span + (time.perf_counter(),))

            future.add_done_callback(finished)
            return future

        return traced

    def wrap_execute(self, fn, name: str):
        """An execute entry point that may run on another thread or process."""

        @functools.wraps(fn)
        def traced(target, labels, **kwargs):
            query = kwargs.get("query_id")
            stack = self._stack()
            base = self._links.pop(query, None) if not stack else None
            if base is not None:
                stack.append(base)
            span = self.begin(name, query=None if base else query)
            try:
                outcome = fn(target, labels, **kwargs)
            finally:
                self.end(span)
                if base is not None:
                    stack.pop()
            if os.getpid() != self.pid and not stack:
                # Forked fleet worker: hand this query's spans back.
                mine = [s for s in self.spans if s[QUERY] == query]
                self.spans = [s for s in self.spans if s[QUERY] != query]
                outcome.trace.bench_spans = mine
                return outcome
            shipped = outcome.trace.__dict__.pop("bench_spans", None)
            if shipped:
                self._adopt(shipped, span)
            return outcome

        return traced

    def _adopt(self, spans: List[tuple], parent: tuple) -> None:
        """Merge a worker's spans under ``parent`` with fresh ids."""
        renumber = {0: parent[SPAN_ID]}
        for span in spans:
            renumber[span[SPAN_ID]] = next(self._ids)
        for span in spans:
            self.spans.append(
                (
                    renumber[span[SPAN_ID]],
                    renumber.get(span[PARENT], parent[SPAN_ID]),
                    parent[QUERY],
                    span[NAME],
                    span[START],
                    span[END],
                )
            )


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point; call before building any index."""
    import importlib

    for module_name, path, span_name in _TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(raw.__func__, span_name)))
        else:
            setattr(owner, attr, recorder.wrap(raw, span_name))
    from repro.service.executor import QueryExecutor
    from repro.service.fleet import FleetPool
    from repro.service.index import GraphIndex

    QueryExecutor.submit = recorder.wrap_submit(QueryExecutor.submit)
    GraphIndex.execute = recorder.wrap_execute(GraphIndex.execute, "index.execute")
    FleetPool.execute = recorder.wrap_execute(FleetPool.execute, "fleet.execute")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans: List[tuple]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append(span)
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span[SPAN_ID], ()), key=lambda s: s[START]):
            lo = max(child[START], cursor)
            hi = min(child[END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span[SPAN_ID]] = (end - start) - covered
    return result


def nesting_violations(spans: List[tuple], slack: float = 1e-4) -> List[str]:
    """Children that start before or end after their parent."""
    by_id = {span[SPAN_ID]: span for span in spans}
    problems = []
    for span in spans:
        parent = by_id.get(span[PARENT])
        if span[END] < span[START]:
            problems.append(f"{span[NAME]} ends before it starts")
        if parent is None:
            continue
        if span[START] < parent[START] - slack or span[END] > parent[END] + slack:
            problems.append(f"{span[NAME]} escapes its parent {parent[NAME]}")
        if span[QUERY] != parent[QUERY]:
            problems.append(f"{span[NAME]} has another query id than its parent")
    return problems


def layer_totals(spans: List[tuple], queries: Optional[set] = None) -> dict:
    """Per span name: call count, total duration and total self time."""
    selfs = self_times(spans)
    totals: Dict[str, dict] = defaultdict(
        lambda: {"count": 0, "total": 0.0, "self": 0.0}
    )
    for span in spans:
        if queries is not None and span[QUERY] not in queries:
            continue
        entry = totals[span[NAME]]
        entry["count"] += 1
        entry["total"] += span[END] - span[START]
        entry["self"] += selfs[span[SPAN_ID]]
    return dict(totals)
