"""In-memory span recorder and the layer wrappers of a traced run.

Only the benchmark's own files use this module; nothing under ``src/``
changes.  :func:`instrument_engine` and :func:`instrument_service` wrap public functions of each ``repro.*`` layer
inside a program process (the NL host or the traced server launcher), so a
traced run measures the code as shipped plus the wrappers' own cost.

Two kinds of boundary are recorded:

* **spans** (name, start, end, parent, request id) at coarse boundaries —
  a request, a solve, a sketch-generation call, one engine ``step``, a cache
  read or write.  They are kept in a list and written out at the end.
* **counted calls** at the engine's inner boundaries (expand, infeasible,
  consistent, infer_constants, the analyzer pre-filter, the solver), which
  run up to a hundred thousand times a second.  Each call adds to per-thread
  counters and to the enclosing span's per-layer self-time, so the trace
  stays bounded in memory while still attributing every second.

Self time is kept on a per-thread frame stack: a frame's self time is its
duration minus the time of the frames nested in it on the same thread.
Times come from ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so spans from the benchmark and the program processes share
one timeline.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

clock = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "stats", "spans", "parent")

    def __init__(self) -> None:
        #: Open frames, innermost last: ``[child_seconds, span_or_None]``.
        self.stack: List[list] = []
        #: name -> [calls, total_seconds, self_seconds]
        self.stats: Dict[str, List[float]] = {}
        #: Open span records, innermost last.
        self.spans: List[Dict[str, Any]] = []
        #: Parent id for spans that start with no enclosing span here.
        self.parent: Optional[str] = None


class Tracer:
    """Spans and counted calls of one process, kept in memory."""

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix or f"p{os.getpid()}."
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = {}
        self.extra: Dict[str, Any] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []

    # -- thread state ----------------------------------------------------------

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- frames ----------------------------------------------------------------

    def _enter(self, state: _ThreadState, span: Optional[Dict[str, Any]]) -> list:
        frame = [0.0, span]
        state.stack.append(frame)
        if span is not None:
            state.spans.append(span)
        return frame

    def _exit(self, state: _ThreadState, frame: list, name: str, duration: float) -> None:
        state.stack.pop()
        if state.stack:
            state.stack[-1][0] += duration
        own = duration - frame[0]
        entry = state.stats.get(name)
        if entry is None:
            entry = state.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        span = frame[1]
        if span is not None:
            state.spans.pop()
        elif state.spans:
            inner = state.spans[-1]["inner"]
            inner[name] = inner.get(name, 0.0) + own

    def open_span(
        self, name: str, parent: Optional[str] = None, rid: Optional[str] = None
    ) -> Dict[str, Any]:
        state = self.state()
        if parent is None:
            parent = state.spans[-1]["id"] if state.spans else state.parent
        span = {
            "id": f"{self.prefix}{next(self._ids)}",
            "parent": parent,
            "name": name,
            "rid": rid,
            "t0": clock(),
            "t1": None,
            "thread": threading.get_ident(),
            "inner": {},
        }
        span["_frame"] = self._enter(state, span)
        return span

    def close_span(self, span: Dict[str, Any]) -> None:
        span["t1"] = clock()
        frame = span.pop("_frame")
        self._exit(self.state(), frame, span["name"], span["t1"] - span["t0"])
        self.spans.append(span)

    # -- wrappers --------------------------------------------------------------

    def span_call(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call is a recorded span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def counted_call(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call is counted and timed, without a span record."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self.state()
            frame = self._enter(state, None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(state, frame, name, clock() - start)
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- output ----------------------------------------------------------------

    def stats(self) -> Dict[str, List[float]]:
        merged: Dict[str, List[float]] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, (calls, total, own) in list(state.stats.items()):
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return merged

    def dump(self, path: str) -> None:
        payload = {
            "pid": os.getpid(),
            "spans": self.spans,
            "stats": self.stats(),
            "counters": self.counters,
            "extra": self.extra,
            "call_cost_s": calibrate(),
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def calibrate(calls: int = 20000) -> float:
    """Seconds one counted-call wrapper adds to a call (median of 5 trials)."""
    probe = Tracer(prefix="calibrate.")
    wrapped = probe.counted_call("calibrate", _noop)
    trials = []
    for _ in range(5):
        start = clock()
        for _ in range(calls):
            wrapped()
        wrapped_s = clock() - start
        start = clock()
        for _ in range(calls):
            _noop()
        bare_s = clock() - start
        trials.append(max(wrapped_s - bare_s, 0.0) / calls)
    trials.sort()
    return trials[len(trials) // 2]


def _noop() -> None:
    return None


# -- layer instrumentation ---------------------------------------------------------


def instrument_engine(tracer: Tracer) -> None:
    """Wrap the nlp, api, synthesis, analysis and solver layers."""
    import repro.synthesis.engine as engine
    from repro.api.session import Session
    from repro.nlp.sketch_gen import SemanticParser
    from repro.solver.solver import SolverInstance
    from repro.synthesis.examples import Examples

    def count_sketches(span, args, result):
        tracer.count("nlp.sketches", len(result))

    SemanticParser.sketches = tracer.span_call(
        "nlp.sketches", SemanticParser.sketches, after=count_sketches
    )

    traced_step = tracer.span_call("synthesis.step", engine.SynthesisRun.step)

    @functools.wraps(traced_step)
    def step(self, *args, **kwargs):
        before = self.result.expansions
        try:
            return traced_step(self, *args, **kwargs)
        finally:
            tracer.count("synthesis.expansions", self.result.expansions - before)

    engine.SynthesisRun.step = step
    engine.Synthesizer.start = tracer.counted_call("synthesis.start", engine.Synthesizer.start)
    engine.expand = tracer.counted_call("synthesis.expand", engine.expand)

    def infeasible_verdict(result):
        if result:
            tracer.count("synthesis.infeasible_pruned")

    engine.infeasible = tracer.counted_call(
        "synthesis.infeasible", engine.infeasible, after=infeasible_verdict
    )
    engine.infer_constants = tracer.counted_call(
        "synthesis.infer_constants", engine.infer_constants
    )
    Examples.consistent = tracer.counted_call("synthesis.consistent", Examples.consistent)
    SolverInstance.solve = tracer.counted_call("solver.solve", SolverInstance.solve)

    original_prune_checker = engine.prune_checker

    def prune_hit(result):
        if result is not None:
            tracer.count("analysis.prune_hits")

    def prune_checker(examples, config):
        return tracer.counted_call(
            "analysis.prune_check", original_prune_checker(examples, config), after=prune_hit
        )

    engine.prune_checker = prune_checker

    Session.solve = tracer.span_call("api.solve", Session.solve)
    _wrap_iter_solutions(tracer, Session)


def _wrap_iter_solutions(tracer: Tracer, session_class) -> None:
    """Span ``Session.iter_solutions``, the service workers' entry point.

    The span opens when the worker starts the job and closes when the
    stream ends; it is on this thread's stack only while the generator runs.
    The job's parent and arrival time were registered when it was submitted.
    """
    original = session_class.iter_solutions
    pending: Dict[str, Dict[str, Any]] = tracer.extra.setdefault("pending_jobs", {})
    finished: List[Dict[str, Any]] = tracer.extra.setdefault("jobs", [])

    @functools.wraps(original)
    def iter_solutions(self, problem, cancel=None):
        job = pending.pop(problem.cache_key(), None) or {"rid": None, "parent": None}
        state = tracer.state()
        state.parent = job["parent"]
        span = tracer.open_span("api.solve", parent=job["parent"], rid=job["rid"])
        frame = span.pop("_frame")
        state.stack.pop()
        state.spans.pop()
        inner = original(self, problem, cancel)
        try:
            while True:
                state.stack.append(frame)
                state.spans.append(span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    state.stack.pop()
                    state.spans.pop()
                yield item
        finally:
            inner.close()
            span["t1"] = clock()
            state.stack.append(frame)
            state.spans.append(span)
            tracer._exit(state, frame, "api.solve", span["t1"] - span["t0"])
            tracer.spans.append(span)
            job["start"] = span["t0"]
            job["end"] = span["t1"]
            finished.append(job)

    session_class.iter_solutions = iter_solutions


def instrument_service(tracer: Tracer) -> None:
    """Wrap the service layer: HTTP handling, pool, result cache, batch records."""
    from repro.service import server
    from repro.service.batch import BatchRecord
    from repro.service.cache import ResultCache
    from repro.service.pool import PoolSaturated, WorkerPool

    handler_class = server.RegelRequestHandler
    pending: Dict[str, Dict[str, Any]] = tracer.extra.setdefault("pending_jobs", {})

    def http(method_name: str) -> None:
        original = getattr(handler_class, method_name)

        @functools.wraps(original)
        def handle(self):
            rid = self.headers.get("X-Request-Id")
            state = tracer.state()
            state.parent = rid
            span = tracer.open_span("service.http", parent=rid, rid=rid)
            try:
                return original(self)
            finally:
                tracer.close_span(span)
                state.parent = None

        setattr(handler_class, method_name, handle)

    http("do_GET")
    http("do_POST")

    def register(cache_key: str) -> None:
        # Called on the request thread, inside its service.http span: the
        # job's queue wait starts at the request's arrival.
        state = tracer.state()
        if state.spans and cache_key:
            span = state.spans[-1]
            pending[cache_key] = {"rid": span["rid"], "parent": span["id"], "arrival": span["t0"]}

    original_submit = WorkerPool.submit

    @functools.wraps(original_submit)
    def submit(self, job):
        register(job.cache_key)
        try:
            original_submit(self, job)
        except PoolSaturated:
            tracer.count("service.pool_rejected")
            raise

    WorkerPool.submit = submit

    def cache_hit(span, args, result):
        tracer.count("service.cache_gets")
        if result is not None:
            tracer.count("service.cache_hits")

    ResultCache.get = tracer.span_call("service.cache_get", ResultCache.get, after=cache_hit)
    ResultCache.put = tracer.span_call("service.cache_put", ResultCache.put)
    BatchRecord.save = tracer.span_call("service.batch_persist", BatchRecord.save)
    BatchRecord.update_item = tracer.span_call("service.batch_persist", BatchRecord.update_item)
    append_item = tracer.span_call("service.batch_persist", BatchRecord.append_item)

    @functools.wraps(BatchRecord.append_item)
    def append_and_register(self, status, cache_key="", **extra):
        # A batch item is queued for the feeder here, while the batch
        # request is still being handled.
        register(cache_key)
        return append_item(self, status, cache_key, **extra)

    BatchRecord.append_item = append_and_register


def snapshot_automata() -> Dict[str, float]:
    from repro.automata.membership import MEMBERSHIP_CACHE_STATS as stats

    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "compiled": stats.compiled,
        "compile_seconds": stats.compile_seconds,
    }


def snapshot_caches() -> Dict[str, int]:
    from repro.caches import registered_caches

    return {name: len(cache) for name, cache in sorted(registered_caches().items())}
