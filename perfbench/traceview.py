"""Per-layer metrics from the spans of one traced run.

Self time of a span is its duration minus the part of its interval that its
child spans cover (children on any thread or process, clipped to the
parent's interval), minus the self time of the counted calls made inside it
on its own thread.  Each lane of the load generator (one client, or the
batch submitter) is the root of a tree, so every second of a lane's wall
time lands in exactly one layer; where children overlap (two pool workers
running batch items at once) the overlap is reported as ``trace.parallel_s``
and the identity

    sum of self times  ==  lane wall time  +  parallel overlap

holds up to the slivers of children that end a moment after their parent
(a server span closing just after the client read the response), which are
clipped.  A child that starts after its parent ended, or outlives it by
more than ``_OUTLIVE`` (a batch item queued while the batch request was
still being read, and run long after it was answered), is re-parented to
the nearest ancestor that holds it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

#: Per-layer metrics of a traced run, in BENCHMARK.json order.
PER_LAYER: List[Tuple[str, str]] = [
    ("nlp.sketches_s", "s"),
    ("nlp.sketches", "count"),
    ("api.steps", "count"),
    ("api.sketches_started", "count"),
    ("synthesis.expansions", "count"),
    ("synthesis.expansions_per_s", "1/s"),
    ("synthesis.step_self_s", "s"),
    ("synthesis.expand_s", "s"),
    ("synthesis.expand_calls", "count"),
    ("synthesis.infeasible_s", "s"),
    ("synthesis.infeasible_calls", "count"),
    ("synthesis.prune_ratio", "ratio"),
    ("synthesis.consistent_s", "s"),
    ("synthesis.consistent_calls", "count"),
    ("synthesis.infer_constants_s", "s"),
    ("synthesis.infer_constants_calls", "count"),
    ("analysis.prune_check_s", "s"),
    ("analysis.prune_checks", "count"),
    ("analysis.prune_hit_ratio", "ratio"),
    ("automata.compiled", "count"),
    ("automata.compile_s", "s"),
    ("automata.cache_hit_ratio", "ratio"),
    ("solver.solves", "count"),
    ("solver.solve_s", "s"),
    ("caches.entries", "count"),
    ("service.queue_wait_p50_s", "s"),
    ("service.queue_wait_tail_s", "s"),
    ("service.pool_rejected", "count"),
    ("service.engine_s", "s"),
    ("service.cache_get_s", "s"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.transport_s", "s"),
    ("service.cache_put_s", "s"),
    ("service.batch_persist_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.parallel_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_est_s", "s"),
]

#: Tolerance when testing whether a child starts inside its parent (seconds).
_SLACK = 1e-3
#: How long a child may run past its parent's end and still belong to it.
_OUTLIVE = 0.05


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    covered = 0.0
    end = None
    start = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            if end is not None:
                covered += end - start
            start, end = lo, hi
        elif hi > end:
            end = hi
    if end is not None:
        covered += end - start
    return covered


def attribute(spans: List[Dict[str, Any]], roots: List[str]) -> Dict[str, Any]:
    """Self time per layer over the trees under ``roots``."""
    by_id = {span["id"]: span for span in spans}

    def contains(outer: Dict[str, Any], inner: Dict[str, Any]) -> bool:
        return (
            outer["t0"] - _SLACK <= inner["t0"] <= outer["t1"]
            and inner["t1"] <= outer["t1"] + _OUTLIVE
        )

    children: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        parent = by_id.get(span["parent"]) if span["parent"] else None
        while parent is not None and not contains(parent, span) and parent["parent"] in by_id:
            parent = by_id[parent["parent"]]
        if parent is not None:
            children.setdefault(parent["id"], []).append(span)

    layers: Dict[str, float] = {}
    self_sum = parallel = 0.0
    stack = [by_id[root] for root in roots if root in by_id]
    while stack:
        span = stack.pop()
        kids = children.get(span["id"], [])
        clipped = [
            (max(kid["t0"], span["t0"]), min(kid["t1"], span["t1"]))
            for kid in kids
            if kid["t1"] > span["t0"] and kid["t0"] < span["t1"]
        ]
        covered = _union(clipped)
        parallel += sum(hi - lo for lo, hi in clipped) - covered
        inner = span.get("inner", {})
        own = (span["t1"] - span["t0"]) - covered - sum(inner.values())
        layers[span["name"]] = layers.get(span["name"], 0.0) + own
        self_sum += own
        for name, seconds in inner.items():
            layers[name] = layers.get(name, 0.0) + seconds
            self_sum += seconds
        stack.extend(kids)
    wall = sum(by_id[root]["t1"] - by_id[root]["t0"] for root in roots if root in by_id)
    return {"layers": layers, "self_sum": self_sum, "parallel": parallel, "wall": wall}


def per_layer_metrics(
    bench_spans: List[Dict[str, Any]],
    roots: List[str],
    dumps: List[Dict[str, Any]],
    tail_share: float,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The per-layer metric values, plus the attribution table for the log."""
    spans = list(bench_spans)
    stats: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    caches: Dict[str, int] = {}
    jobs: List[Dict[str, Any]] = []
    automata = {"hits": 0.0, "misses": 0.0, "compiled": 0.0, "compile_seconds": 0.0}
    overhead = 0.0
    for dump in dumps:
        spans.extend(dump["spans"])
        calls = 0
        for name, (count, total, own) in dump["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total
            entry[2] += own
            calls += count
        overhead += calls * dump["call_cost_s"]
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value
        extra = dump["extra"]
        for name, size in extra.get("caches", {}).items():
            caches[name] = caches.get(name, 0) + size
        jobs.extend(extra.get("jobs", []))
        before, after = extra["automata_before"], extra["automata_after"]
        for key in automata:
            automata[key] += after[key] - before[key]

    def calls(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[1]

    def own(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[2]

    attribution = attribute(spans, roots)
    server_http = {
        span["rid"]: span["t1"] - span["t0"] for span in spans if span["name"] == "service.http"
    }
    transport = sum(
        (span["t1"] - span["t0"]) - server_http[span["id"]]
        for span in bench_spans
        if span["id"] in server_http
    )
    waits = [job["start"] - job["arrival"] for job in jobs if "arrival" in job]
    served = [dump for dump in dumps if any(s["name"] == "service.http" for s in dump["spans"])]
    engine_s = sum(
        span["t1"] - span["t0"]
        for dump in served
        for span in dump["spans"]
        if span["name"] == "api.solve"
    )
    expansions = counters.get("synthesis.expansions", 0)
    values = {
        "nlp.sketches_s": own("nlp.sketches"),
        "nlp.sketches": counters.get("nlp.sketches", 0),
        "api.steps": calls("synthesis.step"),
        "api.sketches_started": calls("synthesis.start"),
        "synthesis.expansions": expansions,
        "synthesis.expansions_per_s": _ratio(expansions, total("synthesis.step")),
        "synthesis.step_self_s": own("synthesis.step"),
        "synthesis.expand_s": own("synthesis.expand"),
        "synthesis.expand_calls": calls("synthesis.expand"),
        "synthesis.infeasible_s": own("synthesis.infeasible"),
        "synthesis.infeasible_calls": calls("synthesis.infeasible"),
        "synthesis.prune_ratio": _ratio(
            counters.get("synthesis.infeasible_pruned", 0), calls("synthesis.infeasible")
        ),
        "synthesis.consistent_s": own("synthesis.consistent"),
        "synthesis.consistent_calls": calls("synthesis.consistent"),
        "synthesis.infer_constants_s": own("synthesis.infer_constants"),
        "synthesis.infer_constants_calls": calls("synthesis.infer_constants"),
        "analysis.prune_check_s": own("analysis.prune_check"),
        "analysis.prune_checks": calls("analysis.prune_check"),
        "analysis.prune_hit_ratio": _ratio(
            counters.get("analysis.prune_hits", 0), calls("analysis.prune_check")
        ),
        "automata.compiled": automata["compiled"],
        "automata.compile_s": automata["compile_seconds"],
        "automata.cache_hit_ratio": _ratio(
            automata["hits"], automata["hits"] + automata["misses"]
        ),
        "solver.solves": calls("solver.solve"),
        "solver.solve_s": own("solver.solve"),
        "caches.entries": sum(caches.values()),
        "service.queue_wait_p50_s": percentile(waits, 0.5),
        "service.queue_wait_tail_s": percentile(waits, tail_share),
        "service.pool_rejected": counters.get("service.pool_rejected", 0),
        "service.engine_s": engine_s,
        "service.cache_get_s": total("service.cache_get"),
        "service.cache_hit_ratio": _ratio(
            counters.get("service.cache_hits", 0), counters.get("service.cache_gets", 0)
        ),
        "service.transport_s": transport,
        "service.cache_put_s": total("service.cache_put"),
        "service.batch_persist_s": total("service.batch_persist"),
        "trace.wall_s": attribution["wall"],
        "trace.self_sum_s": attribution["self_sum"],
        "trace.parallel_s": attribution["parallel"],
        "trace.spans": len(spans),
        "trace.overhead_est_s": overhead,
    }
    detail = {
        "layers_self_s": dict(sorted(attribution["layers"].items(), key=lambda kv: -kv[1])),
        "caches": caches,
        "queue_waits": len(waits),
        "stats": stats,
        "counters": counters,
    }
    return values, detail
