"""Cold end-to-end benchmark of the Regel reproduction, driven from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nl_portfolio --seed 1 --seconds 30 --trace 0

Every run starts the program in a fresh process (the NL host, or
``regel serve``) with nothing cached, sends it seeded problems generated
here beforehand, re-checks every answer with an independent oracle and
prints, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the program runs with the layer wrappers of ``tracer.py`` and the metrics are
the per-layer ones (``traceview.PER_LAYER``).  Spans and a summary go to
``.perfbench/out/``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
OUT = os.path.join(WORK, "out")

sys.path.insert(0, HERE)

import oracle  # noqa: E402
import problems as inputs  # noqa: E402
import traceview  # noqa: E402
from tracer import Tracer, clock  # noqa: E402

#: Program spawns timed per run for set-up, the measured run's own included.
SETUP_SAMPLES = 9

#: Each program spawn is paired with a reference spawn right before it: a
#: fresh interpreter that imports a fixed set of standard-library modules and
#: nothing of the program.  The machine's speed varies from spawn to spawn,
#: and for minutes at a time by up to 2x; a program spawn and the reference
#: next to it slow alike.  setup_s is the median over the pairs of
#: program / reference, times SETUP_REFERENCE_S: the program's set-up time on
#: a machine where the reference takes 0.1 s.  The raw wall times of both are
#: kept in the run record.
SETUP_REFERENCE = (
    "import argparse, concurrent.futures, dataclasses, decimal, email.parser, "
    "fractions, hashlib, http.server, json, logging, random, sqlite3, typing, "
    "unittest, urllib.request"
)
SETUP_REFERENCE_S = 0.1

#: Hard cap on one run, so the benchmark exits well within 180 s.
RUN_DEADLINE_S = 150.0

#: Workload sizing.  All three are fixed work, sized so that a run at the
#: seed commit measures about 30 s; a slower program takes longer, up to the
#: deadline above, and work left unsent then counts as failed.  service_mix
#: is a request count rather than a time box, because under a time box the
#: number of problems reached, and with them the server's peak RSS, follow
#: the machine's speed.  MIX_REQUESTS ends on a block boundary, 44 first
#: sightings, so every seed sends the same problems.
NL_BUDGET = 0.5
BATCH_BUDGET = 3.0
BATCH_STRIDE = 3
SHUFFLE_BLOCK = 4
BATCH_POLL_S = 0.2
MIX_BUDGET = 0.5
MIX_CLIENTS = 2
MIX_HOT_REPEATS = 8
MIX_HOT_WINDOW = 8
MIX_REQUESTS = 360

#: Tail percentile per workload: the highest whole percentile with at least
#: 10 samples beyond it, for 62 problems, 63 batch items and 360 requests.
TAIL_SHARE = {"nl_portfolio": 0.83, "corpus_batch": 0.84, "service_mix": 0.97}

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("solved_share", "ratio"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
]


class Outcome:
    """Tallies of one run: attempts, failures, oracle mismatches, latencies."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.solved = 0
        self.mismatches: List[str] = []
        self.latencies: List[float] = []
        self.errors: List[str] = []
        #: ``(latency, label)`` per operation, for the run record.
        self.operations: List[Tuple[Optional[float], str]] = []
        self._lock = threading.Lock()

    def record(
        self,
        latency: Optional[float],
        error: Optional[str] = None,
        regexes: Tuple[str, ...] = (),
        problem=None,
        label: str = "",
    ) -> None:
        """One finished operation; ``error`` marks it failed."""
        mismatch = None
        if error is None and problem is not None:
            for regex in regexes:
                mismatch = oracle.check(regex, problem.positive, problem.negative)
                if mismatch is not None:
                    break
        failed = error is not None or mismatch is not None
        with self._lock:
            self.attempted += 1
            self.operations.append(
                (latency, "failed" if failed else label or ("solved" if regexes else "unsolved"))
            )
            # A failed operation misses any latency limit: it enters the
            # percentiles at the run deadline, whatever its own latency.
            self.latencies.append(RUN_DEADLINE_S if failed else latency)
            if error is not None:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(error)
            elif mismatch is not None:
                self.failed += 1
                self.mismatches.append(mismatch)
            elif regexes:
                self.solved += 1


# -- processes -----------------------------------------------------------------


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Program:
    """A program process whose stdout is drained into a line queue."""

    def __init__(self, argv: List[str], log_path: str, stdin: bool = False):
        self.log = open(log_path, "ab")
        self.spawned = clock()
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=_env(),
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            bufsize=1,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def readline(self, timeout: float) -> str:
        line = self.lines.get(timeout=max(timeout, 0.001))
        if line is None:
            raise RuntimeError(f"program exited with code {self.proc.wait()}")
        return line

    def peak_rss_mb(self) -> float:
        """VmHWM of the process in MiB, read from ``/proc``."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {self.proc.pid}")

    def stop(self, timeout: float = 15.0) -> int:
        """SIGTERM (or end of input), wait, and kill if it does not exit."""
        if self.proc.poll() is None:
            if self.proc.stdin is not None:
                try:
                    self.proc.stdin.close()
                except OSError:
                    pass
            else:
                self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=5)
        self.log.close()
        return code


# -- HTTP ------------------------------------------------------------------------


def http_request(
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    rid: str = "",
    timeout: float = 5.0,
) -> Tuple[int, Any]:
    """One request on a connection of its own, closed after the answer.

    This is the traffic of the repository's own ``ServiceClient``, which
    sends each request through ``urllib`` with ``Connection: close``.
    """
    headers = {"Content-Type": "application/json", "Connection": "close"}
    if rid:
        headers["X-Request-Id"] = rid
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    return response.status, json.loads(data) if data else None


# -- workloads -------------------------------------------------------------------


class Run:
    """Shared state of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = clock()
        self.tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.tmp = os.path.join(WORK, "tmp", f"{self.tag}-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        os.makedirs(OUT, exist_ok=True)
        self.outcome = Outcome()
        #: Spawn-to-ready wall times of the program, and of the reference
        #: spawn made right before each (see SETUP_REFERENCE).
        self.setups: List[float] = []
        self.references: List[float] = []
        self.window = 0.0
        self.rss = 0.0
        self.tracer = Tracer(prefix="bench.")
        self.roots: List[str] = []
        self.dumps: List[str] = []
        self.digest = ""
        self.problem_count = 0

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (clock() - self.started)

    def time_reference(self) -> None:
        """Spawn the reference interpreter and record its wall time."""
        started = clock()
        subprocess.run(
            [sys.executable, "-c", SETUP_REFERENCE],
            cwd=ROOT,
            env=_env(),
            stdin=subprocess.DEVNULL,
            check=True,
        )
        self.references.append(clock() - started)

    def setup_s(self) -> float:
        """Median program / reference spawn ratio, in reference-scaled seconds."""
        ratios = [setup / ref for setup, ref in zip(self.setups, self.references)]
        return SETUP_REFERENCE_S * statistics.median(ratios)

    def log_path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def note_inputs(self, problems: List) -> None:
        self.problem_count = len(problems)
        self.digest = inputs.digest(problems)


def _nl_argv(trace_path: Optional[str]) -> List[str]:
    argv = [sys.executable, os.path.join(HERE, "nl_host.py")]
    if trace_path:
        argv += ["--trace", trace_path]
    return argv


def _wait_ready(program: Program, run: Run) -> float:
    while True:
        if program.readline(run.remaining()).strip() == "READY":
            return clock() - program.spawned


def run_nl_portfolio(run: Run) -> None:
    problems = inputs.nl_portfolio(run.seed, NL_BUDGET, SHUFFLE_BLOCK)
    run.note_inputs(problems)
    if not run.trace:
        for _ in range(SETUP_SAMPLES - 1):
            run.time_reference()
            probe = Program(_nl_argv(None), run.log_path("setup.log"), stdin=True)
            try:
                run.setups.append(_wait_ready(probe, run))
            finally:
                probe.stop()
    trace_path = run.log_path("nl_host.spans.json") if run.trace else None
    run.time_reference()
    host = Program(_nl_argv(trace_path), run.log_path("nl_host.log"), stdin=True)
    try:
        run.setups.append(_wait_ready(host, run))
        lane = run.tracer.open_span("bench.lane")
        run.roots.append(lane["id"])
        start = clock()
        lost = ""
        for problem in problems:
            if lost or run.remaining() <= 0:
                run.outcome.record(None, error=f"not sent: {lost or 'run deadline passed'}")
                continue
            request = run.tracer.open_span("bench.request")
            sent = clock()
            message = json.dumps({"rid": request["id"], "problem": problem.to_dict()})
            try:
                assert host.proc.stdin is not None
                host.proc.stdin.write(message + "\n")
                host.proc.stdin.flush()
                answer = json.loads(host.readline(min(run.remaining(), NL_BUDGET + 60)))
            except (OSError, RuntimeError, queue.Empty) as exc:
                # A dead or wedged host answers nothing more this run.
                run.tracer.close_span(request)
                lost = f"host stopped answering ({type(exc).__name__})"
                run.outcome.record(None, error=lost)
                continue
            latency = clock() - sent
            run.tracer.close_span(request)
            if "error" in answer:
                run.outcome.record(latency, error=answer["error"].strip().splitlines()[-1])
                continue
            regexes = tuple(solution["regex"] for solution in answer["report"]["solutions"])
            run.outcome.record(latency, regexes=regexes, problem=problem)
        run.window = clock() - start
        run.tracer.close_span(lane)
        run.rss = host.peak_rss_mb()
    finally:
        host.stop()
    if trace_path:
        run.dumps.append(trace_path)


def _serve_argv(run: Run, name: str, trace_path: Optional[str]) -> List[str]:
    args = ["--port", "0", "--quiet", "--cache-path", os.path.join(run.tmp, name, "cache")]
    if trace_path:
        return [sys.executable, os.path.join(HERE, "traced_serve.py"), trace_path, *args]
    return [sys.executable, "-m", "repro.cli", "serve", *args]


def _start_server(run: Run, name: str, trace_path: Optional[str] = None) -> Tuple[Program, int, float]:
    """Spawn ``regel serve``; return it, its port, and spawn-to-first-healthz-200.

    A reference spawn is timed right before (``Run.time_reference``).
    """
    run.time_reference()
    server = Program(_serve_argv(run, name, trace_path), run.log_path(f"{name}.log"))
    try:
        port = None
        while port is None:
            line = server.readline(run.remaining())
            if "listening on http://" in line:
                port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        while True:
            try:
                status, _ = http_request(port, "GET", "/v1/healthz")
                if status == 200:
                    break
            except (OSError, http.client.HTTPException):
                pass
            if run.remaining() <= 0:
                raise RuntimeError("service never answered /v1/healthz")
            time.sleep(0.002)
        ready = clock() - server.spawned
    except BaseException:
        server.stop()
        raise
    return server, port, ready


def _server_setups(run: Run) -> None:
    if run.trace:
        return
    for index in range(SETUP_SAMPLES - 1):
        probe, _, ready = _start_server(run, f"setup{index}")
        probe.stop()
        run.setups.append(ready)


def run_corpus_batch(run: Run) -> None:
    problems = inputs.corpus_batch(ROOT, run.seed, BATCH_BUDGET, BATCH_STRIDE, SHUFFLE_BLOCK)
    run.note_inputs(problems)
    body = "".join(problem.canonical_json() + "\n" for problem in problems).encode("ascii")
    _server_setups(run)
    trace_path = run.log_path("serve.spans.json") if run.trace else None
    server, port, ready = _start_server(run, "serve", trace_path)
    run.setups.append(ready)
    try:
        lane = run.tracer.open_span("bench.lane")
        run.roots.append(lane["id"])
        start = clock()
        request = run.tracer.open_span("bench.request")
        try:
            status, payload = http_request(
                port, "POST", "/v1/batch", body, rid=request["id"], timeout=60.0
            )
        except (OSError, http.client.HTTPException) as exc:
            status, payload = 0, repr(exc)
        run.tracer.close_span(request)
        if status != 202:
            for problem in problems:
                run.outcome.record(None, error=f"POST /v1/batch failed: {status} {payload}")
            run.tracer.close_span(lane)
            return
        batch_id = payload["batch_id"]
        settled: Dict[int, float] = {}
        items: Dict[int, Dict[str, Any]] = {}
        path = f"/v1/batch/{batch_id}?offset=0&limit={len(problems)}"
        while len(settled) < len(problems) and run.remaining() > 0:
            time.sleep(BATCH_POLL_S)
            request = run.tracer.open_span("bench.request")
            try:
                status, page = http_request(port, "GET", path, rid=request["id"], timeout=60.0)
            except (OSError, http.client.HTTPException):
                status, page = 0, None
            seen = clock()
            run.tracer.close_span(request)
            if status != 200:
                continue
            for item in page["items"]:
                index = item["index"]
                if index not in settled and item["status"] != "queued":
                    settled[index] = seen - start
                    items[index] = item
        run.window = (max(settled.values()) if settled else clock() - start)
        run.tracer.close_span(lane)
        for index, problem in enumerate(problems):
            item = items.get(index)
            if item is None:
                run.outcome.record(None, error="item not settled before the run deadline")
            elif item["status"] == "failed":
                run.outcome.record(settled[index], error=f"item failed: {item.get('error')}")
            else:
                regexes = (item["regex"],) if item.get("regex") else ()
                run.outcome.record(settled[index], regexes=regexes, problem=problem)
        run.rss = server.peak_rss_mb()
    finally:
        server.stop()
    if trace_path:
        run.dumps.append(trace_path)


def run_service_mix(run: Run) -> None:
    requests = inputs.service_mix(
        ROOT,
        run.seed,
        MIX_BUDGET,
        MIX_HOT_REPEATS,
        MIX_HOT_WINDOW,
        SHUFFLE_BLOCK,
        MIX_REQUESTS,
    )
    run.note_inputs(requests)
    bodies = [problem.canonical_json().encode("ascii") for problem in requests]
    _server_setups(run)
    trace_path = run.log_path("serve.spans.json") if run.trace else None
    server, port, ready = _start_server(run, "serve", trace_path)
    run.setups.append(ready)
    cursor = iter(range(len(requests)))
    cursor_lock = threading.Lock()
    start = clock()
    finished: List[float] = []

    def client_loop() -> None:
        lane = run.tracer.open_span("bench.lane")
        run.roots.append(lane["id"])
        try:
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    break
                if run.remaining() <= 0:
                    run.outcome.record(None, error="not sent: run deadline passed")
                    continue
                problem = requests[index]
                request = run.tracer.open_span("bench.request")
                sent = clock()
                try:
                    status, payload = http_request(
                        port,
                        "POST",
                        "/v1/solve",
                        bodies[index],
                        rid=request["id"],
                        timeout=MIX_BUDGET + 30.0,
                    )
                except (OSError, http.client.HTTPException) as exc:
                    run.tracer.close_span(request)
                    run.outcome.record(clock() - sent, error=f"transport: {exc!r}")
                    continue
                latency = clock() - sent
                run.tracer.close_span(request)
                if status != 200:
                    code = (payload or {}).get("error", {}) if isinstance(payload, dict) else {}
                    run.outcome.record(latency, error=f"HTTP {status}: {code}")
                    continue
                regexes = tuple(solution["regex"] for solution in payload["solutions"])
                run.outcome.record(
                    latency, regexes=regexes, problem=problem, label=payload.get("provenance", "")
                )
        finally:
            finished.append(clock())
            run.tracer.close_span(lane)

    try:
        threads = [threading.Thread(target=client_loop) for _ in range(MIX_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        run.window = max(finished) - start
        run.rss = server.peak_rss_mb()
    finally:
        server.stop()
    if trace_path:
        run.dumps.append(trace_path)


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "nl_portfolio": run_nl_portfolio,
    "corpus_batch": run_corpus_batch,
    "service_mix": run_service_mix,
}


# -- reporting -------------------------------------------------------------------


def end_to_end(run: Run) -> Dict[str, float]:
    outcome = run.outcome
    completed = outcome.attempted - outcome.failed
    return {
        "setup_s": run.setup_s(),
        "throughput_per_s": completed / run.window if run.window > 0 else 0.0,
        "latency_p50_s": traceview.percentile(outcome.latencies, 0.5),
        "latency_tail_s": traceview.percentile(outcome.latencies, TAIL_SHARE[run.workload]),
        "solved_share": outcome.solved / outcome.attempted if outcome.attempted else 0.0,
        "ok_share": 1.0 - outcome.failed / outcome.attempted if outcome.attempted else 0.0,
        "peak_rss_mb": run.rss,
    }


def _load_dump(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def per_layer(run: Run) -> Tuple[Dict[str, float], Dict[str, Any]]:
    dumps = [_load_dump(path) for path in run.dumps]
    return traceview.per_layer_metrics(
        run.tracer.spans, run.roots, dumps, TAIL_SHARE[run.workload]
    ), dumps


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="cold end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to benchmark under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    # A benchmark stopped by SIGTERM still stops its program: the signal
    # unwinds through the workloads' ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        WORKLOADS[args.workload](run)
        result = report(run)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def report(run: Run) -> Dict[str, Any]:
    """Print the run's summary lines, write its record, return the result."""
    outcome = run.outcome
    summary: Dict[str, Any] = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "problems": run.problem_count,
        "inputs_digest": run.digest,
        "window_s": run.window,
        "setups_s": run.setups,
        "setup_references_s": run.references,
        "setup_wall_median_s": statistics.median(run.setups),
        "operations": outcome.operations,
        "mismatches": outcome.mismatches,
        "errors": outcome.errors,
    }
    print(f"inputs: {run.problem_count} problems, sha256 {run.digest}")
    if run.trace:
        (values, detail), dumps = per_layer(run)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in traceview.PER_LAYER}
        summary["layers_self_s"] = detail["layers_self_s"]
        summary["caches"] = detail["caches"]
        summary["stats"] = detail["stats"]
        summary["counters"] = detail["counters"]
        summary["end_to_end_traced"] = end_to_end(run)
        untraced = os.path.join(OUT, f"{run.workload}-seed{run.seed}-trace0.json")
        if os.path.exists(untraced):
            base = _load_dump(untraced)["end_to_end"]
            summary["tracing_overhead"] = {
                name: summary["end_to_end_traced"][name] - base[name] for name in base
            }
        with open(os.path.join(OUT, f"{run.tag}.spans.json"), "w", encoding="utf-8") as handle:
            json.dump({"bench": run.tracer.spans, "program": dumps}, handle)
        for name, seconds in detail["layers_self_s"].items():
            print(f"self {name:32s} {seconds:10.4f} s")
        for name, size in detail["caches"].items():
            print(f"cache {name:40s} {size:8d} entries")
        print(
            f"trace: wall {values['trace.wall_s']:.4f} s, self sum {values['trace.self_sum_s']:.4f} s, "
            f"parallel overlap {values['trace.parallel_s']:.4f} s"
        )
        if "tracing_overhead" in summary:
            print("tracing overhead vs untraced run: " + json.dumps(summary["tracing_overhead"]))
    else:
        values = end_to_end(run)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        summary["end_to_end"] = values
    with open(os.path.join(OUT, f"{run.tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    for mismatch in outcome.mismatches[:10]:
        print(f"oracle mismatch: {mismatch}")
    for error in outcome.errors[:10]:
        print(f"failed: {error}")
    return {
        "correct": not outcome.mismatches and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
