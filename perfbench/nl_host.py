"""Program process of the nl_portfolio workload.

Builds a default :class:`repro.api.Session`, prints ``READY``, then solves
one problem per input line and answers with one line, so the benchmark can
time every problem from outside.

Input lines: ``{"rid": <request id>, "problem": <Problem dict>}``.
Output lines: ``{"rid": ..., "report": <RunReport dict>}`` or
``{"rid": ..., "error": <traceback>}``.

Usage: ``python3 perfbench/nl_host.py [--trace SPANS.json]`` with ``src`` on
``PYTHONPATH``.  With ``--trace`` the layers are wrapped before the session
is built and the spans are written to ``SPANS.json`` at end of input.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default=None, help="write spans here at end of input")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.instrument_engine(tracer)
        tracer.extra["automata_before"] = tracing.snapshot_automata()

    from repro.api import Problem, Session

    session = Session()
    print("READY", flush=True)
    for line in sys.stdin:
        message = json.loads(line)
        rid = message["rid"]
        if tracer is not None:
            tracer.state().parent = rid
        try:
            report = session.solve(Problem.from_dict(message["problem"]))
            answer = {"rid": rid, "report": report.to_dict()}
        except Exception:
            answer = {"rid": rid, "error": traceback.format_exc(limit=8)}
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()

    if tracer is not None:
        tracer.extra["automata_after"] = tracing.snapshot_automata()
        tracer.extra["caches"] = tracing.snapshot_caches()
        tracer.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
