"""Traced ``regel serve``: wrap the layers, serve, write the spans on shutdown.

Usage: ``python3 perfbench/traced_serve.py SPANS.json <regel serve arguments>``
with ``src`` on ``PYTHONPATH``.  The arguments go through the same
``regel serve`` command line as an untraced run, which calls
``repro.service.server.serve``; so both runs use one configuration.  After
SIGTERM shuts the service down gracefully, the spans, per-layer counters and
cache sizes are written to ``SPANS.json``.
"""

from __future__ import annotations

import sys

import tracer as tracing


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    path, serve_args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.instrument_engine(tracer)
    tracing.instrument_service(tracer)
    tracer.extra["automata_before"] = tracing.snapshot_automata()

    from repro.cli import main as regel

    code = regel(["serve", *serve_args])
    tracer.extra["automata_after"] = tracing.snapshot_automata()
    tracer.extra["caches"] = tracing.snapshot_caches()
    tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
