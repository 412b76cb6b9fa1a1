"""Run one picmod CLI call with layer tracing on.

    python perfbench/cli_traced.py TRACE_JSON SUBCOMMAND [ARGS...]

Behaves as `python -m picmod.cli SUBCOMMAND [ARGS...]`, exit code included,
and writes the import time and the layer totals to TRACE_JSON at exit.
"""

import json
import sys
import time
from pathlib import Path

import tracer as tracing


def main() -> None:
    trace_json, args = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    import picmod  # noqa: F401
    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from picmod import cli

    sys.argv = ["picmod"] + args
    try:
        cli._run()
    finally:
        trace_json.write_text(json.dumps({"import_s": import_s, "trace": tracer.snapshot()}))


if __name__ == "__main__":
    main()
