"""Traced qpb process: `python bench/launch.py SPANS_FILE ARG...`.

Imports qpb, wraps its layers with bench/tracer.py, runs `qpb.cli.main(ARGS)`
and writes the spans to SPANS_FILE when main returns. The exit status is
main's. Spawn time, the import and the tracer's own set-up are recorded as
spans too, so the spans account for the whole process.
"""

import time

START = time.monotonic()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    i0 = tracer.CLOCK()
    import qpb.cli  # noqa: F401
    i1 = tracer.CLOCK()
    t.record("trace.boot", tracer.TRACE_LAYER, START, i0)
    t.record("process.import", "process", i0, i1)
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "qpb" or name.startswith("qpb.")}
    tracer.install(t, modules)
    c0 = tracer.CLOCK()
    t.record("trace.install", tracer.TRACE_LAYER, i1, c0)
    status = modules["qpb.cli"].main(argv)
    t.dump(spans_path, {"start": START, "main_end": tracer.CLOCK()})
    return status


if __name__ == "__main__":
    sys.exit(main())
