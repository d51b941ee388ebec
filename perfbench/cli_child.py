"""A traced ``repeaterchain`` process: the console-script entry point with
spans around the CLI's calls into each layer.

At exit it writes one ``MARKER`` line to stderr with the import time, the
time spent in ``main`` and the spans.  Stdout and the exit code are the
plain CLI's.

Usage: python3 -X importtime perfbench/cli_child.py eval --L 1600 --n 8
"""

import json
import sys
import time

from tracing import Tracer, install

MARKER = "perfbench-trace "

if __name__ == "__main__":
    start = time.perf_counter()
    from repeaterchain.cli import main

    imported = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    begun = time.perf_counter()
    try:
        code = main()
    finally:
        sys.stderr.write(MARKER + json.dumps({
            "import_s": imported - start,
            "main_s": time.perf_counter() - begun,
            "spans": tracer.spans,
        }) + "\n")
    sys.exit(code)
