"""Run one lionman CLI command with the tracer installed.

    clitrace.py DUMP ARGS...

The cli workload's traced run starts its children through this file in
place of `python -m lionman.cli`; the counters go to DUMP as JSON.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lionman  # noqa: E402
import lionman.cli  # noqa: E402
from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install(lionman)
    try:
        code = lionman.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w") as fh:
            json.dump(tracer.dump(), fh)
    sys.exit(code)
