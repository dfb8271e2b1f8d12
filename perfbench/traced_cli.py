"""Run the tmbt command line with its layers traced.

    python3 perfbench/traced_cli.py SPAN_FILE CLI_ARGS...

behaves like `python3 -m tmbt.cli CLI_ARGS...` and, when the process
exits, writes the spans of this invocation to SPAN_FILE.  If the
environment carries PERFBENCH_SPAWN_TIME (the parent's time.time() just
before it started this process), the file also records the start-up
time: process start until the command's `main` is entered.
"""

import atexit
import os
import sys
import time

import tracer


def main() -> None:
    span_file, args = sys.argv[1], sys.argv[2:]
    import tmbt.cli

    spawned = os.environ.get("PERFBENCH_SPAWN_TIME")
    startup = time.time() - float(spawned) if spawned else None
    trace = tracer.Tracer()
    tracer.install(trace)
    atexit.register(trace.dump, span_file, " ".join(args), startup)
    trace.run("cli.main", tmbt.cli.main, args=args,
              prog_name="python -m tmbt.cli")


if __name__ == "__main__":
    main()
