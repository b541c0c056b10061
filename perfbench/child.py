"""One benchmark child process: import the friendbias CLI and run it once.

    python3 child.py SRC TIMING_JSON TRACE_JSON|- [CLI ARGS...]

Writes {"t_entry", "t_exit", "rc"} to TIMING_JSON, in the system-wide
monotonic clock, so the parent can take set-up time as t_entry minus its own
spawn time. t_entry is taken after the interpreter has started and numpy and
friendbias are imported, just before `cli.main` is entered. With no CLI
arguments the child only measures that set-up and exits. With a TRACE_JSON
path the layers are wrapped by the tracer for the run and the spans written
there; with "-" the CLI runs with nothing patched.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    src, timing_path, trace_path, *cli_args = sys.argv[1:]
    src = str(Path(src).resolve())
    sys.path.insert(0, src)
    from friendbias import cli
    if not cli.__file__.startswith(src):
        print(f"friendbias imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 70

    tracer = None
    if trace_path != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t_entry = time.monotonic()
    rc = 0
    try:
        if cli_args:
            rc = cli.main(cli_args)
    finally:
        t_exit = time.monotonic()
        if tracer is not None:
            tracer.restore()
            tracer.dump(trace_path)
    with open(timing_path, "w") as fh:
        json.dump({"t_entry": t_entry, "t_exit": t_exit, "rc": rc}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
