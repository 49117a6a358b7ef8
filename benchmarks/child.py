"""One fresh interpreter per benchmark pass: import the CLI, stamp, run it.

    python3 child.py --stamp FILE --mode {cli,probe,trace} -- FRONTLAB_ARGS

The stamp file receives JSON with this process's pid, the ``time.monotonic``
reading once ``frontlab.cli`` is imported (``ready``), and the readings just
before and after the CLI ran (``start``, ``done``).  On Linux the monotonic
clock is shared by all processes, so the launcher subtracts its own reading
taken before the launch.  Mode ``probe`` stops once the CLI is imported.
Mode ``trace`` first takes the layer micro-timings, then runs the CLI under
the tracer and adds both to the stamp.
"""

import json
import os
import sys
import time


def main() -> int:
    args = sys.argv[1:]
    sep = args.index("--")
    opts = dict(zip(args[:sep:2], args[1:sep:2]))
    cli_args = args[sep + 1:]

    import frontlab.cli as cli
    stamp = {"pid": os.getpid(), "ready": time.monotonic(),
             "frontlab": os.path.dirname(cli.__file__)}
    code = 0
    try:
        if opts["--mode"] == "probe":
            return code
        tracer = None
        if opts["--mode"] == "trace":
            import micro
            import tracer as tracing
            stamp["micro"] = micro.measure()
            tracer = tracing.Tracer().install()
        stamp["start"] = time.monotonic()
        sys.argv = ["frontlab", *cli_args]
        try:
            cli.main()
        except SystemExit as exit_:
            code = 0 if exit_.code is None else exit_.code
            if not isinstance(code, int):
                code = 1
        finally:
            stamp["done"] = time.monotonic()
            if tracer is not None:
                tracer.restore()
                stamp["layers"] = tracer.metrics()
        return code
    finally:
        with open(opts["--stamp"], "w") as fh:
            json.dump(stamp, fh)


if __name__ == "__main__":
    sys.exit(main())
