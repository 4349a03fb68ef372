"""Traced `mqg` process: installs the tracer, then calls mqg.cli.run.

    cli_boot.py --summary F [--spans F] --conductor N --run-id R -- ARGS...

Behaves like `python -m mqg.cli ARGS...` (same stdout, stderr and exit
code, uncaught exceptions included) and writes the tracer's summary,
with the time `import mqg.cli` took, when the process ends.
"""
import sys
import time

t0 = time.perf_counter()
import mqg.cli  # noqa: E402

IMPORT_S = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main():
    argv = sys.argv[1:]
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    cli_args = argv[split + 1:]
    tracer = Tracer(opts["--run-id"])
    tracer.install()
    try:
        with tracer.op("cli." + cli_args[0], int(opts["--conductor"])):
            code = mqg.cli.run(cli_args)
    finally:
        tracer.import_s = IMPORT_S
        tracer.write(opts["--summary"], opts.get("--spans"))
    return code


if __name__ == "__main__":
    sys.exit(main())
