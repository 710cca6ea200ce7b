"""Run one nlqsim CLI invocation in this fresh process and record its cost.

    python3 invoke.py --record REC.json [--trace SPANS.json] [--compile-memory] \
        -- <nlqsim cli arguments>

The record holds the CLI exit code, the wall time from ``import nlqsim`` to
the return of ``nlqsim.cli.main`` and the peak resident memory of this
process. An exception escaping ``main`` leaves no record and a traceback on
stderr, which the caller counts as a failure. ``--trace`` installs the span
tracer before ``main`` runs; ``--compile-memory`` also tracks the peak
traced allocation of each compile.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import tracing


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--compile-memory", action="store_true")
    opts = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    t0 = time.perf_counter()
    from nlqsim import cli

    import_s = time.perf_counter() - t0
    tracer = None
    if opts.trace:
        tracer = tracing.Tracer(track_compile_memory=opts.compile_memory)
        tracer.install()
    rc = cli.main(cli_args)
    wall_s = time.perf_counter() - t0

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.values["cli.import_s"] = import_s
        tracer.dump(opts.trace)
    with open(opts.record, "w") as fh:
        json.dump({"rc": rc, "wall_s": wall_s, "peak_rss_mb": peak_kib / 1024}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
