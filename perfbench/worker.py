"""One workload pass in a fresh process.

Started by run.py (never by hand): imports mqg, builds the seeded
inputs, prints the time the timed phase starts, runs every operation
once in a fixed order, then checks each result and prints one JSON line
with the per-operation latencies and failures.

    worker.py --workload W --seed S [--setup-only]
              [--trace-summary F --trace-spans F --run-id R]
              [--record F] [--prepare-cli DIR]
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import workloads
from stats import MISSING

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-summary")
    ap.add_argument("--trace-spans")
    ap.add_argument("--run-id", default="")
    ap.add_argument("--record", help="write result digests here instead "
                                     "of checking them")
    ap.add_argument("--prepare-cli", help="write the cli inputs here")
    args = ap.parse_args(argv)

    if args.workload == "cli":
        import mqg.cli  # noqa: F401  (the cli workload's set-up is the import)
        t_ready = time.monotonic()
        if args.prepare_cli:
            workloads.prepare_cli_inputs(args.seed, args.prepare_cli)
        print(json.dumps({"t_ready": t_ready}))
        return 0

    import mqg  # noqa: F401
    tracer = None
    if args.trace_summary:
        from tracer import Tracer
        tracer = Tracer(args.run_id)
        tracer.install()
    ops = workloads.LIBRARY_OPS[args.workload](args.seed)
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    results = []
    prepare_s = 0.0
    for op in ops:
        if op.prepare is not None:
            t0 = time.perf_counter()
            op.prepare()
            prepare_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.op(op.key, op.conductor):
                    out = op.run()
            err = None
        except Exception:  # an operation that raises is a failed operation
            out = None
            err = "exception: " + traceback.format_exc(limit=3)
            traceback.print_exc()
        results.append((op, out, err, time.perf_counter() - t0))
    wall = time.monotonic() - t_ready - prepare_s
    if tracer is not None:
        tracer.write(args.trace_summary, args.trace_spans)

    if args.record:
        with open(args.record, "w") as fh:
            json.dump({op.key: workloads.digest(out)
                       for op, out, err, _ in results
                       if err is None and op.check is None}, fh, indent=0)
        return 0

    with open(REFERENCE) as fh:
        reference = json.load(fh).get(args.workload, {})
    rows = []
    for op, out, err, latency in results:
        if err is None:
            if op.check is not None:
                err = op.check(out)
            elif workloads.digest(out) != reference.get(op.key, MISSING):
                err = "digest" if op.key in reference else "no reference"
        rows.append([op.key, latency, err])
    print(json.dumps({
        "t_ready": t_ready,
        "wall_s": wall,
        "ops": rows,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
