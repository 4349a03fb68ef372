"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run from the root of a checkout, at the commit whose outputs are the
reference; writes perfbench/reference.json.  Library results are
recorded by the worker the benchmark runs, in the same order and
process context as a benchmark pass; `cli` outputs are the exact stdout
bytes of fresh `mqg` processes.  Outputs that depend on the seed are
not recorded: they are checked against the generator's truth.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def _scratch() -> str:
    os.makedirs(run.OUT, exist_ok=True)
    return run.OUT


def _child(argv, cwd=None):
    proc = subprocess.run(argv, cwd=cwd or run.ROOT, env=run.child_env(),
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def record_worker(workload: str) -> dict:
    """Digests of one pass of a library workload (seed 0: the digested
    outputs do not depend on the seed)."""
    with tempfile.TemporaryDirectory(dir=_scratch()) as tmp:
        path = os.path.join(tmp, "digests.json")
        code, _, err = _child([sys.executable, run.WORKER, "--workload",
                               workload, "--seed", "0", "--record", path])
        if code:
            raise SystemExit(f"{workload} failed:\n{err}")
        with open(path) as fh:
            out = json.load(fh)
    print(f"{workload}: {len(out)} digests", flush=True)
    return out


def record_cli() -> dict:
    out = {}
    with tempfile.TemporaryDirectory(dir=_scratch()) as work:
        for step in workloads.cli_commands():
            if isinstance(step, tuple):
                _, src, dst = step
                workloads.tamper(os.path.join(work, src),
                                 os.path.join(work, dst))
                continue
            if step.digest != "ref":
                continue
            code, stdout, err = _child(
                [sys.executable, "-m", "mqg.cli", *step.argv], cwd=work)
            if stats.classify_outcome(step.expect, code, err, None, None):
                raise SystemExit(f"{step.key}: exit {code}\n{err}")
            out[step.key] = hashlib.sha256(stdout).hexdigest()
    print(f"cli: {len(out)} digests", flush=True)
    return out


def main():
    ref = {name: record_worker(name) for name in workloads.LIBRARY_OPS}
    ref["cli"] = record_cli()
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
