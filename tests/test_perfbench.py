"""The benchmark's library workloads reproduce their recorded outputs.

One pass of each workload in a fresh worker process, run the way
perfbench/make_reference.py records it: every digested result must
match perfbench/reference.json and every checked result must pass, so
a change to these outputs fails here and not only in the benchmark.
"""
import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import run  # noqa: E402  (perfbench/run.py)
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.LIBRARY_OPS))
def test_library_workload_matches_the_reference(workload):
    proc = subprocess.run(
        [sys.executable, run.WORKER, "--workload", workload, "--seed", "0"],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True,
        timeout=run.CHILD_TIMEOUT)
    assert proc.returncode == 0, proc.stderr
    ops = json.loads(proc.stdout.splitlines()[-1])["ops"]
    assert ops
    assert [(key, err) for key, _, err in ops if err is not None] == []
