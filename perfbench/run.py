"""Benchmark of mqg: one workload per invocation, each pass in a fresh
process, outputs checked against references.

    python3 perfbench/run.py --workload {axioms,identities,comodules,cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout (the library is imported from ./src).
One closed loop with a single client: this process starts one child at
a time and waits for it.

--trace 0 measures the end-to-end metrics: set-up samples (fresh
processes that stop when the timed phase would start), then passes
until --seconds have elapsed (at least one).  --trace 1 runs one
untraced and one traced pass and reports the per-layer metrics, the
tracing overhead among them.  Human-readable lines come first; the last
line of stdout is the JSON result.  Per-run details and spans are
written under .perfbench/ in the checkout.

Every child runs with PYTHONHASHSEED=0, single-threaded BLAS and the
default conductor bound; the seed and the fixed operation order are
recorded in the detail file.  The library's caches are never cleared:
their growth across a pass is behaviour this benchmark must show.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
CLI_BOOT = os.path.join(HERE, "cli_boot.py")
SETUP_SAMPLES = 15         # set-up-only children per run, besides passes
CHILD_TIMEOUT = 170.0      # no run may take longer than 180 s
SUBCOMMANDS = ("classify", "build", "verify", "product", "cocycle", "indec",
               "decompose", "tensor", "fpdim", "export")
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("MQG_MAX_CONDUCTOR", "PYTHONPATH")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    return env


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = child_env()
        self.tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.passes = 0
        with open(os.path.join(HERE, "reference.json")) as fh:
            self.reference = json.load(fh)

    def spawn(self, argv, cwd=None):
        """Run one child to completion; returns (exit, stdout, stderr,
        seconds, monotonic spawn time)."""
        timeout = min(CHILD_TIMEOUT, self.deadline - time.monotonic())
        if timeout <= 0:
            raise BenchError("run exceeded its time limit")
        t_spawn = time.monotonic()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=cwd or ROOT, env=self.env,
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child timed out: {argv[:6]}") from exc
        return (proc.returncode, proc.stdout, proc.stderr.decode(),
                time.perf_counter() - t0, t_spawn)

    def worker(self, *extra):
        code, out, err, secs, t_spawn = self.spawn(
            [sys.executable, WORKER, "--workload", self.workload,
             "--seed", str(self.seed), *extra])
        if code != 0:
            raise BenchError(f"worker exited {code}:\n{err[-2000:]}")
        sys.stderr.write(err)
        doc = json.loads(out.decode().strip().splitlines()[-1])
        doc["setup_s"] = doc["t_ready"] - t_spawn
        return doc

    def setup_sample(self) -> float:
        return self.worker("--setup-only")["setup_s"]

    # -- one pass ----------------------------------------------------------

    def run_pass(self, trace: bool) -> dict:
        """One fresh pass; returns setup_s, wall_s, ops [[key, latency,
        failure]], contract [[key, failure]] and, traced, summaries."""
        self.passes += 1
        tag = f"{self.workload}-{self.seed}-{self.passes}"
        if self.workload == "cli":
            return self.cli_pass(trace, tag)
        extra = []
        if trace:
            extra = ["--trace-summary", os.path.join(self.tmp, "summary.json"),
                     "--trace-spans", os.path.join(OUT, f"spans-{tag}.jsonl"),
                     "--run-id", tag]
        doc = self.worker(*extra)
        doc["contract"] = []
        if trace:
            with open(os.path.join(self.tmp, "summary.json")) as fh:
                doc["summaries"] = [json.load(fh)]
        return doc

    def cli_pass(self, trace: bool, tag: str) -> dict:
        work = os.path.join(self.tmp, tag)
        os.makedirs(work)
        setup_s = self.worker("--prepare-cli", work)["setup_s"]
        ops, contract, summaries = [], [], []
        t0 = time.monotonic()
        for k, step in enumerate(workloads.cli_commands()):
            if isinstance(step, tuple):
                _, src, dst = step
                workloads.tamper(os.path.join(work, src),
                                 os.path.join(work, dst))
                continue
            if trace:
                summary = os.path.join(work, f"summary-{k}.json")
                argv = [sys.executable, CLI_BOOT, "--summary", summary,
                        "--spans", os.path.join(OUT, f"spans-{tag}-{k}.jsonl"),
                        "--conductor", str(step.conductor),
                        "--run-id", f"{tag}-{k}", "--", *step.argv]
            else:
                argv = [sys.executable, "-m", "mqg.cli", *step.argv]
            code, out, err, secs, _ = self.spawn(argv, cwd=work)
            failure = stats.classify_outcome(
                step.expect, code, err, _sha(out), self.expected(step, work))
            if trace and os.path.exists(summary):
                with open(summary) as fh:
                    summaries.append(json.load(fh))
            if step.contract:
                contract.append([step.key, failure])
            else:
                ops.append([step.key, secs, failure])
        wall = time.monotonic() - t0
        shutil.rmtree(work)
        return {"setup_s": setup_s, "wall_s": wall, "ops": ops,
                "contract": contract, "summaries": summaries}

    def expected(self, step, work):
        if step.digest is None:
            return None
        if step.digest == "ref":
            return self.reference["cli"].get(step.key, stats.MISSING)
        truth = os.path.join(work, step.digest.split(":", 1)[1])
        return _sha(workloads.expected_decompose_stdout(truth))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(runner: Runner, seconds: float, units: dict):
    setups = []
    for _ in range(SETUP_SAMPLES):
        setups.append(runner.setup_sample())
    passes = []
    t0 = time.monotonic()
    while True:
        p = runner.run_pass(trace=False)
        passes.append(p)
        setups.append(p["setup_s"])
        walls = [x["wall_s"] for x in passes]
        if time.monotonic() - t0 + statistics.median(walls) > seconds:
            break
    latencies = [lat for p in passes for _, lat, _ in p["ops"]]
    failures = [(key, why) for p in passes for key, _, why in p["ops"] if why]
    breaches = [(key, why) for p in passes for key, why in p["contract"]
                if why]
    probes = sum(len(p["contract"]) for p in passes)
    tail_value, tail_pct, n_ops = stats.tail(latencies)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (stats.median(setups), len(setups)),
        "wall_s": (stats.median(walls), len(walls)),
        "peak_rss_mb": (peak_kb / 1024.0, len(passes)),
    }
    attempted = n_ops + probes
    lines = [f"{name} = {v:.6g} {units[name]} (samples={k})"
             for name, (v, k) in metrics.items()]
    # op_p50_s and op_tail_s are printed, not declared: a sub-second
    # operation runs once per pass, and its time varies by up to 30% from
    # run to run on a shared host, more than any allowed bound
    lines.append(f"op_p50_s = {stats.median(latencies):.6g} s "
                 f"(samples={n_ops})")
    lines.append(f"op_tail_s = {tail_value:.6g} s (samples={n_ops})")
    lines.append(f"op_tail_s is p{tail_pct:.1f} of {n_ops} operations "
                 f"({stats.TAIL_BEYOND} beyond it)")
    lines.append(
        f"failed_ratio = {(len(failures) + len(breaches)) / attempted:.6g} "
        f"({len(failures)} wrong results + {len(breaches)} failure-contract "
        f"breaches of {attempted} operations attempted)")
    for key, why in failures + breaches:
        lines.append(f"FAILED {key}: {why.splitlines()[0]}")
    detail = {"passes": passes, "setup_samples": setups,
              "tail_percentile": tail_pct, "contract_breaches": breaches}
    values = {name: v for name, (v, _) in metrics.items()}
    return values, lines, detail, n_ops, len(failures)


def per_layer(runner: Runner):
    plain = runner.run_pass(trace=False)
    traced = runner.run_pass(trace=True)
    merged = merge_summaries(traced["summaries"])
    fn = merged["functions"]

    def calls(*names):
        return sum(fn.get(n, [0, 0, 0])[0] for n in names)

    def self_s(*names):
        return sum(fn.get(n, [0, 0, 0])[2] for n in names)

    m = {}
    for layer in tracer.LAYERS:
        rows = [v for k, v in fn.items() if k.startswith(layer + ".")]
        m[f"{layer}.self_s"] = sum(r[2] for r in rows)
        m[f"{layer}.calls"] = sum(r[0] for r in rows)
    cy = "cyclo.CycloNum."
    m["cyclo.mul_calls"] = calls(cy + "__mul__", cy + "__rmul__")
    m["cyclo.eq_calls"] = calls(cy + "__eq__")
    m["cyclo.inverse_calls"] = calls(cy + "inverse")
    m["cyclo.values_built"] = merged["values_built"]
    m["cyclo.max_conductor"] = merged["max_conductor"]
    m["cyclo.inflated_ratio"] = (merged["values_inflated"]
                                 / max(merged["values_in_ops"], 1))
    for layer in ("cyclo", "cocycle", "shuffle", "algebra"):
        entries, hits, misses = merged["caches"].get(layer, [0, 0, 0])
        m[f"{layer}.lru_entries"] = entries
        m[f"{layer}.lru_hit_ratio"] = hits / max(hits + misses, 1)
    m["cocycle.pentagon_report.self_s"] = self_s("cocycle.pentagon_report")
    m["cocycle.pentagon_report.calls"] = calls("cocycle.pentagon_report")
    m["cocycle.sigma_report.self_s"] = self_s("cocycle.sigma_report")
    m["bimodule.build_bimodule.self_s"] = self_s("bimodule.build_bimodule")
    m["bimodule.quasi_axiom_check.self_s"] = self_s(
        "bimodule.quasi_axiom_check")
    m["bimodule.quasi_axiom_check.calls"] = calls("bimodule.quasi_axiom_check")
    m["shuffle.cross_check.self_s"] = self_s("shuffle.QuiverAlgebra.cross_check")
    m["shuffle.cross_check.pairs"] = merged["cross_check_pairs"]
    m["shuffle.closed_form_product.self_s"] = self_s(
        "shuffle.QuiverAlgebra.closed_form_product")
    m["shuffle.closed_form_product.calls"] = calls(
        "shuffle.QuiverAlgebra.closed_form_product")
    m["algebra.build.self_s"] = self_s("algebra.build",
                                       "algebra.MajidAlgebra.build")
    m["algebra.verify_quasi_bialgebra.self_s"] = self_s(
        "algebra.verify_quasi_bialgebra")
    m["algebra.triples"] = merged["triples"]
    m["algebra.solve_antipode.self_s"] = self_s("algebra.solve_antipode")
    product_calls = calls("algebra.MajidAlgebra.product")
    m["algebra.product.calls"] = product_calls
    m["algebra.product.miss_ratio"] = (merged["product_misses"]
                                       / max(product_calls, 1))
    m["algebra.export_algebra.self_s"] = self_s("algebra.export_algebra")
    m["algebra.import_algebra.self_s"] = self_s("algebra.import_algebra")
    for name in ("decompose", "comodule_tensor", "tensor_consistency_check",
                 "fusion_data"):
        m[f"corep.{name}.self_s"] = self_s("corep." + name)
    m["corep.rank_profile.calls"] = calls("corep.CycleModule.rank_profile")
    m["corep.composite.calls"] = calls("corep.CycleModule.composite")
    imports = [s["import_s"] for s in traced["summaries"] if s["import_s"]]
    m["cli.import_s"] = stats.median(imports)
    for sub in SUBCOMMANDS:
        lat = [secs for key, secs, _ in plain["ops"]
               if key.split(" ", 1)[0] == sub]
        m[f"cli.{sub}.p50_s"] = stats.median(lat)
    m["cli.contract_breaches"] = sum(1 for _, why in traced["contract"] if why)
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    kept = sum(s["spans_kept"] for s in traced["summaries"])
    dropped = sum(s["spans_dropped"] for s in traced["summaries"])
    m["trace.spans"] = kept + dropped
    failures = [(key, why) for p in (plain, traced)
                for key, _, why in p["ops"] if why]
    n_ops = len(plain["ops"]) + len(traced["ops"])
    detail = {"untraced_wall_s": plain["wall_s"], "summary": merged,
              "spans_kept": kept, "spans_dropped": dropped}
    return m, detail, n_ops, failures


def merge_summaries(summaries):
    counters = ("values_built", "values_in_ops", "values_inflated",
                "triples", "product_misses", "cross_check_pairs")
    out = {"functions": {}, "max_conductor": 0, "caches": {},
           **{key: 0 for key in counters}}
    for s in summaries:
        for name, row in s["functions"].items():
            acc = out["functions"].setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for key in counters:
            out[key] += s[key]
        out["max_conductor"] = max(out["max_conductor"], s["max_conductor"])
        for layer, row in s["caches"].items():
            acc = out["caches"].setdefault(layer, [0, 0, 0])
            for i in range(3):
                acc[i] += row[i]
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mqg", "__init__.py")):
        print(f"error: no mqg sources under {SRC}; run from the root of "
              "a checkout of the repository", file=sys.stderr)
        return 2
    started = time.monotonic()
    runner = Runner(args.workload, args.seed, deadline=started + 175.0)
    units = _declared("per_layer" if args.trace else "end_to_end")
    try:
        if args.trace:
            metrics, detail, attempted, failures = per_layer(runner)
            for k, unit in units.items():
                print(f"{k} = {metrics[k]:.6g} {unit}")
            if detail["spans_dropped"]:
                print(f"span files truncated: {detail['spans_dropped']} of "
                      f"{metrics['trace.spans']} spans dropped beyond "
                      f"{tracer.SPAN_CAP} per process")
            for key, why in failures:
                print(f"FAILED {key}: {why.splitlines()[0]}")
            failed = len(failures)
        else:
            metrics, lines, detail, attempted, failed = end_to_end(
                runner, args.seconds, units)
            print("\n".join(lines))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)

    detail.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "env": PINNED_ENV, "order": "fixed (workloads.py)",
                   "elapsed_s": time.monotonic() - started})
    with open(os.path.join(
            OUT, f"result-{args.workload}-{args.seed}-{args.trace}.json"),
            "w") as fh:
        json.dump(detail, fh)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in units.items()},
    }))
    return 0


def _declared(kind: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares of this kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
