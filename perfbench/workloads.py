"""The four workloads: their inputs, made from the seed, and their
operations with the check each operation's output must pass.

Contents are exhaustive ranges or seeded inputs taken from the
acceptance criteria; they may grow but never shrink, so that a speed-up
can never come from checking less.

- axioms:     criterion 06 order - quasi-bialgebra verification plus the
              solved antipode for every family with n = 2, 3, every
              M(4,0,q) and M(4,2,q), then the d = 16 family M(4,1,zeta_16).
- identities: criteria 01-04 - pentagon and sigma reports for all s,
              n <= 12; build + quasi-axiom check of every arrow bimodule,
              n <= 6; thin-split vs closed-form cross-check, n <= 4.
- comodules:  M(3,1,q), M(4,2,q), M(4,1,q) (q = zeta_{n^2}) in that order
              in one process: three interval tensors each (tensor,
              decompose, consistency) and the fusion data with FP
              dimensions, then seeded random modules of dimension 9
              decomposed against the generator's truth.
- cli:        a fixed mix of `mqg` processes over all ten subcommands,
              including the documented error cases; the seed makes the
              module files `decompose` reads.

Only `cli_commands` runs in the harness process; the other functions
run in a workload child and import mqg there.
"""
from __future__ import annotations

import hashlib
import json
import random

NAMES = ("axioms", "identities", "comodules", "cli")

RANDOM_MODULES = 8            # per algebra, each of total dimension 9
MODULE_DIM = 9
# tensor factors I(0, l1) (x) I(1, l2): fixed, because the cost of a
# decomposition varies by +-25% with the tops, which a seeded choice would
# turn into run-to-run spread
TENSOR_PAIRS = ((0, 2, 1, 3), (0, 3, 1, 4), (0, 4, 1, 5))
# (n, s, q_exp): q = zeta_{n^2}, fixed so that a seed changes the modules
# and tensor factors but not the cost of the arithmetic
COMODULE_FAMILIES = ((3, 1, 1), (4, 2, 1), (4, 1, 1))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def q_conductor(n: int, s: int) -> int:
    """Conductor of the canonical root q is given against (as in the CLI)."""
    return n if s == 0 else n * n


# ---------------------------------------------------------------------------
# library workloads (run in the workload child)
# ---------------------------------------------------------------------------


class Op:
    """One operation: `run()` is timed; its result is then checked either
    by `check(result)` (None when correct, else a reason) or, when
    `check` is None, by the digest of `run()`'s result against the
    reference recorded for `key`.  `prepare()`, if given, builds the
    operation's input just before it runs, outside the timed phase."""

    __slots__ = ("key", "conductor", "run", "check", "prepare")

    def __init__(self, key, conductor, run, check=None, prepare=None):
        self.key = key
        self.conductor = conductor
        self.run = run
        self.check = check
        self.prepare = prepare


def _families(n):
    from mqg import cocycle
    params = [cocycle.CocycleParams.standard(n, s) for s in range(n)]
    for p in params:
        for q in cocycle.legal_q_values(p):
            yield p.s, q


def _q_exp(n, s, q):
    N = q_conductor(n, s)
    k, e = q.as_root_of_unity()
    return e * (N // k) % N


def axioms_ops(seed: int):
    """Exhaustive; the seed does not change this workload.  The d = 16
    family is fixed because the eight of them differ in cost by up to 20%."""
    from mqg import algebra, cyclo

    def family_op(n, s, qe):
        M = algebra.MajidAlgebra.build(
            n, s, cyclo.root_of_unity(q_conductor(n, s), qe))

        def run():
            report = algebra.verify_quasi_bialgebra(M)
            table = algebra.solve_antipode(M)
            return {
                "report": report,
                "antipode": [[i, l, c.to_json(), str(t)]
                             for (i, l), (c, t) in sorted(table.items())],
            }
        return Op(f"axioms/{n},{s},{qe}", q_conductor(n, s), run)

    plan = [(n, s, _q_exp(n, s, q))
            for n in (2, 3) for s, q in _families(n)]
    plan += [(4, s, _q_exp(4, s, q))
             for s, q in _families(4) if s in (0, 2)]
    plan.append((4, 1, 1))  # M(4,1,zeta_16)
    return [family_op(*f) for f in plan]


def identities_ops(seed: int):
    """Exhaustive; the seed does not change this workload."""
    from mqg import bimodule, cocycle, shuffle

    ops = []
    for n in range(2, 13):
        for s in range(n):
            params = cocycle.CocycleParams.standard(n, s)
            ops.append(Op(f"pentagon/{n},{s}", n,
                          lambda p=params: cocycle.pentagon_report(p)))
            ops.append(Op(f"sigma/{n},{s}", n,
                          lambda p=params: cocycle.sigma_report(p)))

    def bimodule_run(params, q):
        bim = bimodule.build_bimodule(params, q)
        ok, failures = bimodule.quasi_axiom_check(bim, collect=True)
        if not ok:
            return {"ok": ok, "failures": failures}
        return {"ok": ok, "bimodule": bim.to_json()}

    for n in range(2, 7):
        for s, q in _families(n):
            params = cocycle.CocycleParams.standard(n, s)
            ops.append(Op(f"bimodule/{n},{s},{_q_exp(n, s, q)}",
                          q_conductor(n, s),
                          lambda p=params, q=q: bimodule_run(p, q)))

    def cross_run(n, s, q):
        A = shuffle.QuiverAlgebra.build(n, s, q)
        rep = A.cross_check(2 * A.hbar.mult_order())
        return {"passed": rep.passed, "pairs": rep.pairs_checked,
                "witness": rep.witness}

    for n in range(2, 5):
        for s, q in _families(n):
            ops.append(Op(f"cross_check/{n},{s},{_q_exp(n, s, q)}",
                          q_conductor(n, s),
                          lambda n=n, s=s, q=q: cross_run(n, s, q)))
    return ops


def comodules_ops(seed: int):
    """Per algebra, in order: the interval tensors and the fusion data;
    then, per algebra, the seeded random modules.

    What earlier work leaves in the global caches changes the cost of
    later arithmetic by up to 50%.  So the seeded part comes last, and
    its modules are generated just before each is decomposed (outside
    the timed phase) rather than during set-up; otherwise the cost of
    the fixed part would depend on the seed."""
    from mqg import algebra, cyclo

    rng = random.Random(seed)
    fixed, seeded = [], []
    for n, s, qe in COMODULE_FAMILIES:
        N = q_conductor(n, s)
        M = algebra.MajidAlgebra.build(n, s, cyclo.root_of_unity(N, qe))
        fixed += _tensor_ops(M, N, qe) + [_fusion_op(M, N, qe)]
        seeded += _random_module_ops(M, N, qe, rng)
    return fixed + seeded


def _tensor_ops(M, N, qe):
    from mqg import corep

    n, d, ops = M.n, M.d, []
    for a, l1, b, l2 in TENSOR_PAIRS:
        X = corep.IntervalModule(n, d, a, l1).realize()
        Y = corep.IntervalModule(n, d, b, l2).realize()
        key = f"tensor/{n},{M.s},{qe}/I({a},{l1})xI({b},{l2})"
        want_dims = tuple(sum(X.dims[i] * Y.dims[(v - i) % n]
                              for i in range(n)) for v in range(n))
        box = {}

        def tensor(X=X, Y=Y, box=box):
            box["T"] = corep.comodule_tensor(M, X, Y)
            return box["T"].dims

        def consistency(X=X, Y=Y, box=box):
            return corep.tensor_consistency_check(M, X, Y, box["T"])

        ops.append(Op(key + "/tensor", N, tensor,
                      lambda dims, want=want_dims: None if dims == want
                      else "tensor dimension vector"))
        ops.append(Op(key, N, lambda box=box: sorted(
            [i, l, m] for (i, l), m in corep.decompose(box["T"]).items())))
        ops.append(Op(key + "/consistency", N, consistency,
                      lambda ok: None if ok is True else "inconsistent"))
    return ops


def _fusion_op(M, N, qe):
    from mqg import corep

    n, d = M.n, M.d

    def fusion():
        F = corep.fusion_data(M)
        fp = [corep.fp_dimension(F, I.simple_class())
              for I in corep.indecomposables(n, d)]
        return F.matrices, fp

    def check(result):
        matrices, fp = result
        group_ring = [[[1 if r == (i + c) % n else 0 for c in range(n)]
                       for r in range(n)] for i in range(n)]
        if matrices != group_ring:
            return "fusion != Z[Z_n]"
        lengths = [ell for ell in range(1, d + 1) for _ in range(n)]
        for (value, cert), ell in zip(fp, lengths):
            if cert != ell or abs(value - cert) > 1e-9:
                return "FP dimension != interval length"
        return None
    return Op(f"fusion/{n},{M.s},{qe}", N, fusion, check)


def _random_module_ops(M, N, qe, rng):
    from mqg import corep

    n, d, ops = M.n, M.d, []
    for k in range(RANDOM_MODULES):
        box = {}

        def prepare(box=box):
            # the generator's size is random; keeping one size keeps the
            # cost of a pass independent of the seed
            while True:
                X, truth = corep.random_module(n, d, rng,
                                               max_total=MODULE_DIM)
                if X.total_dim() == MODULE_DIM:
                    box["X"], box["truth"] = X, truth
                    return

        ops.append(Op(f"random/{n},{M.s},{qe}/{k}", N,
                      lambda box=box: corep.decompose(box["X"]),
                      lambda parts, box=box: None if parts == box["truth"]
                      else "decomposition != truth",
                      prepare))
    return ops


LIBRARY_OPS = {"axioms": axioms_ops, "identities": identities_ops,
               "comodules": comodules_ops}


# ---------------------------------------------------------------------------
# cli workload (planned in the harness, run as `mqg` processes)
# ---------------------------------------------------------------------------

class Command:
    """One `mqg` process.  `expect` is the documented exit code; `digest`
    says how stdout is checked: "ref" (byte-exact against the reference,
    keyed by the argument string), "truth:<file>" (the decomposition the
    module generator recorded), or None (documented error cases, whose
    output format is not yet specified)."""

    __slots__ = ("argv", "expect", "digest", "conductor", "contract")

    def __init__(self, argv, expect=0, digest="ref", conductor=1,
                 contract=False):
        self.argv = argv
        self.expect = expect
        self.digest = digest
        self.conductor = conductor
        self.contract = contract

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def dump_name(n, s, qe) -> str:
    return f"a-{n}-{s}-{qe}.json"


TAMPERED = "bad-2-1.json"
BAD_MODULE = "bad-module.json"
CLI_MODULES = ((3, 3), (4, 4))  # (n, d) of the seeded decompose inputs


def cli_commands():
    """The ordered command list of one cli pass; the same for every seed.

    The algebras, products, tensors and objects are fixed, because their
    costs differ by up to 20% and a seeded choice would turn that into
    run-to-run spread; the seed only makes the module files that
    `decompose` reads (`prepare_cli_inputs`).  Steps are Command objects,
    or ("tamper", src, dst) for the harness to corrupt a dump between
    commands."""
    a21, a31 = dump_name(2, 1, 1), dump_name(3, 1, 1)
    a30, a41 = dump_name(3, 0, 1), dump_name(4, 1, 1)  # a41: d = 16

    def fam(n, s, qe):
        return ["--n", str(n), "--s", str(s), "--q-exp", str(qe)]

    return [
        Command(["classify", "--n", "3", "--json"], conductor=9),
        Command(["classify", "--n", "4", "--json"], conductor=16),
        Command(["cocycle", "--n", "6", "--s", "1"], conductor=6),
        Command(["cocycle", "--n", "8", "--s", "3"], conductor=8),
        Command(["indec", "--n", "3", "--d", "3", "--json"]),
        Command(["indec", "--n", "4", "--d", "4", "--json"]),
        Command(["build", *fam(2, 1, 1), "--export", a21, "--json"],
                conductor=4),
        Command(["build", *fam(3, 1, 1), "--export", a31, "--json"],
                conductor=9),
        Command(["export", *fam(3, 0, 1), "--out", a30, "--json"],
                conductor=3),
        Command(["export", *fam(4, 1, 1), "--out", a41, "--json"],
                conductor=16),
        Command(["verify", "--import", a21, "--json"], conductor=4),
        Command(["verify", "--import", a31, "--json"], conductor=9),
        Command(["verify", *fam(3, 2, 4), "--suite", "bialgebra",
                 "--json"], conductor=9),
        Command(["verify", *fam(4, 2, 5), "--json"], conductor=16),
        Command(["product", *fam(3, 2, 7), "p(2,3)", "p(1,4)", "--json"],
                conductor=9),
        Command(["product", *fam(4, 1, 5), "p(3,7)", "p(1,8)", "--json"],
                conductor=16),
        Command(["decompose", "--in", "module-0.json", "--json"],
                digest="truth:module-0.truth.json"),
        Command(["decompose", "--in", "module-1.json", "--json"],
                digest="truth:module-1.truth.json"),
        Command(["tensor", "--alg", a31, "--left", "I(0,2)",
                 "--right", "I(1,3)", "--json"], conductor=9),
        Command(["tensor", "--alg", a41, "--left", "I(0,2)",
                 "--right", "I(1,3)", "--json"], conductor=16),
        Command(["fpdim", "--alg", a21, "--object", "I(1,4)", "--json"],
                conductor=4),
        Command(["fpdim", "--alg", a30, "--object", "I(2,3)", "--json"],
                conductor=3),
        ("tamper", a21, TAMPERED),
        # control: a tampered dump already exits 1 cleanly
        Command(["verify", "--import", TAMPERED, "--json"], expect=1,
                conductor=4),
        # the failure contract: exit 2 for usage or input errors, exit 1
        # for structure failures, never a traceback
        Command(["build", *fam(120, 1, 1), "--json"], expect=2,
                digest=None, contract=True),
        Command(["tensor", "--alg", TAMPERED, "--left", "I(0,1)",
                 "--right", "I(1,1)", "--json"], expect=1, digest=None,
                conductor=4, contract=True),
        Command(["fpdim", "--alg", TAMPERED, "--object", "I(0,2)",
                 "--json"], expect=1, digest=None, conductor=4,
                contract=True),
        Command(["decompose", "--in", BAD_MODULE, "--json"], expect=2,
                digest=None, contract=True),
        Command(["product", *fam(2, 1, 1), "p(0,5)", "p(0,1)", "--json"],
                expect=2, digest=None, conductor=4, contract=True),
    ]


def tamper(src_path: str, dst_path: str) -> None:
    """Corrupt one structure constant of a dump (as tests/test_cli.py)."""
    with open(src_path) as fh:
        doc = json.load(fh)
    doc["mult"][3]["coeff"]["num"][0] += 1
    with open(dst_path, "w") as fh:
        json.dump(doc, fh)


def expected_decompose_stdout(truth_path: str) -> bytes:
    """What `mqg decompose --json` must print for a generated module."""
    with open(truth_path) as fh:
        truth = json.load(fh)
    summands = [{"top": i, "length": l, "mult": m}
                for i, l, m in sorted(truth)]
    return (json.dumps({"summands": summands}, sort_keys=True)
            + "\n").encode()


def prepare_cli_inputs(seed: int, directory: str) -> None:
    """Write the seeded module files (run in a child; imports mqg)."""
    import os

    from mqg import corep

    rng = random.Random(seed)
    for k, (n, d) in enumerate(CLI_MODULES):
        X, truth = corep.random_module(n, d, rng, max_total=9)
        with open(os.path.join(directory, f"module-{k}.json"), "w") as fh:
            json.dump(X.to_json(), fh)
        with open(os.path.join(directory, f"module-{k}.truth.json"),
                  "w") as fh:
            json.dump([[i, l, m] for (i, l), m in truth.items()], fh)
    with open(os.path.join(directory, BAD_MODULE), "w") as fh:
        json.dump({"n": 2, "d": 2, "dims": [1, 1], "arrows": 5}, fh)
