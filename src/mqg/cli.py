"""Command-line entry point.

Subcommands: classify, build, verify, product, cocycle, indec, decompose,
tensor, fpdim, export.  Exit codes: 0 success; 1 verification or
structure failure, such as a dump that disagrees with its rebuilt
algebra; 2 usage or input error, such as a malformed file, a conductor
above MQG_MAX_CONDUCTOR, or that setting not being a positive integer.
No error ends in a traceback.  `--json` switches to machine-readable
output; all output is deterministic.  The parameter q is always given by
its exponent relative to the canonical primitive root (conductor n for
s = 0, n^2 otherwise).
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

# the layers are imported by the commands that use them, so a process
# loads only what its command needs; cyclo is enough for run() itself
from .cyclo import (ConductorLimitError, StructureError, max_conductor,
                    root_of_unity)

if TYPE_CHECKING:
    from .majid import MajidAlgebra

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _build_from_args(args) -> MajidAlgebra:
    from .cocycle import q_conductor

    # q first: a conductor above the bound exits before majid loads
    q = root_of_unity(q_conductor(args.n, args.s), args.q_exp)
    from .majid import MajidAlgebra

    return MajidAlgebra.build(args.n, args.s, q)


def _emit(args, doc: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(doc, sort_keys=True))
    else:
        print(human)


def cmd_classify(args) -> int:
    from .majid import classify

    entries = classify(args.n)
    if args.json:
        print(json.dumps([e.to_json() for e in entries], sort_keys=True))
    else:
        print(f"{'s':>3} {'q_exp':>6} {'conductor':>9} {'d':>4} {'dim':>5}"
              f" {'hopf':>5} {'trivial':>7}")
        for e in entries:
            print(f"{e.s:>3} {e.q_exp:>6} {e.conductor:>9} {e.d:>4} "
                  f"{e.dim:>5} {str(e.is_hopf):>5} "
                  f"{str(e.trivial_coradical):>7}")
    return 0


def cmd_build(args) -> int:
    M = _build_from_args(args)
    if args.export:
        from .majid import export_algebra

        with open(args.export, "w") as fh:
            fh.write(export_algebra(M, "json"))
    _emit(args, {"n": M.n, "s": M.s, "d": M.d, "dim": M.dim},
          f"M({M.n},{M.s},q) built: d = {M.d}, dimension = {M.dim}")
    return 0


def cmd_verify(args) -> int:
    from .majid import import_algebra

    if args.import_file:
        try:
            with open(args.import_file) as fh:
                M = import_algebra(fh.read())
        except StructureError as exc:
            _emit(args, {"passed": False, "error": str(exc)}, f"FAIL: {exc}")
            return VERIFY_ERROR
    else:
        M = _build_from_args(args)
    report = {"passed": True}
    if args.suite in ("bialgebra", "all"):
        # numpy loads with the sweeps, only for the suites that run them
        from .algebra import verify_quasi_bialgebra

        rep = verify_quasi_bialgebra(M)
        report["bialgebra"] = rep
        if not rep["passed"]:
            report["passed"] = False
    if report["passed"] and args.suite in ("antipode", "all"):
        try:
            M.antipode()  # an imported M solved it for the comparison
            report["antipode"] = {"passed": True}
        except StructureError as exc:
            report["antipode"] = {"passed": False, "error": str(exc)}
            report["passed"] = False
    _emit(args, report,
          "all checks passed" if report["passed"]
          else f"verification failed: {report}")
    return 0 if report["passed"] else VERIFY_ERROR


def cmd_product(args) -> int:
    from .quiver import parse_path

    M = _build_from_args(args)
    a = parse_path(args.left, M.n)
    b = parse_path(args.right, M.n)
    coeff, target = M.product(a, b)
    doc = {"coeff": coeff.to_json(),
           "target": str(target) if target is not None else None}
    _emit(args, doc, f"{a} . {b} = ({coeff}) * {target}"
          if target is not None else f"{a} . {b} = 0")
    return 0


def cmd_cocycle(args) -> int:
    from .cocycle import CocycleParams, pentagon_report, sigma_report

    params = CocycleParams.standard(args.n, args.s)
    report = {"passed": True}
    if args.check in ("pentagon", "all"):
        rep = pentagon_report(params)
        report["pentagon"] = rep
        report["passed"] &= rep["passed"]
    if args.check in ("sigma", "all"):
        rep = sigma_report(params)
        report["sigma"] = rep
        report["passed"] &= rep["passed"]
    report["passed"] = bool(report["passed"])
    print(json.dumps(report, sort_keys=True))
    return 0 if report["passed"] else VERIFY_ERROR


def cmd_indec(args) -> int:
    from . import corep

    mods = corep.indecomposables(args.n, args.d)
    if args.json:
        print(json.dumps(
            [{"top": I.top, "length": I.length,
              "module": I.realize().to_json()} for I in mods],
            sort_keys=True))
    else:
        for I in mods:
            print(f"{I}  dims = {list(I.dims())}")
        print(f"total: {len(mods)} indecomposables")
    return 0


def cmd_decompose(args) -> int:
    from . import corep

    with open(args.in_file) as fh:
        doc = json.load(fh)
    try:
        M = corep.CycleModule.from_json(doc)
        parts = corep.decompose(M)
    except corep.NotAComoduleError as exc:
        _emit(args, {"error": str(exc)}, f"not a comodule: {exc}")
        return VERIFY_ERROR
    _emit_summands(args, parts)
    return 0


def _emit_summands(args, parts: dict) -> None:
    """Emit a decomposition {(top, length): multiplicity}."""
    items = sorted(parts.items())
    _emit(args,
          {"summands": [{"top": i, "length": l, "mult": m}
                        for (i, l), m in items]},
          " + ".join(f"{m} x I({i},{l})" for (i, l), m in items) or "0")


def _load_algebra(path: str) -> MajidAlgebra:
    from .majid import import_algebra

    with open(path) as fh:
        return import_algebra(fh.read())


def cmd_tensor(args) -> int:
    from . import corep

    M = _load_algebra(args.alg)
    left = corep.parse_interval(args.left, M.n, M.d).realize()
    right = corep.parse_interval(args.right, M.n, M.d).realize()
    T = corep.comodule_tensor(M, left, right)
    _emit_summands(args, corep.decompose(T))
    return 0


def cmd_fpdim(args) -> int:
    from . import corep

    M = _load_algebra(args.alg)
    I = corep.parse_interval(args.object, M.n, M.d)
    F = corep.fusion_data(M)
    value, cert = corep.fp_dimension(F, I.simple_class())
    _emit(args, {"object": str(I), "fp_dimension": value, "certificate": cert},
          f"FPdim {I} = {value:.9f} (exact: {cert})")
    return 0


def cmd_export(args) -> int:
    from .majid import export_algebra

    M = _build_from_args(args)
    text = export_algebra(M, "json")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _emit(args, {"written": args.out}, f"wrote {args.out}")
    else:
        print(text)
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqg",
        description="finite-dimensional Majid algebras on the basic cycle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def family_flags(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--q-exp", dest="q_exp", type=int, required=True)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="enumerate all (s, q) families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("build", help="build M(n,s,q)")
    family_flags(p)
    p.add_argument("--export", help="also write the JSON dump here")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run the axiom suites")
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--q-exp", dest="q_exp", type=int)
    p.add_argument("--suite", choices=["bialgebra", "antipode", "all"],
                   default="all")
    p.add_argument("--import", dest="import_file",
                   help="verify a previously exported dump")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("product", help="multiply two basis paths")
    family_flags(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("cocycle", help="pentagon / 2-cocycle reports")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--check", choices=["pentagon", "sigma", "all"],
                   default="all")
    # the report is JSON either way; the flag is accepted like elsewhere
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cocycle)

    p = sub.add_parser("indec", help="list the indecomposable comodules")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_indec)

    p = sub.add_parser("decompose", help="decompose a cycle module")
    p.add_argument("--in", dest="in_file", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("tensor", help="tensor two intervals and decompose")
    p.add_argument("--alg", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("fpdim", help="Frobenius-Perron dimension")
    p.add_argument("--alg", required=True)
    p.add_argument("--object", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fpdim)

    p = sub.add_parser("export", help="dump a built algebra as JSON")
    family_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    return parser


def run(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if args.command == "verify" and not args.import_file:
        if args.n is None or args.s is None or args.q_exp is None:
            print("error: verify needs --n/--s/--q-exp or --import",
                  file=sys.stderr)
            return USAGE_ERROR
    try:
        max_conductor()  # an invalid MQG_MAX_CONDUCTOR is a usage error
        return args.func(args)
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except (ValueError, OSError, KeyError, ConductorLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
