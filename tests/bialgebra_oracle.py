"""The quasi-bialgebra axioms checked in CycloNum arithmetic.

An oracle for `mqg.algebra.verify_quasi_bialgebra`, which decides
quasi-associativity and the coproduct by sweeps over integer exponents
and the counit on the vertex pairs only: this module knows nothing of
that encoding.  It loops over every basis pair and triple with the
structure constants of a product callable, the reassociator of the
algebra and the deconcatenation coproduct, and returns a report of the
same form.
"""
from mqg.algebra import MajidAlgebra
from mqg.cocycle import pentagon_report
from mqg.cyclo import CycloNum
from mqg.quiver import Path


def comultiply(p: Path) -> list[tuple[Path, Path]]:
    """Splitting pairs of the path-coalgebra coproduct, unit coefficients."""
    n, i, l = p.cycle, p.source, p.length
    return [(Path(n, i + k, l - k), Path(n, i, k)) for k in range(l + 1)]


def counit(p: Path) -> int:
    return 1 if p.length == 0 else 0


def verify_quasi_bialgebra(M: MajidAlgebra, product=None) -> dict:
    """The report of `mqg.algebra.verify_quasi_bialgebra`, for the
    structure constants of `product` (M.product when None), a callable
    (a, b) -> (coefficient, target path or None)."""
    prod = product if product is not None else M.product
    checks = {}

    def fail(name, witness):
        checks[name] = False
        return {"passed": False, "checks": checks, "failed": name,
                "witness": witness}

    # unit law
    one = CycloNum.one()
    for p in M.basis:
        cl, tl = prod(M.unit, p)
        cr, tr = prod(p, M.unit)
        if tl != p or tr != p or cl != one or cr != one:
            return fail("unit", {"p": str(p)})
    checks["unit"] = True

    # pentagon + normalization on group-likes
    rep = pentagon_report(M.params)
    checks["pentagon"] = checks["normalization"] = rep["passed"]
    if not rep["passed"]:
        return fail(rep["reason"], {"counterexample": rep["counterexample"]})

    # quasi-associativity on basis triples: with deconcatenation legs the
    # reassociator survives only on the extreme splits, so the identity
    # collapses to  Phi(sources) a(bc) = Phi(targets) (ab)c.
    for a in M.basis:
        for b in M.basis:
            cab, tab = prod(a, b)
            for c in M.basis:
                cbc, tbc = prod(b, c)
                lhs = None
                if tbc is not None and not cbc.is_zero():
                    c2, t2 = prod(a, tbc)
                    if t2 is not None and not c2.is_zero():
                        lhs = (cbc * c2, t2)
                rhs = None
                if tab is not None and not cab.is_zero():
                    c2, t2 = prod(tab, c)
                    if t2 is not None and not c2.is_zero():
                        rhs = (cab * c2, t2)
                if lhs is None and rhs is None:
                    continue
                phi_src = M.phi_grouplike(a.source, b.source, c.source)
                phi_tgt = M.phi_grouplike(a.target, b.target, c.target)
                ok = (
                    lhs is not None
                    and rhs is not None
                    and lhs[1] == rhs[1]
                    and phi_src * lhs[0] == phi_tgt * rhs[0]
                )
                if not ok:
                    return fail(
                        "quasi-associativity",
                        {"a": str(a), "b": str(b), "c": str(c)},
                    )
    checks["quasi-associativity"] = True

    # coproduct is an algebra map: Delta(ab) = Delta(a) Delta(b)
    for a in M.basis:
        for b in M.basis:
            cab, tab = prod(a, b)
            lhs = {}
            if tab is not None and not cab.is_zero():
                for x, y in comultiply(tab):
                    lhs[(x, y)] = cab
            rhs = {}
            for a1, a2 in comultiply(a):
                for b1, b2 in comultiply(b):
                    c1, t1 = prod(a1, b1)
                    c2, t2 = prod(a2, b2)
                    if t1 is None or t2 is None:
                        continue
                    c12 = c1 * c2
                    if c12.is_zero():
                        continue
                    key = (t1, t2)
                    rhs[key] = rhs[key] + c12 if key in rhs else c12
            rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
            if set(lhs) != set(rhs) or any(lhs[k] != rhs[k] for k in lhs):
                return fail("coproduct-multiplicative",
                            {"a": str(a), "b": str(b)})
    checks["coproduct-multiplicative"] = True

    # the counit is multiplicative on every basis pair
    for a in M.basis:
        for b in M.basis:
            cab, tab = prod(a, b)
            eps = cab if tab is not None and tab.length == 0 else CycloNum.zero()
            want = one if a.length == 0 and b.length == 0 else CycloNum.zero()
            if eps != want:
                return fail("counit-multiplicative", {"a": str(a), "b": str(b)})
    checks["counit-multiplicative"] = True
    return {"passed": True, "checks": checks, "failed": None, "witness": None}
