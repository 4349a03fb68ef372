"""Axiom verification of the Majid algebras M(n, s, q).

`verify_quasi_bialgebra` checks the quasi-bialgebra axioms on every
basis triple.  Every structure constant is a root of unity times a
Gaussian binomial in hbar, and the q-multinomial and q-Vandermonde
identities settle the binomials, so quasi-associativity and the
coproduct are numpy sweeps that decide on the integer exponents of the
algebra's one encoding at the family conductor Q (`MajidAlgebra.E`,
`phi_e`, `vanishes`), a range of lengths at a time, with q-Lucas
vanishing.  Only a coproduct split whose exponents disagree with
q-Vandermonde is summed exactly in Q(zeta_Q).  Each sweep returns None
or the first failing witness in basis loop order.

Each sweep takes the first source i in {0, 1} only, once `_source_count`
has checked the tables of E (lengths to 2d - 2) and phi_e affine mod Q
in their first source, E(i, .) = E(0, .) + i (E(1, .) - E(0, .)), with
n times the slope 0 mod Q.  Both slopes are multiples of Q/n, so this
holds for every family, and a substituted source such as (i + j) mod n
keeps an exponent affine in i.  Every exponent the sweeps compare is a
sum of such terms, and an affine exponent vanishes on 0..n-1 iff it
vanishes at 0 and 1, so the reduced sweeps decide the same identities.
Where the check fails, both sweeps run over every source, and a
coproduct chunk that flags a term is flagged again over every source.

numpy is imported at the top of this module, so a process pays for it
when it imports the sweeps, never inside a timed call.  The algebra
itself, the antipode, the family enumerator and JSON import/export are
defined in mqg.majid, which loads no numpy; their public names are
re-exported here.
"""
from __future__ import annotations

from .cyclo import CycloNum, rotate
from .cocycle import pentagon_report
from . import majid
# re-exported, so mqg.algebra.X is mqg.majid.X
from .majid import (  # noqa: F401
    ClassificationEntry, MajidAlgebra, StructureError, TruncationError,
    admissible_truncations, build_truncated, classify, export_algebra,
    import_algebra, solve_antipode)

import numpy as np

__all__ = [*majid.__all__, "verify_quasi_bialgebra"]


# the most entries of one exponent array, which bounds the numpy temporaries
_CHUNK = 1 << 16


def _m_ranges(d, cost):
    """0..d-1 cut into ranges of m whose summed cost(m), the size of the
    exponent array over them, stays within _CHUNK entries (one m at
    least)."""
    m0 = 0
    while m0 < d:
        m1, size = m0 + 1, cost(m0)
        while m1 < d and size + cost(m1) <= _CHUNK:
            size, m1 = size + cost(m1), m1 + 1
        yield m0, m1
        m0 = m1


def _source_count(M: MajidAlgebra) -> int:
    """How many first sources i each sweep takes: 2 if the tables of M.E
    (lengths to 2d - 2) and of M.phi_e are affine mod Q in their first
    source, else n.  n = 2 is not checked: range(2) is every source."""
    n, d, Q = M.n, M.d, M.algebra.conductor
    if n == 2:
        return 2
    i, lengths = np.arange(n), np.arange(2 * d - 1)
    tables = (M.E(i[:, None, None, None], lengths[:, None, None], i[:, None],
                  lengths),
              M.phi_e(i[:, None, None], i[:, None], i))
    return 2 if all(_affine(e, n, Q) for e in tables) else n


def _affine(e, n, Q):
    """Whether the table e, whose first axis is the source i in 0..n-1,
    is e(0) + i (e(1) - e(0)) mod Q with n (e(1) - e(0)) = 0 mod Q: then
    so is e((i + x) mod n) for any x."""
    i = np.arange(n).reshape((n,) + (1,) * (e.ndim - 1))
    slope = e[1] - e[0]
    return not ((n * slope) % Q).any() and not (
        (e - e[0] - i * slope) % Q).any()


def _quasi_associativity(M: MajidAlgebra):
    """Phi(sources) a(bc) = Phi(targets) (ab)c on all basis triples.

    With zeta^eL b1 on the left and zeta^eR b2 on the right, b1 =
    binom(m+t, m) binom(l+m+t, l) and b2 = binom(l+m, l)
    binom(l+m+t, l+m) are the same q-trinomial [l+m+t]! / ([l]! [m]!
    [t]!) at hbar.  Z[zeta_Q] has no zero divisors, so the identity
    holds iff b1 vanishes or eR = eL mod Q.  The first source of a runs
    over range(_source_count(M)): eR - eL is affine in it once the tables
    are, so a failure at any source is one at source 0 or 1 for the same
    (b, c), and the first witness is the same.
    """
    n, d, Q = M.n, M.d, M.algebra.conductor
    E, phi_e, vanishes = M.E, M.phi_e, M.vanishes
    count = _source_count(M)
    i = np.arange(count).reshape(1, count, 1, 1)
    j, k = np.arange(n).reshape(1, 1, n, 1), np.arange(n).reshape(1, 1, 1, n)
    for l in range(d):
        for m0, m1 in _m_ranges(d, lambda m: d * count * n * n):
            # the (m, t) in loop order where b1 does not vanish
            ms, ts = np.meshgrid(np.arange(m0, m1), np.arange(d),
                                 indexing="ij")
            live = ~(vanishes(ms, ts) | vanishes(l, ms + ts))
            ms, ts = ms[live], ts[live]
            m, t = ms[:, None, None, None], ts[:, None, None, None]
            eL = phi_e(i, j, k) + E(j, m, k, t) + E(i, l, (j + k) % n, m + t)
            eR = (phi_e((i + l) % n, (j + m) % n, (k + t) % n)
                  + E(i, l, j, m) + E((i + j) % n, l + m, k, t))
            fails = (eR - eL) % Q != 0
            if fails.any():
                p, a, b, c = np.unravel_index(np.argmax(fails), fails.shape)
                return {"a": f"p({a},{l})", "b": f"p({b},{ms[p]})",
                        "c": f"p({c},{ts[p]})"}
    return None


def _coproduct(M: MajidAlgebra):
    """The coproduct is an algebra map: for every split position r of
    the product p(i,l) p(j,m), the convolution of split coefficients
    reproduces the total coefficient.

    With u = r - k, q-Vandermonde reads binom(l+m, l) = sum_k
    hbar^((l-k)u) binom(k+u, k) binom(l+m-r, l-k), so a split holds
    when each term that does not vanish has the exponent e(k) =
    E((i+k)%n, l-k, (j+u)%n, m-u) + E(i,k,j,u) - E(i,l,j,m) equal to
    hb (l-k) u mod Q.  A split where some term disagrees is summed
    exactly by _split_holds.  The source i runs over
    range(_source_count(M)), where e(k) is affine in i; a chunk that
    flags a term is flagged again over every i, so _split_holds sees the
    same splits in the same order.
    """
    n, d, Q, hb = M.n, M.d, M.algebra.conductor, M.algebra._hb
    E, vanishes = M.E, M.vanishes
    count = _source_count(M)
    j = np.arange(n)[None, :, None]
    for l in range(d):
        for m0, m1 in _m_ranges(d, lambda m: (l + 1) * (m + 1) * count * n):
            # the terms (m, k, u), u <= m, of the splits r = k + u
            # that do not vanish
            ms, ks, us = np.meshgrid(np.arange(m0, m1), np.arange(l + 1),
                                     np.arange(m1), indexing="ij")
            keep = (us <= ms) & ~(vanishes(ks, us)
                                  | vanishes(l - ks, ms - us))
            ms, ks, us = ms[keep], ks[keep], us[keep]

            def flags(count):
                # the terms whose exponent disagrees, for i < count
                i = np.arange(count)[:, None, None]
                e = (E((i + ks) % n, l - ks, (j + us) % n, ms - us)
                     + E(i, ks, j, us) - E(i, l, j, ms))
                return (e - hb * (l - ks) * us) % Q != 0

            flagged = flags(count)
            if not flagged.any():
                continue
            if count < n:
                flagged = flags(n)
            # the flagged splits in loop order (m, i, j, r)
            fi, fj, v = np.nonzero(flagged)
            for m, a, b, r in sorted(set(zip(
                    ms[v].tolist(), fi.tolist(), fj.tolist(),
                    (ks + us)[v].tolist()))):
                if not _split_holds(M, a, l, b, m, r):
                    return {"a": f"p({a},{l})", "b": f"p({b},{m})",
                            "split": r}
    return None


def _split_holds(M: MajidAlgebra, i, l, j, m, r):
    """Whether the split r of p(i,l) p(j,m) sums to the total
    coefficient, exactly in Q(zeta_Q)."""
    n, Q, E, binom = M.n, M.algebra.conductor, M.E, M.algebra.binomial
    total = CycloNum.zero()
    for k in range(max(0, r - m), min(l, r) + 1):
        u = r - k
        e = E((i + k) % n, l - k, (j + u) % n, m - u) + E(i, k, j, u)
        total += (CycloNum(Q, rotate(binom(l - k, m - u), e))
                  * CycloNum(Q, binom(k, u)))
    return total == CycloNum(Q, rotate(binom(l, m), E(i, l, j, m)))


def verify_quasi_bialgebra(M: MajidAlgebra) -> dict:
    """Exhaustive quasi-bialgebra check on the basis.

    Quasi-associativity on all basis triples with the graded
    reassociator, the unit law, the pentagon and normalization on
    group-likes, and multiplicativity of the coproduct and counit.  The
    report carries the first failing identity with a witness.  Each
    sweep checks the exponent tables affine in the first source, and
    takes the first sources {0, 1} where they are and every first source
    where they are not: the same verdicts and witnesses as a sweep over
    every first source (see the module docstring).
    """
    n = M.n
    checks = {}

    def fail(name, witness):
        checks[name] = False
        return {"passed": False, "checks": checks, "failed": name,
                "witness": witness}

    # unit law
    one = CycloNum.one()
    for p in M.basis:
        cl, tl = M.product(M.unit, p)
        cr, tr = M.product(p, M.unit)
        if tl != p or tr != p or cl != one or cr != one:
            return fail("unit", {"p": str(p)})
    checks["unit"] = True

    # pentagon + normalization on group-likes
    rep = pentagon_report(M.params)
    checks["pentagon"] = checks["normalization"] = rep["passed"]
    if not rep["passed"]:
        return fail(rep["reason"], {"counterexample": rep["counterexample"]})

    # the exponent sweeps of the two heavy identities
    for name, check in (("quasi-associativity", _quasi_associativity),
                        ("coproduct-multiplicative", _coproduct)):
        witness = check(M)
        if witness is not None:
            return fail(name, witness)
    checks["quasi-associativity"] = True
    checks["coproduct-multiplicative"] = True

    # a product with a factor of positive length has a target of positive
    # length or none, so its counit is 0 as required: only the vertex
    # pairs can fail
    for a in M.basis[:n]:
        for b in M.basis[:n]:
            cab, tab = M.product(a, b)
            if tab is None or tab.length or cab != one:
                return fail("counit-multiplicative", {"a": str(a), "b": str(b)})
    checks["counit-multiplicative"] = True
    return {"passed": True, "checks": checks, "failed": None, "witness": None}
