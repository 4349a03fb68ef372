"""Axiom verification of the Majid algebras M(n, s, q).

`verify_quasi_bialgebra` checks the quasi-bialgebra axioms on every
basis triple; quasi-associativity and the coproduct are numpy sweeps
over the integer encoding of mqg.majid.  numpy is imported at the top of
this module, so a process pays for it when it imports the sweeps, never
inside a timed call.  The algebra itself, the antipode, the family
enumerator and JSON import/export are defined in mqg.majid, which loads
no numpy; their public names are re-exported here.
"""
from __future__ import annotations

from .cyclo import CycloNum, _reduce_mod_phi
from .cocycle import pentagon_report
from . import majid
# re-exported, so mqg.algebra.X is mqg.majid.X
from .majid import (  # noqa: F401
    ClassificationEntry, MajidAlgebra, StructureError, TruncationError,
    _IntegerEncoding, admissible_truncations, build_truncated,
    classify, export_algebra, generation_check, import_algebra,
    solve_antipode)

import numpy as np

__all__ = [*majid.__all__, "verify_quasi_bialgebra"]


# the largest magnitude the integer sweeps hold in int64; above it they run
# on Python integers
_INT64_BOUND = 2 ** 63 - 1
# the most entries of one exponent array, which bounds the numpy temporaries
_CHUNK = 1 << 16


class _IntegerEngine(_IntegerEncoding):
    """The integer encoding of M with the numpy sweeps of its two heavy
    identities.  The checks of quasi-associativity and of the coproduct
    are numpy sweeps over the exponents of a range of lengths at a time;
    they return None or the first failing witness in basis loop order.
    The tables live on the instance, made for one call.
    """

    def __init__(self, M: MajidAlgebra):
        super().__init__(M)
        self._sweep = None

    def _tables(self):
        """(T, R).  T[a, b] is binom(a+b, a)_hbar reduced modulo Phi_N and
        padded to N entries, for a, b < 2d - 1 with a < d or b < d, and 0
        elsewhere.  R[y] is zeta_N^y reduced, so a vector v is zero iff
        v @ R is.  Both are int64 when every sum the sweeps form is
        bounded by _INT64_BOUND, else Python integers (dtype object)."""
        if self._sweep is None:
            d, N = self.d, self.N
            R = np.array([_reduce_mod_phi([int(x == y) for x in range(N)], N)
                          for y in range(N)], dtype=object)
            base = np.zeros((d, d, N), dtype=object)
            for a in range(d):
                for b in range(d - a):
                    low = _reduce_mod_phi(self.binomial(a, b), N)
                    base[a, b, :len(low)] = low
            # q-Lucas: when a < d or b < d, and the last base-d digits do
            # not carry, binom(a+b, a) = binom(a%d + b%d, a%d)
            a, b = np.indices((2 * d - 1, 2 * d - 1))
            T = base[a % d, b % d] * (((a < d) | (b < d))
                                      & ~self.vanishes(a, b))[..., None]
            # a verdict vector sums at most max(d, 2) products of reduced
            # binomials, each with at most phi(N) terms per entry
            top, rtop, phi_N = int(abs(base).max()), int(abs(R).max()), R.shape[1]
            bound = N * rtop * (max(d, 2) * phi_N * top * top + top)
            if bound <= _INT64_BOUND:
                T, R = T.astype(np.int64), R.astype(np.int64)
            self._sweep = T, R
        return self._sweep

    def _products(self, a, b):
        """Row by row, the products a[v] b[v] modulo x^N - 1 of reduced
        binomials, whose entries past the first phi(N) are 0."""
        N, phi_N = self.N, self._tables()[1].shape[1]
        # transposed, so that each step adds contiguous rows
        a, b = a[:, :phi_N].T.copy(), b[:, :phi_N].T.copy()
        out = np.zeros((max(N, 2 * phi_N - 1), a.shape[1]), dtype=a.dtype)
        for y in range(phi_N):
            out[y:y + phi_N] += a[y] * b
        out[:len(out) - N] += out[N:]
        return out[:N].T

    def _rotate(self, vecs, e):
        """Row by row, vecs[v] times zeta_N^e[v]."""
        N = self.N
        return np.take_along_axis(vecs, (np.arange(N) - e[:, None]) % N, axis=1)

    def _is_zero(self, vecs):
        """Row by row, whether vecs[v] is 0 modulo Phi_N."""
        return ~((vecs @ self._tables()[1]) != 0).any(axis=1)

    def _m_ranges(self, cost):
        """0..d-1 cut into ranges of m whose summed cost(m), the size of
        the exponent array over them, stays within _CHUNK entries (one m
        at least)."""
        m0 = 0
        while m0 < self.d:
            m1, size = m0 + 1, cost(m0)
            while m1 < self.d and size + cost(m1) <= _CHUNK:
                size, m1 = size + cost(m1), m1 + 1
            yield m0, m1
            m0 = m1

    def quasi_associativity(self):
        """Phi(sources) a(bc) = Phi(targets) (ab)c on all basis triples.

        With zeta^eL b1 on the left and zeta^eR b2 on the right, the
        identity holds iff b1 = zeta^(eR - eL) b2: within one triple of
        lengths its verdict is computed once per class of eR - eL mod N.
        A triple of lengths where both association orders of the
        q-trinomial vanish holds trivially and is skipped.
        """
        n, d, N = self.n, self.d, self.N
        E, phi_e, vanishes = self.E, self.phi_e, self.vanishes
        T = self._tables()[0]
        i, j, k = (np.arange(n).reshape(s) for s in
                   ((1, n, 1, 1), (1, 1, n, 1), (1, 1, 1, n)))
        for l in range(d):
            for m0, m1 in self._m_ranges(lambda m: d * n ** 3):
                # Z[zeta_N] has no zero divisors: a product of two
                # binomials vanishes iff one of them does
                ms, ts = np.meshgrid(np.arange(m0, m1), np.arange(d),
                                     indexing="ij")
                live = ~((vanishes(ms, ts) | vanishes(l, ms + ts))
                         & (vanishes(l, ms) | vanishes(l + ms, ts)))
                ms, ts = ms[live], ts[live]  # in loop order
                if not len(ms):
                    continue
                b1 = self._products(T[ms, ts], T[l, ms + ts])
                b2 = self._products(T[l, ms], T[l + ms, ts])
                m, t = ms[:, None, None, None], ts[:, None, None, None]
                eL = phi_e(i, j, k) + E(j, m, k, t) + E(i, l, (j + k) % n, m + t)
                eR = (phi_e((i + l) % n, (j + m) % n, (k + t) % n)
                      + E(i, l, j, m) + E((i + j) % n, l + m, k, t))
                keys = (np.arange(len(ms))[:, None, None, None] * N
                        + (eR - eL) % N).ravel()
                classes, inverse = np.unique(keys, return_inverse=True)
                row, delta = classes // N, classes % N
                ok = self._is_zero(b1[row] - self._rotate(b2[row], delta))
                if not ok.all():
                    p, a, b, c = np.unravel_index(
                        np.argmin(ok[inverse]), (len(ms), n, n, n))
                    return {"a": f"p({a},{l})", "b": f"p({b},{ms[p]})",
                            "c": f"p({c},{ts[p]})"}
        return None

    def coproduct(self):
        """The coproduct is an algebra map: for every split position r of
        the product p(i,l) p(j,m), the convolution of split coefficients
        reproduces the total coefficient (the q-Vandermonde identity).

        Both sides are rotated by -eC, the exponent of the total
        coefficient, so within one pair of lengths the verdict depends
        only on r and the rotated split exponents.  Each (m, r) group is
        decided once for the exponents of (i, j) = (0, 0), and once per
        distinct exponent row where some (i, j) differs from them.
        """
        n, d, N, E = self.n, self.d, self.N, self.E
        T = self._tables()[0]
        i, j = np.arange(n)[:, None, None], np.arange(n)[None, :, None]
        for l in range(d):
            for m0, m1 in self._m_ranges(lambda m: (l + 1) * (m + 1) * n * n):
                # the splits (m, r, k), k + u = r, sorted by m, r and k
                ms, ks, us = np.meshgrid(np.arange(m0, m1), np.arange(l + 1),
                                         np.arange(m1), indexing="ij")
                keep = us <= ms
                ms, ks, us = ms[keep], ks[keep], us[keep]
                order = np.lexsort((ks, ks + us, ms))
                ms, ks, us = ms[order], ks[order], us[order]
                rs = ks + us
                starts = np.flatnonzero(np.r_[True, (ms[1:] != ms[:-1])
                                              | (rs[1:] != rs[:-1])])
                e = (E((i + ks) % n, l - ks, (j + us) % n, ms - us)
                     + E(i, ks, j, us) - E(i, l, j, ms)) % N
                pairs = self._products(T[l - ks, ms - us], T[ks, us])
                total = T[l, ms[starts]]
                ok = np.empty((n, n, len(starts)), dtype=bool)
                ok[:, :] = self._is_zero(np.add.reduceat(
                    self._rotate(pairs, e[0, 0]), starts) - total)
                differs = np.logical_or.reduceat(
                    (e != e[0, 0]).any(axis=(0, 1)), starts)
                ends = np.r_[starts[1:], len(ms)]
                for g in np.flatnonzero(differs):
                    group = slice(starts[g], ends[g])
                    rows, inverse = np.unique(
                        e[:, :, group].reshape(n * n, -1), axis=0,
                        return_inverse=True)
                    sums = np.stack([self._rotate(pairs[group], row).sum(axis=0)
                                     for row in rows])
                    ok[:, :, g] = self._is_zero(sums - total[g]).reshape(
                        -1)[inverse.ravel()].reshape(n, n)
                if not ok.all():
                    # the first failing m, then (i, j, r) in loop order
                    m = ms[starts][~ok.all(axis=(0, 1))].min()
                    a, b, r = np.unravel_index(
                        np.argmin(ok[:, :, ms[starts] == m]), (n, n, l + m + 1))
                    return {"a": f"p({a},{l})", "b": f"p({b},{m})",
                            "split": int(r)}
        return None


def verify_quasi_bialgebra(M: MajidAlgebra) -> dict:
    """Exhaustive quasi-bialgebra check on the basis.

    Quasi-associativity on all basis triples with the graded
    reassociator, the unit law, the pentagon and normalization on
    group-likes, and multiplicativity of the coproduct and counit.  The
    report carries the first failing identity with a witness.
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

    # integer-vector engine for the two heavy identities
    engine = _IntegerEngine(M)
    for name, check in (("quasi-associativity", engine.quasi_associativity),
                        ("coproduct-multiplicative", engine.coproduct)):
        witness = check()
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
