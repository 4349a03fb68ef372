"""Finite-dimensional graded Majid algebras on the basic cycle.

M(n, s, q) is the span of the paths p(i, l) with 0 <= i < n and
0 <= l < d, where d is the multiplicative order of the deformation
scalar hbar.  The multiplication is the closed product formula; the
truncation at length d is not imposed but emerges from the vanishing of
the Gaussian binomials, so M is genuinely closed under the ambient
product.  Axiom verification, quasi-antipode solving, the family
enumerator and JSON import/export all live here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from .cyclo import (
    CycloNum,
    cyclic_mul,
    int_vec_zero_mod_phi,
    root_exponent,
    root_of_unity,
    rotate,
)
from .cocycle import (
    CocycleParams,
    legal_q_values,
    pentagon_report,
    phi,
    q_conductor,
)
from .quiver import Path, PathVector, comultiply, parse_path
from .shuffle import QuiverAlgebra, _binomial_buckets

__all__ = [
    "MajidAlgebra",
    "ClassificationEntry",
    "StructureError",
    "TruncationError",
    "build",
    "verify_quasi_bialgebra",
    "solve_antipode",
    "classify",
    "admissible_truncations",
    "build_truncated",
    "export_algebra",
    "import_algebra",
]


class StructureError(RuntimeError):
    """The multiplication table is internally inconsistent (no antipode,
    broken closure, or a failed re-import)."""


class TruncationError(ValueError):
    """The requested truncation length admits no consistent product."""


class MajidAlgebra:
    """The algebra M(n, s, q): basis, products, reassociator, antipode."""

    def __init__(self, algebra: QuiverAlgebra):
        self.algebra = algebra
        self.params: CocycleParams = algebra.params
        self.n = algebra.n
        self.s = self.params.s
        self.q = algebra.q
        self.hbar = algebra.hbar
        d = self.hbar.mult_order()
        if d is None:
            raise StructureError("deformation scalar is not a root of unity")
        self.d = d
        self.dim = self.n * d
        self.basis = [Path(self.n, i, l) for l in range(d) for i in range(self.n)]
        self.unit = Path(self.n, 0, 0)
        self._prod = {}
        self._phi_g = {}
        self._antipode = None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, n: int, s: int, q: CycloNum) -> "MajidAlgebra":
        if n < 2:
            raise ValueError("cycle order n must be >= 2")
        return cls(QuiverAlgebra.build(n, s, q))

    # -- structure constants ----------------------------------------------

    def product(self, a: Path, b: Path):
        """(coefficient, target path or None) of a basis product.

        The coefficient on the length l+m target is exact in the ambient
        path algebra; it vanishes (target None) exactly when l+m >= d.
        """
        if a.length >= self.d or b.length >= self.d:
            raise ValueError("factor outside the basis of M(n,s,q): "
                             f"lengths must be < d = {self.d}")
        key = (a.source, a.length, b.source, b.length)
        hit = self._prod.get(key)
        if hit is not None:
            return hit
        if a.length + b.length >= self.d:
            out = (CycloNum.zero(), None)
        else:
            out = self.algebra.closed_form_product(a, b)
        self._prod[key] = out
        return out

    def multiply(self, u: PathVector, v: PathVector) -> PathVector:
        out = PathVector(self.n)
        for a, ca in u.terms.items():
            for b, cb in v.terms.items():
                coeff, target = self.product(a, b)
                if target is not None:
                    out = out + PathVector(self.n, {target: coeff * (ca * cb)})
        return out

    def phi_grouplike(self, i: int, j: int, k: int) -> CycloNum:
        key = (i % self.n, j % self.n, k % self.n)
        hit = self._phi_g.get(key)
        if hit is None:
            hit = phi(self.params, *key)
            self._phi_g[key] = hit
        return hit

    def reassociator(self, a: Path, b: Path, c: Path) -> CycloNum:
        """Graded reassociator: zero unless all three arguments are vertices."""
        if a.length or b.length or c.length:
            return CycloNum.zero()
        return self.phi_grouplike(a.source, b.source, c.source)

    def alpha(self, p: Path) -> CycloNum:
        return CycloNum.one() if p.length == 0 else CycloNum.zero()

    def beta(self, p: Path) -> CycloNum:
        """beta(g^i) = 1/Phi_s(g^i, g^-i, g^i); zero on higher degrees."""
        if p.length:
            return CycloNum.zero()
        return self.phi_grouplike(p.source, -p.source, p.source).inverse()

    # -- antipode ----------------------------------------------------------

    def antipode(self):
        """Table p(i,l) -> (coefficient, p((n-i-l) mod n, l)); solved once."""
        if self._antipode is None:
            self._antipode = solve_antipode(self)
        return self._antipode

    def antipode_vector(self, p: Path) -> PathVector:
        coeff, target = self.antipode()[(p.source, p.length)]
        return PathVector(self.n, {target: coeff})


def build(n: int, s: int, q: CycloNum) -> MajidAlgebra:
    return MajidAlgebra.build(n, s, q)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


def _fast_quasi_checks(M: MajidAlgebra):
    """Quasi-associativity on all basis triples and multiplicativity of
    the coproduct, entirely in integer arithmetic.

    Every structure constant is a root of unity times a product of
    Gaussian binomials; comparisons happen on integer coefficient
    vectors modulo x^N - 1 for the common conductor N, reduced modulo
    the cyclotomic polynomial, so the check is exact.  Returns None on
    success or (check-name, witness).
    """
    n, s, d = M.n, M.s, M.d
    N = d * n // gcd(d, n)  # d is the order of hbar
    hb_e = root_exponent(M.hbar, N)
    s_qq = s * (N // n)

    def E(i, l, j, m):
        # coef(p(i,l) p(j,m)) = zeta^E * binom(l+m, l)_hbar, j in 0..n-1
        return hb_e * j * l + s_qq * (i + l % n) * ((m + j) // n)

    def phi_e(i, j, k):
        return s_qq * i if j + k >= n else 0

    pairs = {}

    def pair(l1, m1, l2, m2):
        """binom(l1+m1, l1) binom(l2+m2, l2) at x^hb_e, mod x^N - 1."""
        key = (l1, m1, l2, m2)
        if key not in pairs:
            pairs[key] = cyclic_mul(_binomial_buckets(N, hb_e, l1, m1),
                                    _binomial_buckets(N, hb_e, l2, m2))
        return pairs[key]

    # quasi-associativity: Phi(sources) a(bc) = Phi(targets) (ab)c
    for l in range(d):
        for m in range(d):
            for t in range(d):
                # the two association orders of the q-trinomial coefficient
                b1 = pair(m, t, l, m + t)
                b2 = pair(l, m, l + m, t)
                if (int_vec_zero_mod_phi(b1, N)
                        and int_vec_zero_mod_phi(b2, N)):
                    continue
                same = b1 == b2 or int_vec_zero_mod_phi(
                    [x - y for x, y in zip(b1, b2)], N)
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            eL = (phi_e(i, j, k) + E(j, m, k, t)
                                  + E(i, l, (j + k) % n, m + t)) % N
                            eR = (phi_e((i + l) % n, (j + m) % n, (k + t) % n)
                                  + E(i, l, j, m)
                                  + E((i + j) % n, l + m, k, t)) % N
                            if same and eL == eR:
                                continue
                            diff = [
                                x - y
                                for x, y in zip(rotate(b1, eL), rotate(b2, eR))
                            ]
                            if int_vec_zero_mod_phi(diff, N):
                                continue
                            return ("quasi-associativity", {
                                "a": f"p({i},{l})", "b": f"p({j},{m})",
                                "c": f"p({k},{t})",
                            })

    # coproduct is an algebra map: for every split position r of the
    # product p(i,l) p(j,m), the convolution of split coefficients must
    # reproduce the total coefficient (the q-Vandermonde identity).
    for l in range(d):
        for m in range(d):
            cb = _binomial_buckets(N, hb_e, l, m)
            for i in range(n):
                for j in range(n):
                    eC = E(i, l, j, m) % N
                    target = rotate(cb, eC)
                    for r in range(l + m + 1):
                        acc = [0] * N
                        for k in range(max(0, r - m), min(l, r) + 1):
                            u = r - k
                            e = (E((i + k) % n, l - k, (j + u) % n, m - u)
                                 + E(i, k, j, u)) % N
                            rv = rotate(pair(l - k, m - u, k, u), e)
                            for x in range(N):
                                acc[x] += rv[x]
                        diff = [acc[x] - target[x] for x in range(N)]
                        if not int_vec_zero_mod_phi(diff, N):
                            return ("coproduct-multiplicative", {
                                "a": f"p({i},{l})", "b": f"p({j},{m})",
                                "split": r,
                            })
    return None


def verify_quasi_bialgebra(M: MajidAlgebra, product=None) -> dict:
    """Exhaustive quasi-bialgebra check on the basis.

    Quasi-associativity on all basis triples with the graded
    reassociator, the unit law, the pentagon and normalization on
    group-likes, and multiplicativity of the coproduct and counit.
    An alternative `product` callable may be injected (negative
    controls); the report carries the first failing identity with a
    witness.
    """
    prod = product if product is not None else M.product
    n, d = M.n, M.d
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

    if product is None:
        # integer-vector engine for the two heavy identities
        hit = _fast_quasi_checks(M)
        if hit is not None:
            return fail(*hit)
        checks["quasi-associativity"] = True
        checks["coproduct-multiplicative"] = True
        return _finish_counit(M, prod, checks, fail)

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
    return _finish_counit(M, prod, checks, fail)


def _finish_counit(M: MajidAlgebra, prod, checks, fail):
    one = CycloNum.one()
    for a in M.basis:
        for b in M.basis:
            cab, tab = prod(a, b)
            eps = cab if tab is not None and tab.length == 0 else CycloNum.zero()
            want = one if a.length == 0 and b.length == 0 else CycloNum.zero()
            if eps != want:
                return fail("counit-multiplicative", {"a": str(a), "b": str(b)})
    checks["counit-multiplicative"] = True
    return {"passed": True, "checks": checks, "failed": None, "witness": None}


# ---------------------------------------------------------------------------
# quasi-antipode
# ---------------------------------------------------------------------------


def solve_antipode(M: MajidAlgebra) -> dict:
    """Solve S degree by degree, then verify every antipode identity.

    S(p(i,l)) = c_{i,l} p((n-i-l) mod n, l); the scalar at degree l is the
    unique solution of the first antipode equation restricted to p(i,l)
    (the group-like leg of the middle coproduct factor carries alpha).
    Returns {(i, l): (coefficient, target path)}.
    """
    n, d = M.n, M.d
    one = CycloNum.one()
    c = {(i, 0): one for i in range(n)}
    for l in range(1, d):
        for i in range(n):
            # sum_{k=0}^{l} c_{i+k,l-k} coef(p(-(i+l),l-k) * p(i,k)) = 0
            acc = CycloNum.zero()
            for k in range(1, l + 1):
                coeff, target = M.product(
                    Path(n, -(i + l), l - k), Path(n, i, k)
                )
                assert target is not None
                acc = acc + c[((i + k) % n, l - k)] * coeff
            pivot, _ = M.product(Path(n, -(i + l), l), Path(n, i, 0))
            if pivot.is_zero():
                raise StructureError(
                    f"antipode pivot vanishes at degree {l}, vertex {i}"
                )
            c[(i, l)] = -(acc / pivot)
    table = {
        (i, l): (c[(i, l)], Path(n, -(i + l), l))
        for i in range(n)
        for l in range(d)
    }
    _verify_antipode(M, table)
    return table


def _verify_antipode(M: MajidAlgebra, table: dict) -> None:
    n, d = M.n, M.d
    one = CycloNum.one()
    unit_vec = PathVector.monomial(M.unit)

    def s_vec(p: Path) -> PathVector:
        coeff, target = table[(p.source, p.length)]
        return PathVector(n, {target: coeff})

    for p in M.basis:
        i, l = p.source, p.length
        # S(a1) alpha(a2) a3 = alpha(a) 1
        acc = PathVector(n)
        for k in range(l + 1):
            acc = acc + M.multiply(
                s_vec(Path(n, i + k, l - k)), PathVector.monomial(Path(n, i, k))
            )
        want = unit_vec if l == 0 else PathVector(n)
        if acc != want:
            raise StructureError(f"first antipode equation fails on {p}")
        # a1 beta(a2) S(a3) = beta(a) 1
        acc = PathVector(n)
        for k in range(l + 1):
            acc = acc + M.multiply(
                PathVector.monomial(Path(n, i + k, l - k)), s_vec(Path(n, i, k))
            ).scale(M.beta(Path(n, i + k, 0)))
        want = unit_vec.scale(M.beta(p)) if l == 0 else PathVector(n)
        if acc != want:
            raise StructureError(f"second antipode equation fails on {p}")
        # Phi(a1, S(a3), a5) beta(a2) alpha(a4) = eps(a)
        #   and Phi^{-1}(S(a1), a3, S(a5)) alpha(a2) beta(a4) = eps(a),
        # summed over the 4-fold coproduct with the graded vanishing rules.
        first = CycloNum.zero()
        second = CycloNum.zero()
        for k1 in range(l + 1):
            for k2 in range(k1 + 1):
                for k3 in range(k2 + 1):
                    for k4 in range(k3 + 1):
                        legs = (
                            Path(n, i + k1, l - k1),
                            Path(n, i + k2, k1 - k2),
                            Path(n, i + k3, k2 - k3),
                            Path(n, i + k4, k3 - k4),
                            Path(n, i, k4),
                        )
                        if any(q.length for q in legs):
                            continue
                        sa1 = table[(legs[0].source, 0)]
                        sa3 = table[(legs[2].source, 0)]
                        sa5 = table[(legs[4].source, 0)]
                        first = first + M.phi_grouplike(
                            legs[0].source, sa3[1].source, legs[4].source
                        ) * (sa3[0] * M.beta(legs[1])) * M.alpha(legs[3])
                        second = second + M.phi_grouplike(
                            sa1[1].source, legs[2].source, sa5[1].source
                        ).inverse() * (
                            (sa1[0] * sa5[0])
                            * (M.alpha(legs[1]) * M.beta(legs[3]))
                        )
        eps = one if l == 0 else CycloNum.zero()
        if first != eps or second != eps:
            raise StructureError(f"zigzag antipode equation fails on {p}")
        # coalgebra antimorphism: c_{i,k} c_{i+k,l-k} = c_{i,l}
        for k in range(l + 1):
            if table[(i, k)][0] * table[((i + k) % n, l - k)][0] != \
                    table[(i, l)][0]:
                raise StructureError(f"antipode is not a coalgebra antimorphism at {p}")
    # s = 0 is an honest Hopf algebra: m(S (x) id)Delta = eta eps = m(id (x) S)Delta
    if M.s == 0:
        for p in M.basis:
            i, l = p.source, p.length
            left = PathVector(n)
            right = PathVector(n)
            for k in range(l + 1):
                a1 = Path(n, i + k, l - k)
                a2 = Path(n, i, k)
                left = left + M.multiply(s_vec(a1), PathVector.monomial(a2))
                right = right + M.multiply(PathVector.monomial(a1), s_vec(a2))
            want = unit_vec if l == 0 else PathVector(n)
            if left != want or right != want:
                raise StructureError(f"Hopf antipode identity fails on {p}")


# ---------------------------------------------------------------------------
# classification of the parameter grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationEntry:
    n: int
    s: int
    q_exp: int
    conductor: int
    d: int
    dim: int
    is_hopf: bool
    trivial_coradical: bool  # d = 1: the bare group algebra

    def to_json(self) -> dict:
        return {
            "n": self.n, "s": self.s, "q_exp": self.q_exp,
            "conductor": self.conductor, "d": self.d, "dim": self.dim,
            "is_hopf": self.is_hopf,
            "trivial_coradical": self.trivial_coradical,
        }


def classify(n: int) -> list[ClassificationEntry]:
    """All n^2 families (s, q) for the cycle of order n with their
    truncation length d and dimension n d; s = 0 entries are Hopf."""
    if n < 2:
        raise ValueError("cycle order n must be >= 2")
    out = []
    for s in range(n):
        params = CocycleParams.standard(n, s)
        for q in legal_q_values(params):
            M = MajidAlgebra.build(n, s, q)
            conductor = q_conductor(n, s)
            out.append(ClassificationEntry(
                n=n, s=s, q_exp=root_exponent(q, conductor),
                conductor=conductor, d=M.d, dim=M.dim,
                is_hopf=(s == 0), trivial_coradical=(M.d == 1),
            ))
    return out


def admissible_truncations(n: int) -> set[int]:
    """The lengths d at which the truncated cycle coalgebra carries a
    consistent graded product: divisors of n (s = 0 families) together
    with n^2/gcd(s, n^2) for 1 <= s < n."""
    from math import gcd
    out = {d for d in range(1, n + 1) if n % d == 0}
    out |= {n * n // gcd(s, n * n) for s in range(1, n)}
    return out


def build_truncated(n: int, d: int) -> MajidAlgebra:
    """Build some M(n, s, q) whose truncation length is exactly d.

    Raises TruncationError when no family fits: for every legal (s, q)
    either the length-d closure fails (a Gaussian binomial with l, m < d
    <= l+m survives) or the algebra generated by the vertex and the
    arrow dies before reaching length d.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    witnesses = []
    for s in range(n):
        params = CocycleParams.standard(n, s)
        for q in legal_q_values(params):
            M = MajidAlgebra.build(n, s, q)
            if M.d == d:
                return M
            if M.d > d:
                # closure at d fails: binom(d, 1) is a nonzero q-integer
                coeff, _ = M.product(Path(n, 0, d - 1), Path(n, 0, 1))
                assert not coeff.is_zero()
                witnesses.append(
                    {"s": s, "q": q.to_json(), "reason": "closure",
                     "l": d - 1, "m": 1, "coeff": coeff.to_json()}
                )
            else:
                # generation dies: p(0, M.d) is unreachable, the product
                # p(0, M.d - 1) p(0, 1) already vanishes
                witnesses.append(
                    {"s": s, "q": q.to_json(), "reason": "generation",
                     "dies_at": M.d}
                )
    raise TruncationError(
        f"no consistent product on the length-{d} truncation for n={n}: "
        f"{len(witnesses)} families rejected"
    )


def generation_check(M: MajidAlgebra) -> bool:
    """The vertex g and the arrow X_1 generate the whole basis: left
    powers of X_1 reach p(0, l) and left multiplication by g shifts the
    source through every vertex."""
    n = M.n
    g = PathVector.monomial(Path(n, 1, 0))
    reached = set()
    acc = PathVector.monomial(M.unit)
    x1 = PathVector.monomial(Path(n, 0, 1))
    for l in range(M.d):
        if l:
            acc = M.multiply(acc, x1)
            if acc.is_zero():
                return False
        shifted = acc
        for _ in range(n):
            for p in shifted.terms:
                reached.add((p.source, p.length))
            shifted = M.multiply(g, shifted)
    return len(reached) == M.dim


# ---------------------------------------------------------------------------
# JSON import/export
# ---------------------------------------------------------------------------


def export_algebra(M: MajidAlgebra, format: str = "dict"):
    """Complete structure dump; format "dict", "json" (canonical string)
    or "pretty" (indented string)."""
    doc = {
        "n": M.n,
        "s": M.s,
        "q_exp": _canonical_q_exp(M)[0],
        "conductor": _canonical_q_exp(M)[1],
        "d": M.d,
        "dim": M.dim,
        "basis": [str(p) for p in M.basis],
        "mult": [
            {
                "a": str(a), "b": str(b),
                "c": str(t) if t is not None else None,
                "coeff": c.to_json(),
            }
            for a in M.basis for b in M.basis
            for c, t in [M.product(a, b)]
        ],
        "antipode": [
            {"a": f"p({i},{l})", "image": str(t), "coeff": c.to_json()}
            for (i, l), (c, t) in sorted(M.antipode().items(),
                                         key=lambda kv: (kv[0][1], kv[0][0]))
        ],
        "alpha": [{"g": f"g^{i}", "value": M.alpha(Path(M.n, i, 0)).to_json()}
                  for i in range(M.n)],
        "beta": [{"g": f"g^{i}", "value": M.beta(Path(M.n, i, 0)).to_json()}
                 for i in range(M.n)],
        "phi_s_on_grouplikes": [
            {"i": i, "j": j, "k": k,
             "value": M.phi_grouplike(i, j, k).to_json()}
            for i in range(M.n) for j in range(M.n) for k in range(M.n)
        ],
    }
    if format == "dict":
        return doc
    if format == "json":
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if format == "pretty":
        return json.dumps(doc, sort_keys=True, indent=2)
    raise ValueError(f"unknown export format {format!r}")


def _canonical_q_exp(M: MajidAlgebra) -> tuple[int, int]:
    conductor = q_conductor(M.n, M.s)
    return root_exponent(M.q, conductor), conductor


def import_algebra(doc) -> MajidAlgebra:
    """Rebuild from the parameters and check the dump matches the
    rebuilt structure bit for bit."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    q = root_of_unity(doc["conductor"], doc["q_exp"])
    M = MajidAlgebra.build(doc["n"], doc["s"], q)
    if export_algebra(M, "dict") != {**doc}:
        raise StructureError("imported document disagrees with the rebuilt algebra")
    return M
