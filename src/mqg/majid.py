"""Finite-dimensional graded Majid algebras on the basic cycle.

M(n, s, q) is the span of the paths p(i, l) with 0 <= i < n and
0 <= l < d, where d is the multiplicative order of the deformation
scalar hbar.  The multiplication is the closed product formula; the
truncation at length d is not imposed but emerges from the vanishing of
the Gaussian binomials, so M is genuinely closed under the ambient
product.  The algebra, its integer encoding at the conductor Q, the
antipode, the family enumerator and JSON import/export live here; this
module loads no numpy.  The axiom sweeps, which do, are in mqg.algebra.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from .cyclo import (
    CycloNum,
    StructureError,
    int_vec_zero_mod_phi,
    root_exponent,
    root_of_unity,
    rotate,
)
from .cocycle import (CocycleParams, legal_q_values, phi, phi_exponent,
                      q_conductor)
from .quiver import Path, PathVector
from .shuffle import QuiverAlgebra, _product_exponent

__all__ = ["MajidAlgebra", "ClassificationEntry", "StructureError",
           "TruncationError", "solve_antipode", "classify",
           "admissible_truncations", "build_truncated", "export_algebra",
           "import_algebra"]


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
        key = (a.source, a.length, b.source, b.length)
        hit = self._prod.get(key)
        if hit is None:
            hit = self._prod[key] = self._product(a, b)
        return hit

    def _product(self, a: Path, b: Path):
        """`product` without the memo."""
        if a.length >= self.d or b.length >= self.d:
            raise ValueError("factor outside the basis of M(n,s,q): "
                             f"lengths must be < d = {self.d}")
        if a.length + b.length >= self.d:
            return CycloNum.zero(), None
        return self.algebra.closed_form_product(a, b)

    def multiply(self, u: PathVector, v: PathVector) -> PathVector:
        out = PathVector(self.n)
        for a, ca in u.terms.items():
            for b, cb in v.terms.items():
                coeff, target = self.product(a, b)
                if target is not None:
                    out = out + PathVector(self.n, {target: coeff * (ca * cb)})
        return out

    def phi_grouplike(self, i: int, j: int, k: int) -> CycloNum:
        return phi(self.params, i, j, k)

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

    # -- integer encoding, at the family conductor Q = algebra.conductor ---
    # hbar = zeta_Q^algebra._hb and binomials are algebra.binomial; E,
    # phi_e and beta_e take integers or numpy arrays and read self.s,
    # which negative controls move.

    def E(self, i, l, j, m):
        """The exponent with coef(p(i,l) p(j,m)) = zeta_Q^E binom(l+m, l)_hbar
        for sources in 0..n-1: the one rule `shuffle._product_exponent`."""
        A = self.algebra
        return _product_exponent(self.n, self.s, A.conductor, A._hb,
                                 i, l, j, m)

    def phi_e(self, i, j, k):
        """Phi(g^i, g^j, g^k) = zeta_Q^phi_e, by `cocycle.phi_exponent`."""
        return (phi_exponent(CocycleParams(self.n, self.s), i, j, k)
                * (self.algebra.conductor // self.n))

    def beta_e(self, i):
        """beta(g^i) = 1/Phi(g^i, g^-i, g^i) = zeta_Q^beta_e."""
        return -self.phi_e(i, -i % self.n, i)

    def vanishes(self, l, m):
        """binom(l+m, l)_hbar = 0, for integers or numpy arrays: by q-Lucas,
        since hbar has order d, iff the base-d last digits carry."""
        return l % self.d + m % self.d >= self.d

    # -- antipode ----------------------------------------------------------

    def antipode(self):
        """Table p(i,l) -> (coefficient, p((n-i-l) mod n, l)); solved once."""
        if self._antipode is None:
            self._antipode = solve_antipode(self)
        return self._antipode


# ---------------------------------------------------------------------------
# quasi-antipode, on the integer encoding
# ---------------------------------------------------------------------------


def solve_antipode(M: MajidAlgebra) -> dict:
    """Solve S degree by degree, then verify every antipode identity.

    S(p(i,l)) = c_{i,l} p((n-i-l) mod n, l); the scalar at degree l is the
    unique solution of the first antipode equation restricted to p(i,l)
    (the group-like leg of the middle coproduct factor carries alpha).
    Each c_{i,l} is solved as a signed root of unity +-zeta_Q^a in the
    integer encoding at the family conductor Q.  Returns {(i, l):
    (coefficient, target path)}.
    """
    n, d, Q, E = M.n, M.d, M.algebra.conductor, M.E
    roots = _signed_roots(Q)
    by_value = {x: key for key, x in roots.items()}
    c = {(i, 0): (1, 0) for i in range(n)}
    for l in range(1, d):
        for i in range(n):
            # c_{i,l} coef(p(-(i+l),l) p(i,0)) = minus the terms k = 1..l,
            # and that coefficient is zeta_Q^E: binom(l, 0) = 1
            acc = _first_sum(M, c, i, l, range(1, l + 1))
            hit = by_value.get(CycloNum(Q, [-x for x in acc]))
            if hit is None:
                raise StructureError(
                    f"antipode coefficient at degree {l}, vertex {i} is not "
                    "a root of unity")
            c[(i, l)] = (hit[0], (hit[1] - E(-(i + l) % n, l, i, 0)) % Q)
    table = {
        (i, l): (roots[c[(i, l)]] if l else CycloNum.one(),
                 Path(n, -(i + l), l))
        for i in range(n)
        for l in range(d)
    }
    _verify_antipode(M, table)
    return table


def _signed_roots(Q: int) -> dict:
    """sign * zeta_Q^b as a CycloNum, keyed by (sign, b) for 0 <= b < Q.
    For even Q, -1 is a power of zeta_Q and the sign is always 1, so
    every value has exactly one key."""
    signs = (1,) if Q % 2 == 0 else (1, -1)
    return {(sg, b): CycloNum(Q, [0] * b + [sg] + [0] * (Q - 1 - b))
            for sg in signs for b in range(Q)}


def _first_sum(M: MajidAlgebra, c: dict, i: int, l: int, ks):
    """sum over k in ks of S(p(i+k,l-k)) p(i,k), for the signed exponents
    c of S: the coefficient vector on the common target p(-l, l)."""
    n, Q, E, binom = M.n, M.algebra.conductor, M.E, M.algebra.binomial
    acc = [0] * Q
    for k in ks:
        sg, a = c[((i + k) % n, l - k)]
        e = a + E(-(i + l) % n, l - k, i, k)
        for x, y in enumerate(rotate(binom(l - k, k), e)):
            acc[x] += sg * y
    return acc


def _second_sum(M: MajidAlgebra, c: dict, i: int, l: int, beta: bool):
    """sum over k of beta(g^(i+k)) p(i+k,l-k) S(p(i,k)), without beta when
    not `beta`: the coefficient vector on the common target p(0, l)."""
    n, Q, E, binom = M.n, M.algebra.conductor, M.E, M.algebra.binomial
    acc = [0] * Q
    for k in range(l + 1):
        sg, a = c[(i, k)]
        e = a + E((i + k) % n, l - k, -(i + k) % n, k)
        if beta:
            e += M.beta_e((i + k) % n)
        for x, y in enumerate(rotate(binom(l - k, k), e)):
            acc[x] += sg * y
    return acc


def _verify_antipode(M: MajidAlgebra, table: dict) -> None:
    """Raise StructureError unless `table` satisfies every antipode
    identity, checked on integer vectors and exponents."""
    n, Q, phi_e, beta_e = M.n, M.algebra.conductor, M.phi_e, M.beta_e

    by_value = {x: key for key, x in _signed_roots(Q).items()}
    c = {}
    for p in M.basis:
        i, l = p.source, p.length
        coeff, target = table[(i, l)]
        hit = by_value.get(coeff)
        if hit is None or target != Path(n, -(i + l), l):
            raise StructureError(
                f"antipode of {p} is not a signed root of unity times "
                f"p({-(i + l) % n},{l})")
        c[(i, l)] = hit

    def is_unit(acc, l, w=0):
        """acc is zeta_Q^w times the unit when l = 0, else zero."""
        if l == 0:
            acc[w % Q] -= 1
        return int_vec_zero_mod_phi(acc, Q)

    for p in M.basis:
        i, l = p.source, p.length
        # S(a1) alpha(a2) a3 = alpha(a) 1
        if not is_unit(_first_sum(M, c, i, l, range(l + 1)), l):
            raise StructureError(f"first antipode equation fails on {p}")
        # a1 beta(a2) S(a3) = beta(a) 1
        if not is_unit(_second_sum(M, c, i, l, True), l, beta_e(i)):
            raise StructureError(f"second antipode equation fails on {p}")
        # Phi(a1, S(a3), a5) beta(a2) alpha(a4) = eps(a)
        #   and Phi^{-1}(S(a1), a3, S(a5)) alpha(a2) beta(a4) = eps(a):
        # alpha and beta vanish off the vertices, so only l = 0, where all
        # five legs of the 4-fold coproduct are g^i, has a term
        if l == 0:
            sg, a = c[(i, 0)]
            first = (phi_e(i, -i % n, i) + a + beta_e(i)) % Q
            second = (-phi_e(-i % n, i, -i % n) + 2 * a + beta_e(i)) % Q
            if sg != 1 or first or second:
                raise StructureError(f"zigzag antipode equation fails on {p}")
        # coalgebra antimorphism: c_{i,k} c_{i+k,l-k} = c_{i,l}
        sg, a = c[(i, l)]
        for k in range(l + 1):
            sg1, a1 = c[(i, k)]
            sg2, a2 = c[((i + k) % n, l - k)]
            if sg1 * sg2 != sg or (a1 + a2 - a) % Q:
                raise StructureError(
                    f"antipode is not a coalgebra antimorphism at {p}")
    # s = 0 is an honest Hopf algebra: m(S (x) id)Delta = eta eps = m(id (x) S)Delta.
    # alpha is 1 on every vertex, so the left identity is the first antipode
    # equation, checked above; only the right one is new
    if M.s == 0:
        for p in M.basis:
            i, l = p.source, p.length
            if not is_unit(_second_sum(M, c, i, l, False), l):
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
            # with M.d < d generation dies: p(0, M.d) is unreachable, the
            # product p(0, M.d - 1) p(0, 1) already vanishes
    # all n legal q of each of the n values of s are rejected
    raise TruncationError(
        f"no consistent product on the length-{d} truncation for n={n}: "
        f"{n * n} families rejected"
    )


# ---------------------------------------------------------------------------
# JSON import/export
# ---------------------------------------------------------------------------


def export_algebra(M: MajidAlgebra, format: str = "dict"):
    """Complete structure dump; format "dict" or "json" (canonical
    string).  Each product is read once, so none is kept in the memo of
    `M.product`."""
    conductor = q_conductor(M.n, M.s)
    doc = {
        "n": M.n,
        "s": M.s,
        "q_exp": root_exponent(M.q, conductor),
        "conductor": conductor,
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
            for c, t in [M._product(a, b)]
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
    raise ValueError(f"unknown export format {format!r}")


def import_algebra(doc) -> MajidAlgebra:
    """Rebuild from the parameters and check the dump matches the
    rebuilt structure bit for bit."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError("malformed algebra document: not a JSON object")
    try:
        conductor, q_exp, n, s = (
            doc[key] for key in ("conductor", "q_exp", "n", "s"))
    except KeyError as exc:
        raise ValueError(
            f"malformed algebra document: missing key {exc}") from None
    # type, not isinstance: JSON true and false are not integers
    if not all(type(v) is int for v in (conductor, q_exp, n, s)):
        raise ValueError("malformed algebra document: conductor, q_exp, n "
                         "and s must be integers")
    # the rebuild and the export cost as much as the family the document
    # names, so a document too small for that family fails first
    disagrees = StructureError("imported document disagrees with the rebuilt algebra")
    d, dim, mult = doc.get("d"), doc.get("dim"), doc.get("mult")
    if not (type(d) is int and type(dim) is int and dim == n * d
            and type(mult) is list and len(mult) == dim * dim):
        raise disagrees
    M = MajidAlgebra.build(n, s, root_of_unity(conductor, q_exp))
    if M.d != d or export_algebra(M, "dict") != {**doc}:
        raise disagrees
    return M
