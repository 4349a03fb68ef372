"""3-cocycles on the cyclic group, derived 2-cocycles and the twisted
group algebra with the scalars of its one-dimensional modules.

The primitive n-th root qq is pinned to zeta_n, so every (s, q) family is
reproducible bit for bit.  The 3-cocycle value at (g^i, g^j, g^k) is
qq^(s*i*(j+k-(j+k)')/n) with representatives taken in 0..n-1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cyclo import CycloNum, cached_mul, root_of_unity

__all__ = [
    "CocycleParams",
    "phi",
    "phi_exponent",
    "pentagon_report",
    "sigma",
    "sigma_report",
    "twisted_power",
    "legal_q_values",
    "q_conductor",
    "action_scalar",
]


@dataclass(frozen=True)
class CocycleParams:
    n: int
    s: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("cycle order n must be >= 2")
        if not 0 <= self.s < self.n:
            raise ValueError("need 0 <= s <= n-1")

    @property
    def qq(self) -> CycloNum:  # the fixed primitive n-th root of unity
        return root_of_unity(self.n)

    @classmethod
    def standard(cls, n: int, s: int) -> "CocycleParams":
        return cls(n, s)


def phi(params: CocycleParams, i: int, j: int, k: int) -> CycloNum:
    """Phi_s(g^i, g^j, g^k); arguments are reduced mod n first."""
    return _qq_power(params, phi_exponent(params, i, j, k))


def phi_exponent(params: CocycleParams, i: int, j: int, k: int) -> int:
    """The e in 0..n-1 with Phi_s(g^i, g^j, g^k) = qq^e, namely
    s*i*carry(j, k) mod n; arguments are reduced mod n first."""
    n = params.n
    i, j, k = i % n, j % n, k % n
    return params.s * i * ((j + k) // n) % n  # (j + k) // n: carry, 0 or 1


def _qq_power(params: CocycleParams, e: int) -> CycloNum:
    return params.qq ** (e % params.n)


def sigma(params: CocycleParams, i: int, j: int) -> CycloNum:
    """The derived 2-cocycle sigma_s(g^i, g^j), five-factor ratio."""
    n = params.n
    if not (0 <= i <= n - 1 and 0 <= j <= n - 1):
        raise ValueError("sigma expects representatives in 0..n-1")
    num = cached_mul(
        cached_mul(phi(params, i, j, 1), phi(params, i + j, -j, -i)),
        phi(params, i, j + 1, -j),
    )
    den = cached_mul(phi(params, i + j + 1, -j, -i), phi(params, i, j, -j))
    return num / den


def pentagon_report(params: CocycleParams, phi_table=None) -> dict:
    """Exhaustive pentagon identity and normalization check.

    Every Phi value is a power of qq, so each identity is decided on the
    integer exponents e(i, j, k) mod n, with no cyclotomic product.
    phi_table optionally overrides the cocycle with an explicit exponent
    table {(i, j, k): e} (used for negative controls).

    The pentagon is swept over the first sources i in
    range(_source_count(e, n)): {0, 1} when the table is affine in i,
    e(i) = e(0) + i (e(1) - e(0)) mod n, as e = s i carry(j, k) is, else
    every i.  This is exact: n times the slope is 0 mod n, so
    e((i + j) mod n, k, l) is affine in i as well, every pentagon
    exponent is then affine in i, and an affine exponent vanishes for
    every i iff it vanishes at i = 0 and i = 1.  As i is the outermost
    loop and a failure at any i implies one at i = 0 or 1 for the same
    (j, k, l), the first witness in loop order is unchanged.
    """
    n = params.n
    if phi_table is None:
        e = [[[phi_exponent(params, i, j, k) for k in range(n)]
              for j in range(n)] for i in range(n)]
    else:
        e = [[[phi_table[(i, j, k)] % n for k in range(n)] for j in range(n)]
             for i in range(n)]
    # normalization Phi(a, 1, b) = eps(a) eps(b)
    for i in range(n):
        for k in range(n):
            if e[i][0][k]:
                return {"passed": False, "counterexample": [i, 0, k, None],
                        "reason": "normalization"}
    # Phi(i, j, k+l) Phi(i+j, k, l) = Phi(j, k, l) Phi(i, j+k, l) Phi(i, j, k),
    # one row over l per (i, j, k)
    for i in range(_source_count(e, n)):
        for j in range(n):
            e_ij = e[i][j]
            for k in range(n):
                c = e_ij[k]
                rows = zip(e_ij[k:] + e_ij[:k], e[(i + j) % n][k], e[j][k],
                           e[i][(j + k) % n])
                for l, (a, b, x, y) in enumerate(rows):
                    if (a + b - x - y - c) % n:
                        return {"passed": False,
                                "counterexample": [i, j, k, l],
                                "reason": "pentagon"}
    return {"passed": True, "counterexample": None}


def _source_count(e, n: int) -> int:
    """How many first sources i the pentagon sweeps: 2 if the exponent
    table e[i][j][k] (entries in 0..n-1) is affine mod n in i, else n."""
    for i in range(2, n):
        for r0, r1, ri in zip(e[0], e[1], e[i]):
            if [(a + i * (b - a)) % n for a, b in zip(r0, r1)] != ri:
                return n
    return 2


def sigma_report(params: CocycleParams) -> dict:
    """Exhaustive 2-cocycle identity for sigma_s, plus consistency of the
    iterated twisted products of g with the twisted-power scalar."""
    n = params.n
    sg = [[sigma(params, i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = cached_mul(sg[i][j], sg[(i + j) % n][k])
                rhs = cached_mul(sg[j][k], sg[i][(j + k) % n])
                if lhs != rhs:
                    return {"passed": False, "counterexample": [i, j, k],
                            "reason": "2-cocycle"}
    cum = CycloNum.one()
    for i in range(2, n + 1):
        cum = cached_mul(cum, sg[(i - 1) % n][1])
        if cum != twisted_power(params, i):
            return {"passed": False, "counterexample": [i],
                    "reason": "twisted-power"}
    return {"passed": True, "counterexample": None}


def twisted_power(params: CocycleParams, i: int) -> CycloNum:
    """Scalar c with g^(*i) = c g^i, namely qq^(-(i-1)s)."""
    if not 1 <= i <= params.n:
        raise ValueError("twisted_power expects 1 <= i <= n")
    return _qq_power(params, -(i - 1) * params.s)


def legal_q_values(params: CocycleParams) -> list[CycloNum]:
    """The admissible q parameters for the (n, s) family.

    s != 0: the n-th roots of qq, i.e. zeta_{n^2}^{1+kn} (all primitive of
    order n^2).  s = 0: all n-th roots of unity.
    """
    n = params.n
    if params.s != 0:
        return [root_of_unity(n * n, 1 + k * n) for k in range(n)]
    return [root_of_unity(n, t) for t in range(n)]


def q_conductor(n: int, s: int) -> int:
    """The conductor of the legal q values of the (n, s) family: n for
    s = 0, else n^2."""
    return n if s == 0 else n * n


def action_scalar(params: CocycleParams, q: CycloNum) -> CycloNum:
    """The module scalar lam for parameter q: q^s for s != 0, q for s = 0."""
    check_q_legal(params, q)
    return q**params.s if params.s != 0 else q


def check_q_legal(params: CocycleParams, q: CycloNum) -> None:
    if params.s != 0:
        if q**params.n != params.qq:
            raise ValueError("for s != 0, q must be an n-th root of qq")
    else:
        if q**params.n != CycloNum.one():
            raise ValueError("for s = 0, q must be an n-th root of unity")
