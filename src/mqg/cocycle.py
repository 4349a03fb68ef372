"""3-cocycles on the cyclic group, derived 2-cocycles and the twisted
group algebra with its one-dimensional modules.

The primitive n-th root qq is pinned to zeta_n, so every (s, q) family is
reproducible bit for bit.  The 3-cocycle value at (g^i, g^j, g^k) is
qq^(s*i*(j+k-(j+k)')/n) with representatives taken in 0..n-1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cyclo import CycloNum, cached_mul, root_of_unity

__all__ = [
    "CocycleParams",
    "OneDimModule",
    "phi",
    "pentagon_check",
    "pentagon_report",
    "sigma",
    "sigma_check",
    "sigma_report",
    "twisted_power",
    "twisted_product_scalar",
    "one_dim_modules",
    "legal_q_values",
    "q_conductor",
    "action_scalar",
]


@dataclass(frozen=True)
class CocycleParams:
    n: int
    s: int
    qq: CycloNum  # the fixed primitive n-th root of unity

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("cycle order n must be >= 2")
        if not 0 <= self.s < self.n:
            raise ValueError("need 0 <= s <= n-1")
        if self.qq.mult_order() != self.n:
            raise ValueError("qq must be a primitive n-th root of unity")

    @classmethod
    def standard(cls, n: int, s: int) -> "CocycleParams":
        return cls(n, s, root_of_unity(n))


def phi(params: CocycleParams, i: int, j: int, k: int) -> CycloNum:
    """Phi_s(g^i, g^j, g^k); arguments are reduced mod n first."""
    n = params.n
    i, j, k = i % n, j % n, k % n
    carry = (j + k - (j + k) % n) // n  # 0 or 1
    return _qq_power(params, params.s * i * carry)


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


def pentagon_check(params: CocycleParams, phi_table=None) -> bool:
    return pentagon_report(params, phi_table)["passed"]


def pentagon_report(params: CocycleParams, phi_table=None) -> dict:
    """Exhaustive pentagon identity and normalization check.

    phi_table optionally overrides the cocycle with an explicit table
    {(i, j, k): CycloNum} (used for negative controls).
    """
    n = params.n
    if phi_table is None:
        table = {
            (i, j, k): phi(params, i, j, k)
            for i in range(n)
            for j in range(n)
            for k in range(n)
        }
    else:
        table = phi_table
    one = CycloNum.one()
    # normalization Phi(a, 1, b) = eps(a) eps(b)
    for i in range(n):
        for k in range(n):
            if table[(i, 0, k)] != one:
                return {"passed": False, "counterexample": [i, 0, k, None],
                        "reason": "normalization"}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    lhs = cached_mul(table[(i, j, (k + l) % n)],
                                     table[((i + j) % n, k, l)])
                    rhs = cached_mul(
                        cached_mul(table[(j, k, l)], table[(i, (j + k) % n, l)]),
                        table[(i, j, k)],
                    )
                    if lhs != rhs:
                        return {"passed": False, "counterexample": [i, j, k, l],
                                "reason": "pentagon"}
    return {"passed": True, "counterexample": None}


def sigma_check(params: CocycleParams) -> bool:
    return sigma_report(params)["passed"]


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


def twisted_product_scalar(params: CocycleParams, i: int, j: int) -> CycloNum:
    """Scalar c with g^i * g^j = c g^(i+j) in the twisted group algebra."""
    return sigma(params, i % params.n, j % params.n)


def twisted_power(params: CocycleParams, i: int) -> CycloNum:
    """Scalar c with g^(*i) = c g^i, namely qq^(-(i-1)s)."""
    if not 1 <= i <= params.n:
        raise ValueError("twisted_power expects 1 <= i <= n")
    return _qq_power(params, -(i - 1) * params.s)


@dataclass(frozen=True)
class OneDimModule:
    """A one-dimensional twisted-group-algebra module, g acts by lam."""

    lam: CycloNum
    params: CocycleParams

    def __post_init__(self):
        if self.lam**self.params.n != _qq_power(self.params, self.params.s):
            raise ValueError("action scalar must satisfy lam^n = qq^s")


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


def one_dim_modules(params: CocycleParams) -> list[OneDimModule]:
    return [OneDimModule(action_scalar(params, q), params)
            for q in legal_q_values(params)]
