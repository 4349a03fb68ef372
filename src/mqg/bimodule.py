"""The quasi-bimodule structure on the arrow space of the basic cycle.

Arrows are X_1..X_n with X_i: g^(i-1) -> g^i, so X_i sits in the
isotypic component ^(g^i)M^(g^(i-1)).  Action tables for every group
element are materialized eagerly from the generator action through the
quasi-associativity rules; downstream shuffle products then only do
table lookups.
"""
from __future__ import annotations

from math import lcm

from .cyclo import CycloNum, cached_mul, root_exponent
from .cocycle import CocycleParams, action_scalar, phi, phi_exponent, q_conductor

__all__ = ["ArrowBimodule", "build_bimodule", "quasi_axiom_check"]


class ArrowBimodule:
    """Left/right quasi-actions of the cyclic group on the arrow space.

    left[(a, i)] = (scalar, j): g^a . X_i = scalar * X_j, and likewise
    right[(a, i)] for X_i . g^a.  Arrow indices run 1..n.
    """

    def __init__(self, params: CocycleParams, q: CycloNum, lam: CycloNum,
                 left: dict, right: dict):
        self.params = params
        self.q = q
        self.lam = lam
        self.left = left
        self.right = right
        # the recurring scalar qq^{-s} q^{-s} (with the s = 0 reading lam = q)
        self.deformation = params.qq ** (-params.s) * lam.inverse()

    @property
    def n(self) -> int:
        return self.params.n

    def exponents(self, N: int) -> tuple[dict, dict]:
        """The action tables on exponents of zeta_N: (left, right) with
        left[(a, i)] = (e, j) when g^a . X_i = zeta_N^e X_j, and
        right[(a, i)] likewise for X_i . g^a.  Raises ValueError unless
        every coefficient is a root of unity whose order divides N."""
        return tuple({key: (root_exponent(c, N), j)
                      for key, (c, j) in table.items()}
                     for table in (self.left, self.right))

    def isotypic(self, i: int) -> tuple[int, int]:
        """(g, h) exponents with X_i in ^(g^g)M^(g^h)."""
        return (i % self.n, (i - 1) % self.n)

    def to_json(self) -> dict:
        def table(t):
            return [
                {"g": f"g^{a}", "x": f"X_{i}",
                 "coeff": c.to_json(), "image": f"X_{j}"}
                for (a, i), (c, j) in sorted(t.items())
            ]
        return {
            "n": self.n,
            "s": self.params.s,
            "left": table(self.left),
            "right": table(self.right),
            "deformation": self.deformation.to_json(),
        }


def build_bimodule(params: CocycleParams, q: CycloNum) -> ArrowBimodule:
    """Extend g.X_i = X_{i+1} (with the wrap factor qq^s) and the module
    scalar to full action tables for every group element."""
    n, s = params.n, params.s
    bim = ArrowBimodule(params, q, action_scalar(params, q), {}, {})
    left, right = bim.left, bim.right
    one = CycloNum.one()
    for i in range(1, n + 1):
        left[(0, i)] = (one, i)
        right[(0, i)] = (one, i)
        # generator actions, the defining data
        if i < n:
            left[(1, i)] = (one, i + 1)
        else:
            left[(1, n)] = (params.qq**s, 1)
    for i in range(1, n + 1):
        right[(1, i)] = (bim.deformation, i % n + 1)

    # g^a . X_i from g.(g^(a-1).X_i) = [Phi(g,g^(a-1),g^i)/Phi(g,g^(a-1),g^(i-1))] g^a . X_i
    for a in range(2, n):
        for i in range(1, n + 1):
            c1, j1 = left[(a - 1, i)]
            c2, j2 = left[(1, j1)]
            ratio = phi(params, 1, a - 1, i) / phi(params, 1, a - 1, i - 1)
            left[(a, i)] = (cached_mul(c1, c2) / ratio, j2)

    # X_i . g^a from (X_i.g^(a-1)).g = [Phi(g^(i-1),g^(a-1),g)/Phi(g^i,g^(a-1),g)] X_i . g^a
    for a in range(2, n):
        for i in range(1, n + 1):
            c1, j1 = right[(a - 1, i)]
            c2, j2 = right[(1, j1)]
            ratio = phi(params, i - 1, a - 1, 1) / phi(params, i, a - 1, 1)
            right[(a, i)] = (cached_mul(c1, c2) / ratio, j2)

    return bim


def quasi_axiom_check(bim: ArrowBimodule, collect: bool = False):
    """Quasi-associativity (left, right, mixed) and the bicomodule
    morphism property, exhaustively over group pairs and arrows.

    Every action coefficient is a root of unity and every Phi value a
    power of qq = zeta_n, so each identity is decided as a congruence on
    exponents of zeta_N, for N the lcm of the family's conductor
    `q_conductor(n, s)` and the order of every coefficient (that
    conductor itself for every bimodule `build_bimodule` makes).  Raises
    ValueError when a coefficient is not a root of unity.

    Returns bool, or (bool, failures) when collect is set.
    """
    params = bim.params
    n = params.n
    # a coefficient that is not a root of unity counts as order 1 here,
    # and bim.exponents raises on it
    N = lcm(q_conductor(n, params.s),
            *(c.mult_order() or 1 for table in (bim.left, bim.right)
              for c, _ in table.values()))
    left, right = bim.exponents(N)
    failures = []

    def phi_e(i, j, k):
        return phi_exponent(params, i, j, k) * (N // n)

    def record(kind, e, f, i):
        failures.append({"identity": kind, "e": e, "f": f, "arrow": i})

    for i in range(1, n + 1):
        g_exp, h_exp = bim.isotypic(i)
        for e in range(n):
            for f in range(n):
                # e.(f.m) = Phi(e,f,g)/Phi(e,f,h) (ef).m
                x1, j1 = left[(f, i)]
                x2, j2 = left[(e, j1)]
                x3, j3 = left[((e + f) % n, i)]
                ratio = phi_e(e, f, g_exp) - phi_e(e, f, h_exp)
                if j2 != j3 or (x1 + x2 - ratio - x3) % N:
                    record("left", e, f, i)
                # (m.e).f = Phi(h,e,f)/Phi(g,e,f) m.(ef)
                x1, j1 = right[(e, i)]
                x2, j2 = right[(f, j1)]
                x3, j3 = right[((e + f) % n, i)]
                ratio = phi_e(h_exp, e, f) - phi_e(g_exp, e, f)
                if j2 != j3 or (x1 + x2 - ratio - x3) % N:
                    record("right", e, f, i)
                # (e.m).f = Phi(e,h,f)/Phi(e,g,f) e.(m.f)
                x1, j1 = left[(e, i)]
                x2, j2 = right[(f, j1)]
                x3, j3 = right[(f, i)]
                x4, j4 = left[(e, j3)]
                ratio = phi_e(e, h_exp, f) - phi_e(e, g_exp, f)
                if j2 != j4 or (x1 + x2 - ratio - x3 - x4) % N:
                    record("mixed", e, f, i)
        # bicomodule morphism property: g^a . X_i lands in the isotypic
        # component shifted by a on both sides, i.e. the image index is i+a
        for a in range(n):
            if left[(a, i)][1] % n != (i + a) % n:
                record("bicomodule-left", a, None, i)
            if right[(a, i)][1] % n != (i + a) % n:
                record("bicomodule-right", a, None, i)

    ok = not failures
    return (ok, failures) if collect else ok
