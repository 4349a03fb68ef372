"""The graded multiplication on the path coalgebra of the basic cycle.

Two independent evaluation routes exist for products of paths:

* the thin-split sum, accumulated along lattice paths: the sum over the
  thin splits of `quiver.thin_splits`, grouped by how many arrows of
  each factor have been consumed (exact and polynomial-time).  It does
  not know the closed form.
* the closed product formula: coef(p(i,l) p(j,m)) is a root of unity
  zeta_N^E(i,l,j,m) times the Gaussian binomial (l+m choose l)_hbar.
  `_product_exponent` is the one rule for E and `_binomial_buckets` the
  one table of binomials, both on integers.

Both routes work at the conductor Q = `cocycle.q_conductor(n, s)` of the
family, so every structure constant of M(n, s, q) has conductor Q
however q was written.  `cross_check` asserts both routes agree pair by
pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclo import (
    CycloNum,
    int_vec_zero_mod_phi,
    root_exponent,
    rotate,
)
from .cocycle import CocycleParams, q_conductor
from .bimodule import ArrowBimodule, build_bimodule
from .quiver import Path, PathVector

__all__ = [
    "QuiverAlgebra",
    "gauss_binomial_poly",
    "CrossCheckReport",
]

@lru_cache(maxsize=None)
def gauss_binomial_poly(total: int, k: int) -> tuple[int, ...]:
    """Coefficients of the Gaussian binomial (total choose k)_x."""
    if k < 0 or k > total:
        return (0,)
    if k == 0 or k == total:
        return (1,)
    a = gauss_binomial_poly(total - 1, k - 1)
    b = gauss_binomial_poly(total - 1, k)  # times x^k
    out = [0] * max(len(a), len(b) + k)
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i + k] += c
    return tuple(out)


@lru_cache(maxsize=1 << 16)
def _binomial_buckets(conductor: int, hbar_exp: int, l: int, m: int) -> tuple[int, ...]:
    """(l+m choose l)_{x^hbar_exp} as a coefficient vector mod x^conductor - 1."""
    buckets = [0] * conductor
    for d, c in enumerate(gauss_binomial_poly(l + m, l)):
        if c:
            buckets[(d * hbar_exp) % conductor] += c
    return tuple(buckets)


def _product_exponent(n: int, s: int, N: int, hbar_exp: int, i, l, j, m):
    """The E with coef(p(i,l) p(j,m)) = zeta_N^E (l+m choose l)_hbar in
    M(n, s, q), for sources i, j in 0..n-1, hbar = zeta_N^hbar_exp and a
    conductor N that n divides: zeta_N^E = hbar^(j l) qq^(s (i + l mod n) c)
    with qq = zeta_N^(N/n) and the carry c = (j + m) // n.  Takes
    integers or numpy arrays."""
    return hbar_exp * j * l + N // n * s * (i + l % n) * ((j + m) // n)


@dataclass
class CrossCheckReport:
    passed: bool
    pairs_checked: int
    witness: dict | None = None


class QuiverAlgebra:
    """The graded Majid-algebra multiplication induced by a bimodule."""

    def __init__(self, bimodule: ArrowBimodule):
        self.bimodule = bimodule
        self.params = bimodule.params
        self.n = bimodule.n
        self.q = bimodule.q
        self.hbar = bimodule.deformation
        # the conductor of every structure constant, and hbar = zeta_Q^hb
        self.conductor = q_conductor(self.n, self.params.s)
        self._hb = root_exponent(self.hbar, self.conductor)
        self._exp_tables = None

    @classmethod
    def build(cls, n: int, s: int, q: CycloNum) -> "QuiverAlgebra":
        params = CocycleParams.standard(n, s)
        return cls(build_bimodule(params, q))

    # -- lattice accumulation of the thin-split sum ------------------------

    def _exponent_tables(self):
        """The bimodule's (left, right) action tables as exponents of
        zeta_Q."""
        if self._exp_tables is None:
            self._exp_tables = self.bimodule.exponents(self.conductor)
        return self._exp_tables

    def _shuffle_grid(self, i: int, j: int, lmax: int, mmax: int, bound=None):
        """All thin-split sums F[a][b] = coeff of p_i^a * p_j^b at once.

        Values are integer coefficient vectors modulo x^Q - 1 for the
        conductor Q of the family: F[a][b][k] is the coefficient of
        zeta_Q^k.
        """
        lexp, rexp = self._exponent_tables()
        n = self.n
        # cells may share one list (rotate by 0 returns its input): none
        # is modified once stored
        F = [[None] * (mmax + 1) for _ in range(lmax + 1)]
        F[0][0] = [1] + [0] * (self.conductor - 1)
        for a in range(lmax + 1):
            for b in range(mmax + 1):
                if a == 0 and b == 0:
                    continue
                if bound is not None and a + b > bound:
                    continue
                acc = None
                if a > 0:
                    e = rexp[((j + b) % n, (i + a - 1) % n + 1)][0]
                    acc = rotate(F[a - 1][b], e)
                if b > 0:
                    e = lexp[((i + a) % n, (j + b - 1) % n + 1)][0]
                    v = rotate(F[a][b - 1], e)
                    acc = v if acc is None else [x + y for x, y in zip(acc, v)]
                F[a][b] = acc
        return F

    # -- public products ---------------------------------------------------

    def shuffle_multiply(self, alpha: PathVector, beta: PathVector) -> PathVector:
        """Bilinear extension of the thin-split product sum."""
        out = PathVector(self.n)
        for p1, c1 in alpha.terms.items():
            for p2, c2 in beta.terms.items():
                l, m = p1.length, p2.length
                F = self._shuffle_grid(p1.source, p2.source, l, m)
                coeff = CycloNum(self.conductor, F[l][m]) * c1 * c2
                target = Path(self.n, p1.source + p2.source, l + m)
                out = out + PathVector(self.n, {target: coeff})
        return out

    def _closed_form_vec(self, i: int, l: int, j: int, m: int) -> list[int]:
        """The closed-form coefficient of p(i,l) p(j,m) as an integer
        vector mod x^Q - 1."""
        n, s, Q, hb = self.n, self.params.s, self.conductor, self._hb
        e = _product_exponent(n, s, Q, hb, i, l, j, m)
        return list(rotate(_binomial_buckets(Q, hb, l, m), e))

    def closed_form_product(self, p1: Path, p2: Path) -> tuple[CycloNum, Path]:
        """Scalar and target path of p_i^l . p_j^m by the closed formula;
        the scalar has the conductor Q of the family."""
        i, l, j, m = p1.source, p1.length, p2.source, p2.length
        return (CycloNum(self.conductor, self._closed_form_vec(i, l, j, m)),
                Path(self.n, i + j, l + m))

    def multiply(self, alpha: PathVector, beta: PathVector) -> PathVector:
        """Production product: bilinear extension of the closed formula."""
        out = PathVector(self.n)
        for p1, c1 in alpha.terms.items():
            for p2, c2 in beta.terms.items():
                coeff, target = self.closed_form_product(p1, p2)
                out = out + PathVector(self.n, {target: coeff * c1 * c2})
        return out

    def power_left(self, p: PathVector, k: int) -> PathVector:
        """(..(p.p).p)..p, left-nested, by the thin-split sum."""
        if k < 1:
            raise ValueError("power exponent must be >= 1")
        acc = p
        for _ in range(k - 1):
            acc = self.shuffle_multiply(acc, p)
        return acc

    def power_right(self, p: PathVector, k: int) -> PathVector:
        """p..(p.(p.p)..), right-nested, by the thin-split sum."""
        if k < 1:
            raise ValueError("power exponent must be >= 1")
        acc = p
        for _ in range(k - 1):
            acc = self.shuffle_multiply(p, acc)
        return acc

    def cross_check(self, max_total_length: int) -> CrossCheckReport:
        """Thin-split sum == closed formula for every pair with l+m below
        the bound, every pair of sources.

        Both sides are compared in Z[x]/(x^Q - 1), the closed side as the
        very vector `closed_form_product` returns, and the difference is
        reduced modulo Phi_Q with integer arithmetic, so the check is
        exact and Fraction-free.
        """
        n, conductor = self.n, self.conductor
        checked = 0
        for i in range(n):
            for j in range(n):
                F = self._shuffle_grid(
                    i, j, max_total_length, max_total_length, bound=max_total_length
                )
                for l in range(max_total_length + 1):
                    for m in range(max_total_length + 1 - l):
                        got = F[l][m]
                        want = self._closed_form_vec(i, l, j, m)
                        checked += 1
                        if got != want and not int_vec_zero_mod_phi(
                            [a - b for a, b in zip(got, want)], conductor
                        ):
                            return CrossCheckReport(
                                passed=False,
                                pairs_checked=checked,
                                witness={
                                    "i": i, "j": j, "l": l, "m": m,
                                    "shuffle": CycloNum(
                                        conductor, got).to_json(),
                                    "closed_form": CycloNum(
                                        conductor, want).to_json(),
                                },
                            )
        return CrossCheckReport(passed=True, pairs_checked=checked)
