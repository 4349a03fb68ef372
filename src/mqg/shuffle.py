"""The graded multiplication on the path coalgebra of the basic cycle.

Two independent evaluation routes exist for products of paths:

* the thin-split sum, accumulated along lattice paths: the sum over the
  thin splits of `quiver.thin_splits`, grouped by how many arrows of
  each factor have been consumed (exact and polynomial-time).  It does
  not know the closed form.
* the closed product formula with Gaussian binomials.

`cross_check` asserts both routes agree pair by pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .cyclo import (
    CycloNum,
    int_vec_zero_mod_phi,
    root_exponent,
    rotate,
)
from .cocycle import CocycleParams
from .bimodule import ArrowBimodule, build_bimodule
from .quiver import Path, PathVector

__all__ = [
    "GaussScalar",
    "QuiverAlgebra",
    "gauss_binomial",
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


def _eval_int_poly(coeffs, h: CycloNum) -> CycloNum:
    order = h.mult_order()
    if order is not None:
        buckets = [0] * order
        for e, c in enumerate(coeffs):
            buckets[e % order] += c
        acc = CycloNum.zero()
        for r, c in enumerate(buckets):
            if c:
                acc = acc + h**r * c
        return acc
    acc = CycloNum.zero()
    for c in reversed(coeffs):
        acc = acc * h + c
    return acc


@lru_cache(maxsize=1 << 16)
def _binomial_buckets(conductor: int, hbar_exp: int, l: int, m: int) -> tuple[int, ...]:
    """(l+m choose l)_{x^hbar_exp} as a coefficient vector mod x^conductor - 1."""
    buckets = [0] * conductor
    for d, c in enumerate(gauss_binomial_poly(l + m, l)):
        if c:
            buckets[(d * hbar_exp) % conductor] += c
    return tuple(buckets)


def gauss_binomial(h: CycloNum, l: int, m: int) -> CycloNum:
    """(l+m choose l)_h, exact for any h including roots of unity."""
    return _eval_int_poly(gauss_binomial_poly(l + m, l), h)


class GaussScalar:
    """Gaussian integers, factorials and binomials to the base hbar."""

    def __init__(self, hbar: CycloNum):
        self.hbar = hbar
        self._binomials = {}  # (l, m) -> (l+m choose l)_hbar

    def integer(self, l: int) -> CycloNum:
        return _eval_int_poly((1,) * l, self.hbar) if l else CycloNum.zero()

    def factorial(self, l: int) -> CycloNum:
        acc = CycloNum.one()
        for k in range(1, l + 1):
            acc = acc * self.integer(k)
        return acc

    def binomial(self, l: int, m: int) -> CycloNum:
        hit = self._binomials.get((l, m))
        if hit is None:
            hit = self._binomials[(l, m)] = gauss_binomial(self.hbar, l, m)
        return hit


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
        self.gauss = GaussScalar(self.hbar)
        self._exp_tables = None

    @classmethod
    def build(cls, n: int, s: int, q: CycloNum) -> "QuiverAlgebra":
        params = CocycleParams.standard(n, s)
        return cls(build_bimodule(params, q))

    # -- lattice accumulation of the thin-split sum ------------------------

    def _exponent_tables(self):
        """Bracket scalars as exponents of a common root of unity."""
        if self._exp_tables is not None:
            return self._exp_tables
        n = self.n
        keys = [(a, arrow) for a in range(n) for arrow in range(1, n + 1)]
        right = {(a, i): self.bimodule.right_act(i, a)[0] for a, i in keys}
        left = {(a, i): self.bimodule.left_act(a, i)[0] for a, i in keys}
        conductor = 1
        for c in (*right.values(), *left.values()):
            k, _ = c.as_root_of_unity()
            conductor = conductor * k // gcd(conductor, k)
        rexp = {key: root_exponent(c, conductor) for key, c in right.items()}
        lexp = {key: root_exponent(c, conductor) for key, c in left.items()}
        self._exp_tables = (conductor, rexp, lexp)
        return self._exp_tables

    def _shuffle_grid(self, i: int, j: int, lmax: int, mmax: int, bound=None):
        """All thin-split sums F[a][b] = coeff of p_i^a * p_j^b at once.

        Values are integer coefficient vectors modulo x^N - 1 for the
        common conductor N: F[a][b][k] is the coefficient of zeta_N^k.
        """
        conductor, rexp, lexp = self._exponent_tables()
        n = self.n
        zero = [0] * conductor
        start = list(zero)
        start[0] = 1
        F = [[None] * (mmax + 1) for _ in range(lmax + 1)]
        F[0][0] = start
        for a in range(lmax + 1):
            for b in range(mmax + 1):
                if a == 0 and b == 0:
                    continue
                if bound is not None and a + b > bound:
                    continue
                acc = list(zero)
                if a > 0:
                    e = rexp[((j + b) % n, (i + a - 1) % n + 1)]
                    v = rotate(F[a - 1][b], e)
                    for k in range(conductor):
                        acc[k] += v[k]
                if b > 0:
                    e = lexp[((i + a) % n, (j + b - 1) % n + 1)]
                    v = rotate(F[a][b - 1], e)
                    for k in range(conductor):
                        acc[k] += v[k]
                F[a][b] = acc
        return conductor, F

    # -- public products ---------------------------------------------------

    def shuffle_multiply(self, alpha: PathVector, beta: PathVector) -> PathVector:
        """Bilinear extension of the thin-split product sum."""
        out = PathVector(self.n)
        for p1, c1 in alpha.terms.items():
            for p2, c2 in beta.terms.items():
                l, m = p1.length, p2.length
                conductor, F = self._shuffle_grid(p1.source, p2.source, l, m)
                coeff = CycloNum(conductor, F[l][m]) * c1 * c2
                target = Path(self.n, p1.source + p2.source, l + m)
                out = out + PathVector(self.n, {target: coeff})
        return out

    def closed_form_product(self, p1: Path, p2: Path) -> tuple[CycloNum, Path]:
        """Scalar and target path of p_i^l . p_j^m by the closed formula."""
        n, s = self.n, self.params.s
        i, l = p1.source, p1.length
        j, m = p2.source, p2.length
        lp = l % n
        carry = (m + j - (m + j) % n) // n
        scal = self.hbar ** (j * l)
        if s:
            scal = scal * self.params.qq ** (s * (i + lp) * carry)
        scal = scal * self.gauss.binomial(l, m)
        return scal, Path(n, i + j, l + m)

    def multiply(self, alpha: PathVector, beta: PathVector) -> PathVector:
        """Production product: bilinear extension of the closed formula."""
        out = PathVector(self.n)
        for p1, c1 in alpha.terms.items():
            for p2, c2 in beta.terms.items():
                coeff, target = self.closed_form_product(p1, p2)
                out = out + PathVector(self.n, {target: coeff * c1 * c2})
        return out

    def power_left(self, p: PathVector, k: int, use_closed_form=False) -> PathVector:
        """(..(p.p).p)..p, left-nested."""
        if k < 1:
            raise ValueError("power exponent must be >= 1")
        mul = self.multiply if use_closed_form else self.shuffle_multiply
        acc = p
        for _ in range(k - 1):
            acc = mul(acc, p)
        return acc

    def power_right(self, p: PathVector, k: int, use_closed_form=False) -> PathVector:
        """p..(p.(p.p)..), right-nested."""
        if k < 1:
            raise ValueError("power exponent must be >= 1")
        mul = self.multiply if use_closed_form else self.shuffle_multiply
        acc = p
        for _ in range(k - 1):
            acc = mul(p, acc)
        return acc

    def _closed_form_vec(self, i: int, j: int, l: int, m: int,
                         conductor: int, hbar_exp: int):
        """Closed-form coefficient as an integer vector mod x^N - 1."""
        n, s = self.n, self.params.s
        carry = (m + j - (m + j) % n) // n
        e = (hbar_exp * j * l + s * (i + l % n) * carry * (conductor // n)) % conductor
        buckets = _binomial_buckets(conductor, hbar_exp, l, m)
        return list(rotate(buckets, e))

    def cross_check(self, max_total_length: int) -> CrossCheckReport:
        """Thin-split sum == closed formula for every pair with l+m below
        the bound, every pair of sources.

        Both sides are compared in Z[x]/(x^N - 1) and the difference is
        reduced modulo Phi_N with integer arithmetic, so the check is
        exact and Fraction-free.
        """
        n = self.n
        conductor, _, _ = self._exponent_tables()
        hbar_exp = root_exponent(self.hbar, conductor)

        checked = 0
        for i in range(n):
            for j in range(n):
                _, F = self._shuffle_grid(
                    i, j, max_total_length, max_total_length, bound=max_total_length
                )
                for l in range(max_total_length + 1):
                    for m in range(max_total_length + 1 - l):
                        got = F[l][m]
                        want = self._closed_form_vec(i, j, l, m, conductor, hbar_exp)
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
