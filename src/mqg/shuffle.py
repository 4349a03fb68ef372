"""The graded multiplication on the path coalgebra of the basic cycle.

Two independent evaluation routes exist for products of paths:

* the thin-split sum, accumulated along lattice paths: the thin splits
  are grouped by how many arrows of each factor have been consumed, so
  none is enumerated (exact and polynomial-time; the explicit sum over
  thin splits is a test oracle in tests/test_shuffle.py).  It does not know the closed
  form.
* the closed product formula: coef(p(i,l) p(j,m)) is a root of unity
  zeta_Q^E(i,l,j,m) times the Gaussian binomial (l+m choose l)_hbar.
  `_product_exponent` is the one rule for E and `QuiverAlgebra.binomial`
  reads the family's one table of binomials, both on integers.

Both routes work at the conductor Q = `cocycle.q_conductor(n, s)` of the
family, so every structure constant of M(n, s, q) has conductor Q
however q was written.  The thin-split grid packs each coefficient
vector mod x^Q - 1 into one Python int (Kronecker substitution): lane k,
`width` bits wide, holds the coefficient of zeta_Q^k, so a product by
zeta_Q^e is a rotation of the lanes, a sum one `+` and a comparison one
`==`.  `cross_check` asserts both routes agree pair by pair on these
packed values.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    "CrossCheckReport",
]

def _product_exponent(n: int, s: int, N: int, hbar_exp: int, i, l, j, m):
    """The E with coef(p(i,l) p(j,m)) = zeta_N^E (l+m choose l)_hbar in
    M(n, s, q), for sources i, j in 0..n-1, hbar = zeta_N^hbar_exp and a
    conductor N that n divides: zeta_N^E = hbar^(j l) qq^(s (i + l mod n) c)
    with qq = zeta_N^(N/n) and the carry c = (j + m) // n.  Takes
    integers or numpy arrays."""
    return hbar_exp * j * l + N // n * s * (i + l % n) * ((j + m) // n)


def _pack_lanes(vec, width: int) -> int:
    """An integer vector with entries in 0..2^width - 1 as one int:
    lane k (bits width*k .. width*k + width - 1) holds vec[k]."""
    return sum(c << width * k for k, c in enumerate(vec))


def _unpack_lanes(packed: int, width: int, conductor: int) -> list[int]:
    """The inverse of `_pack_lanes`: the `conductor` lanes as a list."""
    lane = (1 << width) - 1
    return [(packed >> (width * k)) & lane for k in range(conductor)]


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
        # _binomials[t][k] = binomial(k, t - k), grown by `binomial`
        self._binomials = [[(1,) + (0,) * (self.conductor - 1)]]

    @classmethod
    def build(cls, n: int, s: int, q: CycloNum) -> "QuiverAlgebra":
        params = CocycleParams.standard(n, s)
        return cls(build_bimodule(params, q))

    def binomial(self, l: int, m: int) -> tuple[int, ...]:
        """(l+m choose l)_hbar as an integer vector mod x^Q - 1: entry k
        is the coefficient of zeta_Q^k.

        The table grows one total t = l + m at a time by q-Pascal,
        B(t, k) = B(t-1, k-1) + x^k B(t-1, k) with B(t, 0) = B(t, t) = 1,
        pushed through the ring map x -> hbar = zeta_Q^hb; so each cell
        is the Gaussian polynomial (l+m choose l)_x with its degree-r
        coefficient added into entry r hb mod Q.
        """
        if l < 0 or m < 0:
            raise ValueError("binomial needs l, m >= 0")
        rows, hb = self._binomials, self._hb
        while len(rows) <= l + m:
            up = rows[-1]
            rows.append([up[0]] + [
                tuple(a + b for a, b in zip(up[k - 1], rotate(up[k], k * hb)))
                for k in range(1, len(up))] + [up[0]])
        return rows[l + m][l]

    # -- lattice accumulation of the thin-split sum ------------------------

    def _exponent_tables(self):
        """The bimodule's (left, right) action tables as exponents of
        zeta_Q."""
        if self._exp_tables is None:
            self._exp_tables = self.bimodule.exponents(self.conductor)
        return self._exp_tables

    def _shuffle_grid(self, i: int, j: int, lmax: int, mmax: int, bound=None):
        """All thin-split sums F[a][b] = coeff of p_i^a * p_j^b at once,
        for a <= lmax, b <= mmax and a + b <= bound (default lmax + mmax);
        cells beyond the bound are None.  Returns (width, F).

        Each cell is an integer vector modulo x^Q - 1 for the conductor Q
        of the family, packed as by `_pack_lanes` with lanes `width` =
        bound + 1 bits wide: lane k of F[a][b] is the coefficient of
        zeta_Q^k.  The lanes cannot overflow: every action coefficient is
        a root of unity, so each step only rotates lanes and adds, every
        lane stays non-negative, and the lanes of F[a][b] sum to the
        number of lattice paths to (a, b), binom(a+b, a) <= 2^(a+b) <
        2^width.  So a lane never carries into the next one.
        """
        lexp, rexp = self._exponent_tables()
        n, Q = self.n, self.conductor
        if bound is None:
            bound = lmax + mmax
        width = bound + 1
        mask = (1 << width * Q) - 1
        # the lane shifts of each step, by the residues of (a, b) mod n
        # that pick its action coefficient
        rsh = [[(width * e, width * (Q - e)) for e in (
            rexp[((j + b) % n, (i + a - 1) % n + 1)][0] for b in range(n))]
            for a in range(n)]
        lsh = [[(width * e, width * (Q - e)) for e in (
            lexp[((i + a) % n, (j + b - 1) % n + 1)][0] for b in range(n))]
            for a in range(n)]
        F = [[None] * (mmax + 1) for _ in range(lmax + 1)]
        F[0][0] = 1
        for a in range(lmax + 1):
            row, up = F[a], F[a - 1]
            ra, la = rsh[a % n], lsh[a % n]
            for b in range(0 if a else 1, min(mmax, bound - a) + 1):
                acc = 0
                if a:
                    x = up[b]
                    lo, hi = ra[b % n]
                    acc = ((x << lo) & mask) | (x >> hi)
                if b:
                    x = row[b - 1]
                    lo, hi = la[b % n]
                    acc += ((x << lo) & mask) | (x >> hi)
                row[b] = acc
        return width, F

    # -- public products ---------------------------------------------------

    def shuffle_multiply(self, alpha: PathVector, beta: PathVector) -> PathVector:
        """Bilinear extension of the thin-split product sum."""
        out = PathVector(self.n)
        for p1, c1 in alpha.terms.items():
            for p2, c2 in beta.terms.items():
                l, m = p1.length, p2.length
                width, F = self._shuffle_grid(p1.source, p2.source, l, m)
                vec = _unpack_lanes(F[l][m], width, self.conductor)
                coeff = CycloNum(self.conductor, vec) * c1 * c2
                target = Path(self.n, p1.source + p2.source, l + m)
                out = out + PathVector(self.n, {target: coeff})
        return out

    def _closed_form_vec(self, i: int, l: int, j: int, m: int) -> list[int]:
        """The closed-form coefficient of p(i,l) p(j,m) as an integer
        vector mod x^Q - 1."""
        n, s, Q, hb = self.n, self.params.s, self.conductor, self._hb
        e = _product_exponent(n, s, Q, hb, i, l, j, m)
        return list(rotate(self.binomial(l, m), e))

    def closed_form_product(self, p1: Path, p2: Path) -> tuple[CycloNum, Path]:
        """Scalar and target path of p_i^l . p_j^m by the closed formula;
        the scalar has the conductor Q of the family."""
        i, l, j, m = p1.source, p1.length, p2.source, p2.length
        return (CycloNum(self.conductor, self._closed_form_vec(i, l, j, m)),
                Path(self.n, i + j, l + m))

    def power_left(self, p: PathVector, k: int) -> PathVector:
        """(..(p.p).p)..p, left-nested, by the thin-split sum."""
        if k < 1:
            raise ValueError("power exponent must be >= 1")
        acc = p
        for _ in range(k - 1):
            acc = self.shuffle_multiply(acc, p)
        return acc

    def cross_check(self, max_total_length: int) -> CrossCheckReport:
        """Thin-split sum == closed formula for every pair with l+m at most
        the bound, every pair of sources.

        Both sides are packed vectors in Z[x]/(x^Q - 1) with the lane
        width of `_shuffle_grid`: the closed side is `binomial(l, m)`
        packed once per (l, m) and rotated by `_product_exponent`, the
        same rule and table `closed_form_product` uses, and its lanes sum
        to binom(l+m, l) too.  Equal ints are equal vectors.  Only when
        they differ are both unpacked and the difference reduced modulo
        Phi_Q with integer arithmetic, so the check is exact and
        Fraction-free.  The first pair that differs mod Phi_Q is the
        witness.
        """
        if max_total_length < 0:
            raise ValueError("max_total_length must be >= 0")
        n, s, Q, hb = self.n, self.params.s, self.conductor, self._hb
        T = max_total_length
        width = T + 1
        mask = (1 << width * Q) - 1
        binomials = [[_pack_lanes(self.binomial(l, m), width)
                      for m in range(T + 1 - l)] for l in range(T + 1)]
        checked = 0
        for i in range(n):
            for j in range(n):
                _, F = self._shuffle_grid(i, j, T, T, bound=T)
                for l in range(T + 1):
                    row, brow = F[l], binomials[l]
                    for m in range(T + 1 - l):
                        got = row[m]
                        e = _product_exponent(n, s, Q, hb, i, l, j, m) % Q
                        x = brow[m]
                        want = ((x << width * e) & mask) | (x >> width * (Q - e))
                        checked += 1
                        if got == want:
                            continue
                        got = _unpack_lanes(got, width, Q)
                        want = _unpack_lanes(want, width, Q)
                        if not int_vec_zero_mod_phi(
                            [a - b for a, b in zip(got, want)], Q
                        ):
                            return CrossCheckReport(
                                passed=False,
                                pairs_checked=checked,
                                witness={
                                    "i": i, "j": j, "l": l, "m": m,
                                    "shuffle": CycloNum(Q, got).to_json(),
                                    "closed_form": CycloNum(
                                        Q, want).to_json(),
                                },
                            )
        return CrossCheckReport(passed=True, pairs_checked=checked)
