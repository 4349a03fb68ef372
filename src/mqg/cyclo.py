"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

Every scalar in this package is a :class:`CycloNum`: an element of
Q(zeta_N) in integral form (H. Cohen, A Course in Computational
Algebraic Number Theory, GTM 138, 4.2), phi(N) integer numerators on
the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1) over one positive
denominator, in lowest terms.  A sum or product is integer polynomial
arithmetic reduced modulo the N-th cyclotomic polynomial, then one gcd;
no floating point is used anywhere in this module.  Values constructed
through :func:`root_of_unity` carry an exponent tag, so products and
powers of roots of unity are integer arithmetic on exponents.

The integer engines of the package encode sum_k v_k zeta_N^k as the
integer vector (v_0, ..., v_{N-1}) modulo x^N - 1; the helpers for that
encoding are at the end of this module.
"""
from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "CycloNum",
    "InvalidConductorError",
    "ConductorLimitError",
    "StructureError",
    "root_of_unity",
    "cached_mul",
    "euler_phi",
    "mobius",
    "cyclotomic_polynomial",
    "max_conductor",
]

DEFAULT_MAX_CONDUCTOR = 10_000


class InvalidConductorError(ValueError):
    """Conductor must be a positive integer."""


class ConductorLimitError(RuntimeError):
    """Conductor exceeds the configured bound (MQG_MAX_CONDUCTOR)."""


class StructureError(RuntimeError):
    """The multiplication table is internally inconsistent (no antipode,
    broken closure, or a failed re-import).  Raised by mqg.algebra, which
    re-exports it; defined here so that catching it loads no other layer."""


def max_conductor() -> int:
    """The bound on conductors: MQG_MAX_CONDUCTOR, a positive integer."""
    raw = os.environ.get("MQG_MAX_CONDUCTOR")
    if raw is None:
        return DEFAULT_MAX_CONDUCTOR
    try:
        bound = int(raw)
    except ValueError:
        bound = 0
    if bound < 1:
        raise InvalidConductorError(
            f"MQG_MAX_CONDUCTOR must be a positive integer, got {raw!r}")
    return bound


def _check_conductor(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise InvalidConductorError(f"conductor must be a positive integer, got {n!r}")
    # conductor 1 is within every bound; not reading the bound for it keeps
    # the rational constants built at import free of the setting
    if n > 1 and n > max_conductor():
        raise ConductorLimitError(
            f"conductor {n} exceeds the configured bound {max_conductor()}"
        )


def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    r = 1
    for p, e in _factorize(n):
        r *= (p - 1) * p ** (e - 1)
    return r


def mobius(n: int) -> int:
    r = 1
    for _, e in _factorize(n):
        if e > 1:
            return 0
        r = -r
    return r


def _divisors(n: int) -> tuple[int, ...]:
    ds = [1]
    for p, e in _factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return tuple(sorted(ds))


def _poly_mul_int(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _poly_divexact_int(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # b is monic; the division is known to be exact.
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            q[i - db] = c
            for j, bj in enumerate(b):
                a[i - db + j] -= c * bj
    return tuple(q)


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree, monic."""
    num: tuple[int, ...] = (1,)
    dens = []
    for d in _divisors(n):
        m = mobius(n // d)
        xd_minus_1 = tuple([-1] + [0] * (d - 1) + [1])
        if m == 1:
            num = _poly_mul_int(num, xd_minus_1)
        elif m == -1:
            dens.append(xd_minus_1)
    for b in dens:
        num = _poly_divexact_int(num, b)
    return num


@lru_cache(maxsize=None)
def _phi_reduction_data(conductor: int):
    poly = cyclotomic_polynomial(conductor)
    deg = len(poly) - 1
    return deg, tuple((k, c) for k, c in enumerate(poly[:-1]) if c)


def _reduce_mod_phi(coeffs, n: int) -> tuple:
    """Coefficients (at least phi(n) of them) of a polynomial in zeta_n,
    reduced modulo Phi_n to exactly phi(n)."""
    deg, terms = _phi_reduction_data(n)
    c = list(coeffs)
    for i in range(len(c) - 1, deg - 1, -1):
        t = c[i]
        if t:
            for k, pk in terms:
                c[i - deg + k] -= t * pk
    return tuple(c[:deg])


@lru_cache(maxsize=None)
def _trace_zeta(n: int, k: int) -> Fraction:
    # normalized trace of zeta_n^k: Tr / phi(n) = mu(d) / phi(d), d = n / gcd(n, k)
    d = n // math.gcd(n, k)
    return Fraction(mobius(d), euler_phi(d))


def _trace(x: "CycloNum") -> Fraction:
    """Tr(x) / phi(N), the normalized trace of x at its conductor N."""
    return Fraction(sum(v * _trace_zeta(x.n, k)
                        for k, v in enumerate(x.num) if v), x.den)


class CycloNum:
    """An element of Q(zeta_N): phi(N) integer numerators `num` over one
    denominator `den` > 0, with gcd(den, num) == 1."""

    __slots__ = ("n", "num", "den", "_h", "_root")

    def __init__(self, conductor: int, coeffs, _root=None, _den=None):
        # the arithmetic passes _den > 0 with exactly phi(conductor) ints
        if _den is None:
            _check_conductor(conductor)
            coeffs, _den = list(coeffs), 1
            if not all(type(x) is int for x in coeffs):
                fr = [Fraction(x) for x in coeffs]
                _den = math.lcm(*(x.denominator for x in fr))
                coeffs = [int(x * _den) for x in fr]
            coeffs = _reduce_mod_phi(coeffs + [0] * euler_phi(conductor),
                                     conductor)
        if _den != 1:
            g = math.gcd(_den, *coeffs)
            if g != 1:
                coeffs = [x // g for x in coeffs]
                _den //= g
        self.n = conductor
        self.num = tuple(coeffs)
        self.den = _den
        self._h = None
        self._root = _root

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "CycloNum":
        return cls(1, [0])

    @classmethod
    def one(cls) -> "CycloNum":
        return cls(1, [1], _root=(1, 0))

    @classmethod
    def from_rational(cls, x) -> "CycloNum":
        return _coerce(Fraction(x))

    # ---- conductor handling -------------------------------------------

    def lift(self, m: int) -> "CycloNum":
        """Embed into Q(zeta_m); m must be a multiple of the conductor."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot lift conductor {self.n} into {m}")
        _check_conductor(m)
        k = m // self.n
        out = [0] * max(euler_phi(m), (len(self.num) - 1) * k + 1)
        for t, v in enumerate(self.num):
            out[t * k] = v
        return CycloNum(m, _reduce_mod_phi(out, m), self._root, self.den)

    @staticmethod
    def _unify(a: "CycloNum", b: "CycloNum"):
        if a.n == b.n:
            return a, b
        m = a.n * b.n // math.gcd(a.n, b.n)
        _check_conductor(m)
        return a.lift(m), b.lift(m)

    def galois_conjugate(self, k: int) -> "CycloNum":
        """sigma_k(self), zeta_N -> zeta_N^k at the conductor N of self,
        for k a unit modulo N."""
        out = [0] * self.n
        for j, v in enumerate(self.num):
            out[j * k % self.n] += v
        return CycloNum(self.n, _reduce_mod_phi(out, self.n), None, self.den)

    # ---- arithmetic ----------------------------------------------------

    def _plus(self, other, sign: int):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._unify(self, other)
        g = math.gcd(a.den, b.den)
        fa, fb = b.den // g, sign * (a.den // g)
        return CycloNum(a.n, [x * fa + y * fb for x, y in zip(a.num, b.num)],
                        None, a.den * fa)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __neg__(self):
        return CycloNum(self.n, [-x for x in self.num], None, self.den)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._root and other._root:
            n1, e1 = self._root
            n2, e2 = other._root
            m = n1 * n2 // math.gcd(n1, n2)
            if m <= max_conductor():
                return root_of_unity(m, e1 * (m // n1) + e2 * (m // n2))
        if self.n == 1 or other.n == 1:
            # a rational factor scales the numerators of the other
            r, x = (self, other) if self.n == 1 else (other, self)
            k = r.num[0]
            return CycloNum(x.n, [k * v for v in x.num], None, r.den * x.den)
        a, b = self._unify(self, other)
        bs = [(j, y) for j, y in enumerate(b.num) if y]
        out = [0] * (2 * len(a.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in bs:
                    out[i + j] += x * y
        return CycloNum(a.n, _reduce_mod_phi(out, a.n), None, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "CycloNum":
        """1 / self for every nonzero self.  A tagged root of unity is
        inverted by its tag; any other rational at conductor 1, numerator
        and denominator swapped and the sign kept on the numerator; any
        other value at its own conductor N through the field norm: b' is
        the product of the Galois conjugates sigma_k(self) over the units
        k != 1 mod N, so self b' is rational and 1 / self = b' / (self b').
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        if self._root:
            rn, re = self._root
            return root_of_unity(rn, -re)
        if self.is_rational():
            k = self.num[0]
            return CycloNum(1, [self.den if k > 0 else -self.den], None, abs(k))
        conj = CycloNum.one()
        for k in range(2, self.n):
            if math.gcd(k, self.n) == 1:
                conj = conj * self.galois_conjugate(k)
        return conj * (self * conj).inverse()

    def __pow__(self, e: int) -> "CycloNum":
        if self._root:
            rn, re = self._root
            return root_of_unity(rn, re * e)
        if e < 0:
            return self.inverse() ** (-e)
        result = CycloNum.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            if e > 1:
                base = base * base
            e >>= 1
        return result

    # ---- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloNum):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self._root and other._root:
            # zeta_n1^e1 == zeta_n2^e2 iff e1/n1 - e2/n2 is an integer
            n1, e1 = self._root
            n2, e2 = other._root
            return (e1 * n2 - e2 * n1) % (n1 * n2) == 0
        a, b = self._unify(self, other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        # conductor-independent, like equality: a root of unity hashes by
        # its reduced (order, exponent), so distinct roots do not collide;
        # any other value hashes by the normalized traces of a and a^2
        if self._h is None:
            root = self.as_root_of_unity()
            self._h = hash(root if root is not None
                           else (_trace(self), _trace(self * self)))
        return self._h

    # ---- root-of-unity structure ----------------------------------------

    def mult_order(self):
        """Smallest k >= 1 with self**k == 1, or None if not a root of unity."""
        root = self.as_root_of_unity()
        return root[0] if root else None

    def as_root_of_unity(self):
        """Return (k, e) with self == zeta_k^e, 0 <= e < k and
        gcd(e, k) == 1, else None."""
        if self._root:
            rn, re = self._root
            re %= rn
            g = math.gcd(rn, re)
            return (rn // g, re // g)
        # roots are algebraic integers, so a denominator rules one out
        return _roots_at(self.n).get(self.num) if self.den == 1 else None

    # ---- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"conductor": self.n, "num": list(self.num), "den": self.den}

    @classmethod
    def from_json(cls, obj: dict) -> "CycloNum":
        conductor, num, den = obj["conductor"], list(obj["num"]), obj["den"]
        if not all(type(v) is int for v in (conductor, den, *num)):
            raise TypeError("conductor, num and den must be integers")
        return cls(conductor, num) * Fraction(1, den)

    # ---- display -----------------------------------------------------------

    def __repr__(self):
        return f"CycloNum({self.n}, {[str(Fraction(v, self.den)) for v in self.num]})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, v in enumerate(self.num):
            if not v:
                continue
            ct = Fraction(v, self.den)
            if k == 0:
                parts.append(str(ct))
            else:
                z = f"z{self.n}" if k == 1 else f"z{self.n}^{k}"
                parts.append(z if ct == 1 else f"{ct}*{z}")
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(x):
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNum(1, [x.numerator], None, x.denominator)
    return NotImplemented


@lru_cache(maxsize=None)
def root_of_unity(n: int, e: int = 1) -> CycloNum:
    """zeta_n^e as a CycloNum at conductor n."""
    _check_conductor(n)
    e %= n
    return CycloNum(n, [0] * e + [1], _root=(n, e))


@lru_cache(maxsize=None)
def _roots_at(n: int) -> dict:
    """Every root of unity of Q(zeta_n), zeta_m^f with m = lcm(2, n): its
    reduced numerators at conductor n -> its reduced (order, exponent)."""
    m = n if n % 2 == 0 else 2 * n
    out = {}
    for f in range(m):
        if m == n or f % 2 == 0:
            c = root_of_unity(n, f * n // m).num
        else:  # zeta_2n^f = -zeta_n^((f + n) / 2) for odd n and f
            c = tuple(-x for x in root_of_unity(n, (f + n) // 2).num)
        g = math.gcd(m, f)
        out[c] = (m // g, f // g)
    return out


@lru_cache(maxsize=1 << 18)
def cached_mul(a: CycloNum, b: CycloNum) -> CycloNum:
    """Memoized product.

    Keyed by value, not by conductor: a hit may return the product of
    equal operands at another conductor, so what it returns depends on
    what ran earlier in the process.  Roots of unity hash by their
    reduced (order, exponent), so a lookup of a root compares against
    equal roots only.  Its only users are `cocycle.sigma`,
    `sigma_report` and `bimodule.build_bimodule` (ROADMAP item 1 removes
    it)."""
    return a * b


# ---- integer encoding: sum_k v_k zeta_N^k <-> (v_0, ..., v_{N-1}) ------


def root_exponent(x: CycloNum, conductor: int) -> int:
    """The e in 0..conductor-1 with x == zeta_conductor^e.  Raises
    ValueError unless x is a root of unity whose order divides
    `conductor`."""
    root = x.as_root_of_unity()
    if root is None or conductor % root[0]:
        raise ValueError(
            f"{x!r} is not a root of unity of order dividing {conductor}")
    k, e = root
    return e * (conductor // k) % conductor


def rotate(vec, e: int):
    """vec times x^e modulo x^len(vec) - 1: multiplication by zeta_N^e."""
    e %= len(vec)
    return vec[-e:] + vec[:-e] if e else vec


def int_vec_zero_mod_phi(vec, conductor: int) -> bool:
    """Whether sum_k vec[k] zeta_conductor^k = 0, for an integer vector of
    length `conductor`; exact sparse reduction modulo the cyclotomic
    polynomial, no rational arithmetic."""
    return not any(_reduce_mod_phi(vec, conductor))

