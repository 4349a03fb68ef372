"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

Every scalar in this package is a :class:`CycloNum`: a polynomial in
zeta_N with rational coefficients, kept reduced modulo the N-th
cyclotomic polynomial.  No floating point is used anywhere in this
module.  Values constructed through :func:`root_of_unity` carry an
exponent tag, so products and powers of roots of unity are integer
arithmetic instead of polynomial multiplication.

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
    "root_of_unity",
    "mult_order",
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    r = 1
    for _, e in _factorize(n):
        if e > 1:
            return 0
        r = -r
    return r


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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
    """Coefficients (Fraction or int, at least phi(n) of them) of a
    polynomial in zeta_n, reduced modulo Phi_n to exactly phi(n)."""
    deg, terms = _phi_reduction_data(n)
    c = list(coeffs)
    for i in range(len(c) - 1, deg - 1, -1):
        t = c[i]
        if t:
            for k, pk in terms:
                c[i - deg + k] -= t * pk
    return tuple(c[:deg])


_ZERO_FR = Fraction(0)
_ONE_FR = Fraction(1)


@lru_cache(maxsize=None)
def _trace_zeta(n: int, k: int) -> Fraction:
    # normalized trace of zeta_n^k: Tr / phi(n) = mu(d) / phi(d), d = n / gcd(n, k)
    d = n // math.gcd(n, k)
    return Fraction(mobius(d), euler_phi(d))


class CycloNum:
    """An element of Q(zeta_N) in canonical reduced form."""

    __slots__ = ("n", "c", "_h", "_root")

    def __init__(self, conductor: int, coeffs, _root=None):
        _check_conductor(conductor)
        phi = euler_phi(conductor)
        cl = [x if isinstance(x, Fraction) else Fraction(x) for x in coeffs]
        if len(cl) > phi:
            ct = _reduce_mod_phi(cl, conductor)
        else:
            ct = tuple(cl + [_ZERO_FR] * (phi - len(cl)))
        self.n = conductor
        self.c = ct
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
        return cls(1, [Fraction(x)])

    # ---- conductor handling -------------------------------------------

    def lift(self, m: int) -> "CycloNum":
        """Embed into Q(zeta_m); m must be a multiple of the conductor."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot lift conductor {self.n} into {m}")
        k = m // self.n
        out = [_ZERO_FR] * ((len(self.c) - 1) * k + 1)
        for t, ct in enumerate(self.c):
            if ct:
                out[t * k] = ct
        root = None
        if self._root:
            rn, re = self._root
            root = (rn, re)
        return CycloNum(m, out, _root=root)

    @staticmethod
    def _unify(a: "CycloNum", b: "CycloNum"):
        if a.n == b.n:
            return a, b
        m = a.n * b.n // math.gcd(a.n, b.n)
        _check_conductor(m)
        return a.lift(m), b.lift(m)

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._unify(self, other)
        return CycloNum(a.n, [x + y for x, y in zip(a.c, b.c)])

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return CycloNum(self.n, [-x for x in self.c])

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
        a, b = self._unify(self, other)
        out = [_ZERO_FR] * (2 * len(a.c) - 1)
        for i, ai in enumerate(a.c):
            if ai:
                for j, bj in enumerate(b.c):
                    if bj:
                        out[i + j] += ai * bj
        return CycloNum(a.n, out)

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
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        if self._root:
            rn, re = self._root
            return root_of_unity(rn, -re)
        if self.n == 1:
            return CycloNum(1, [1 / self.c[0]])
        # extended Euclid on (self, Phi_n) over Q[x]
        phi_poly = [Fraction(x) for x in cyclotomic_polynomial(self.n)]
        r0, r1 = phi_poly, list(self.c)
        s0, s1 = [_ZERO_FR], [_ONE_FR]
        while any(r1):
            q, r = _poly_divmod_fr(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub_fr(s0, _poly_mul_fr(q, s1))
        # r0 = gcd; it is a nonzero constant since Phi_n is irreducible
        while len(r0) > 1 and not r0[-1]:
            r0.pop()
        assert len(r0) == 1 and r0[0] != 0
        g = r0[0]
        inv_coeffs = [x / g for x in s0]
        return CycloNum(self.n, inv_coeffs)

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
            base_needed = e > 1
            if base_needed:
                base = base * base
            e >>= 1
        return result

    # ---- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.c)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.c[0]

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
        if self.n == other.n:
            return self.c == other.c
        a, b = self._unify(self, other)
        return a.c == b.c

    def __hash__(self):
        # conductor-independent, like equality: a root of unity hashes by
        # its reduced (order, exponent), so distinct roots do not collide
        # (roots are algebraic integers, so a non-integral coefficient
        # rules one out); any other value hashes by the normalized traces
        # of a and a^2
        if self._h is None:
            integral = self._root or all(ct.denominator == 1 for ct in self.c)
            root = self.as_root_of_unity() if integral else None
            if root is not None:
                self._h = hash(root)
            else:
                t1 = sum(
                    (ct * _trace_zeta(self.n, k)
                     for k, ct in enumerate(self.c) if ct),
                    _ZERO_FR,
                )
                sq = self * self
                t2 = sum(
                    (ct * _trace_zeta(sq.n, k)
                     for k, ct in enumerate(sq.c) if ct),
                    _ZERO_FR,
                )
                self._h = hash((t1, t2))
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
        return _roots_at(self.n).get(self.c)

    # ---- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        den = 1
        for x in self.c:
            den = den * x.denominator // math.gcd(den, x.denominator)
        return {
            "conductor": self.n,
            "num": [int(x * den) for x in self.c],
            "den": den,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CycloNum":
        den = obj["den"]
        return cls(obj["conductor"], [Fraction(v, den) for v in obj["num"]])

    # ---- display -----------------------------------------------------------

    def __repr__(self):
        return f"CycloNum({self.n}, {[str(x) for x in self.c]})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, ct in enumerate(self.c):
            if not ct:
                continue
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
        return CycloNum(1, [Fraction(x)])
    return NotImplemented


def _poly_divmod_fr(a: list, b: list):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    b = list(b)
    while b and not b[-1]:
        b.pop()
    db = len(b) - 1
    lead = b[-1]
    q = [_ZERO_FR] * max(len(a) - db, 1)
    while len(a) - 1 >= db and any(a):
        i = len(a) - 1
        if not a[i]:
            a.pop()
            continue
        c = a[i] / lead
        q[i - db] = c
        for j in range(len(b)):
            a[i - db + j] -= c * b[j]
        a.pop()
    return q, a if a else [_ZERO_FR]


def _poly_mul_fr(a: list, b: list) -> list:
    out = [_ZERO_FR] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_sub_fr(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = list(a) + [_ZERO_FR] * (n - len(a))
    b = list(b) + [_ZERO_FR] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


@lru_cache(maxsize=None)
def root_of_unity(n: int, e: int = 1) -> CycloNum:
    """zeta_n^e as a CycloNum at conductor n."""
    _check_conductor(n)
    e %= n
    coeffs = [_ZERO_FR] * e + [_ONE_FR]
    return CycloNum(n, coeffs, _root=(n, e))


@lru_cache(maxsize=None)
def _roots_at(n: int) -> dict:
    """Every root of unity of Q(zeta_n), zeta_m^f with m = lcm(2, n): its
    reduced coefficients at conductor n -> its reduced (order, exponent)."""
    m = n if n % 2 == 0 else 2 * n
    out = {}
    for f in range(m):
        if m == n or f % 2 == 0:
            c = root_of_unity(n, f * n // m).c
        else:  # zeta_2n^f = -zeta_n^((f + n) / 2) for odd n and f
            c = tuple(-x for x in root_of_unity(n, (f + n) // 2).c)
        g = math.gcd(m, f)
        out[c] = (m // g, f // g)
    return out


def mult_order(a: CycloNum):
    return a.mult_order()


@lru_cache(maxsize=1 << 18)
def cached_mul(a: CycloNum, b: CycloNum) -> CycloNum:
    """Memoized product.

    Keyed by value, not by conductor: a hit may return the product of
    equal operands at another conductor, so what it returns depends on
    what ran earlier in the process.  Roots of unity hash by their
    reduced (order, exponent), so a lookup of a root compares against
    equal roots only.  Only `cocycle` and `bimodule` still use it
    (ROADMAP item 1 removes it)."""
    return a * b


# ---- integer encoding: sum_k v_k zeta_N^k <-> (v_0, ..., v_{N-1}) ------


def root_exponent(x: CycloNum, conductor: int) -> int:
    """The e in 0..conductor-1 with x == zeta_conductor^e, for a root of
    unity x whose order divides `conductor`."""
    k, e = x.as_root_of_unity()
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

