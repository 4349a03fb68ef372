"""Paths on the basic cycle and their linear combinations.

The basic cycle of order n has vertices 0..n-1 and one arrow i -> i+1,
so a path is just a (source, length) pair.  That the Hopf quiver of a
finite-type Majid algebra is a basic cycle is a step of the paper's
proof, not a computation: no general quiver is built here.  The path
coalgebra (deconcatenation and its counit) and the explicit thin splits
are oracles in the tests, for the axiom sweeps and for mqg.shuffle.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .cyclo import CycloNum

__all__ = [
    "Path",
    "PathVector",
    "parse_path",
]


@dataclass(frozen=True)
class Path:
    """The path p(i, l) on the basic cycle: source vertex i, length l."""

    cycle: int
    source: int
    length: int

    def __post_init__(self):
        if self.cycle < 1 or self.length < 0:
            raise ValueError("need cycle >= 1 and length >= 0")
        object.__setattr__(self, "source", self.source % self.cycle)

    @property
    def target(self) -> int:
        return (self.source + self.length) % self.cycle

    def __str__(self):
        return f"p({self.source},{self.length})"


_PATH_RE = re.compile(r"^\s*p\(\s*(-?\d+)\s*,\s*(\d+)\s*\)\s*$")
_VERTEX_RE = re.compile(r"^\s*g\^?(-?\d+)\s*$")
_ARROW_RE = re.compile(r"^\s*X_?(-?\d+)\s*$")


def parse_path(text: str, cycle: int) -> Path:
    """Parse "p(i,l)", "g^i" (= p(i,0)) or "X_i" (= p(i-1,1))."""
    m = _PATH_RE.match(text)
    if m:
        return Path(cycle, int(m.group(1)), int(m.group(2)))
    m = _VERTEX_RE.match(text)
    if m:
        return Path(cycle, int(m.group(1)), 0)
    m = _ARROW_RE.match(text)
    if m:
        return Path(cycle, int(m.group(1)) - 1, 1)
    raise ValueError(f"cannot parse path literal {text!r}")


class PathVector:
    """Finitely supported CycloNum-linear combination of paths."""

    __slots__ = ("cycle", "terms")

    def __init__(self, cycle: int, terms: dict | None = None):
        self.cycle = cycle
        clean = {}
        if terms:
            for p, c in terms.items():
                if p.cycle != cycle:
                    raise ValueError("mixed cycle sizes in PathVector")
                if not c.is_zero():
                    clean[p] = clean[p] + c if p in clean else c
        self.terms = {p: c for p, c in clean.items() if not c.is_zero()}

    @classmethod
    def monomial(cls, p: Path, coeff: CycloNum | None = None) -> "PathVector":
        return cls(p.cycle, {p: coeff if coeff is not None else CycloNum.one()})

    def __add__(self, other: "PathVector") -> "PathVector":
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out[p] + c if p in out else c
        return PathVector(self.cycle, out)

    def __sub__(self, other: "PathVector") -> "PathVector":
        return self + other.scale(CycloNum.from_rational(-1))

    def scale(self, c: CycloNum) -> "PathVector":
        return PathVector(self.cycle, {p: x * c for p, x in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathVector):
            return NotImplemented
        if self.cycle != other.cycle:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(c == other.terms[p] for p, c in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c})*{p}" for p, c in sorted(
                self.terms.items(), key=lambda kv: (kv[0].length, kv[0].source)
            )
        )
