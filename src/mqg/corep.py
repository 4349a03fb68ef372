"""Corepresentations of M(n, s, q) as nilpotent representations of the
cyclic quiver.

A comodule over the length-d truncated cycle coalgebra is stored on the
module side: a dimension vector over the n vertices plus an arrow matrix
per vertex, with every composite of d consecutive arrows zero.  The
composites from a vertex are built once, at construction, as one chain,
each from the one before by a single product with the next arrow
(:meth:`CycleModule.composite_chain`), until one vanishes: that length
is the vertex's height, and the longer composites are zero matrices
built without a product.  The nilpotency check, the rank table and the
coaction read these chains.  One routine, `_coaction`, forms each
degree of the coaction on X (x) Y, skipping the terms past either
factor's height: the tensor's arrows are its degree 1, and the
consistency check compares every degree with the tensor's own chains.
All decomposition machinery is exact linear algebra over CycloNum with
plain products, not the global product cache, so every value keeps the
conductor of its inputs.  Multiplicities and
Hom dimensions need ranks only, and one routine, `_rank`, computes them
by forward elimination, inverting each pivot with `CycloNum.inverse`;
the reduced row-echelon form, kernels and End-local tests are oracles
in the tests.  The one floating-point computation is
the power iteration inside :func:`fp_dimension`, which is always
compared against an exact row-sum certificate.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cyclo import CycloNum, max_conductor
from .quiver import Path

if TYPE_CHECKING:
    from .majid import MajidAlgebra

__all__ = [
    "CycleModule",
    "IntervalModule",
    "FusionData",
    "NotAComoduleError",
    "indecomposables",
    "decompose",
    "brute_force_decompose",
    "comodule_tensor",
    "tensor_consistency_check",
    "fusion_data",
    "fp_dimension",
    "hom_dim",
    "random_module",
    "direct_sum",
]


class NotAComoduleError(ValueError):
    """The arrow matrices violate the length-d nilpotency relation."""


# ---------------------------------------------------------------------------
# exact linear algebra over CycloNum
# ---------------------------------------------------------------------------

_ZERO = CycloNum.zero()
_ONE = CycloNum.one()


def _mat(rows, cols):
    return [[_ZERO] * cols for _ in range(rows)]


def _identity(k):
    return [[_ONE if a == b else _ZERO for b in range(k)] for a in range(k)]


def _mat_mul(A, B, cols: int):
    """A B for B with `cols` columns; explicit because B may have no rows
    (a zero-dimensional vertex) while A B still has `cols` columns."""
    out = _mat(len(A), cols)
    for arow, orow in zip(A, out):
        for a, brow in zip(arow, B):
            if a.is_zero():
                continue
            for c, b in enumerate(brow):
                if not b.is_zero():
                    orow[c] = orow[c] + a * b
    return out


def _rank(rows, cols: int) -> int:
    """The rank, by exact forward elimination: each pivot clears only
    the entries below it, through its inverse `CycloNum.inverse`, and the
    rank is the number of pivots.  No reduced row-echelon form is built,
    so no entry above a pivot is touched."""
    R = [row[:] for row in rows]
    rank = 0
    for c in range(cols):
        if rank == len(R):
            break
        piv = next((i for i in range(rank, len(R)) if not R[i][c].is_zero()),
                   None)
        if piv is None:
            continue
        R[rank], R[piv] = R[piv], R[rank]
        top = R[rank]
        inv = top[c].inverse()
        for i in range(rank + 1, len(R)):
            if not R[i][c].is_zero():
                f = R[i][c] * inv
                R[i] = [x if y.is_zero() else x - f * y
                        for x, y in zip(R[i], top)]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


class CycleModule:
    """A representation of the bound cycle quiver: dims[i] at vertex i and
    arrows[i]: V_i -> V_{i+1 mod n}, with d-fold composites zero."""

    def __init__(self, n: int, d: int, dims, arrows):
        self.n = n
        self.d = d
        self.dims = tuple(dims)
        if len(self.dims) != n or any(type(x) is not int or x < 0
                                      for x in self.dims):
            raise ValueError(
                "dimension vector must have n non-negative int entries")
        self.arrows = [
            [[x if isinstance(x, CycloNum) else CycloNum.from_rational(x)
              for x in row] for row in mat]
            for mat in arrows
        ]
        if len(self.arrows) != n:
            raise ValueError(
                f"need {n} arrow matrices, got {len(self.arrows)}")
        for i, mat in enumerate(self.arrows):
            rows, cols = self.dims[(i + 1) % n], self.dims[i]
            if len(mat) != rows or any(len(row) != cols for row in mat):
                raise ValueError(f"arrow {i} has the wrong shape")
        # chain i holds composite(i, k) for 0 <= k <= d, each from the one
        # before by one product with the next arrow until one vanishes;
        # _heights[i] is the first k with composite(i, k) = 0, and every
        # longer composite is a zero matrix without a product
        self._chains, self._heights = [], []
        for i, cols in enumerate(self.dims):
            chain = [_identity(cols)]
            while any(not x.is_zero() for row in chain[-1] for x in row):
                if len(chain) > d:
                    raise NotAComoduleError(
                        f"length-{d} composite from vertex {i} is nonzero")
                chain.append(_mat_mul(self.arrows[(i + len(chain) - 1) % n],
                                      chain[-1], cols))
            self._heights.append(len(chain) - 1)
            chain += [_mat(self.dims[(i + k) % n], cols)
                      for k in range(len(chain), d + 1)]
            self._chains.append(chain)

    def total_dim(self) -> int:
        return sum(self.dims)

    def composite_chain(self, i: int):
        """[composite(i, 0), ..., composite(i, d)], as built at
        construction.  composite(i, k) has shape dims[i+k] x dims[i], also
        through zero-dimensional vertices; from the height of vertex i
        (`_heights[i]`) on, it is a zero matrix made without a product."""
        return self._chains[i % self.n]

    def rank_table(self):
        """r[i][k], the rank of composite(i, k), for every vertex i and
        0 <= k <= d: n (d - 1) ranks of the chains built at construction."""
        return [[cols] + [_rank(C, cols) for C in chain[1:self.d]] + [0]
                for cols, chain in zip(self.dims, self._chains)]

    def to_json(self) -> dict:
        return {
            "n": self.n, "d": self.d, "dims": list(self.dims),
            "arrows": [[[x.to_json() for x in row] for row in mat]
                       for mat in self.arrows],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CycleModule":
        """Inverse of to_json; a document of the wrong shape raises
        ValueError, as do an n below 2 (no cycle), a d outside
        1..max_conductor() (the module keeps n (d + 1) composite
        matrices) and dims or a conductor that are not integers."""
        if not isinstance(doc, dict):
            doc = {}
        n, d = doc.get("n"), doc.get("d")
        if type(n) is not int or n < 2:
            raise ValueError(f"malformed module document: n must be an "
                             f"integer >= 2, got {n!r}")
        if type(d) is not int or not 1 <= d <= max_conductor():
            raise ValueError(f"malformed module document: d must be an "
                             f"integer in 1..{max_conductor()}, got {d!r}")
        dims = doc.get("dims")
        if type(dims) is not list or any(type(x) is not int for x in dims):
            raise ValueError(f"malformed module document: dims must be a "
                             f"list of integers, got {dims!r}")
        try:
            arrows = [
                [[CycloNum.from_json(x) for x in row] for row in mat]
                for mat in doc["arrows"]
            ]
            return cls(n, d, dims, arrows)
        except (TypeError, KeyError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed module document: {exc!r}") from exc


@dataclass(frozen=True)
class IntervalModule:
    """The uniserial string module with top vertex `top` and length ell:
    one basis vector on each of the vertices top, top+1, ..., top+ell-1,
    consecutive arrows acting as shifts."""

    n: int
    d: int
    top: int
    length: int

    def __post_init__(self):
        if not 1 <= self.length <= self.d:
            raise ValueError("interval length must satisfy 1 <= length <= d")
        object.__setattr__(self, "top", self.top % self.n)

    def dims(self):
        out = [0] * self.n
        for k in range(self.length):
            out[(self.top + k) % self.n] += 1
        return tuple(out)

    def realize(self) -> CycleModule:
        n, i, ell = self.n, self.top, self.length
        dims = self.dims()
        slots = [[] for _ in range(n)]  # basis indices k living at each vertex
        for k in range(ell):
            slots[(i + k) % n].append(k)
        arrows = []
        for v in range(n):
            mat = _mat(dims[(v + 1) % n], dims[v])
            for col, k in enumerate(slots[v]):
                if k + 1 < ell:
                    mat[slots[(v + 1) % n].index(k + 1)][col] = _ONE
            arrows.append(mat)
        return CycleModule(n, self.d, dims, arrows)

    def simple_class(self):
        """Image in the Grothendieck group: multiplicity of each simple."""
        return self.dims()

    def __str__(self):
        return f"I({self.top},{self.length})"


def parse_interval(text: str, n: int, d: int) -> IntervalModule:
    import re
    m = re.match(r"^\s*I\(\s*(-?\d+)\s*,\s*(\d+)\s*\)\s*$", text)
    if not m:
        raise ValueError(f"cannot parse interval literal {text!r}")
    return IntervalModule(n, d, int(m.group(1)), int(m.group(2)))


def indecomposables(n: int, d: int) -> list[IntervalModule]:
    """The n*d interval modules, the complete list of indecomposables."""
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    return [IntervalModule(n, d, i, ell)
            for ell in range(1, d + 1) for i in range(n)]


def direct_sum(mods) -> CycleModule:
    mods = list(mods)
    if not mods:
        raise ValueError("empty direct sum")
    n, d = mods[0].n, mods[0].d
    if any(m.n != n or m.d != d for m in mods):
        raise ValueError("mixed parameters in direct sum")
    dims = tuple(sum(m.dims[v] for m in mods) for v in range(n))
    arrows = []
    for v in range(n):
        mat = _mat(dims[(v + 1) % n], dims[v])
        ro = co = 0
        for m in mods:
            for r in range(m.dims[(v + 1) % n]):
                for c in range(m.dims[v]):
                    mat[ro + r][co + c] = m.arrows[v][r][c]
            ro += m.dims[(v + 1) % n]
            co += m.dims[v]
        arrows.append(mat)
    return CycleModule(n, d, dims, arrows)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def decompose(M: CycleModule) -> dict:
    """Krull-Schmidt multiplicities {(top, length): mult} by the rank
    profile of iterated arrow composites."""
    n, d = M.n, M.d
    r = [row + [0] for row in M.rank_table()]  # r[i][k], 0 <= k <= d + 1
    out = {}
    for i in range(n):
        for ell in range(1, d + 1):
            mult = ((r[i][ell - 1] - r[i][ell])
                    - (r[i - 1][ell] - r[i - 1][ell + 1]))
            if mult < 0:
                raise NotAComoduleError("negative multiplicity from rank profile")
            if mult:
                out[(i, ell)] = mult
    # reconstruction identity
    recon = [0] * n
    for (i, ell), mult in out.items():
        for k in range(ell):
            recon[(i + k) % n] += mult
    if tuple(recon) != M.dims:
        raise NotAComoduleError("rank profile does not reassemble the dimensions")
    return out


def _hom_system(X: CycleModule, Y: CycleModule):
    """The linear system of Hom(X, Y): maps f_v (Y.dims[v] x X.dims[v],
    flattened row by row at offsets[v]) with Y_v f_v = f_{v+1} X_v.
    Returns (rows, offsets, unknowns)."""
    n = X.n
    offsets = []
    total = 0
    for v in range(n):
        offsets.append(total)
        total += Y.dims[v] * X.dims[v]
    rows = []
    for v in range(n):
        w = (v + 1) % n
        # (Y.arrows[v] f_v - f_w X.arrows[v])[a][b] = 0
        for a in range(Y.dims[w]):
            for b in range(X.dims[v]):
                row = [_ZERO] * total
                for k in range(Y.dims[v]):
                    c = Y.arrows[v][a][k]
                    if not c.is_zero():
                        idx = offsets[v] + k * X.dims[v] + b
                        row[idx] = row[idx] + c
                for k in range(X.dims[w]):
                    c = X.arrows[v][k][b]
                    if not c.is_zero():
                        idx = offsets[w] + a * X.dims[w] + k
                        row[idx] = row[idx] - c
                if any(not x.is_zero() for x in row):
                    rows.append(row)
    return rows, offsets, total


def hom_dim(X: CycleModule, Y: CycleModule) -> int:
    """dim Hom(X, Y), the nullity of its linear system, exact."""
    if (X.n, X.d) != (Y.n, Y.d):
        raise ValueError("mixed parameters in hom_dim")
    rows, _, total = _hom_system(X, Y)
    return total - _rank(rows, total)


def _interval_hom_table(n: int, d: int):
    """dim Hom(I, J) for all interval pairs, computed once per (n, d)."""
    intervals = indecomposables(n, d)
    realized = {(I.top, I.length): I.realize() for I in intervals}
    table = {}
    for I in intervals:
        for J in intervals:
            table[(I.top, I.length), (J.top, J.length)] = hom_dim(
                realized[(I.top, I.length)], realized[(J.top, J.length)]
            )
    return intervals, realized, table


def brute_force_decompose(M: CycleModule) -> dict:
    """Independent summand search: enumerate every multiset of intervals
    matching the dimension vector and keep the one whose Hom-dimension
    fingerprint against all intervals agrees with M."""
    n, d = M.n, M.d
    intervals, realized, table = _interval_hom_table(n, d)
    fingerprint = {
        (I.top, I.length): hom_dim(realized[(I.top, I.length)], M)
        for I in intervals
    }
    keys = [(I.top, I.length) for I in intervals]
    dimvecs = {k: IntervalModule(n, d, *k).dims() for k in keys}
    target = M.dims
    matches = []

    def search(idx, remaining, counts):
        if idx == len(keys):
            if all(x == 0 for x in remaining):
                fp = {
                    k: sum(c * table[(k, k2)] for k2, c in counts.items())
                    for k in keys
                }
                if fp == fingerprint:
                    matches.append({k: c for k, c in counts.items() if c})
            return
        k = keys[idx]
        dv = dimvecs[k]
        cap = min(
            (remaining[v] // dv[v] for v in range(n) if dv[v]), default=0
        )
        for c in range(cap, -1, -1):
            counts[k] = c
            nxt = tuple(remaining[v] - c * dv[v] for v in range(n))
            search(idx + 1, nxt, counts)
        counts.pop(k, None)

    search(0, target, {})
    if not matches:
        raise NotAComoduleError("no interval multiset matches the module")
    first = matches[0]
    if any(m != first for m in matches[1:]):
        raise RuntimeError("ambiguous summand search (non-unique fingerprint)")
    return first


# ---------------------------------------------------------------------------
# tensor products and fusion
# ---------------------------------------------------------------------------


def _tensor_index(X: CycleModule, Y: CycleModule):
    """The basis of X (x) Y by vertex: blocks[v] lists the (i, j, a, b)
    with i + j = v mod n (a a basis index of X_i, b of Y_j), and pos maps
    each to its place in its block."""
    n = X.n
    blocks = [[] for _ in range(n)]
    pos = {}
    for i in range(n):
        for j in range(n):
            v = (i + j) % n
            for a in range(X.dims[i]):
                for b in range(Y.dims[j]):
                    pos[(i, j, a, b)] = len(blocks[v])
                    blocks[v].append((i, j, a, b))
    return blocks, pos


def _coaction(M: MajidAlgebra, X: CycleModule, Y: CycleModule, k: int,
              blocks, pos):
    """The degree-k component of the coaction on X (x) Y, one matrix per
    vertex v, from the basis of v to that of v + k: x (x) y, x at vertex
    i and y at j, goes to sum_{t+u=k} coef(p(i,t) p(j,u)) (A^t x) (x)
    (B^u y) over the t, u < d that name basis paths.  Only t below the
    height of vertex i in X and u below that of j in Y are visited: past
    its height a composite is zero, and so is the term, so no product
    is looked up for it."""
    n = M.n
    chains = [(X.composite_chain(i), Y.composite_chain(i)) for i in range(n)]
    out = []
    for v in range(n):
        mat = _mat(len(blocks[(v + k) % n]), len(blocks[v]))
        for col, (i, j, a, b) in enumerate(blocks[v]):
            for t in range(max(0, k - Y._heights[j] + 1),
                           min(k, X._heights[i] - 1) + 1):
                u = k - t
                coeff, target = M.product(Path(n, i, t), Path(n, j, u))
                if target is None or coeff.is_zero():
                    continue
                Ax, By = chains[i][0][t], chains[j][1][u]
                for r in range(X.dims[(i + t) % n]):
                    if Ax[r][a].is_zero():
                        continue
                    for s2 in range(Y.dims[(j + u) % n]):
                        if By[s2][b].is_zero():
                            continue
                        row = pos[((i + t) % n, (j + u) % n, r, s2)]
                        mat[row][col] = mat[row][col] + coeff * (
                            Ax[r][a] * By[s2][b])
        out.append(mat)
    return out


def comodule_tensor(M: MajidAlgebra, X: CycleModule, Y: CycleModule) -> CycleModule:
    """X tensor Y with the coaction pushed through M's multiplication.

    A basis vector x (x) y with x at vertex i and y at vertex j sits at
    vertex i+j; the arrows are the degree-1 component of its coaction,
    coef(p(i,1) p(j,0)) (Ax)(x)y + coef(p(i,0) p(j,1)) x(x)(By)
    (:func:`_coaction` with k = 1; all zero when d = 1).
    """
    n, d = M.n, M.d
    if (X.n, X.d) != (n, d) or (Y.n, Y.d) != (n, d):
        raise ValueError("tensor factors built over different parameters")
    blocks, pos = _tensor_index(X, Y)
    return CycleModule(n, d, tuple(len(block) for block in blocks),
                       _coaction(M, X, Y, 1, blocks, pos))


def tensor_consistency_check(M: MajidAlgebra, X: CycleModule, Y: CycleModule,
                             T: CycleModule | None = None) -> bool:
    """Higher coaction components of the computed tensor module.

    The k-fold arrow composite of T, which T's chains build from its
    arrows alone, must equal the degree-k component of the coaction
    (:func:`_coaction`) for every 0 <= k <= d; for k >= 2 this tests
    that the coaction is multiplicative.
    """
    if T is None:
        T = comodule_tensor(M, X, Y)
    blocks, pos = _tensor_index(X, Y)
    return all([T.composite_chain(v)[k] for v in range(M.n)]
               == _coaction(M, X, Y, k, blocks, pos)
               for k in range(M.d + 1))


def fusion_data(M: MajidAlgebra):
    """Fusion matrices of the n simple comodules, computed by decomposing
    the tensor products (not read off the group)."""
    n, d = M.n, M.d
    simples = [IntervalModule(n, d, i, 1).realize() for i in range(n)]
    matrices = []
    for i in range(n):
        mat = [[0] * n for _ in range(n)]
        for j in range(n):
            T = comodule_tensor(M, simples[i], simples[j])
            for (top, ell), mult in decompose(T).items():
                if ell != 1:
                    raise RuntimeError("simple tensor simple is not simple")
                mat[top][j] = mult
        matrices.append(mat)
    return FusionData(n=n, matrices=matrices)


@dataclass
class FusionData:
    """The Grothendieck ring data: n simple classes and the left
    multiplication matrices of the simples."""

    n: int
    matrices: list

    def left_multiplication(self, cls_vector):
        """Matrix of left multiplication by sum_i cls_vector[i] [V_i]."""
        n = self.n
        out = [[0] * n for _ in range(n)]
        for i, c in enumerate(cls_vector):
            if c:
                for r in range(n):
                    for col in range(n):
                        out[r][col] += c * self.matrices[i][r][col]
        return out


def fp_dimension(F: FusionData, cls_vector):
    """Frobenius-Perron dimension of a Grothendieck class.

    Returns (value, certificate): `value` from floating-point power
    iteration to 1e-9, `certificate` the exact common row sum when the
    multiplication matrix is a non-negative integer combination of
    permutation matrices (always the case here), else None.
    """
    mat = F.left_multiplication(cls_vector)
    n = F.n
    if all(x == 0 for row in mat for x in row):
        return 0.0, 0
    # power iteration (the single floating-point computation); numpy is
    # imported here, the one place outside mqg.algebra that needs it
    import numpy as np

    A = np.array(mat, dtype=float)
    v = np.ones(n) / n
    value = 0.0
    for _ in range(10000):
        w = A @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            value = 0.0
            break
        w /= norm
        new = float(w @ A @ w)
        if abs(new - value) < 1e-12:
            value = new
            break
        value = new
    # exact certificate: combination of permutations <=> all row and
    # column sums equal; the Perron value is that common sum
    row_sums = {sum(row) for row in mat}
    col_sums = {sum(mat[r][c] for r in range(n)) for c in range(n)}
    certificate = row_sums.pop() if len(row_sums) == 1 and len(col_sums) == 1 \
        else None
    return value, certificate


# ---------------------------------------------------------------------------
# random modules
# ---------------------------------------------------------------------------


def random_module(n: int, d: int, rng: random.Random, max_total: int = 9):
    """A random nilpotent cycle representation with a scrambled basis:
    a random multiset of intervals conjugated by random unimodular
    integer matrices at every vertex.  Returns (module, multiset)."""
    intervals = indecomposables(n, d)
    parts = []
    total = 0
    while True:
        I = rng.choice(intervals)
        if total + I.length > max_total:
            break
        parts.append(I)
        total += I.length
        if total == max_total or (parts and rng.random() < 0.25):
            break
    if not parts:
        parts = [rng.choice([I for I in intervals if I.length <= max_total])]
    M = direct_sum([I.realize() for I in parts])
    # conjugate: new arrows U_{v+1} A_v U_v^{-1} with unimodular U_v
    us, u_invs = zip(*(_random_unimodular(M.dims[v], rng) for v in range(n)))
    arrows = [
        _mat_mul(_mat_mul(us[(v + 1) % n], M.arrows[v], M.dims[v]),
                 u_invs[v], M.dims[v])
        for v in range(n)
    ]
    multiset = {}
    for I in parts:
        key = (I.top, I.length)
        multiset[key] = multiset.get(key, 0) + 1
    return CycleModule(n, d, M.dims, arrows), multiset


def _random_unimodular(k: int, rng: random.Random):
    """(U, U^-1) for U a product of random integer shears; the inverse is
    the product of the inverse shears in reverse order."""
    out, inv = _identity(k), _identity(k)
    if k < 2:
        return out, inv
    for _ in range(2 * k):
        a, b = rng.randrange(k), rng.randrange(k)
        if a == b:
            continue
        x = rng.randint(-2, 2)
        shear, unshear = _identity(k), _identity(k)
        shear[a][b] = CycloNum.from_rational(x)
        unshear[a][b] = CycloNum.from_rational(-x)
        out = _mat_mul(shear, out, k)
        inv = _mat_mul(inv, unshear, k)
    return out, inv
