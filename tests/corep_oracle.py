"""Independent checks of `mqg.corep`, which classifies comodules by the
ranks of arrow composites alone.

Here a reduced row-echelon form gives kernels and ranks (its pivot
count), so End(M) is computed and an indecomposable is recognised by
End(M) being local; the nilpotent representations in shift normal form
are enumerated and bucketed by Hom fingerprint; uniseriality is read off
the radical series of arrow composites folded here.  None of this is in
the library, which needs only ranks and computes them by forward
elimination.
"""
import itertools

from mqg.corep import (_ONE, _ZERO, CycleModule, NotAComoduleError,
                       _hom_system, _mat, hom_dim, indecomposables)


def _row_reduce(rows, cols: int):
    """Exact Gauss-Jordan elimination.  Returns (R, pivots): R holds the
    rows in reduced row-echelon form, row t with its leading one in
    column pivots[t] for t < len(pivots).  Each entry of R is a ratio of
    minors of the input, so entries grow like minors."""
    R = [row[:] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == len(R):
            break
        piv = next((i for i in range(r, len(R)) if not R[i][c].is_zero()),
                   None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = R[r][c].inverse()
        R[r] = [x if x.is_zero() else x * inv for x in R[r]]
        for i, row in enumerate(R):
            f = row[c]
            if i != r and not f.is_zero():
                R[i] = [x if y.is_zero() else x - f * y
                        for x, y in zip(row, R[r])]
        pivots.append(c)
    return R, pivots


def _kernel_basis(rows, cols: int):
    """Basis of the kernel of the row system, one vector per free
    column."""
    R, pivots = _row_reduce(rows, cols)
    out = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        vec = [_ZERO] * cols
        vec[fc] = _ONE
        for row, pc in zip(R, pivots):
            vec[pc] = -row[fc]
        out.append(vec)
    return out


def is_indecomposable(M: CycleModule) -> bool:
    """End(M) is local: its semisimple quotient is one-dimensional.

    The radical of End(M) in characteristic zero is the kernel of the
    trace form tr(xy) on a basis of End(M).
    """
    basis = _end_basis(M)
    if not basis:
        return False  # the zero module
    k = len(basis)
    nonzero = [{(v, s, t): x for v, mat in enumerate(elem)
                for s, row in enumerate(mat) for t, x in enumerate(row)
                if not x.is_zero()} for elem in basis]
    gram = _mat(k, k)
    for a in range(k):
        for b in range(a, k):
            # tr(x_a x_b) = sum_v sum_{s,t} x_a[v][s][t] x_b[v][t][s]
            tr = _ZERO
            for (v, s, t), x in nonzero[a].items():
                y = nonzero[b].get((v, t, s))
                if y is not None:
                    tr = tr + x * y
            gram[a][b] = gram[b][a] = tr
    return len(_row_reduce(gram, k)[1]) == 1


def _end_basis(M: CycleModule):
    """A basis of End(M), each element a tuple of per-vertex matrices."""
    rows, offsets, total = _hom_system(M, M)
    out = []
    for vec in _kernel_basis(rows, total):
        mats = []
        for v, dim in enumerate(M.dims):
            base = offsets[v]
            mats.append([vec[base + a * dim:base + (a + 1) * dim]
                         for a in range(dim)])
        out.append(tuple(mats))
    return out


def _times(A, C, cols: int):
    """A C, each entry a sum of products; C has `cols` columns, also when
    it has no rows."""
    return [[sum((A[r][m] * C[m][c] for m in range(len(C))), _ZERO)
             for c in range(cols)] for r in range(len(A))]


def uniserial_check(M: CycleModule) -> bool:
    """True iff the radical series of M has one-dimensional layers, i.e.
    the submodule lattice is a chain.  dim rad^k M is the sum over the
    vertices of the rank of the k-fold arrow composite, each composite
    folded from the arrows here, entry by entry, and ranked by the pivots
    of its reduced row-echelon form."""
    total = M.total_dim()
    if total == 0:
        return True
    n, dims = M.n, M.dims
    composites = [[[_ONE if a == b else _ZERO for b in range(cols)]
                   for a in range(cols)] for cols in dims]
    sizes = [total]
    for k in range(1, M.d + 1):
        composites = [_times(M.arrows[(i + k - 1) % n], C, dims[i])
                      for i, C in enumerate(composites)]
        dim_rad_k = sum(len(_row_reduce(C, dims[i])[1])
                        for i, C in enumerate(composites))
        sizes.append(dim_rad_k)
        if dim_rad_k == 0:
            break
    layers = [sizes[t] - sizes[t + 1] for t in range(len(sizes) - 1)]
    return all(x == 1 for x in layers) and sizes[-1] == 0


def _partial_injections(rows: int, cols: int):
    """All 0/1 matrices with at most one 1 per row and per column."""
    out = []
    for k in range(min(rows, cols) + 1):
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.permutations(range(cols), k):
                m = _mat(rows, cols)
                for r, c in zip(rsel, csel):
                    m[r][c] = _ONE
                out.append(m)
    return out


def brute_force_indecomposables(n: int, d: int, max_total: int):
    """Enumerate nilpotent cycle representations in shift normal form
    (every arrow a partial injection 0/1 matrix) up to the total
    dimension bound, filter the indecomposable ones with the exact
    End-local test and bucket them into isomorphism classes by their
    Hom fingerprint.  Returns the list of class fingerprints."""
    intervals = indecomposables(n, d)
    realized = [I.realize() for I in intervals]
    classes = {}
    for dims in itertools.product(range(max_total + 1), repeat=n):
        if not 0 < sum(dims) <= max_total:
            continue
        choices = [
            _partial_injections(dims[(v + 1) % n], dims[v]) for v in range(n)
        ]
        for arrows in itertools.product(*choices):
            try:
                M = CycleModule(n, d, dims, arrows)
            except NotAComoduleError:
                continue
            if not is_indecomposable(M):
                continue
            fp = (dims, tuple(hom_dim(R, M) for R in realized),
                  tuple(hom_dim(M, R) for R in realized))
            classes.setdefault(fp, M)
    return list(classes)
