"""The quasi-antipode solved and verified in CycloNum arithmetic.

An oracle for `mqg.majid.solve_antipode`, which works on integer
vectors and root-of-unity exponents: this module knows nothing of that
encoding.  It solves the first antipode equation degree by degree with
field division and checks every antipode identity with PathVector
products, the reassociator and alpha/beta of the algebra.
"""
from mqg.majid import MajidAlgebra, StructureError
from mqg.cyclo import CycloNum
from mqg.quiver import Path, PathVector


def solve_antipode(M: MajidAlgebra) -> dict:
    """S(p(i,l)) = c_{i,l} p((n-i-l) mod n, l); the scalar at degree l is
    the unique solution of the first antipode equation restricted to
    p(i,l).  Returns {(i, l): (coefficient, target path)}."""
    n, d = M.n, M.d
    one = CycloNum.one()
    c = {(i, 0): one for i in range(n)}
    for l in range(1, d):
        for i in range(n):
            # sum_{k=0}^{l} c_{i+k,l-k} coef(p(-(i+l),l-k) * p(i,k)) = 0
            acc = CycloNum.zero()
            for k in range(1, l + 1):
                coeff, target = M.product(
                    Path(n, -(i + l), l - k), Path(n, i, k)
                )
                if target is None:
                    raise StructureError(
                        f"antipode product leaves the basis at degree {l}")
                acc = acc + c[((i + k) % n, l - k)] * coeff
            pivot, _ = M.product(Path(n, -(i + l), l), Path(n, i, 0))
            if pivot.is_zero():
                raise StructureError(
                    f"antipode pivot vanishes at degree {l}, vertex {i}"
                )
            c[(i, l)] = -(acc / pivot)
    table = {
        (i, l): (c[(i, l)], Path(n, -(i + l), l))
        for i in range(n)
        for l in range(d)
    }
    verify_antipode(M, table)
    return table


def verify_antipode(M: MajidAlgebra, table: dict) -> None:
    """Raise StructureError unless `table` satisfies every antipode
    identity."""
    n = M.n
    one = CycloNum.one()
    unit_vec = PathVector.monomial(M.unit)

    def s_vec(p: Path) -> PathVector:
        coeff, target = table[(p.source, p.length)]
        return PathVector(n, {target: coeff})

    for p in M.basis:
        i, l = p.source, p.length
        # S(a1) alpha(a2) a3 = alpha(a) 1
        acc = PathVector(n)
        for k in range(l + 1):
            acc = acc + M.multiply(
                s_vec(Path(n, i + k, l - k)), PathVector.monomial(Path(n, i, k))
            )
        want = unit_vec if l == 0 else PathVector(n)
        if acc != want:
            raise StructureError(f"first antipode equation fails on {p}")
        # a1 beta(a2) S(a3) = beta(a) 1
        acc = PathVector(n)
        for k in range(l + 1):
            acc = acc + M.multiply(
                PathVector.monomial(Path(n, i + k, l - k)), s_vec(Path(n, i, k))
            ).scale(M.beta(Path(n, i + k, 0)))
        want = unit_vec.scale(M.beta(p)) if l == 0 else PathVector(n)
        if acc != want:
            raise StructureError(f"second antipode equation fails on {p}")
        # Phi(a1, S(a3), a5) beta(a2) alpha(a4) = eps(a)
        #   and Phi^{-1}(S(a1), a3, S(a5)) alpha(a2) beta(a4) = eps(a),
        # summed over the 4-fold coproduct with the graded vanishing rules.
        first = CycloNum.zero()
        second = CycloNum.zero()
        for k1 in range(l + 1):
            for k2 in range(k1 + 1):
                for k3 in range(k2 + 1):
                    for k4 in range(k3 + 1):
                        legs = (
                            Path(n, i + k1, l - k1),
                            Path(n, i + k2, k1 - k2),
                            Path(n, i + k3, k2 - k3),
                            Path(n, i + k4, k3 - k4),
                            Path(n, i, k4),
                        )
                        if any(q.length for q in legs):
                            continue
                        sa1 = table[(legs[0].source, 0)]
                        sa3 = table[(legs[2].source, 0)]
                        sa5 = table[(legs[4].source, 0)]
                        first = first + M.phi_grouplike(
                            legs[0].source, sa3[1].source, legs[4].source
                        ) * (sa3[0] * M.beta(legs[1])) * M.alpha(legs[3])
                        second = second + M.phi_grouplike(
                            sa1[1].source, legs[2].source, sa5[1].source
                        ).inverse() * (
                            (sa1[0] * sa5[0])
                            * (M.alpha(legs[1]) * M.beta(legs[3]))
                        )
        eps = one if l == 0 else CycloNum.zero()
        if first != eps or second != eps:
            raise StructureError(f"zigzag antipode equation fails on {p}")
        # coalgebra antimorphism: c_{i,k} c_{i+k,l-k} = c_{i,l}
        for k in range(l + 1):
            if table[(i, k)][0] * table[((i + k) % n, l - k)][0] != \
                    table[(i, l)][0]:
                raise StructureError(
                    f"antipode is not a coalgebra antimorphism at {p}")
    # s = 0 is an honest Hopf algebra: m(S (x) id)Delta = eta eps = m(id (x) S)Delta
    if M.s == 0:
        for p in M.basis:
            i, l = p.source, p.length
            left = PathVector(n)
            right = PathVector(n)
            for k in range(l + 1):
                a1 = Path(n, i + k, l - k)
                a2 = Path(n, i, k)
                left = left + M.multiply(s_vec(a1), PathVector.monomial(a2))
                right = right + M.multiply(PathVector.monomial(a1), s_vec(a2))
            want = unit_vec if l == 0 else PathVector(n)
            if left != want or right != want:
                raise StructureError(f"Hopf antipode identity fails on {p}")
