"""Products on the cycle: two routes, one answer.

Builds the graded multiplication from the arrow bimodule, multiplies a
few paths by the thin-split sum (accumulated along lattice paths), and
shows the agreement with the closed Gaussian-binomial formula.
"""
from mqg import Path, PathVector, QuiverAlgebra, root_of_unity

A = QuiverAlgebra.build(2, 1, root_of_unity(4))
print(f"n = 2, s = 1, q = {A.q}, hbar = {A.hbar} (order {A.hbar.mult_order()})")
print()

x = PathVector.monomial(Path(2, 0, 1))
print("powers of the arrow X_1 = p(0,1), thin-split route:")
for k in range(1, 5):
    print(f"  X_1^{k} =", A.power_left(x, k))
print()

print("closed formula on sample pairs (coefficient, target):")
for (i, l), (j, m) in (((0, 1), (0, 1)), ((0, 2), (1, 1)), ((1, 1), (1, 2))):
    c, t = A.closed_form_product(Path(2, i, l), Path(2, j, m))
    via_sum = A.shuffle_multiply(PathVector.monomial(Path(2, i, l)),
                                 PathVector.monomial(Path(2, j, m)))
    print(f"  p({i},{l}) . p({j},{m}) = ({c}) {t}   [thin-split sum: {via_sum}]")
print()

rep = A.cross_check(8)
print(f"cross-check of both routes, l+m <= 8: "
      f"{'pass' if rep.passed else rep.witness} ({rep.pairs_checked} pairs)")
