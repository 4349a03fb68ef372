import random
from dataclasses import dataclass
from itertools import product

import pytest

from mqg import cocycle
from mqg.cyclo import CycloNum, root_of_unity
from mqg.cocycle import (
    CocycleParams,
    action_scalar,
    legal_q_values,
    pentagon_report,
    phi,
    phi_exponent,
    sigma,
    sigma_report,
    twisted_power,
)


def test_params_validation():
    with pytest.raises(ValueError):
        CocycleParams.standard(1, 0)
    with pytest.raises(ValueError):
        CocycleParams.standard(3, 3)
    # qq is pinned to zeta_n, not a field
    assert CocycleParams(4, 1).qq == root_of_unity(4)
    with pytest.raises(TypeError):
        CocycleParams(4, 1, root_of_unity(4))


def test_phi_values():
    params = CocycleParams.standard(2, 1)
    one = CycloNum.one()
    assert phi(params, 0, 1, 1) == one
    assert phi(params, 1, 0, 1) == one
    assert phi(params, 1, 1, 0) == one
    assert phi(params, 1, 1, 1) == CycloNum.from_rational(-1)
    # j + k below n: no carry, value 1
    params3 = CocycleParams.standard(3, 2)
    assert phi(params3, 2, 1, 1) == one
    assert phi(params3, 2, 1, 2) == params3.qq ** (2 * 2)
    # arguments reduce mod n
    assert phi(params3, 5, 4, 5) == phi(params3, 2, 1, 2)


def test_phi_is_qq_to_phi_exponent():
    for n in range(2, 7):
        for s in range(n):
            params = CocycleParams.standard(n, s)
            for i, j, k in product(range(-1, n + 1), repeat=3):
                e = phi_exponent(params, i, j, k)
                assert 0 <= e < n
                assert phi(params, i, j, k) == params.qq ** e


def test_phi_trivial_for_s_zero():
    params = CocycleParams.standard(4, 0)
    one = CycloNum.one()
    assert all(
        phi(params, i, j, k) == one
        for i in range(4) for j in range(4) for k in range(4)
    )


def test_pentagon_small():
    for n in range(2, 7):
        for s in range(n):
            assert pentagon_report(CocycleParams.standard(n, s))["passed"]


def _plain_pentagon_report(params, phi_table=None):
    """pentagon_report as a plain loop over CycloNum values, multiplied
    with `*`; phi_table overrides the cocycle with {(i, j, k): CycloNum}."""
    n = params.n
    t = phi_table or {(i, j, k): phi(params, i, j, k)
                      for i, j, k in product(range(n), repeat=3)}
    one = CycloNum.one()
    for i, k in product(range(n), repeat=2):
        if t[(i, 0, k)] != one:
            return {"passed": False, "counterexample": [i, 0, k, None],
                    "reason": "normalization"}
    for i, j, k, l in product(range(n), repeat=4):
        lhs = t[(i, j, (k + l) % n)] * t[((i + j) % n, k, l)]
        rhs = t[(j, k, l)] * t[(i, (j + k) % n, l)] * t[(i, j, k)]
        if lhs != rhs:
            return {"passed": False, "counterexample": [i, j, k, l],
                    "reason": "pentagon"}
    return {"passed": True, "counterexample": None}


def test_pentagon_negative_control():
    params = CocycleParams.standard(2, 1)
    table = {
        (i, j, k): phi(params, i, j, k)
        for i in range(2) for j in range(2) for k in range(2)
    }
    table[(1, 1, 1)] = root_of_unity(4)  # not even a sign
    rep = _plain_pentagon_report(params, phi_table=table)
    assert not rep["passed"]
    assert rep["counterexample"] is not None


def test_pentagon_report_matches_the_plain_loop():
    for n in range(2, 7):
        for s in range(n):
            params = CocycleParams.standard(n, s)
            assert pentagon_report(params) == _plain_pentagon_report(params)
    params = CocycleParams.standard(4, 1)
    exponents = {key: phi_exponent(params, *key)
                 for key in product(range(4), repeat=3)}

    def both(changes):
        table = {**exponents, **changes}
        rep = pentagon_report(params, phi_table=table)
        oracle = _plain_pentagon_report(
            params, {key: params.qq ** e for key, e in table.items()})
        assert rep == oracle
        return rep

    # one exponent moved by one: the first failure, at l = 1 and at l = 0
    for key, first in (((2, 3, 1), [1, 1, 3, 1]), ((2, 3, 0), [1, 1, 3, 0])):
        assert both({key: exponents[key] + 1}) == {
            "passed": False, "counterexample": first, "reason": "pentagon"}
    # Phi(g^2, 1, g^3) = qq: not normalized
    assert both({(2, 0, 3): 1}) == {
        "passed": False, "counterexample": [2, 0, 3, None],
        "reason": "normalization"}
    # exponents count mod n: qq^4 = 1
    assert both({(3, 0, 1): 4})["passed"]


@pytest.fixture
def counts_seen(monkeypatch):
    """What cocycle._source_count returns, call by call: 2 where the
    pentagon sweeps the first sources {0, 1}, n where it falls back to
    all."""
    seen = []
    source_count = cocycle._source_count

    def spy(e, n):
        seen.append(source_count(e, n))
        return seen[-1]

    monkeypatch.setattr(cocycle, "_source_count", spy)
    return seen


def _affine_in_i(table, n):
    """e(i, j, k) = e(0, j, k) + i (e(1, j, k) - e(0, j, k)) mod n, plainly."""
    return all((table[(i, j, k)] - table[(0, j, k)]
                - i * (table[(1, j, k)] - table[(0, j, k)])) % n == 0
               for i, j, k in product(range(n), repeat=3))


def _both_reports(params, table):
    """pentagon_report on an exponent table, asserted equal to the plain
    loop over the CycloNum values qq^e."""
    rep = pentagon_report(params, phi_table=table)
    assert rep == _plain_pentagon_report(
        params, {key: params.qq ** e for key, e in table.items()})
    return rep


def test_pentagon_sweeps_two_sources_on_affine_tables(counts_seen):
    for n in range(2, 7):
        for s in range(n):
            params = CocycleParams.standard(n, s)
            assert pentagon_report(params) == _plain_pentagon_report(params)
    assert counts_seen == [2] * 20
    # affine in i but no cocycle: e(i, j, k) = i c(j, k) with c(j, k) =
    # j k^2, whose coboundary 2 j k l is not 0 mod an odd n, so the
    # pentagon fails, first at i = 1, through the reduced sweep
    for n in (3, 5, 7):
        table = {(i, j, k): i * j * k * k % n
                 for i, j, k in product(range(n), repeat=3)}
        counts_seen.clear()
        rep = _both_reports(CocycleParams.standard(n, 0), table)
        assert counts_seen == [2]
        assert rep == {"passed": False, "counterexample": [1, 1, 1, 1],
                       "reason": "pentagon"}


def test_pentagon_report_matches_the_plain_loop_on_tampered_tables(
        counts_seen):
    # one or two exponents moved in the cocycle tables with n <= 7: the
    # same report as the plain loop, on all sources exactly where the
    # table is not affine in i (normalization fails before the sweep)
    rng = random.Random(0)
    fallbacks = 0
    for _ in range(1000):
        n = rng.randrange(2, 8)
        params = CocycleParams.standard(n, rng.randrange(n))
        table = {key: phi_exponent(params, *key)
                 for key in product(range(n), repeat=3)}
        for key in rng.sample(sorted(table), rng.randint(1, 2)):
            table[key] += rng.randrange(1, n)
        counts_seen.clear()
        rep = _both_reports(params, table)
        if rep.get("reason") == "normalization":
            assert counts_seen == []
            continue
        affine = _affine_in_i(table, n)
        assert counts_seen == [2 if affine else n]
        fallbacks += not affine
    assert fallbacks > 100


def test_sigma_is_two_cocycle():
    for n in range(2, 6):
        for s in range(n):
            assert sigma_report(CocycleParams.standard(n, s))["passed"]


def _plain_sigma_report(params):
    """sigma_report as a plain loop: sigma evaluated afresh per use."""
    n, sg = params.n, cocycle.sigma
    for i, j, k in product(range(n), repeat=3):
        if (sg(params, i, j) * sg(params, (i + j) % n, k)
                != sg(params, j, k) * sg(params, i, (j + k) % n)):
            return {"passed": False, "counterexample": [i, j, k],
                    "reason": "2-cocycle"}
    cum = CycloNum.one()
    for i in range(2, n + 1):
        cum = cum * sg(params, (i - 1) % n, 1)
        if cum != twisted_power(params, i):
            return {"passed": False, "counterexample": [i],
                    "reason": "twisted-power"}
    return {"passed": True, "counterexample": None}


def test_sigma_report_matches_the_plain_loop(monkeypatch):
    for n in range(2, 9):
        for s in range(n):
            params = CocycleParams.standard(n, s)
            assert sigma_report(params) == _plain_sigma_report(params)
    true_sigma = cocycle.sigma
    params = CocycleParams.standard(4, 1)

    # one value moved: the 2-cocycle identity fails, first at (1, 1, 0),
    # where a transposed read of the table would name another triple
    def one_moved(p, i, j):
        v = true_sigma(p, i, j)
        return -v if (i, j) == (2, 0) else v

    monkeypatch.setattr(cocycle, "sigma", one_moved)
    rep = sigma_report(params)
    assert rep == {"passed": False, "counterexample": [1, 1, 0],
                   "reason": "2-cocycle"}
    assert rep == _plain_sigma_report(params)

    # times the coboundary of f(i) = zeta_8^i, i.e. -1 where i + j wraps:
    # still a 2-cocycle, but the twisted powers fail at g^(*4)
    def coboundary(p, i, j):
        v = true_sigma(p, i, j)
        return -v if i + j >= p.n else v

    monkeypatch.setattr(cocycle, "sigma", coboundary)
    rep = sigma_report(params)
    assert rep == {"passed": False, "counterexample": [4],
                   "reason": "twisted-power"}
    assert rep == _plain_sigma_report(params)


def test_sigma_identity_element():
    params = CocycleParams.standard(4, 3)
    one = CycloNum.one()
    assert all(sigma(params, 0, j) == one for j in range(4))
    assert all(sigma(params, i, 0) == one for i in range(4))
    with pytest.raises(ValueError):
        sigma(params, -1, 0)


def test_twisted_power_scalar():
    params = CocycleParams.standard(3, 2)
    assert twisted_power(params, 1) == CycloNum.one()
    assert twisted_power(params, 2) == params.qq ** (-2)
    assert twisted_power(params, 3) == params.qq ** (-4)
    with pytest.raises(ValueError):
        twisted_power(params, 0)
    # consistency with iterated twisted products is part of sigma_report
    assert sigma_report(params)["passed"]


def test_legal_q_values():
    params = CocycleParams.standard(3, 1)
    qs = legal_q_values(params)
    assert len(qs) == 3
    for q in qs:
        assert q.mult_order() == 9
        assert q**3 == params.qq
    params0 = CocycleParams.standard(3, 0)
    qs0 = legal_q_values(params0)
    assert len(qs0) == 3
    assert all(q**3 == CycloNum.one() for q in qs0)


def test_action_scalar_and_legality():
    params = CocycleParams.standard(3, 2)
    q = legal_q_values(params)[1]
    assert action_scalar(params, q) == q**2
    with pytest.raises(ValueError):
        action_scalar(params, root_of_unity(3))  # not an n-th root of qq
    params0 = CocycleParams.standard(3, 0)
    q0 = root_of_unity(3)
    assert action_scalar(params0, q0) == q0
    with pytest.raises(ValueError):
        action_scalar(params0, root_of_unity(9))


@dataclass(frozen=True)
class OneDimModule:
    """A one-dimensional twisted-group-algebra module, g acts by lam."""

    lam: CycloNum
    params: CocycleParams

    def __post_init__(self):
        if self.lam**self.params.n != self.params.qq**self.params.s:
            raise ValueError("action scalar must satisfy lam^n = qq^s")


def one_dim_modules(params: CocycleParams) -> list[OneDimModule]:
    return [OneDimModule(action_scalar(params, q), params)
            for q in legal_q_values(params)]


def test_one_dim_modules():
    for n in range(2, 6):
        for s in range(n):
            params = CocycleParams.standard(n, s)
            mods = one_dim_modules(params)
            assert len(mods) == n
            want = params.qq**s
            for m in mods:
                assert m.lam**n == want
            from math import gcd
            distinct = n if s == 0 else n // gcd(s, n)
            assert len({m.lam for m in mods}) == distinct


def test_one_dim_module_validation():
    params = CocycleParams.standard(2, 1)
    with pytest.raises(ValueError):
        OneDimModule(CycloNum.one(), params)  # 1^2 != qq^1 = -1
