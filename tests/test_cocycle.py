from itertools import product

import pytest

from mqg import cocycle
from mqg.cyclo import CycloNum, root_of_unity
from mqg.cocycle import (
    CocycleParams,
    OneDimModule,
    action_scalar,
    legal_q_values,
    one_dim_modules,
    pentagon_check,
    pentagon_report,
    phi,
    sigma,
    sigma_check,
    sigma_report,
    twisted_power,
    twisted_product_scalar,
)


def test_params_validation():
    with pytest.raises(ValueError):
        CocycleParams.standard(1, 0)
    with pytest.raises(ValueError):
        CocycleParams.standard(3, 3)
    with pytest.raises(ValueError):
        CocycleParams(4, 1, root_of_unity(3))  # not a primitive 4th root


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
            assert pentagon_check(CocycleParams.standard(n, s))


def test_pentagon_negative_control():
    params = CocycleParams.standard(2, 1)
    table = {
        (i, j, k): phi(params, i, j, k)
        for i in range(2) for j in range(2) for k in range(2)
    }
    table[(1, 1, 1)] = root_of_unity(4)  # not even a sign
    rep = pentagon_report(params, phi_table=table)
    assert not rep["passed"]
    assert rep["counterexample"] is not None


def test_sigma_is_two_cocycle():
    for n in range(2, 6):
        for s in range(n):
            assert sigma_check(CocycleParams.standard(n, s))


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


def test_twisted_product_scalar_matches_sigma():
    params = CocycleParams.standard(4, 1)
    assert twisted_product_scalar(params, 5, 7) == sigma(params, 1, 3)


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
