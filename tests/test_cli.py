import copy
import json
import os
import subprocess
import sys
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mqg import (MajidAlgebra, StructureError, export_algebra, majid,
                 root_of_unity, verify_quasi_bialgebra)
from mqg.cli import run


def _out(capsys):
    return capsys.readouterr().out.strip()


def test_classify_json_deterministic(capsys):
    assert run(["classify", "--n", "2", "--json"]) == 0
    first = _out(capsys)
    entries = json.loads(first)
    assert len(entries) == 4
    assert {"n": 2, "s": 1, "q_exp": 1, "conductor": 4, "d": 4, "dim": 8,
            "is_hopf": False, "trivial_coradical": False} in entries
    assert run(["classify", "--n", "2", "--json"]) == 0
    assert _out(capsys) == first


def test_classify_table(capsys):
    assert run(["classify", "--n", "3"]) == 0
    lines = _out(capsys).splitlines()
    assert len(lines) == 10  # header + 9 families


def test_build_and_export_round_trip(tmp_path, capsys):
    dump = tmp_path / "m.json"
    assert run(["build", "--n", "2", "--s", "1", "--q-exp", "1",
                "--export", str(dump), "--json"]) == 0
    assert json.loads(_out(capsys)) == {"n": 2, "s": 1, "d": 4, "dim": 8}
    assert run(["verify", "--import", str(dump), "--json"]) == 0
    rep = json.loads(_out(capsys))
    assert rep["passed"] and rep["antipode"]["passed"]


def test_verify_solves_the_antipode_once(tmp_path, capsys, monkeypatch):
    # the import solves and checks the antipode for its comparison, and
    # the antipode suite reads that table
    dump = tmp_path / "m.json"
    assert run(["export", "--n", "3", "--s", "1", "--q-exp", "1",
                "--out", str(dump)]) == 0
    _out(capsys)
    solve, solved = majid.solve_antipode, []
    monkeypatch.setattr(majid, "solve_antipode",
                        lambda M: solved.append(M) or solve(M))
    assert run(["verify", "--import", str(dump), "--json"]) == 0
    assert json.loads(_out(capsys))["antipode"] == {"passed": True}
    assert len(solved) == 1


def test_verify_reports_a_failed_antipode(capsys, monkeypatch):
    def fail(M):
        raise StructureError("no antipode")

    monkeypatch.setattr(majid, "solve_antipode", fail)
    family = ["--n", "2", "--s", "1", "--q-exp", "1"]
    assert run(["verify", *family, "--json"]) == 1
    assert capsys.readouterr().out == json.dumps(
        {"antipode": {"error": "no antipode", "passed": False},
         "bialgebra": verify_quasi_bialgebra(
             MajidAlgebra.build(2, 1, root_of_unity(4))),
         "passed": False}, sort_keys=True) + "\n"
    assert run(["verify", *family, "--suite", "antipode"]) == 1
    report = {"passed": False,
              "antipode": {"passed": False, "error": "no antipode"}}
    assert capsys.readouterr().out == f"verification failed: {report}\n"


def test_verify_inline(capsys):
    assert run(["verify", "--n", "2", "--s", "0", "--q-exp", "1",
                "--suite", "bialgebra", "--json"]) == 0
    assert json.loads(_out(capsys))["bialgebra"]["passed"]


def test_verify_rejects_tampered_dump(tmp_path, capsys):
    dump = tmp_path / "m.json"
    assert run(["export", "--n", "2", "--s", "1", "--q-exp", "1",
                "--out", str(dump)]) == 0
    _out(capsys)
    doc = json.loads(dump.read_text())
    doc["mult"][3]["coeff"]["num"][0] += 1
    dump.write_text(json.dumps(doc))
    assert run(["verify", "--import", str(dump), "--json"]) == 1
    assert run(["tensor", "--alg", str(dump), "--left", "I(0,1)",
                "--right", "I(1,1)", "--json"]) == 1
    assert run(["fpdim", "--alg", str(dump), "--object", "I(0,2)",
                "--json"]) == 1


def test_verify_rejects_a_bare_family_before_building_it(tmp_path, capsys):
    # 46 bytes naming M(40, 0, zeta_40), whose full comparison would take
    # 2.56 M products: the same verdict and output, without them
    dump = tmp_path / "m.json"
    dump.write_text('{"n": 40, "s": 0, "q_exp": 1, "conductor": 40}')
    error = "imported document disagrees with the rebuilt algebra"
    assert run(["verify", "--import", str(dump)]) == 1
    assert capsys.readouterr().out == f"FAIL: {error}\n"
    assert run(["verify", "--import", str(dump), "--json"]) == 1
    assert capsys.readouterr().out == json.dumps(
        {"error": error, "passed": False}, sort_keys=True) + "\n"


def test_product(capsys):
    assert run(["product", "--n", "2", "--s", "1", "--q-exp", "1",
                "p(0,1)", "p(0,1)", "--json"]) == 0
    doc = json.loads(_out(capsys))
    assert doc["target"] == "p(0,2)"
    assert run(["product", "--n", "2", "--s", "1", "--q-exp", "1",
                "p(0,2)", "p(0,2)", "--json"]) == 0
    assert json.loads(_out(capsys))["target"] is None


def test_cocycle_report(capsys):
    assert run(["cocycle", "--n", "4", "--s", "3"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert doc["pentagon"]["passed"] and doc["sigma"]["passed"]
    # the report is JSON already: --json leaves the bytes unchanged
    assert run(["cocycle", "--n", "4", "--s", "3", "--json"]) == 0
    assert capsys.readouterr().out == text


def test_indec(capsys):
    assert run(["indec", "--n", "2", "--d", "4", "--json"]) == 0
    assert len(json.loads(_out(capsys))) == 8


def test_decompose(tmp_path, capsys):
    from mqg.corep import IntervalModule, direct_sum
    M = direct_sum([IntervalModule(2, 4, 0, 2).realize(),
                    IntervalModule(2, 4, 1, 1).realize()])
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps(M.to_json()))
    assert run(["decompose", "--in", str(mod), "--json"]) == 0
    doc = json.loads(_out(capsys))
    assert {"top": 0, "length": 2, "mult": 1} in doc["summands"]
    assert {"top": 1, "length": 1, "mult": 1} in doc["summands"]


def test_tensor_and_fpdim(tmp_path, capsys):
    dump = tmp_path / "alg.json"
    assert run(["export", "--n", "2", "--s", "1", "--q-exp", "1",
                "--out", str(dump)]) == 0
    _out(capsys)
    assert run(["tensor", "--alg", str(dump),
                "--left", "I(0,2)", "--right", "I(1,3)", "--json"]) == 0
    doc = json.loads(_out(capsys))
    total = sum(x["length"] * x["mult"] for x in doc["summands"])
    assert total == 6
    assert run(["fpdim", "--alg", str(dump), "--object", "I(0,3)",
                "--json"]) == 0
    doc = json.loads(_out(capsys))
    assert doc["certificate"] == 3
    assert abs(doc["fp_dimension"] - 3) < 1e-9


def test_usage_errors(tmp_path, capsys):
    assert run(["bogus"]) == 2
    assert run(["verify", "--n", "2"]) == 2
    assert run(["decompose", "--in", "/nonexistent/path.json"]) == 2
    assert run(["product", "--n", "2", "--s", "1", "--q-exp", "1",
                "bad", "p(0,1)"]) == 2
    assert run(["product", "--n", "2", "--s", "1", "--q-exp", "1",
                "p(0,5)", "p(0,1)"]) == 2
    assert run(["build", "--n", "120", "--s", "1", "--q-exp", "1"]) == 2
    module = tmp_path / "bad-module.json"
    module.write_text(json.dumps({"n": 2, "d": 2, "dims": [1, 1],
                                  "arrows": 5}))
    assert run(["decompose", "--in", str(module), "--json"]) == 2
    capsys.readouterr()
    # one arrow matrix per vertex, neither fewer nor more
    for arrows in ([], [[[]]] * 3):
        module.write_text(json.dumps({"n": 2, "d": 2, "dims": [1, 1],
                                      "arrows": arrows}))
        assert run(["decompose", "--in", str(module), "--json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: need 2 arrow matrices")
        assert err.count("\n") == 1
    # d is bounded before anything is built: a module keeps n (d + 1)
    # matrices, so a huge d would exhaust memory
    for d in (200000, 0):
        module.write_text(json.dumps({"n": 2, "d": d, "dims": [0, 0],
                                      "arrows": [[], []]}))
        assert run(["decompose", "--in", str(module), "--json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed module document: d must be")
        assert err.count("\n") == 1
    # n is checked as d is: no cycle has fewer than two vertices
    zero = [[[{"conductor": 1, "num": [0], "den": 1}]]]
    for n, dims, arrows in ((0, [], []), (1, [1], zero), (True, [1], zero)):
        module.write_text(json.dumps({"n": n, "d": 1, "dims": dims,
                                      "arrows": arrows}))
        assert run(["decompose", "--in", str(module), "--json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed module document: n must be")
        assert err.count("\n") == 1
    # dims and conductors are JSON integers: not floats, strings or booleans
    one, zero = ({"conductor": 1, "num": [x], "den": 1} for x in (1, 0))
    for dims, x in (([1.9, "1"], one), ([1, 1], {**one, "conductor": True})):
        module.write_text(json.dumps({"n": 2, "d": 2, "dims": dims,
                                      "arrows": [[[x]], [[zero]]]}))
        assert run(["decompose", "--in", str(module), "--json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed module document: ")
        assert err.count("\n") == 1
    # a module document handed over as an algebra dump
    assert run(["fpdim", "--alg", str(module), "--object", "I(0,1)"]) == 2
    assert capsys.readouterr().err == (
        "error: malformed algebra document: missing key 'conductor'\n")
    listing = tmp_path / "list.json"
    listing.write_text("[1, 2]")
    assert run(["tensor", "--alg", str(listing), "--left", "I(0,1)",
                "--right", "I(1,1)"]) == 2
    assert "malformed algebra document" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trivial_coradical_dump(n, tmp_path, capsys):
    # d = 1: the bare group algebra, every simple of FP dimension 1
    dump = tmp_path / "d1.json"
    assert run(["export", "--n", str(n), "--s", "0", "--q-exp", "0",
                "--out", str(dump)]) == 0
    capsys.readouterr()
    assert run(["fpdim", "--alg", str(dump), "--object", "I(1,1)",
                "--json"]) == 0
    assert json.loads(_out(capsys))["certificate"] == 1
    assert run(["tensor", "--alg", str(dump), "--left", "I(1,1)",
                "--right", f"I({n - 1},1)", "--json"]) == 0
    assert json.loads(_out(capsys)) == {
        "summands": [{"top": 0, "length": 1, "mult": 1}]}


@pytest.mark.parametrize("value", ["abc", "0"])
def test_invalid_max_conductor_is_a_usage_error(value):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "MQG_MAX_CONDUCTOR": value, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "mqg.cli", "classify", "--n", "2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "MQG_MAX_CONDUCTOR" in proc.stderr


def test_help_exits_clean(capsys):
    assert run(["--help"]) == 0
    assert "classify" in _out(capsys)


_DUMP = export_algebra(MajidAlgebra.build(2, 1, root_of_unity(4)))


def _positions(node, path=()):
    """The path of every dict value and list item under `node`."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _positions(value, path + (key,))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(position=st.one_of(  # a top-level field half of the time
           st.sampled_from([(key,) for key in _DUMP]),
           st.sampled_from(list(_positions(_DUMP)))),
       mutation=st.one_of(
           st.tuples(st.just("number"), st.integers(-10 ** 6, 10 ** 6)),
           st.tuples(st.just("drop"), st.none()),
           st.tuples(st.just("swap"),
                     st.sampled_from([None, "x", [], {}, 1.5, True]))))
def test_mutated_dump_keeps_the_exit_contract(position, mutation):
    # one field of an M(2,1) dump changed: a number, a dropped key or
    # item, or a value of another type
    doc = copy.deepcopy(_DUMP)
    parent, key = reduce(getitem, position[:-1], doc), position[-1]
    kind, value = mutation
    if kind == "drop":
        del parent[key]
    else:
        parent[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        dump = os.path.join(tmp, "m.json")
        with open(dump, "w") as fh:
            json.dump(doc, fh)
        assert run(["verify", "--import", dump]) in (0, 1, 2)


def _module_doc():
    from mqg.corep import CycleModule, IntervalModule, direct_sum
    M = direct_sum([IntervalModule(2, 2, 0, 2).realize(),
                    IntervalModule(2, 2, 1, 1).realize()])
    z = root_of_unity(4)
    arrows = [[[x if x.is_zero() else z for x in row] for row in mat]
              for mat in M.arrows]
    return CycleModule(2, 2, M.dims, arrows).to_json()


_MODULE = _module_doc()


# small numbers only: a module costs n d arrow products at construction
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(position=st.one_of(  # a top-level field half of the time
           st.sampled_from([(key,) for key in _MODULE]),
           st.sampled_from(list(_positions(_MODULE)))),
       mutation=st.one_of(
           st.tuples(st.just("number"), st.integers(-3, 64)),
           st.tuples(st.just("drop"), st.none()),
           st.tuples(st.just("swap"),
                     st.sampled_from([None, "x", [], {}, 1.5, True]))))
def test_mutated_module_keeps_the_exit_contract(position, mutation):
    # one field of a small module document over Q(zeta_4) changed: a
    # number, a dropped key or item, or a value of another type
    doc = copy.deepcopy(_MODULE)
    parent, key = reduce(getitem, position[:-1], doc), position[-1]
    kind, value = mutation
    if kind == "drop":
        del parent[key]
    else:
        parent[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        module = os.path.join(tmp, "m.json")
        with open(module, "w") as fh:
            json.dump(doc, fh)
        assert run(["decompose", "--in", module, "--json"]) in (0, 1, 2)




# what each subcommand accepts: for each option, values of the right kind
# and values of the wrong kind; <...> stand for files in the
# test's directory.  Small integers only: an n = 4 family takes a second
# to verify.
def _values(right, wrong):  # each right value weighs three
    return st.sampled_from(right * 3 + wrong)


_INT = _values(["1", "2", "3"], ["-2", "0", "x", ""])
_PATH = _values(["p(0,1)", "p(1,1)", "p(1,2)"], ["p(0,3)", "p(9,1)", "x"])
_INTERVAL = _values(["I(0,1)", "I(1,2)"], ["I(0,9)", "I(x)", "x"])
_FILE = {kind: _values([f"<{kind}>"], ["<dir>", "<missing>", other])
         for kind, other in (("dump", "<module>"), ("module", "<dump>"))}
_OUT = _values(["<out>"], ["<dir>", "<dump>"])
_FAMILY = {"--n": _INT, "--s": _INT, "--q-exp": _INT}
_OPTIONS = {
    "classify": {"--n": _INT},
    "build": {**_FAMILY, "--export": _OUT},
    "verify": {**_FAMILY, "--import": _FILE["dump"], "--suite": _values(
        ["bialgebra", "antipode", "all"], ["x"])},
    "product": _FAMILY,
    "cocycle": {"--n": _INT, "--s": _INT, "--check": _values(
        ["pentagon", "sigma", "all"], ["x"])},
    "indec": {"--n": _INT, "--d": _INT},
    "decompose": {"--in": _FILE["module"]},
    "tensor": {"--alg": _FILE["dump"], "--left": _INTERVAL,
               "--right": _INTERVAL},
    "fpdim": {"--alg": _FILE["dump"], "--object": _INTERVAL},
    "export": {**_FAMILY, "--out": _OUT},
}
_STRAY = st.sampled_from(["--json", "--n", "--bogus", "x", "-1"])


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(command=st.sampled_from(sorted(_OPTIONS)), data=st.data())
def test_argv_keeps_the_exit_contract(argv_dir, command, data):
    # each option present (four times in five) or absent, with a value of
    # either kind, then the positionals of `product`, --json and, one
    # time in four, a stray token;
    # the inputs are written afresh, since --out and --export may
    # overwrite them
    files = {"<dump>": argv_dir / "alg.json",
             "<module>": argv_dir / "mod.json", "<out>": argv_dir / "out.json",
             "<dir>": argv_dir, "<missing>": argv_dir / "missing.json"}
    files["<dump>"].write_text(json.dumps(_DUMP))
    files["<module>"].write_text(json.dumps(_MODULE))
    argv = [command]
    for flag, values in _OPTIONS[command].items():
        if data.draw(st.integers(0, 4), label=f"{flag} absent") < 4:
            argv += [flag, data.draw(values, label=flag)]
    if command == "product":
        argv += data.draw(st.lists(_PATH, min_size=1, max_size=3),
                          label="paths")
    if data.draw(st.booleans(), label="--json"):
        argv.append("--json")
    if data.draw(st.integers(0, 3), label="stray present") == 3:
        argv.append(data.draw(_STRAY, label="stray"))
    assert run([str(files.get(a, a)) for a in argv]) in (0, 1, 2)
