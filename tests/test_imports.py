"""Which layers each entry point loads.  `import mqg` loads none, `import
mqg.cli` loads cyclo only, and the commands that run no axiom sweep never
load numpy.  Checked in fresh interpreters, since this process has
imported everything already."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mqg

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# the names `mqg` exported when every layer was imported eagerly, by the
# layer they were imported from
EXPORTS = {
    "cyclo": ["ConductorLimitError", "CycloNum", "InvalidConductorError",
              "euler_phi", "max_conductor", "root_of_unity"],
    "quiver": ["Path", "PathVector", "parse_path"],
    "cocycle": ["CocycleParams", "action_scalar", "legal_q_values",
                "pentagon_report", "phi", "phi_exponent", "sigma",
                "sigma_report", "twisted_power"],
    "bimodule": ["ArrowBimodule", "build_bimodule", "quasi_axiom_check"],
    "shuffle": ["CrossCheckReport", "QuiverAlgebra"],
    "corep": ["CycleModule", "FusionData", "IntervalModule",
              "NotAComoduleError", "brute_force_decompose",
              "comodule_tensor", "decompose", "direct_sum", "fp_dimension",
              "fusion_data", "hom_dim", "indecomposables", "random_module",
              "tensor_consistency_check"],
    "majid": ["ClassificationEntry", "MajidAlgebra", "StructureError",
              "TruncationError", "admissible_truncations",
              "build_truncated", "classify", "export_algebra",
              "import_algebra", "solve_antipode"],
    "algebra": ["verify_quasi_bialgebra"],
}


def _fresh(code: str):
    """Run `code` in a fresh interpreter; it prints one JSON value."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _added_by(statement: str) -> set:
    return set(_fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"))


def test_import_mqg_loads_no_layer():
    added = _added_by("import mqg")
    assert [m for m in added if m.startswith("mqg.")] == []
    assert "numpy" not in added


def test_import_cli_loads_only_cyclo():
    added = _added_by("import mqg.cli")
    assert {m for m in added if m.split(".")[0] == "mqg"} == {
        "mqg", "mqg.cli", "mqg.cyclo"}
    assert "numpy" not in added


def _input_files(tmp_path):
    """A module file, an M(2, 1, zeta_4) dump and that dump tampered, as
    tests/test_cli.py tampers it."""
    from mqg.corep import IntervalModule, direct_sum
    from mqg.majid import MajidAlgebra, export_algebra
    from mqg.cyclo import root_of_unity
    M = direct_sum([IntervalModule(2, 4, 0, 2).realize(),
                    IntervalModule(2, 4, 1, 1).realize()])
    files = {"module": tmp_path / "mod.json", "alg": tmp_path / "alg.json",
             "bad": tmp_path / "bad.json", "out": tmp_path / "out.json"}
    files["module"].write_text(json.dumps(M.to_json()))
    doc = export_algebra(MajidAlgebra.build(2, 1, root_of_unity(4)))
    files["alg"].write_text(json.dumps(doc))
    doc["mult"][3]["coeff"]["num"][0] += 1
    files["bad"].write_text(json.dumps(doc))
    return {k: str(v) for k, v in files.items()}


_FAMILY = ["--n", "2", "--s", "1", "--q-exp", "1"]


@pytest.mark.parametrize("argv, code", [
    (["cocycle", "--n", "6", "--s", "1"], 0),
    (["indec", "--n", "3", "--d", "3", "--json"], 0),
    (["decompose", "--in", "{module}", "--json"], 0),
    # the conductor 120^2 is refused before mqg.majid is imported
    (["build", "--n", "120", "--s", "1", "--q-exp", "1", "--json"], 2),
    # these build or read an algebra but run no axiom sweep
    (["classify", "--n", "3", "--json"], 0),
    (["build", *_FAMILY, "--export", "{out}", "--json"], 0),
    (["export", *_FAMILY, "--out", "{out}", "--json"], 0),
    (["product", *_FAMILY, "p(1,1)", "p(0,2)", "--json"], 0),
    (["tensor", "--alg", "{alg}", "--left", "I(0,2)", "--right", "I(1,3)",
      "--json"], 0),
    (["verify", *_FAMILY, "--suite", "antipode", "--json"], 0),
    (["verify", "--import", "{bad}", "--json"], 1),
    (["fpdim", "--alg", "{bad}", "--object", "I(0,2)", "--json"], 1),
])
def test_commands_without_an_algebra_leave_numpy_unloaded(argv, code,
                                                          tmp_path):
    files = _input_files(tmp_path)
    argv = [a.format(**files) for a in argv]
    result = _fresh(
        "import contextlib, io, json, sys\n"
        "from mqg.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = run({argv!r})\n"
        "print(json.dumps([code, 'numpy' in sys.modules]))\n")
    assert result == [code, False]


def test_the_first_verification_imports_nothing():
    # numpy and everything the sweeps use are loaded by `import
    # mqg.algebra`, so the first call costs what later calls cost
    added = _fresh(
        "import json, sys\n"
        "import mqg.algebra as algebra\n"
        "from mqg.cyclo import root_of_unity\n"
        "M = algebra.MajidAlgebra.build(3, 1, root_of_unity(9))\n"
        "before = set(sys.modules)\n"
        "assert algebra.verify_quasi_bialgebra(M)['passed']\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    assert added == []


def test_every_export_resolves_to_its_layer():
    for layer, names in EXPORTS.items():
        module = importlib.import_module(f"mqg.{layer}")
        for name in names:
            assert getattr(mqg, name) is getattr(module, name), name
    # majid re-exports the exception that cyclo defines, and algebra
    # re-exports majid's names
    assert mqg.StructureError is importlib.import_module(
        "mqg.cyclo").StructureError
    algebra = importlib.import_module("mqg.algebra")
    for name in EXPORTS["majid"]:
        assert getattr(algebra, name) is getattr(mqg, name), name
    assert sorted(mqg.__all__) == sorted(
        name for names in EXPORTS.values() for name in names)
    assert dir(mqg) == sorted(mqg.__all__)
    # a layer read as an attribute is imported, as when all were eager
    assert mqg.corep is importlib.import_module("mqg.corep")
    with pytest.raises(AttributeError):
        mqg.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from mqg import no_such_name  # noqa: F401


def _numpy_imports(path: Path):
    """The enclosing function of every numpy import, None at module
    level."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                names = ([a.name for a in child.names]
                         if isinstance(child, ast.Import)
                         else [child.module or ""])
                if any(n.split(".")[0] == "numpy" for n in names):
                    found.append(func)
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)
            visit(child, inner)

    visit(ast.parse(path.read_text()), None)
    return found


def test_numpy_is_imported_in_two_places():
    found = {p.stem: _numpy_imports(p) for p in (SRC / "mqg").glob("*.py")}
    assert {k: v for k, v in found.items() if v} == {
        "algebra": [None], "corep": ["fp_dimension"]}


def test_the_module_level_caches_are_pinned():
    # every lru_cache a layer defines at module level: results and
    # runtimes must not depend on what ran earlier in the process, so a
    # new global cache needs a reason
    found = set()
    for path in (SRC / "mqg").glob("*.py"):
        module = importlib.import_module(f"mqg.{path.stem}")
        for name, value in vars(module).items():
            if (hasattr(value, "cache_info")
                    and value.__module__ == module.__name__):
                found.add(f"{path.stem}.{name}")
    assert found == {f"cyclo.{name}" for name in (
        "euler_phi", "_phi_reduction_data", "_trace_zeta",
        "root_of_unity", "_roots_at", "cached_mul")}


def _referenced_names(path: Path) -> set:
    """Every name `path` reads: loaded names and attributes, and the
    names it imports, except algebra.py's re-export of majid."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if (path.name == "algebra.py"
                    and isinstance(node, ast.ImportFrom)
                    and node.module == "majid"):
                continue
            found.update(alias.name.split(".")[-1] for alias in node.names)
    return found


def _library_names() -> set:
    """Every name a layer (not __init__.py), a demo or a benchmark module
    reads."""
    files = [p for p in (SRC / "mqg").glob("*.py") if p.name != "__init__.py"]
    for directory in ("demos", "perfbench"):
        files += (ROOT / directory).glob("*.py")
    return set().union(*map(_referenced_names, files))


def test_names_only_tests_call_are_pinned():
    # every public name is read by a layer, a demo or a benchmark
    # workload: a check or reference that only tests read lives in the
    # tests, and code nothing calls is deleted
    assert set(mqg.__all__) - _library_names() == set()


def test_methods_only_tests_call_are_pinned():
    # the same for the public methods of the classes of every layer: a
    # method counts as read when its name is, on any object
    methods = {f"{node.name}.{item.name}"
               for path in (SRC / "mqg").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               for item in node.body
               if isinstance(item, ast.FunctionDef)
               and not item.name.startswith("_")}
    used = _library_names()
    assert {m for m in methods if m.split(".")[1] not in used} == {
        # test_algebra.py::test_reassociator_and_functionals, the graded
        # reassociator on vertices and off them
        "MajidAlgebra.reassociator",
        # tests/antipode_oracle.py, the antipode identities on path
        # vectors, and test_algebra.py::generation_check
        "MajidAlgebra.multiply",
    }
