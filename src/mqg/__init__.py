"""Exact construction and verification of the finite-dimensional pointed
Majid algebras M(n, s, q) on the cyclic quiver, together with their
corepresentation categories.

The package namespace is lazy (PEP 562): `import mqg` loads no layer, and
the first use of an exported name, as `mqg.X` or `from mqg import X`,
imports the one submodule that defines it.  numpy arrives only with
mqg.algebra, the axiom sweeps of `verify_quasi_bialgebra`, and inside
mqg.corep.fp_dimension; the algebra itself is mqg.majid, which loads none.
"""
import importlib

__version__ = "1.0.0"

# submodule -> the public names the package exports from it
_EXPORTS = {
    "cyclo": (
        "ConductorLimitError",
        "CycloNum",
        "InvalidConductorError",
        "StructureError",
        "euler_phi",
        "max_conductor",
        "root_of_unity",
    ),
    "quiver": (
        "Path",
        "PathVector",
        "parse_path",
    ),
    "cocycle": (
        "CocycleParams",
        "action_scalar",
        "legal_q_values",
        "pentagon_report",
        "phi",
        "phi_exponent",
        "sigma",
        "sigma_report",
        "twisted_power",
    ),
    "bimodule": ("ArrowBimodule", "build_bimodule", "quasi_axiom_check"),
    "shuffle": ("CrossCheckReport", "QuiverAlgebra"),
    "corep": (
        "CycleModule",
        "FusionData",
        "IntervalModule",
        "NotAComoduleError",
        "brute_force_decompose",
        "comodule_tensor",
        "decompose",
        "direct_sum",
        "fp_dimension",
        "fusion_data",
        "hom_dim",
        "indecomposables",
        "random_module",
        "tensor_consistency_check",
    ),
    "majid": (
        "ClassificationEntry",
        "MajidAlgebra",
        "TruncationError",
        "admissible_truncations",
        "build_truncated",
        "classify",
        "export_algebra",
        "import_algebra",
        "solve_antipode",
    ),
    "algebra": ("verify_quasi_bialgebra",),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a layer read as an attribute, e.g. mqg.corep
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return __all__
