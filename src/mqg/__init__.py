"""Exact construction and verification of the finite-dimensional pointed
Majid algebras M(n, s, q) on the cyclic quiver, together with their
corepresentation categories."""

from .cyclo import (
    ConductorLimitError,
    CycloNum,
    InvalidConductorError,
    euler_phi,
    max_conductor,
    root_of_unity,
)
from .quiver import (
    FiniteGroup,
    Path,
    PathVector,
    Quiver,
    RamificationDatum,
    comultiply,
    counit,
    hopf_quiver,
    is_connected,
    parse_path,
    thin_splits,
)
from .cocycle import (
    CocycleParams,
    OneDimModule,
    action_scalar,
    legal_q_values,
    one_dim_modules,
    pentagon_check,
    pentagon_report,
    phi,
    phi_exponent,
    sigma,
    sigma_check,
    sigma_report,
    twisted_power,
    twisted_product_scalar,
)
from .bimodule import ArrowBimodule, build_bimodule, quasi_axiom_check
from .shuffle import CrossCheckReport, QuiverAlgebra, gauss_binomial_poly
# corep before algebra: corep imports algebra before numpy, so the code of
# every module is loaded before numpy is; loading it after numpy raised
# the peak memory of a process by about 2 MB
from .corep import (
    CycleModule,
    FusionData,
    IntervalModule,
    NotAComoduleError,
    brute_force_decompose,
    brute_force_indecomposables,
    comodule_tensor,
    decompose,
    direct_sum,
    fp_dimension,
    fusion_data,
    hom_dim,
    indecomposables,
    is_indecomposable,
    random_module,
    tensor_consistency_check,
    uniserial_check,
)
from .algebra import (
    ClassificationEntry,
    MajidAlgebra,
    StructureError,
    TruncationError,
    admissible_truncations,
    build,
    build_truncated,
    classify,
    export_algebra,
    generation_check,
    import_algebra,
    solve_antipode,
    verify_quasi_bialgebra,
)

__version__ = "1.0.0"
