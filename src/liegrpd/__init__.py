"""Exact coadjoint-orbit structure for solvable Lie algebras and finite
groupoid verification: rational/Gaussian-rational linear algebra, weight and
exponential-type analysis, open-orbit census, stratification, the cascade
rank test for split Borel subalgebras, and pullback/bimodule checks for
transformation groupoids."""

from .exact import (
    GaussianRational,
    Matrix,
    NumericError,
    gaussian,
    parse_scalar,
    format_scalar,
)
from .lie import (
    AntisymmetryError,
    JacobiError,
    LieAlgebra,
    LieModule,
    Subspace,
    from_brackets,
    load_algebra,
    structure_series,
    validate_lie_algebra,
)
from .weights import (
    ExponentialTypeResult,
    RootFunctional,
    algebra_is_exponential,
    algebra_roots,
    exponential_type_test,
    module_weights,
)
from .coadjoint import (
    ComponentCensus,
    bform,
    coadjoint_flow,
    isotropy_algebra,
    minus_one_probe,
    open_component_census,
    orbit_dimension,
)
from .strata import (
    coadjoint_stratification,
    jordan_holder_flag,
    jump_indices,
    stratify_module,
)
from .rootsystems import (
    build_root_system,
    cascade_classification,
    kostant_cascade,
    open_orbit_rank_test,
)
from .groupoids import (
    AxiomError,
    FiniteGroup,
    FiniteGroupAction,
    FiniteGroupoid,
    algebra_profile,
    classify,
    equivalence_bimodule_verify,
    piecewise_decompose,
    pullback_isomorphism_verify,
    regular_representation_faithful,
    transformation_groupoid,
    validate_groupoid,
)

__version__ = "0.1.0"
