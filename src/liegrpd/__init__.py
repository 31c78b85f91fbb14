"""Exact coadjoint-orbit structure for solvable Lie algebras and finite
groupoid verification: rational/Gaussian-rational linear algebra, weight and
exponential-type analysis, open-orbit census, stratification, the cascade
rank test for split Borel subalgebras, and pullback/bimodule checks for
transformation groupoids.

The names below resolve on first access (PEP 562): `import liegrpd` loads no
submodule, and `from liegrpd import LieAlgebra` loads only `lie` and `exact`.
"""

from importlib import import_module

# each submodule and the public names the package root takes from it
_EXPORTS = {
    "exact": ("GaussianRational", "Matrix", "NumericError", "gaussian",
              "parse_scalar", "format_scalar"),
    "lie": ("AntisymmetryError", "JacobiError", "LieAlgebra", "LieModule", "Subspace",
            "from_brackets", "load_algebra", "structure_series", "validate_lie_algebra"),
    "weights": ("ExponentialTypeResult", "RootFunctional", "algebra_is_exponential",
                "algebra_roots", "exponential_type_test", "module_weights"),
    "coadjoint": ("ComponentCensus", "bform", "isotropy_algebra",
                  "minus_one_probe", "open_component_census", "orbit_dimension"),
    "strata": ("coadjoint_stratification", "jordan_holder_flag", "jump_indices"),
    "rootsystems": ("build_root_system", "cascade_classification", "kostant_cascade",
                    "open_orbit_rank_test"),
    "groupoids": ("AxiomError", "FiniteGroup", "FiniteGroupAction", "FiniteGroupoid",
                  "algebra_profile", "classify", "equivalence_bimodule_verify",
                  "piecewise_decompose", "pullback_isomorphism_verify",
                  "regular_representation_faithful", "transformation_groupoid",
                  "validate_groupoid"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as `liegrpd.lie` after `import liegrpd`
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
