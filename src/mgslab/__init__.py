"""String algebra combinatorics and maximal green sequences.

The names below are re-exported from their modules on first access
(PEP 562), so ``import mgslab.algebra`` does not load the Hom machinery.
"""

_EXPORTS = {
    "algebra": """AlgebraError AlgebraParseError AlgebraPresentation Arrow AxiomReport
        Letter load_algebra parse_algebra validate_axioms vertex_arrow_count""",
    "words": """Walk WalkError band_equivalent canonical_rotation canonical_string
        enumerate_bands enumerate_strings is_band is_directed is_minimal_band
        is_string make_walk maximal_w_substrings parse_walk supported_on""",
    "modules": """BandModuleRep BrickInfo ModuleError StringModuleRep band_end_dim
        band_module band_top_socle enumerate_bricks hom_classes hom_dim hom_dim_band_string
        hom_dim_string_band is_brick string_module top_socle""",
    "oracle": """ExplicitRep OracleError end_dim exists_full_rank_hom hom_dim_linalg
        hom_solution_basis to_explicit""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
