"""String algebra combinatorics and maximal green sequences."""

from .algebra import (
    AlgebraError,
    AlgebraParseError,
    AlgebraPresentation,
    Arrow,
    AxiomReport,
    load_algebra,
    parse_algebra,
    validate_axioms,
    vertex_arrow_count,
)
from .words import (
    BandPool,
    BandRecord,
    Letter,
    Occurrence,
    Walk,
    WalkError,
    all_occurrences,
    band_equivalent,
    band_pool,
    canonical_rotation,
    canonical_string,
    enumerate_bands,
    enumerate_strings,
    is_band,
    is_directed,
    is_minimal_band,
    is_string,
    make_walk,
    maximal_w_substrings,
    parse_walk,
    substring_occurrences,
    supported_on,
)
from .modules import (
    BandModuleRep,
    BrickInfo,
    ModuleError,
    StringModuleRep,
    band_module,
    band_top_socle,
    enumerate_bricks,
    hom_dim,
    is_brick,
    string_module,
    top_socle,
)
from .oracle import (
    ExplicitRep,
    OracleError,
    end_dim,
    exists_full_rank_hom,
    hom_dim_linalg,
    hom_solution_basis,
    to_explicit,
)

__version__ = "0.1.0"
