"""Degree-k sign maps of planar point sets.

A configuration of points with distinct x-coordinates induces, for each
degree k, a sign map on (k+2)-tuples: the orientation of the tuple's
lift along (1, x, ..., x^k, y).  This package computes those maps with
exact rational arithmetic, checks the axiom systems they satisfy,
enumerates all abstract instances for small parameters, and searches
for realizing configurations.
"""

from .axioms import (
    AxiomReport,
    ScanReport,
    check_B1,
    check_B3,
    check_cocircuit_axioms,
    check_degree_k,
    check_transitivity,
    check_unimodal,
    extreme_points,
    is_acyclic,
    las_vergnas_scan,
)
from .catalog import Catalog, from_enumeration, read_catalog, write_catalog
from .chirotope import (
    Chirotope,
    cocircuit_vectors,
    from_text,
    signs_from_string,
    to_text,
)
from .combinat import lex_rank, lex_unrank, sort_with_sign
from .enumeration import (
    EnumerationResult,
    enumerate_chirotopes,
    enumerate_sharded,
    partition_search,
)
from .errors import (
    CatalogIntegrityError,
    DegenerateConfigError,
    InputError,
    SoundnessError,
)
from .points import (
    PointConfig,
    chi_point,
    chirotope_of,
    det_sign,
    format_points,
    lagrange_sign,
    lift,
    parse_points,
    random_config,
)
from .realizability import (
    CoverageReport,
    RealizeStats,
    coverage_report,
    realize_random,
    verify_catalog_witnesses,
    verify_witness,
)
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "Catalog",
    "CatalogIntegrityError",
    "Chirotope",
    "CoverageReport",
    "DegenerateConfigError",
    "EnumerationResult",
    "InputError",
    "PointConfig",
    "RealizeStats",
    "ScanReport",
    "SoundnessError",
    "check_B1",
    "check_B3",
    "check_cocircuit_axioms",
    "check_degree_k",
    "check_transitivity",
    "check_unimodal",
    "chi_point",
    "chirotope_of",
    "cocircuit_vectors",
    "coverage_report",
    "det_sign",
    "enumerate_chirotopes",
    "enumerate_sharded",
    "extreme_points",
    "format_points",
    "from_enumeration",
    "from_text",
    "is_acyclic",
    "lagrange_sign",
    "las_vergnas_scan",
    "lex_rank",
    "lex_unrank",
    "lift",
    "parse_points",
    "partition_search",
    "random_config",
    "read_catalog",
    "realize_random",
    "render_svg",
    "signs_from_string",
    "sort_with_sign",
    "to_text",
    "verify_catalog_witnesses",
    "verify_witness",
    "write_catalog",
]
