"""Euler tours and Euler families of hypergraphs, with verifiable certificates.

The package decides whether a hypergraph admits an Euler family (exactly, via
a matching reduction on its incidence graph), constructs Euler tours of
covering k-hypergraphs by merging family components with interchanging
cycles, and reduces higher arities to 3 before solving.  Every certificate
``solve`` returns is checked once, by an independent verifier, at that
boundary.
"""

from .errors import (
    CertificateViolation,
    EulerGraphError,
    FormatError,
    InadmissibleOrderError,
    InfeasibleDegreeError,
    MergeExhaustedError,
)
from .family import (
    FamilySubgraph,
    extract_subgraph,
    find_family_subgraph,
    subgraph_from_trails,
    trails_from_subgraph,
)
from .hypergraph import (
    CoveringReport,
    EulerFamily,
    Hypergraph,
    VerifyReport,
    Walk,
    canonical_closed_trail,
    edge_name,
    validate_covering,
    verify_euler_object,
)
from .incidence import (
    Component,
    IncidenceGraph,
    build_incidence,
    components,
)
from .interchange import (
    MergeStats,
    apply_interchange,
    find_diminishing_cycle,
    merge_to_tour,
)
from .matching import GadgetGraph, Matching, max_matching, reduce_to_matching
from .oracle import SearchBudget, brute_family_exists, brute_max_matching, brute_tour
from .solver import SolveResult, solve

__version__ = "0.1.0"

__all__ = [
    "CertificateViolation",
    "Component",
    "CoveringReport",
    "EulerFamily",
    "EulerGraphError",
    "FamilySubgraph",
    "FormatError",
    "GadgetGraph",
    "Hypergraph",
    "InadmissibleOrderError",
    "IncidenceGraph",
    "InfeasibleDegreeError",
    "Matching",
    "MergeExhaustedError",
    "MergeStats",
    "SearchBudget",
    "SolveResult",
    "VerifyReport",
    "Walk",
    "apply_interchange",
    "brute_family_exists",
    "brute_max_matching",
    "brute_tour",
    "build_incidence",
    "canonical_closed_trail",
    "components",
    "edge_name",
    "extract_subgraph",
    "find_diminishing_cycle",
    "find_family_subgraph",
    "max_matching",
    "merge_to_tour",
    "reduce_to_matching",
    "solve",
    "subgraph_from_trails",
    "trails_from_subgraph",
    "validate_covering",
    "verify_euler_object",
]
