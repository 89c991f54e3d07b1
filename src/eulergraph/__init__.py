"""Euler tours and Euler families of hypergraphs, with verifiable certificates.

The package decides whether a hypergraph admits an Euler family (exactly, via
a matching reduction on its incidence graph), constructs Euler tours of
covering k-hypergraphs by merging family components with interchanging
cycles, and reduces higher arities to 3 before solving.  Every certificate
``solve`` or ``certified_family`` returns is checked once, by an independent
verifier, at that boundary.
"""

from .errors import (
    CertificateViolation,
    EulerGraphError,
    FormatError,
    MergeExhaustedError,
)
from .family import FamilySubgraph, find_family_subgraph, trails_from_subgraph
from .hypergraph import (
    EulerFamily,
    Hypergraph,
    VerifyReport,
    Walk,
    canonical_closed_trail,
    validate_covering,
    verify_euler_object,
)
from .incidence import IncidenceGraph, build_incidence
from .interchange import (
    MergeStats,
    apply_interchange,
    find_diminishing_cycle,
    merge_to_tour,
)
from .matching import max_matching, reduce_to_matching
from .oracle import brute_family_exists, brute_tour
from .solver import SolveResult, certified_family, solve

__version__ = "0.1.0"

__all__ = [
    "CertificateViolation",
    "EulerFamily",
    "EulerGraphError",
    "FamilySubgraph",
    "FormatError",
    "Hypergraph",
    "IncidenceGraph",
    "MergeExhaustedError",
    "MergeStats",
    "SolveResult",
    "VerifyReport",
    "Walk",
    "apply_interchange",
    "brute_family_exists",
    "brute_tour",
    "build_incidence",
    "canonical_closed_trail",
    "certified_family",
    "find_diminishing_cycle",
    "find_family_subgraph",
    "max_matching",
    "merge_to_tour",
    "reduce_to_matching",
    "solve",
    "trails_from_subgraph",
    "validate_covering",
    "verify_euler_object",
]
