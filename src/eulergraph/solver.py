"""End-to-end pipeline: validate, reduce arity to 3, certify a family, merge, verify.

Every input with edges takes the same path.  A covering k-hypergraph with
k > 3 and at least two edges is first reduced to arity 3; any other input is
used as it is.  The exact family search then runs once on the incidence
graph, the interchanging-cycle merge runs once on its certificate, and what
comes out, a tour or, when a best-effort merge stops, the family, is
verified once.
Order 3 needs no special case: on three vertices a family has at most one
non-trivial component, so the merge returns it at once.

A covering (k+1)-hypergraph reduces to a covering k-hypergraph by deleting a
fixed vertex from the vertex set and shrinking every edge by one vertex: the
chosen vertex where present, the lexicographically smallest vertex elsewhere.
Deleting the smallest label at every layer makes that rule "drop the edge's
smallest label", so the k-3 layers down to arity 3 run as one pass that drops
the k-3 smallest labels of every edge.  Edge ids survive and every reduced
edge is a subset of its original, so a tour of the reduced hypergraph is
already a tour of the original.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateViolation, MergeExhaustedError
from .family import find_family_subgraph, trails_from_subgraph
from .hypergraph import (
    EulerFamily,
    Hypergraph,
    Walk,
    validate_covering,
    verify_euler_object,
)
from .incidence import build_incidence
from .interchange import MergeStats, merge_to_tour

VERDICT_EULERIAN = "eulerian"
VERDICT_NEITHER = "neither"
VERDICT_BEST_EFFORT = "not-covering-best-effort"


def _reduce_to_order3(h: Hypergraph, k: int) -> tuple[Hypergraph, tuple[str, ...]]:
    """The k-3 reduction layers of a covering k-hypergraph, k > 3, in one pass.

    Returns the covering 3-hypergraph and the deleted labels, one per layer.
    At k = 3 there is no layer; :func:`solve` uses the input as it is.
    """
    deleted = tuple(sorted(h.vertices)[:k - 3])
    vertices = tuple(lab for lab in h.vertices if lab not in deleted)
    edges = [h.edge_labels(j)[k - 3:] for j in range(len(h.edges))]
    return Hypergraph.from_labels(vertices, edges), deleted


@dataclass(frozen=True)
class SolveResult:
    """Outcome of :func:`solve`.

    The verdict never claims more than the certificate shows: ``eulerian``
    comes with a verified tour and ``family`` holds that tour alone (or, for
    an empty hypergraph, eulerian by convention, no tour and the empty
    family); ``neither`` only when no Euler family exists, with no tour and
    no family; and ``not-covering-best-effort`` carries a verified family
    without a tour, when the merge of a non-covering input stops.
    ``reductions`` is the label deleted by each arity-reduction layer.
    """

    verdict: str
    tour: Walk | None
    family: EulerFamily | None
    reductions: tuple[str, ...] = ()


def solve(
    h: Hypergraph,
    k: int,
    budget: int | None = None,
    stats: MergeStats | None = None,
) -> SolveResult:
    """Decide eulerian properties and construct certificates.

    Every input with edges runs one path: covering k-hypergraphs with k > 3
    are reduced to arity 3, then the family search, the merge and the
    verifier each run once.  Covering inputs with two or more edges, the
    theorem's hypothesis, always end eulerian; a missing family or an
    exhausted merge there is a bug and raises.  Any other input, one edge
    included, gets an exact Euler-family decision and a best-effort merge,
    which falls back to the family.
    :func:`certified_family` is that decision alone, with no reduction.

    ``budget`` caps the merge steps of this call (default ``10 * |E|**2``); a
    negative one raises :class:`ValueError`.  ``stats`` accumulates over
    every call that is given it.  Every family returned, the empty one
    included, is verified once, here, at the end; a failed check raises
    :class:`CertificateViolation`.
    """
    if k < 3:
        raise ValueError(f"arity parameter must be at least 3, got {k}")
    if budget is not None and budget < 0:
        raise ValueError(f"step budget must be non-negative, got {budget}")
    m = len(h.edges)
    verdict, tour, fam, deleted = VERDICT_EULERIAN, None, EulerFamily(()), ()
    if m:
        covering = m > 1 and validate_covering(h, k)
        cur, deleted = _reduce_to_order3(h, k) if covering and k > 3 else (h, ())
        fsub = find_family_subgraph(build_incidence(cur))
        if fsub is None:
            if covering:
                raise CertificateViolation(
                    "covering 3-hypergraph with >= 2 edges has no family certificate")
            return SolveResult(VERDICT_NEITHER, None, None)
        try:
            tour = merge_to_tour(fsub, budget=budget, stats=stats)
        except MergeExhaustedError:
            if covering:
                raise
            verdict, fam = VERDICT_BEST_EFFORT, trails_from_subgraph(fsub)
        else:
            fam = EulerFamily((tour,))
    _check(h, fam, verdict)
    return SolveResult(verdict, tour, fam, deleted)


def certified_family(h: Hypergraph) -> EulerFamily | None:
    """The exact Euler-family decision on ``h`` as given, with no arity reduction.

    ``None`` when no family exists; otherwise one canonical closed trail per
    component, verified once, here, with the check :func:`solve` makes.
    """
    fsub = find_family_subgraph(build_incidence(h))
    if fsub is None:
        return None
    fam = trails_from_subgraph(fsub)
    _check(h, fam, "family")
    return fam


def _check(h: Hypergraph, fam: EulerFamily, what: str) -> None:
    """The boundary check: raise :class:`CertificateViolation` unless ``fam`` verifies on ``h``."""
    violations = verify_euler_object(h, fam)
    if violations:
        raise CertificateViolation(
            f"{what} certificate failed verification: " + "; ".join(violations[:3]))
