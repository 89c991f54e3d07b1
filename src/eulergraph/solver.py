"""End-to-end pipeline: validate, reduce arity down to 3, certify a family, merge.

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
    VerifyReport,
    Walk,
    validate_covering,
    verify_euler_object,
)
from .incidence import build_incidence
from .interchange import MergeStats, direct_order3_tour, merge_to_tour

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
    comes with a verified tour (or an empty hypergraph, eulerian by
    convention), ``neither`` only when no Euler family exists, and
    ``not-covering-best-effort`` carries a verified family without a tour.
    ``reductions`` lists the label deleted by each arity-reduction layer.
    """

    verdict: str
    tour: Walk | None
    family: EulerFamily | None
    certificate: VerifyReport | None
    steps: int = 0
    reductions: tuple[str, ...] = ()


def solve(
    h: Hypergraph,
    k: int,
    pivot: str | None = None,
    budget: int | None = None,
    stats: MergeStats | None = None,
) -> SolveResult:
    """Decide eulerian properties and construct certificates.

    Covering k-hypergraphs with at least two edges always end eulerian, via
    arity reduction to 3 followed by family construction and merging.  A
    single edge can never form a closed trail.  Non-covering inputs get an
    exact Euler-family decision and a best-effort merge.

    ``pivot`` must be a vertex of ``h`` (else :class:`KeyError`) and must
    survive the arity reduction (else :class:`ValueError`).  A negative
    ``budget`` raises :class:`ValueError`.  Every certificate is verified
    once, here, before it is returned; a failed check raises
    :class:`CertificateViolation`.
    """
    if k < 3:
        raise ValueError(f"arity parameter must be at least 3, got {k}")
    if pivot is not None:
        h.vertex_index(pivot)  # raises on unknown vertex
    if budget is not None and budget < 0:
        raise ValueError(f"step budget must be non-negative, got {budget}")
    if stats is None:
        stats = MergeStats()
    m = len(h.edges)
    if m == 0:
        fam = EulerFamily(())
        return SolveResult(VERDICT_EULERIAN, None, fam, verify_euler_object(h, fam))
    if m == 1:
        return SolveResult(VERDICT_NEITHER, None, None, None)

    if validate_covering(h, k).is_covering:
        cur, deleted = (h, ()) if k == 3 else _reduce_to_order3(h, k)
        if pivot in deleted:
            raise ValueError(f"pivot {pivot!r} is deleted by the arity reduction")
        if cur.order == 3:
            tour = direct_order3_tour(cur)
        else:
            fsub = find_family_subgraph(build_incidence(cur))
            if fsub is None:
                raise CertificateViolation(
                    "covering 3-hypergraph with >= 2 edges has no family certificate")
            tour = merge_to_tour(
                fsub, pivot=pivot, budget=budget, stats=stats, covering=True)
        cert = verify_euler_object(h, EulerFamily((tour,)))
        if not cert.valid:
            raise CertificateViolation("final tour failed verification")
        return SolveResult(
            VERDICT_EULERIAN, tour, EulerFamily((tour,)), cert, stats.steps, deleted)

    # Best effort for non-covering inputs.
    g = build_incidence(h)
    fsub = find_family_subgraph(g)
    if fsub is None:
        return SolveResult(VERDICT_NEITHER, None, None, None)
    fam = trails_from_subgraph(fsub)
    fam_cert = verify_euler_object(h, fam)
    if not fam_cert.valid:
        raise CertificateViolation(
            "family failed verification: " + "; ".join(fam_cert.violations[:3]))
    if len(fam.components) == 1:
        return SolveResult(VERDICT_EULERIAN, fam.components[0], fam, fam_cert)
    try:
        tour = merge_to_tour(fsub, pivot=pivot, budget=budget, stats=stats)
    except MergeExhaustedError:
        return SolveResult(VERDICT_BEST_EFFORT, None, fam, fam_cert, stats.steps)
    cert = verify_euler_object(h, EulerFamily((tour,)))
    if not cert.valid:
        raise CertificateViolation("merged tour failed verification")
    return SolveResult(VERDICT_EULERIAN, tour, EulerFamily((tour,)), cert, stats.steps)
