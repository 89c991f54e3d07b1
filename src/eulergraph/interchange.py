"""Interchanging cycles: certificate rewriting, diminishing-cycle search, tour merging.

A cycle of the incidence graph is *interchanging* for a family subgraph when
every edge-node on the cycle has exactly one of its two cycle neighbours
among its anchors.  Toggling such a cycle swaps that anchor for the other
neighbour, which keeps two anchors per edge and every vertex's anchor count
even, so it rewrites one Euler family into another.  A *diminishing* cycle
is an interchanging cycle whose application strictly reduces the number of
non-trivial components; applying diminishing cycles repeatedly drives a
family towards a single closed trail, an Euler tour.  Certificates are
frozen, so the merge leaves the certificate it is given unchanged: each move
builds a new one, and the tour is read out of the last once at the end;
verifying that tour is left to the caller at the API boundary.

The merge takes one move per step, from one scan:

* Search: bounded enumeration of interchanging cycles through 2 to 6
  edge-nodes, shortest first, keeping the first whose application
  diminishes.  The paper links c components of a covering 3-hypergraph by
  one cycle through a non-cut vertex of each and c edge-nodes; for c <= 6
  that cycle is itself a candidate, so a scan that the expansion budget does
  not cut finds it or a diminishing cycle scanned before it.  The budget's
  headroom for it is measured on a test corpus, not proven.
* Escape: when no diminishing cycle is found, apply the first candidate of
  the same scan that reaches a certificate the merge has not seen, so the
  loop ends; a per-call step budget also guards it.  On covering
  3-hypergraphs, exceeding the budget signals an implementation bug, not a
  mathematical obstruction.

The exits that keep a cycle interchanging are fixed by the certificate, so
each scan tabulates them once: an edge-node entered from one of its anchors
leaves through a member that is not an anchor, ``others[e]`` in row order,
and one entered from a non-anchor leaves through an anchor, its sorted pair.
The search reads these tables and one list of visited flags over the nodes,
in row order and shortest first over (length, start), and charges one
expansion for each edge-node it looks at.

A move is the node tuple the search yields.  Toggling it sets each
edge-node's anchor pair to that pair XOR its two cycle neighbours.  The
candidate scoring (one union-find on the toggled pairs), the merge's set of
certificates seen and :func:`apply_interchange` all use this one toggle; only
the applied move builds a new :class:`FamilySubgraph`, whose check rejects
any cycle that is not interchanging.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateViolation, MergeExhaustedError
from .family import FamilySubgraph, _union_find, trails_from_subgraph
from .hypergraph import Walk

MAX_EDGE_NODES = 6
MAX_EXPANSIONS = 250_000


def _toggle(fsub: FamilySubgraph, nodes) -> tuple[tuple[int, ...], ...]:
    """The certificate's pairs, each cycle edge-node's XOR its two cycle neighbours."""
    n_v = fsub.host.n_v
    anchors = list(fsub.anchors)
    L = len(nodes)
    for i in range(1, L, 2):
        e = nodes[i] - n_v
        if not 0 <= e < len(anchors):
            raise CertificateViolation(f"node {nodes[i]} is not an edge-node")
        anchors[e] = tuple(sorted({*anchors[e]} ^ {nodes[i - 1], nodes[(i + 1) % L]}))
    return tuple(anchors)


def apply_interchange(fsub: FamilySubgraph, nodes: tuple[int, ...]) -> FamilySubgraph:
    """The certificate with the cycle ``nodes`` toggled.

    ``nodes`` alternates vertex-node, edge-node, ... starting at a
    vertex-node; closure back to ``nodes[0]`` is implicit.  The new
    certificate's check rejects every cycle that is not interchanging: an
    edge-node with both or neither of its cycle neighbours among its anchors
    ends at degree 0 or 4.
    """
    return FamilySubgraph(fsub.host, _toggle(fsub, nodes))


def _candidates(g, anchors):
    """Interchanging cycles of the certificate, shortest first, in one expansion budget.

    For each length t from 2 to ``MAX_EDGE_NODES`` edge-nodes, and each start
    vertex in turn, one depth-first search yields the cycles through t
    edge-nodes whose smallest vertex-node is the start, so each cycle comes
    from one start.  An edge-node entered from one of its anchors is left
    through a non-anchor, ``others[e]`` in row order, and one entered from a
    non-anchor through an anchor.  ``visited`` flags the edge-nodes and the
    later vertex-nodes on the path.  The budget ``left`` starts at
    ``MAX_EXPANSIONS``, read when the scan starts, and is charged once for
    each edge-node looked at; at 0 the scan stops for good and charges
    nothing more.
    """
    adj = g.adj
    n_v = g.n_v
    others = [tuple(v for v in adj[n_v + e] if v not in pair) for e, pair in enumerate(anchors)]
    visited = [False] * (n_v + g.n_e)
    path = [0]
    left = MAX_EXPANSIONS

    def walk(u, depth):
        nonlocal left
        closing = depth + 1 == t
        for en in adj[u]:
            left -= 1
            if left <= 0:
                return
            if visited[en]:
                continue
            e = en - n_v
            pair = anchors[e]
            exits = others[e] if u in pair else pair
            if closing:
                if start in exits:
                    yield (*path, en)
                continue
            for w in exits:
                if w <= start or visited[w]:
                    continue
                visited[en] = visited[w] = True
                path.append(en)
                path.append(w)
                yield from walk(w, depth + 1)
                del path[-2:]
                visited[en] = visited[w] = False
                if left <= 0:
                    return

    for t in range(2, MAX_EDGE_NODES + 1):
        for start in range(n_v):
            if left <= 0:
                return
            path[0] = start
            yield from walk(start, 0)


def find_diminishing_cycle(fsub: FamilySubgraph, seen) -> tuple[int, ...] | None:
    """The merge's next move, a diminishing cycle or else an escape, by one scan.

    The scan tries the interchanging cycles through 2 to ``MAX_EDGE_NODES``
    edge-nodes, shortest first, within ``MAX_EXPANSIONS`` expansions, and
    keeps the first whose toggled pairs have fewer non-trivial components.
    A cycle linking c <= ``MAX_EDGE_NODES`` components through one vertex of
    each and c edge-nodes, the paper's move on covering 3-hypergraphs, is one
    of the candidates, so an uncut scan returns it or an earlier diminishing
    one; a scan the budget cuts falls back to an escape.
    When none diminishes, it returns instead the first candidate of the same
    scan whose toggled pairs are not in ``seen``, the set of certificates'
    anchor tuples the merge has visited; ``None`` when there is neither.
    """
    base = fsub.nontrivial_count
    if base < 2:
        raise ValueError("nothing to diminish: fewer than two non-trivial components")
    g = fsub.host
    comp_of = fsub.component_of
    escape = None
    for nodes in _candidates(g, fsub.anchors):
        # A cycle confined to one component can never diminish.  Each
        # edge-node lies in the component of the anchor it meets on the
        # cycle, so the vertex-nodes decide.
        crosses = len({comp_of[x] for x in nodes[::2]}) > 1
        if not crosses and escape is not None:
            continue
        toggled = _toggle(fsub, nodes)
        if crosses and _union_find(g.n_v, toggled)[1] < base:
            return nodes
        if escape is None and toggled not in seen:
            escape = nodes
    return escape


@dataclass
class MergeStats:
    """Counters filled in by :func:`merge_to_tour` for budget-health reporting.

    A step is ``diminishing`` when it lowers the count of non-trivial
    components, and an ``escape`` otherwise.  The fields accumulate over
    every merge that is given the same object; each merge's budget counts
    only its own steps.  ``pivot_reduce`` and ``pivot_neutral`` always read
    0; they stay because ``perfbench/run.py`` reads them outside a ``try``,
    until the harness tolerates a missing field.
    """

    steps: int = 0
    diminishing: int = 0
    pivot_reduce: int = 0
    pivot_neutral: int = 0
    escapes: int = 0


def merge_to_tour(
    fsub: FamilySubgraph,
    budget: int | None = None,
    stats: MergeStats | None = None,
) -> Walk:
    """Merge a family certificate into an Euler tour by interchanging-cycle moves.

    ``fsub`` is frozen and stays unchanged: each move builds a new
    certificate, and the tour is read out of the last one and not
    re-verified, so callers verify what they return.
    Each step applies the diminishing cycle :func:`find_diminishing_cycle`
    finds, and otherwise escapes to the first certificate the merge has not
    seen; with neither, it stops with reason ``"no-move"``.  On covering
    3-hypergraphs a productive move always exists (the paper's linking cycle
    is among the search's candidates, see :func:`find_diminishing_cycle`),
    so the loop terminates well inside the default budget of ``10 * |E|**2``
    steps; :class:`MergeExhaustedError` past that point indicates a bug.  On
    other inputs the same moves run best-effort and may exhaust honestly.
    ``budget`` caps the steps of this call, whatever ``stats.steps`` held on
    entry, and :class:`MergeExhaustedError` reports this call's steps; a
    negative one raises :class:`ValueError` before any step.
    """
    if stats is None:
        stats = MergeStats()
    m = fsub.host.n_e
    if m < 2:
        raise ValueError("an Euler tour needs at least two edges")
    if budget is None:
        budget = 10 * m * m
    elif budget < 0:
        raise ValueError(f"step budget must be non-negative, got {budget}")

    steps = 0
    seen = {fsub.anchors}
    while (base := fsub.nontrivial_count) > 1:
        if steps >= budget:
            raise MergeExhaustedError("budget", steps, fsub.anchors)
        move = find_diminishing_cycle(fsub, seen)
        if move is None:
            raise MergeExhaustedError("no-move", steps, fsub.anchors)
        fsub = apply_interchange(fsub, move)
        if fsub.nontrivial_count < base:
            stats.diminishing += 1
        else:
            stats.escapes += 1
        steps += 1
        stats.steps += 1
        seen.add(fsub.anchors)

    return trails_from_subgraph(fsub).components[0]
