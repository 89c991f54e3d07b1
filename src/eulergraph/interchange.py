"""Interchanging cycles: certificate rewriting, diminishing-cycle search, tour merging.

A cycle of the incidence graph is *interchanging* for a family subgraph when
every edge-node on the cycle meets exactly one selected cycle edge.  Taking
the symmetric difference of the certificate with such a cycle preserves the
degree discipline (each touched node gains and loses edges in equal parity),
so it rewrites one Euler family into another.  A *diminishing* cycle is an
interchanging cycle whose application strictly reduces the number of
non-trivial components; applying diminishing cycles repeatedly drives a
family towards a single closed trail, an Euler tour.  The merge rewrites the
certificate the matching produced and reads the tour out of it once at the
end; verifying that tour is left to the caller at the API boundary.

The merge takes one move per step, from one scan:

* Search: bounded enumeration of interchanging cycles through 2 to 6
  edge-nodes, shortest first, keeping the first whose application
  diminishes.  The paper links c components of a covering 3-hypergraph by
  one cycle through a non-cut vertex of each and c edge-nodes; for c <= 6
  that cycle is itself a candidate within the expansion budget, so the
  search finds it or a diminishing cycle scanned before it.
* Escape (merging only): when no diminishing cycle is found, apply the first
  candidate of the same scan that reaches a certificate the merge has not
  seen, so the loop ends; a per-call step budget also guards it.  On
  covering 3-hypergraphs, exceeding the budget signals an implementation
  bug, not a mathematical obstruction.

A move is the node tuple the search yields.  Each candidate is scored on
its toggled selection, the certificate's incidences XOR the cycle's: a
union-find over that set counts its non-trivial components, and the set
itself is what the merge compares with the certificates it has seen.  Only
the applied move builds a new :class:`FamilySubgraph`, whose degree check
rejects any cycle that is not interchanging.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MergeExhaustedError
from .family import FamilySubgraph, trails_from_subgraph
from .hypergraph import Walk
from .incidence import IncidenceGraph

MAX_EDGE_NODES = 6
MAX_EXPANSIONS = 250_000


def apply_interchange(fsub: FamilySubgraph, nodes: tuple[int, ...]) -> FamilySubgraph:
    """Symmetric difference of the certificate with the cycle ``nodes``.

    ``nodes`` alternates vertex-node, edge-node, ... starting at a
    vertex-node; closure back to ``nodes[0]`` is implicit.  The new
    certificate's degree check rejects every cycle that is not interchanging:
    an edge-node meeting 0 or 2 selected cycle edges ends at degree 4 or 0.
    """
    return FamilySubgraph(fsub.host, fsub.selected ^ _cycle_incidences(fsub.host, nodes))


def _alternating_cycles(g, rows, start, exact_e, counter):
    """DFS over interchanging cycles with exactly ``exact_e`` edge-nodes.

    Only cycles whose smallest vertex-node is ``start`` are produced, so each
    cycle comes from one start.  ``rows`` is the certificate's selected
    adjacency (``subgraph_adj``); an edge-node's row holds its two selected
    vertex-nodes.  ``counter`` is a one-cell expansion budget shared across
    calls.
    """
    adj = g.adj
    used = {start}
    path = [start]

    def walk(u, depth):
        if counter[0] <= 0:
            return
        for en in adj[u]:
            counter[0] -= 1
            if counter[0] <= 0:
                return
            if en in used:
                continue
            pair = rows[en]
            f_in = u in pair
            for w in adj[en]:
                if w == u or (w in pair) == f_in:
                    continue
                if w == start:
                    if depth + 1 == exact_e:
                        yield tuple(path) + (en,)
                    continue
                if depth + 1 >= exact_e or w in used or w < start:
                    continue
                used.add(en)
                used.add(w)
                path.append(en)
                path.append(w)
                yield from walk(w, depth + 1)
                path.pop()
                path.pop()
                used.discard(en)
                used.discard(w)

    yield from walk(start, 0)


def _candidates(g, rows):
    """Interchanging cycles of the certificate, shortest first, in one expansion budget."""
    counter = [MAX_EXPANSIONS]
    for t in range(2, MAX_EDGE_NODES + 1):
        for s in range(g.n_v):
            yield from _alternating_cycles(g, rows, s, t, counter)


def _cycle_incidences(g: IncidenceGraph, nodes) -> frozenset[tuple[int, int]]:
    """The (vertex index, edge id) incidences along the cycle ``nodes``."""
    L = len(nodes)
    out = []
    for i in range(1, L, 2):
        eid = g.edge_id(nodes[i])
        out.append((nodes[i - 1], eid))
        out.append((nodes[(i + 1) % L], eid))
    return frozenset(out)


def _nontrivial_count(g: IncidenceGraph, selected) -> int:
    """Non-trivial components of the subgraph a selection spans, by union-find.

    A node lies in a non-trivial component exactly when it has a selected
    incidence, so the count is the touched nodes minus the joining unions.
    """
    parent = list(range(g.n_v + g.n_e))
    touched = [False] * len(parent)
    count = 0
    for a, e in selected:
        b = g.e_node(e)
        for x in (a, b):
            if not touched[x]:
                touched[x] = True
                count += 1
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            count -= 1
    return count


def find_diminishing_cycle(
    g: IncidenceGraph, fsub: FamilySubgraph, seen=None,
) -> tuple[int, ...] | None:
    """A component-diminishing interchanging cycle, by one shortest-first scan.

    The scan tries the interchanging cycles through 2 to ``MAX_EDGE_NODES``
    edge-nodes, shortest first, within ``MAX_EXPANSIONS`` expansions, and
    keeps the first whose toggled selection has fewer non-trivial components.
    A cycle linking c <= ``MAX_EDGE_NODES`` components through one vertex of
    each and c edge-nodes, the paper's move on covering 3-hypergraphs, is one
    of the candidates, so the scan returns it or an earlier diminishing one.
    When none diminishes and ``seen`` is given, it returns instead the first
    candidate of the same scan whose toggled selection is not in ``seen``.
    """
    base = len(fsub.nontrivial_components)
    if base < 2:
        raise ValueError("nothing to diminish: fewer than two non-trivial components")
    comp_of = fsub.node_component
    escape = None
    for nodes in _candidates(g, fsub.subgraph_adj):
        # A cycle confined to one component can never diminish.
        crosses = len({comp_of[x] for x in nodes}) > 1
        want_escape = seen is not None and escape is None
        if not (crosses or want_escape):
            continue
        toggled = fsub.selected ^ _cycle_incidences(g, nodes)
        if crosses and _nontrivial_count(g, toggled) < base:
            return nodes
        if want_escape and toggled not in seen:
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

    The moves rewrite ``fsub`` itself; the tour is read out of the final
    certificate and not re-verified, so callers verify what they return.
    Each step applies the diminishing cycle :func:`find_diminishing_cycle`
    finds, and otherwise escapes to the first certificate the merge has not
    seen; with neither, it stops with reason ``"no-move"``.  On covering
    3-hypergraphs a productive move always exists (the paper's linking cycle
    is among the search's candidates, see :func:`find_diminishing_cycle`),
    so the loop terminates well inside the default budget of ``10 * |E|**2``
    steps; :class:`MergeExhaustedError` past that point indicates a bug.  On
    other inputs the same moves run best-effort and may exhaust honestly.
    ``budget`` caps the steps of this call, whatever ``stats.steps`` held on
    entry, and :class:`MergeExhaustedError` reports this call's steps.
    """
    if stats is None:
        stats = MergeStats()
    g = fsub.host
    m = g.n_e
    if m < 2:
        raise ValueError("an Euler tour needs at least two edges")
    if len(fsub.nontrivial_components) == 1:
        return trails_from_subgraph(fsub).components[0]

    if budget is None:
        budget = 10 * m * m

    steps = 0
    seen = {fsub.selected}
    while (base := len(fsub.nontrivial_components)) > 1:
        if steps >= budget:
            raise MergeExhaustedError("budget", steps, fsub.selected)
        move = find_diminishing_cycle(g, fsub, seen)
        if move is None:
            raise MergeExhaustedError("no-move", steps, fsub.selected)
        fsub = apply_interchange(fsub, move)
        if len(fsub.nontrivial_components) < base:
            stats.diminishing += 1
        else:
            stats.escapes += 1
        steps += 1
        stats.steps += 1
        seen.add(fsub.selected)

    return trails_from_subgraph(fsub).components[0]
