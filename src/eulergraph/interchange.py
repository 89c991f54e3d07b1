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

The merge takes one move per step:

* S1: with three or more components, pick one non-cut vertex-node per
  component and link consecutive picks through edge-nodes that contain both;
  on covering 3-hypergraphs this always yields a cycle whose application
  leaves a single non-trivial component.
* Search: bounded enumeration of interchanging cycles through 2 to 6
  edge-nodes, shortest first, keeping the first whose application
  diminishes.
* Escape (merging only): when no diminishing cycle is found, apply the first
  interchanging cycle, in the same order, that reaches a certificate the
  merge has not seen, so the loop ends; a step budget also guards it.  On
  covering 3-hypergraphs, exceeding the budget signals an implementation
  bug, not a mathematical obstruction.

Every stage scores a candidate on its toggled selection, the certificate's
incidences XOR the cycle's: a union-find over that set counts its non-trivial
components, and the set itself is what the merge compares with the
certificates it has seen.  Only the chosen move becomes an
:class:`InterchangeCycle`, and only the applied move builds and checks a new
:class:`FamilySubgraph`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateViolation, MergeExhaustedError
from .family import FamilySubgraph, trails_from_subgraph
from .hypergraph import Walk
from .incidence import IncidenceGraph

MAX_EDGE_NODES = 6
MAX_EXPANSIONS = 250_000


@dataclass(frozen=True)
class InterchangeCycle:
    """A cycle of the incidence graph, tagged with which of its edges are selected.

    ``nodes`` alternates vertex-node, edge-node, ... starting at a
    vertex-node; closure back to ``nodes[0]`` is implicit.  ``in_family[i]``
    flags the cycle edge from ``nodes[i]`` to ``nodes[(i+1) % len]``.
    """

    nodes: tuple[int, ...]
    in_family: tuple[bool, ...]

    @classmethod
    def from_nodes(cls, fsub: FamilySubgraph, nodes: tuple[int, ...]) -> InterchangeCycle:
        g = fsub.host
        L = len(nodes)
        if L < 4 or L % 2 != 0:
            raise ValueError("not a cycle: need an even node count of at least 4")
        if len(set(nodes)) != L:
            raise ValueError("not a cycle: repeated node")
        flags = []
        for i, a in enumerate(nodes):
            if g.is_v_node(a) != (i % 2 == 0):
                raise ValueError("not a cycle of the incidence graph: classes do not alternate")
            b = nodes[(i + 1) % L]
            if b not in g.adj_sets[a]:
                raise ValueError(f"not a cycle: nodes {a} and {b} are not adjacent")
            v, e = (a, b) if g.is_v_node(a) else (b, a)
            flags.append((v, g.edge_id(e)) in fsub.selected)
        return cls(nodes, tuple(flags))

    def incidences(self, g: IncidenceGraph) -> frozenset[tuple[int, int]]:
        return _cycle_incidences(g, self.nodes)

    def interchanging(self) -> bool:
        """True iff every edge-node on the cycle meets exactly one selected cycle edge."""
        # Edge-nodes sit at odd positions; their two cycle edges carry
        # flags in_family[i-1] and in_family[i].
        for i in range(1, len(self.nodes), 2):
            if self.in_family[i - 1] == self.in_family[i]:
                return False
        return True


def is_interchanging(fsub: FamilySubgraph, cycle) -> bool:
    """Check the interchanging condition; raises ValueError when the input is not a cycle.

    Flags are always recomputed against ``fsub``, so a cycle built from an
    older certificate is judged on the current one.
    """
    nodes = cycle.nodes if isinstance(cycle, InterchangeCycle) else tuple(cycle)
    return InterchangeCycle.from_nodes(fsub, nodes).interchanging()


def apply_interchange(fsub: FamilySubgraph, cycle: InterchangeCycle) -> FamilySubgraph:
    """Symmetric difference of the certificate with an interchanging cycle."""
    cycle = InterchangeCycle.from_nodes(fsub, cycle.nodes)
    if not cycle.interchanging():
        raise CertificateViolation("cycle is not interchanging for this certificate")
    new_selected = fsub.selected.symmetric_difference(cycle.incidences(fsub.host))
    return FamilySubgraph(fsub.host, new_selected)


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


def find_linking_cycle(g: IncidenceGraph, fsub: FamilySubgraph) -> InterchangeCycle | None:
    """Strategy S1: one cycle through a non-cut vertex-node of every component.

    Requires at least three components (trivial ones count; an isolated
    vertex-node is never a cut vertex).  Returns None when some consecutive
    pair of picks shares no hyperedge, which cannot happen on covering
    3-hypergraphs.
    """
    comps = fsub.components
    if len(comps) < 3:
        return None
    picks: list[int] = []
    for comp in comps:
        if comp.trivial:
            node = next(iter(comp.nodes))
            if not g.is_v_node(node):
                return None
            picks.append(node)
        else:
            picks.append(fsub.non_cut_v_vertices(comp)[0])
    h = g.host
    used_e: set[int] = set()
    e_nodes: list[int] = []
    for i, v in enumerate(picks):
        w = picks[(i + 1) % len(picks)]
        eid = next(
            (j for j, e in enumerate(h.edges)
             if j not in used_e and v in e and w in e),
            None)
        if eid is None:
            return None
        used_e.add(eid)
        e_nodes.append(g.e_node(eid))
    nodes: list[int] = []
    for v, en in zip(picks, e_nodes):
        nodes.append(v)
        nodes.append(en)
    try:
        cycle = InterchangeCycle.from_nodes(fsub, tuple(nodes))
    except ValueError:
        return None
    if not cycle.interchanging():
        return None
    after = _nontrivial_count(g, fsub.selected ^ cycle.incidences(g))
    if after >= len(fsub.nontrivial_components):
        return None
    return cycle


def find_diminishing_cycle(g: IncidenceGraph, fsub: FamilySubgraph) -> InterchangeCycle | None:
    """A component-diminishing interchanging cycle: S1, then the shortest-first search.

    S1 (:func:`find_linking_cycle`) needs three or more components.  The
    search tries the interchanging cycles through 2 to ``MAX_EDGE_NODES``
    edge-nodes, shortest first, within ``MAX_EXPANSIONS`` expansions, and
    keeps the first whose toggled selection has fewer non-trivial components.
    """
    base = len(fsub.nontrivial_components)
    if base < 2:
        raise ValueError("nothing to diminish: fewer than two non-trivial components")
    cycle = find_linking_cycle(g, fsub)
    if cycle is not None:
        return cycle
    comp_of = fsub.node_component
    for nodes in _candidates(g, fsub.subgraph_adj):
        # A cycle confined to one component can never diminish, so it is
        # skipped without being scored.
        if len({comp_of[x] for x in nodes}) < 2:
            continue
        if _nontrivial_count(g, fsub.selected ^ _cycle_incidences(g, nodes)) < base:
            return InterchangeCycle.from_nodes(fsub, nodes)
    return None


def _any_unseen_move(g, fsub, seen):
    """Escape: the first interchanging cycle whose toggled selection is not in ``seen``."""
    for nodes in _candidates(g, fsub.subgraph_adj):
        if fsub.selected ^ _cycle_incidences(g, nodes) not in seen:
            return InterchangeCycle.from_nodes(fsub, nodes)
    return None


@dataclass
class MergeStats:
    """Counters filled in by :func:`merge_to_tour` for budget-health reporting.

    Every step is a diminishing move or an escape.  ``pivot_reduce`` and
    ``pivot_neutral`` always read 0; they stay because ``perfbench/run.py``
    reads them outside a ``try``, until the harness tolerates a missing field.
    """

    steps: int = 0
    diminishing: int = 0
    pivot_reduce: int = 0
    pivot_neutral: int = 0
    escapes: int = 0
    min_shape_checks: int = 0


def merge_to_tour(
    fsub: FamilySubgraph,
    budget: int | None = None,
    stats: MergeStats | None = None,
    *,
    covering: bool = False,
) -> Walk:
    """Merge a family certificate into an Euler tour by interchanging-cycle moves.

    The moves rewrite ``fsub`` itself; the tour is read out of the final
    certificate and not re-verified, so callers verify what they return.  On
    covering 3-hypergraphs a productive move always exists, so the loop
    terminates well inside the default budget of ``10 * |E|**2`` steps;
    :class:`MergeExhaustedError` past that point indicates a bug.  On other
    inputs the same moves run best-effort and may exhaust honestly.  Each
    step applies a diminishing cycle if one is found, and otherwise escapes
    to the first certificate the merge has not seen; with neither, it stops
    with reason ``"no-move"``.  ``covering`` says the host is a covering
    3-hypergraph, which turns on the check that a stuck certificate has
    exactly two non-trivial components.
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

    seen = {fsub.selected}
    while len(fsub.nontrivial_components) > 1:
        if stats.steps >= budget:
            raise MergeExhaustedError("budget", stats.steps, fsub.selected)
        move = find_diminishing_cycle(g, fsub)
        if move is not None:
            stats.diminishing += 1
        else:
            if covering:
                comps = fsub.components
                if len(comps) != 2 or any(c.trivial for c in comps):
                    raise CertificateViolation(
                        f"stuck with {len(comps)} components on a covering 3-hypergraph; "
                        "expected exactly two, both non-trivial")
                stats.min_shape_checks += 1
            move = _any_unseen_move(g, fsub, seen)
            if move is None:
                raise MergeExhaustedError("no-move", stats.steps, fsub.selected)
            stats.escapes += 1
        fsub = apply_interchange(fsub, move)
        stats.steps += 1
        seen.add(fsub.selected)

    return trails_from_subgraph(fsub).components[0]
