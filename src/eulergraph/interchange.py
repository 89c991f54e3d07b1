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

The search for a productive cycle runs in three stages:

* S1: with three or more components, pick one non-cut vertex-node per
  component and link consecutive picks through edge-nodes that contain both;
  on covering 3-hypergraphs this always yields a cycle whose application
  leaves a single non-trivial component.
* Search: bounded enumeration of interchanging cycles through 2 to 6
  edge-nodes, shortest first, keeping the first whose application
  diminishes.
* Pivot stage (merging only): when no diminishing cycle is found, apply
  interchanging cycles through a fixed pivot vertex that strictly reduce its
  selected degree, then neutral ones that open such a reduction one step
  later, then any move.  Every one of these moves must reach a certificate
  the merge has not seen, so the loop ends; a step budget also guards it.
  On covering 3-hypergraphs, exceeding the budget signals an implementation
  bug, not a mathematical obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateViolation, MergeExhaustedError
from .family import FamilySubgraph, trails_from_subgraph
from .hypergraph import Hypergraph, Walk, canonical_closed_trail, validate_covering
from .incidence import IncidenceGraph

MAX_EDGE_NODES = 6
MAX_EXPANSIONS = 250_000
_LOOKAHEAD_CAP = 64


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
        out = set()
        L = len(self.nodes)
        for i, a in enumerate(self.nodes):
            b = self.nodes[(i + 1) % L]
            v, e = (a, b) if g.is_v_node(a) else (b, a)
            out.add((v, g.edge_id(e)))
        return frozenset(out)

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


def _alternating_cycles(fsub, start, exact_e, mode, counter, canonical=False):
    """DFS over interchanging cycles through ``start`` with exactly ``exact_e`` edge-nodes.

    ``mode`` gates the two cycle edges at ``start``: 'reduce' requires both to
    be selected, 'neutral' exactly one, 'any' neither.  With ``canonical``
    only cycles whose smallest vertex-node equals ``start`` are produced.
    ``counter`` is a one-cell expansion budget shared across calls.
    """
    g = fsub.host
    adj = g.adj
    sel = fsub.selected
    n_v = g.n_v
    used = {start}
    path = [start]

    def walk(u, first_flag, depth):
        if counter[0] <= 0:
            return
        for en in adj[u]:
            counter[0] -= 1
            if counter[0] <= 0:
                return
            if en in used:
                continue
            eid = en - n_v
            f_in = (u, eid) in sel
            if depth == 0:
                if mode == "reduce" and not f_in:
                    continue
                first = f_in
            else:
                first = first_flag
            for w in adj[en]:
                if w == u:
                    continue
                f_out = (w, eid) in sel
                if f_out == f_in:
                    continue
                if w == start:
                    if depth + 1 == exact_e:
                        if mode == "reduce" and not f_out:
                            continue
                        if mode == "neutral" and f_out == first:
                            continue
                        yield tuple(path) + (en,)
                    continue
                if depth + 1 >= exact_e or w in used:
                    continue
                if canonical and w < start:
                    continue
                used.add(en)
                used.add(w)
                path.append(en)
                path.append(w)
                yield from walk(w, first, depth + 1)
                path.pop()
                path.pop()
                used.discard(en)
                used.discard(w)

    yield from walk(start, False, 0)


def _nontrivial_count_after(fsub: FamilySubgraph, cycle: InterchangeCycle) -> int:
    return len(apply_interchange(fsub, cycle).nontrivial_components)


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
    if _nontrivial_count_after(fsub, cycle) >= len(fsub.nontrivial_components):
        return None
    return cycle


def find_diminishing_cycle(g: IncidenceGraph, fsub: FamilySubgraph) -> InterchangeCycle | None:
    """A component-diminishing interchanging cycle: S1, then the shortest-first search.

    S1 (:func:`find_linking_cycle`) needs three or more components.  The
    search tries the interchanging cycles through 2 to ``MAX_EDGE_NODES``
    edge-nodes, shortest first, within ``MAX_EXPANSIONS`` expansions, and
    keeps the first whose application diminishes.
    """
    base = len(fsub.nontrivial_components)
    if base < 2:
        raise ValueError("nothing to diminish: fewer than two non-trivial components")
    cycle = find_linking_cycle(g, fsub)
    if cycle is not None:
        return cycle
    comp_of = fsub.node_component
    counter = [MAX_EXPANSIONS]
    for t in range(2, MAX_EDGE_NODES + 1):
        for s in range(g.n_v):
            for nodes in _alternating_cycles(fsub, s, t, "any", counter, canonical=True):
                # A cycle confined to one component can never diminish, so it
                # is skipped without being applied.
                if len({comp_of[x] for x in nodes}) < 2:
                    continue
                cycle = InterchangeCycle.from_nodes(fsub, nodes)
                if _nontrivial_count_after(fsub, cycle) < base:
                    return cycle
    return None


def _reducing_pivot_cycle(g, fsub, v0, seen):
    """First cycle through v0 with both v0 edges selected reaching an unseen certificate.

    Shortest first.  Skipping seen certificates keeps a reducing move from
    undoing a diminishing one, which would repeat until the budget ran out.
    """
    counter = [MAX_EXPANSIONS]
    for t in range(2, MAX_EDGE_NODES + 1):
        for nodes in _alternating_cycles(fsub, v0, t, "reduce", counter):
            cycle = InterchangeCycle.from_nodes(fsub, nodes)
            if apply_interchange(fsub, cycle).selected not in seen:
                return cycle
    return None


def _neutral_pivot_cycle(g, fsub, v0, seen):
    """A neutral cycle through v0 whose application opens a reduction or changes shape.

    Falls back to the first neutral move reaching an unseen certificate when
    no candidate shows immediate progress within the lookahead cap.
    """
    counter = [MAX_EXPANSIONS]
    base = len(fsub.nontrivial_components)
    fallback = None
    tried = 0
    for t in range(2, MAX_EDGE_NODES + 1):
        for nodes in _alternating_cycles(fsub, v0, t, "neutral", counter):
            cycle = InterchangeCycle.from_nodes(fsub, nodes)
            nxt = apply_interchange(fsub, cycle)
            if nxt.selected in seen:
                continue
            if fallback is None:
                fallback = cycle
            tried += 1
            if len(nxt.nontrivial_components) != base:
                return cycle
            # Any reducing cycle counts here, seen or not: the lookahead only
            # asks whether the neutral move opens one.
            if _reducing_pivot_cycle(g, nxt, v0, frozenset()) is not None:
                return cycle
            if tried >= _LOOKAHEAD_CAP:
                return fallback
    return fallback


def _any_unseen_move(g, fsub, seen):
    """Last resort: any interchanging cycle whose application reaches an unseen certificate."""
    counter = [MAX_EXPANSIONS]
    for t in range(2, MAX_EDGE_NODES + 1):
        for s in range(g.n_v):
            for nodes in _alternating_cycles(fsub, s, t, "any", counter, canonical=True):
                cycle = InterchangeCycle.from_nodes(fsub, nodes)
                if apply_interchange(fsub, cycle).selected not in seen:
                    return cycle
    return None


@dataclass
class MergeStats:
    """Counters filled in by :func:`merge_to_tour` for budget-health reporting."""

    steps: int = 0
    diminishing: int = 0
    pivot_reduce: int = 0
    pivot_neutral: int = 0
    escapes: int = 0
    min_shape_checks: int = 0


def direct_order3_tour(h: Hypergraph) -> Walk:
    """Closed-form tour for 3-uniform hypergraphs on exactly three vertices.

    Every edge equals the full vertex set, so anchors can simply alternate
    between two vertices, with the third patched in once when the edge count
    is odd.
    """
    m = len(h.edges)
    if h.order != 3 or h.uniformity() != 3 or m < 2:
        raise ValueError("closed-form tour needs a 3-uniform hypergraph of order 3 with >= 2 edges")
    labels = sorted(h.vertices)
    anchors = [labels[i % 2] for i in range(m)]
    if m % 2 == 1:
        anchors[m - 1] = labels[2]
    anchors.append(anchors[0])
    return canonical_closed_trail(Walk(tuple(anchors), tuple(range(m))))


def merge_to_tour(
    fsub: FamilySubgraph,
    pivot: str | None = None,
    budget: int | None = None,
    stats: MergeStats | None = None,
) -> Walk:
    """Merge a family certificate into an Euler tour by interchanging-cycle moves.

    The moves rewrite ``fsub`` itself; the tour is read out of the final
    certificate and not re-verified, so callers verify what they return.  On
    covering 3-hypergraphs a productive move always exists, so the loop
    terminates well inside the default budget of ``10 * |E|**2`` steps;
    :class:`MergeExhaustedError` past that point indicates a bug.  On other
    inputs the same ladder runs best-effort and may exhaust honestly.
    """
    if stats is None:
        stats = MergeStats()
    g = fsub.host
    h = g.host
    m = g.n_e
    if m < 2:
        raise ValueError("an Euler tour needs at least two edges")
    if len(fsub.nontrivial_components) == 1:
        return trails_from_subgraph(fsub).components[0]

    if budget is None:
        budget = 10 * m * m
    covering3 = h.uniformity() == 3 and validate_covering(h, 3).is_covering
    if pivot is None:
        v0 = max(range(g.n_v), key=lambda i: (len(g.adj[i]), -i))
    else:
        v0 = h.vertex_index(pivot)

    seen = {fsub.selected}
    while len(fsub.nontrivial_components) > 1:
        if stats.steps >= budget:
            raise MergeExhaustedError("budget", stats.steps, fsub.selected)
        move = find_diminishing_cycle(g, fsub)
        if move is not None:
            stats.diminishing += 1
        else:
            if covering3:
                comps = fsub.components
                if len(comps) != 2 or any(c.trivial for c in comps):
                    raise CertificateViolation(
                        f"stuck with {len(comps)} components on a covering 3-hypergraph; "
                        "expected exactly two, both non-trivial")
                stats.min_shape_checks += 1
            move = _reducing_pivot_cycle(g, fsub, v0, seen)
            if move is not None:
                stats.pivot_reduce += 1
        if move is None:
            move = _neutral_pivot_cycle(g, fsub, v0, seen)
            if move is not None:
                stats.pivot_neutral += 1
        if move is None:
            move = _any_unseen_move(g, fsub, seen)
            if move is not None:
                stats.escapes += 1
        if move is None:
            raise MergeExhaustedError("no-move", stats.steps, fsub.selected)
        fsub = apply_interchange(fsub, move)
        stats.steps += 1
        seen.add(fsub.selected)

    return trails_from_subgraph(fsub).components[0]
