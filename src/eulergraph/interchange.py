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

The functions below state their contracts; the three moves, the scans
that find them and the toggle are described here, once.

**Moves.**  The merge takes one move per step, from one scan, and a last
resort when that scan finds none:

* Search: bounded enumeration of interchanging cycles through 2 to
  ``MAX_EDGE_NODES`` edge-nodes, shortest first, keeping the first whose
  application diminishes.  The paper links c components of a covering
  3-hypergraph by one cycle through a non-cut vertex of each and c
  edge-nodes; for c <= ``MAX_EDGE_NODES`` that cycle is itself a candidate,
  so a scan that the expansion budget does not cut finds it or a
  diminishing cycle scanned before it.  The budget's headroom for it is
  measured on a test corpus, not proven; a cut scan falls back to an escape.
* Escape: when no diminishing cycle is found, apply the first candidate of
  the same scan that reaches a certificate the merge has not seen, so the
  loop ends; a per-call step budget also guards it.  On covering
  3-hypergraphs, exceeding the budget signals an implementation bug, not a
  mathematical obstruction.
* Closed trail: when the scan yields neither, toggle the first
  interchanging closed trail, shortest first, whose toggle diminishes.  Its
  vertex-nodes are distinct, but an edge-node may appear twice, each visit
  swapping one anchor against the pair the earlier visit left.  This move
  is not from the paper.  It is needed because the families of one input
  need not be joined by interchanging cycles: a family that differs from
  every tour at some edge in both anchors reaches none by a cycle, which
  passes that edge-node once and swaps one anchor (``random#372`` in the
  tests has two such families).  The difference of any two families splits
  into closed trails of this kind, pairing an old anchor with a new one at
  each edge-node and cutting at repeated vertex-nodes, so such trails join
  every two families; the scan tries those of at most ``MAX_EDGE_NODES + 1``
  visits, within its own ``MAX_EXPANSIONS``.  It runs only when some
  connected piece of the host holds two non-trivial components: a move's
  vertex-nodes lie in one piece, so elsewhere nothing can diminish.

**Scan tables.**  The exits that keep a cycle interchanging are fixed by the
certificate, so the cycle scan tabulates them once: an edge-node entered from
one of its anchors leaves through a member that is not an anchor,
``others[e]`` in row order, and one entered from a non-anchor leaves
through an anchor, its sorted pair.  For each length and each start vertex
in turn, one depth-first search reads these tables and one list of visited
flags, set on the edge-nodes and the later vertex-nodes of its path, and
yields the cycles whose smallest vertex-node is the start, so each cycle
comes from one start.  It charges one expansion for each edge-node it
looks at, against ``MAX_EXPANSIONS`` for the whole scan.

**Toggle.**  A move is the node tuple the search yields.  Toggling it sets
each edge-node's anchor pair to that pair XOR its two cycle neighbours.
The candidate scoring (one union-find on the toggled pairs), the merge's
set of certificates seen and :func:`apply_interchange` all use this one
toggle; only the applied move builds a new :class:`FamilySubgraph`, whose
check rejects any cycle that is not interchanging.
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

    The scan of the module docstring.  The budget ``left`` starts at
    ``MAX_EXPANSIONS``, read when the scan starts; at 0 the scan stops for
    good and charges nothing more.
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


def _trails(g, anchors):
    """Interchanging closed trails of the certificate, shortest first, in one expansion budget.

    The last-resort scan of the module docstring: like :func:`_candidates`,
    from each start vertex through later vertex-nodes only, through 2 to
    ``MAX_EDGE_NODES + 1`` edge-node visits, charging one expansion for each
    edge-node it looks at, against its own ``MAX_EXPANSIONS``.  An edge-node
    may be visited a second time, but not next to its first visit around the
    trail: two such visits toggle what one visit without the vertex-node
    between them does, on a shorter trail.  Each visit is read against the
    edge's pair as the earlier visits on the path left it, so the exits are
    found as the walk goes, not tabulated.
    """
    adj = g.adj
    n_v = g.n_v
    pairs = list(anchors)
    visits = [0] * (n_v + g.n_e)
    on_path = [False] * n_v
    path = [0]
    left = MAX_EXPANSIONS

    def walk(u, depth):
        nonlocal left
        closing = depth + 1 == t
        last = path[-2] if depth else -1
        for en in adj[u]:
            left -= 1
            if left <= 0:
                return
            if en == last or visits[en] == 2:
                continue
            e = en - n_v
            pair = pairs[e]
            exits = [w for w in adj[en] if w not in pair] if u in pair else pair
            if closing:
                if start in exits and en != path[1]:
                    yield (*path, en)
                continue
            for w in exits:
                if w <= start or on_path[w]:
                    continue
                on_path[w] = True
                visits[en] += 1
                pairs[e] = tuple(sorted({*pair} ^ {u, w}))
                path.append(en)
                path.append(w)
                yield from walk(w, depth + 1)
                del path[-2:]
                pairs[e] = pair
                visits[en] -= 1
                on_path[w] = False
                if left <= 0:
                    return

    for t in range(2, MAX_EDGE_NODES + 2):
        for start in range(n_v):
            if left <= 0:
                return
            path[0] = start
            yield from walk(start, 0)


def _diminishing_trail(fsub: FamilySubgraph) -> tuple[int, ...] | None:
    """The first trail of :func:`_trails` whose toggled pairs have fewer non-trivial components."""
    g = fsub.host
    comp_of = fsub.component_of
    base = fsub.nontrivial_count
    for nodes in _trails(g, fsub.anchors):
        # The crossing filter of find_diminishing_cycle: a trail's edge-nodes
        # too lie in the component of an anchor met on it.
        if (len({comp_of[x] for x in nodes[::2]}) > 1
                and _union_find(g.n_v, _toggle(fsub, nodes))[1] < base):
            return nodes
    return None


def _shares_a_piece(fsub: FamilySubgraph) -> bool:
    """Whether some connected piece of the host holds two non-trivial components.

    Elsewhere no move diminishes: a move's vertex-nodes lie in one piece.
    """
    g = fsub.host
    piece = _union_find(g.n_v, ((row[0], v) for row in g.adj[g.n_v:] for v in row[1:]))[0]
    # Every parent is at most its vertex, so one pass in index order
    # resolves each vertex to its piece's smallest vertex.
    for x, p in enumerate(piece):
        piece[x] = piece[p]
    comp_of = fsub.component_of
    roots = {comp_of[a] for a, _ in fsub.anchors}
    return len({piece[r] for r in roots}) < len(roots)


def find_diminishing_cycle(fsub: FamilySubgraph, seen) -> tuple[int, ...] | None:
    """The merge's next move, a diminishing cycle or else an escape, by one scan.

    Returns the first candidate (module docstring) whose toggled pairs have
    fewer non-trivial components.  When none diminishes, it returns instead
    the first candidate of the same scan whose toggled pairs are not in
    ``seen``, the set of certificates' anchor tuples the merge has visited;
    ``None`` when there is neither.
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
    """Merge a family certificate into an Euler tour by interchanging moves.

    ``fsub`` is frozen and stays unchanged: each move builds a new
    certificate, and the tour is read out of the last one and not
    re-verified, so callers verify what they return.
    Each step applies the move :func:`find_diminishing_cycle` returns, or
    with none the first diminishing closed trail (module docstring); with
    neither, it stops with reason ``"no-move"``.  The default budget is
    ``10 * |E|**2`` steps; on covering 3-hypergraphs exhausting it indicates
    a bug (module docstring), and on other inputs the same moves run
    best-effort and may exhaust honestly.
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
    seen = set()
    while (base := fsub.nontrivial_count) > 1:
        seen.add(fsub.anchors)
        if steps >= budget:
            raise MergeExhaustedError("budget", steps, fsub.anchors)
        move = find_diminishing_cycle(fsub, seen)
        if move is None and _shares_a_piece(fsub):
            move = _diminishing_trail(fsub)
        if move is None:
            raise MergeExhaustedError("no-move", steps, fsub.anchors)
        fsub = apply_interchange(fsub, move)
        if fsub.nontrivial_count < base:
            stats.diminishing += 1
        else:
            stats.escapes += 1
        steps += 1
        stats.steps += 1

    return trails_from_subgraph(fsub).components[0]
