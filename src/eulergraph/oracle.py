"""Brute-force ground truth for Euler families and Euler tours.

Everything here takes an independent code path from the main engine (only the
data types are shared), so the two sides can check each other.  Both searches
are exact on inputs of at most ``max_edges`` edges (``MAX_EDGES`` by default),
and they search states, not paths:

* ``brute_family_exists`` sweeps the edges in order over the set of reachable
  vertex-parity bitmasks, at most 2^(open vertices) of them, where a vertex
  is open while some but not all of its edges are swept; an edge step that
  would make more than 2^``STEP_BITS`` state updates raises ``ValueError``,
  so wide inputs fail fast in time and in memory;
* ``brute_tour`` is a depth-first trail search over per-vertex edge bitmasks
  that remembers failed (used-edge mask, current vertex) states of each
  start vertex, at most 2^(m-1) * n of them, in the style of Held and Karp
  (1962), and tries each unordered start pair of edge 0 once; it recurses
  once per edge, so it refuses more than ``MAX_TOUR_EDGES`` edges whatever
  ``max_edges`` allows.

Euler-tour existence is NP-complete (Lonc and Naroski, 2010), so the tour
search stays exponential in the number of edges.
"""

from __future__ import annotations

from itertools import combinations

from .errors import CertificateViolation
from .hypergraph import (EulerFamily, Hypergraph, Walk, canonical_closed_trail, edge_name,
                         verify_euler_object)

MAX_EDGES = 10
# One edge step of the family sweep makes at most 2**STEP_BITS state updates.
STEP_BITS = 16
# brute_tour recurses one level per edge; this bound keeps it well inside
# Python's default recursion limit of 1000, whatever max_edges allows.
MAX_TOUR_EDGES = 500


def _check_edges(h: Hypergraph, max_edges: int) -> int:
    """The edge count of ``h``; ``ValueError`` unless it is within a positive ``max_edges``."""
    if max_edges <= 0:
        raise ValueError(f"max_edges must be positive, got {max_edges}")
    m = len(h.edges)
    if m > max_edges:
        raise ValueError(f"too many edges for exhaustive search ({m} > {max_edges})")
    return m


def brute_family_exists(h: Hypergraph, max_edges: int = MAX_EDGES) -> bool:
    """Exhaustively decide Euler-family existence.

    A family certificate is one anchor pair per edge with every vertex at even
    parity.  The sweep takes the edges in order and keeps the set of vertex
    parity bitmasks that some choice of pairs so far reaches; each pair flips
    two bits.  Once a vertex's last edge is swept, only states with its bit
    clear can still end at zero, so only the bits of open vertices (met by a
    swept edge and by an edge still to come) are ever set, and the set holds
    at most 2^(open vertices) states.  An edge step costs one update per
    state and anchor pair; a step that would cost more than 2^STEP_BITS
    updates raises ``ValueError``, as more than ``max_edges`` edges do.
    That bounds the time of every step, and the states it reaches.
    """
    _check_edges(h, max_edges)
    cap = 1 << STEP_BITS
    last = {v: j for j, e in enumerate(h.edges) for v in e}
    states = {0}
    for j, e in enumerate(h.edges):
        pairs = len(e) * (len(e) - 1) // 2
        if len(states) * pairs > cap:
            raise ValueError(
                f"too many parity states for exhaustive search: {len(states)} states x "
                f"{pairs} anchor pairs at {edge_name(j)} (over 2**{STEP_BITS})")
        closed = sum(1 << v for v in e if last[v] == j)
        reached: set[int] = set()
        for a, b in combinations(e, 2):
            # s ^ flip clears the closed bits exactly when s agrees with flip on them.
            flip = (1 << a) | (1 << b)
            keep = flip & closed
            reached.update([s ^ flip for s in states if s & closed == keep])
        if not reached:
            return False
        states = reached
    return True


def brute_tour(h: Hypergraph, max_edges: int = MAX_EDGES) -> Walk | None:
    """Depth-first search for an Euler tour; returns a canonical verified tour or None.

    The search starts from each anchor pair (a, b) of edge 0 with a < b, then
    extends the trail by the lowest unused edge id through the current
    vertex, and within an edge by the lowest next anchor.  The pair (b, a)
    needs no search of its own: reversing a tour through a, e0, b and
    starting it at b gives one through b, e0, a, so (b, a) has a tour only
    when (a, b), tried first, has one.  A partial trail whose start vertex
    has no unused edge left cannot close, so it is not extended.  Whether a
    partial trail completes depends only on its start vertex, its used-edge
    mask and its current vertex, so each such state that failed once is
    remembered and never expanded again: at most 2^(m-1) * n states per start
    vertex.  No cut removes a subtree that holds a tour, so the first tour
    found is the one plain backtracking over all ordered pairs in the same
    order would find.
    """
    m = _check_edges(h, max_edges)
    if m > MAX_TOUR_EDGES:
        raise ValueError(
            f"too many edges for the recursive tour search ({m} > {MAX_TOUR_EDGES})")
    if m < 2:
        return None
    n = h.order
    members = [sorted(e) for e in h.edges]
    through = [0] * n  # bit j set when edge j holds the vertex
    for j, e in enumerate(h.edges):
        for v in e:
            through[v] |= 1 << j
    full = (1 << m) - 1
    steps: list[tuple[int, int]] = []  # (edge, next anchor), last step first
    failed: set[int] = set()  # used * n + current vertex, for the current start

    def extend(cur: int, used: int) -> bool:
        if used == full:
            return cur == start
        key = used * n + cur
        if key in failed or not through[start] & ~used:
            return False
        free = through[cur] & ~used
        while free:
            bit = free & -free
            free ^= bit
            eid = bit.bit_length() - 1
            for nxt in members[eid]:
                if nxt != cur and extend(nxt, used | bit):
                    steps.append((eid, nxt))
                    return True
        failed.add(key)
        return False

    start = -1
    for a, b in combinations(members[0], 2):
        if a != start:
            start = a
            failed.clear()
        if extend(b, 1):
            steps.reverse()
            anchors = [a, b] + [v for _, v in steps]
            walk = Walk(tuple(h.vertices[i] for i in anchors), (0,) + tuple(e for e, _ in steps))
            tour = canonical_closed_trail(walk)
            violations = verify_euler_object(h, EulerFamily((tour,)))
            if violations:
                raise CertificateViolation(
                    "brute-force tour failed verification: " + "; ".join(violations[:3]))
            return tour
    return None

