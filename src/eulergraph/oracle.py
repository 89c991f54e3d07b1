"""Brute-force ground truth for families, tours and matchings.

Everything here takes an independent code path from the main engine (only the
data types are shared), so the two sides can check each other.  All searches
are exact within their size budgets, and they search states, not paths:

* ``brute_family_exists`` sweeps the edges in order over the set of reachable
  vertex-parity bitmasks, at most 2^(open vertices) of them, where a vertex
  is open while some but not all of its edges are swept;
* ``brute_tour`` is a depth-first trail search that remembers failed
  (start vertex, used-edge mask, current vertex) states, at most
  2^(m-1) * n per start vertex, in the style of Held and Karp (1962);
* ``brute_max_matching`` memoises the best matching of each live node set.

Euler-tour existence is NP-complete (Lonc and Naroski, 2010), so the tour
search stays exponential in the number of edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .hypergraph import EulerFamily, Hypergraph, Walk, canonical_closed_trail, verify_euler_object


@dataclass(frozen=True)
class SearchBudget:
    max_edges: int = 10
    max_nodes: int = 16

    def __post_init__(self):
        if self.max_edges <= 0 or self.max_nodes <= 0:
            raise ValueError("budget limits must be positive")


DEFAULT_BUDGET = SearchBudget()


def brute_family_exists(h: Hypergraph, budget: SearchBudget = DEFAULT_BUDGET) -> bool:
    """Exhaustively decide Euler-family existence.

    A family certificate is one anchor pair per edge with every vertex at even
    parity.  The sweep takes the edges in order and keeps the set of vertex
    parity bitmasks that some choice of pairs so far reaches; each pair flips
    two bits.  Once a vertex's last edge is swept, only states with its bit
    clear can still end at zero, so only the bits of open vertices (met by a
    swept edge and by an edge still to come) are ever set, and the set holds
    at most 2^(open vertices) states.
    """
    m = len(h.edges)
    if m > budget.max_edges:
        raise ValueError(f"too many edges for exhaustive search ({m} > {budget.max_edges})")
    last = {v: j for j, e in enumerate(h.edges) for v in e}
    states = {0}
    for j, e in enumerate(h.edges):
        flips = [(1 << a) | (1 << b) for a, b in combinations(e, 2)]
        closed = sum(1 << v for v in e if last[v] == j)
        states = {s ^ f for s in states for f in flips}
        states = {s for s in states if not s & closed}
        if not states:
            return False
    return True


def brute_tour(h: Hypergraph, budget: SearchBudget = DEFAULT_BUDGET) -> Walk | None:
    """Depth-first search for an Euler tour; returns a canonical verified tour or None.

    The search starts from each ordered anchor pair of edge 0, then extends
    the trail by the lowest unused edge id through the current vertex, and
    within an edge by the lowest next anchor.  Whether a partial trail
    completes depends only on its start vertex, its used-edge mask and its
    current vertex, so each such state that failed once is remembered and
    never expanded again: at most 2^(m-1) * n states per start vertex.  The
    memo cuts only subtrees that hold no tour, so the first tour found is the
    one plain backtracking in the same order would find.
    """
    m = len(h.edges)
    if m > budget.max_edges:
        raise ValueError(f"too many edges for exhaustive search ({m} > {budget.max_edges})")
    if m < 2:
        return None
    members = [sorted(e) for e in h.edges]
    through = [[j for j in range(m) if v in h.edges[j]] for v in range(h.order)]
    full = (1 << m) - 1
    anchors: list[int] = []
    eseq: list[int] = []
    failed: set[tuple[int, int, int]] = set()

    def extend(cur: int, start: int, used: int) -> bool:
        if used == full:
            return cur == start
        if (start, used, cur) in failed:
            return False
        for eid in through[cur]:
            if used >> eid & 1:
                continue
            eseq.append(eid)
            for nxt in members[eid]:
                if nxt == cur:
                    continue
                anchors.append(nxt)
                if extend(nxt, start, used | 1 << eid):
                    return True
                anchors.pop()
            eseq.pop()
        failed.add((start, used, cur))
        return False

    first = members[0]
    for a in first:
        for b in first:
            if a == b:
                continue
            anchors[:] = [a, b]
            eseq[:] = [0]
            if extend(b, a, 1):
                walk = Walk(tuple(h.vertices[i] for i in anchors), tuple(eseq))
                tour = canonical_closed_trail(walk)
                report = verify_euler_object(h, EulerFamily((tour,)))
                assert report.valid
                return tour
    return None


def brute_max_matching(adj: Sequence[Sequence[int]], budget: SearchBudget = DEFAULT_BUDGET) -> int:
    """Exact maximum matching size over node subsets (branch on the lowest live node)."""
    n = len(adj)
    if n > budget.max_nodes:
        raise ValueError(f"too many nodes for exhaustive search ({n} > {budget.max_nodes})")
    nbr = [0] * n
    for v in range(n):
        for u in adj[v]:
            nbr[v] |= 1 << u

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        top = best(rest)
        avail = nbr[v] & rest
        while avail:
            u = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            cand = 1 + best(rest & ~(1 << u))
            if cand > top:
                top = cand
        return top

    result = best((1 << n) - 1)
    best.cache_clear()
    return result
