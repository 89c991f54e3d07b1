"""Bipartite incidence graphs and the structural queries the merging engine relies on.

Nodes ``0 .. n_v-1`` are vertex-nodes (one per hypergraph vertex, same index);
nodes ``n_v .. n_v+n_e-1`` are edge-nodes, in edge order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

from .hypergraph import Hypergraph


@dataclass(frozen=True)
class IncidenceGraph:
    """Simple bipartite graph linking hypergraph vertices to the edges containing them."""

    host: Hypergraph
    n_v: int
    n_e: int
    adj: tuple[tuple[int, ...], ...]

    def e_node(self, edge_id: int) -> int:
        return self.n_v + edge_id

    def edge_id(self, node: int) -> int:
        return node - self.n_v

    def is_v_node(self, node: int) -> bool:
        return node < self.n_v

    @cached_property
    def incidences(self) -> tuple[tuple[int, int], ...]:
        """All (vertex index, edge id) incidence pairs, grouped by edge."""
        return tuple(
            (v, j) for j in range(self.n_e) for v in self.adj[self.n_v + j])


def build_incidence(h: Hypergraph) -> IncidenceGraph:
    n, m = len(h.vertices), len(h.edges)
    adj: list[list[int]] = [[] for _ in range(n + m)]
    for j, e in enumerate(h.edges):
        for v in sorted(e):
            adj[v].append(n + j)
            adj[n + j].append(v)
    return IncidenceGraph(h, n, m, tuple(tuple(sorted(row)) for row in adj))


class Component(NamedTuple):
    nodes: frozenset[int]
    trivial: bool


def components(adj: Sequence[Sequence[int]]) -> tuple[Component, ...]:
    """Connected components of a graph given as adjacency rows.

    Ordered by smallest member node.  A component is trivial iff it is one
    isolated node.
    """
    n = len(adj)
    seen = [False] * n
    out: list[Component] = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        nodes = [s]
        q = deque([s])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    nodes.append(w)
                    q.append(w)
        out.append(Component(frozenset(nodes), len(nodes) == 1))
    return tuple(out)


def articulation_points(adj: Sequence[Sequence[int]]) -> frozenset[int]:
    """Cut vertices via one depth-first traversal per component (Hopcroft-Tarjan low points)."""
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    cut: set[int] = set()
    time = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        root_children = 0
        disc[root] = low[root] = time
        time += 1
        stack: list[tuple[int, object]] = [(root, iter(adj[root]))]
        while stack:
            u, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    parent[w] = u
                    if u == root:
                        root_children += 1
                    disc[w] = low[w] = time
                    time += 1
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
                elif w != parent[u] and disc[w] < low[u]:
                    low[u] = disc[w]
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] >= disc[p] and p != root:
                        cut.add(p)
        if root_children >= 2:
            cut.add(root)
    return frozenset(cut)
