"""Bipartite incidence graphs of hypergraphs.

Nodes ``0 .. n_v-1`` are vertex-nodes (one per hypergraph vertex, same index);
nodes ``n_v .. n_v+n_e-1`` are edge-nodes, in edge order.  ``incidences``
numbers the (vertex index, edge id) pairs, and the matching gadget lays out
its stubs in that order.  Every row is built once, in increasing node order,
with no sort after the fact.  The components of a certificate subgraph are
found by the union-find in :mod:`eulergraph.family`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .hypergraph import Hypergraph


@dataclass(frozen=True)
class IncidenceGraph:
    """Simple bipartite graph linking hypergraph vertices to the edges containing them."""

    host: Hypergraph
    n_v: int
    n_e: int
    adj: tuple[tuple[int, ...], ...]

    @cached_property
    def incidences(self) -> tuple[tuple[int, int], ...]:
        """All (vertex index, edge id) incidence pairs, grouped by edge."""
        return tuple(
            (v, j) for j in range(self.n_e) for v in self.adj[self.n_v + j])


def build_incidence(h: Hypergraph) -> IncidenceGraph:
    """The incidence graph of ``h``, every row in increasing node order.

    Edges are visited in id order, so each vertex row receives its edge-nodes
    already sorted, and each edge row is its sorted vertex set.
    """
    n, m = len(h.vertices), len(h.edges)
    adj: list[list[int]] = [[] for _ in range(n + m)]
    for j, e in enumerate(h.edges):
        adj[n + j] = row = sorted(e)
        for v in row:
            adj[v].append(n + j)
    return IncidenceGraph(h, n, m, tuple(map(tuple, adj)))

