"""Bipartite incidence graphs of hypergraphs, and the incidence layout the family search reads.

Nodes ``0 .. n_v-1`` are vertex-nodes (one per hypergraph vertex, same index);
nodes ``n_v .. n_v+n_e-1`` are edge-nodes, in edge order.  Every row is built
once, in increasing node order, with no sort after the fact.

The same pass lays out the incidences.  ``incidences`` numbers the
(vertex index, edge id) pairs grouped by edge, each edge's in increasing
vertex order, so edge e's pairs are the numbers ``first[e]`` to
``first[e + 1] - 1`` and the pair of vertex v in edge e is number
``first[e] + adj[n_v + e].index(v)``.  The forced-anchor propagation of
:mod:`eulergraph.family` keeps its decisions in one list in this order, and
the matching gadget of :mod:`eulergraph.matching` lays out its stubs in this
order and reads each edge's decisions as one slice of that list.  The
components of a certificate subgraph are found by the union-find in
:mod:`eulergraph.family`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .hypergraph import Hypergraph


@dataclass(frozen=True)
class IncidenceGraph:
    """Simple bipartite graph linking hypergraph vertices to the edges containing them.

    ``incidences`` holds every (vertex index, edge id) pair, grouped by edge,
    and edge e's pairs are ``incidences[first[e]:first[e + 1]]``.
    """

    host: Hypergraph
    n_v: int
    n_e: int
    adj: tuple[tuple[int, ...], ...]
    incidences: tuple[tuple[int, int], ...]
    first: tuple[int, ...]


def build_incidence(h: Hypergraph) -> IncidenceGraph:
    """The incidence graph of ``h``, every row in increasing node order.

    Edges are visited in id order, so each vertex row receives its edge-nodes
    already sorted, each edge row is its sorted vertex set, and the
    incidences come out grouped by edge.
    """
    n, m = len(h.vertices), len(h.edges)
    adj: list[list[int]] = [[] for _ in range(n)]
    incidences: list[tuple[int, int]] = []
    for j, e in enumerate(h.edges):
        row = sorted(e)
        adj.append(row)
        for v in row:
            adj[v].append(n + j)
            incidences.append((v, j))
    first = (0, *accumulate(map(len, h.edges)))
    return IncidenceGraph(h, n, m, tuple(map(tuple, adj)), tuple(incidences), first)
