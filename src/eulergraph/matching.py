"""Maximum matching on general graphs, and the degree-prescription gadget.

The matching kernel is the classical blossom-contraction search: repeatedly
grow an alternating BFS forest from an exposed node, shrinking odd cycles
(blossoms) to their base, until an augmenting path is found or proven absent.
A greedy maximal matching seeds the search, so only a handful of augmentation
phases run on the near-perfect gadget graphs this package produces.

The gadget turns "pick a spanning subgraph of the incidence graph with every
edge-node of degree exactly 2 and every vertex-node of even degree" into a
perfect-matching question:

* an edge-node of degree d becomes d stubs plus d-2 cores, every core
  adjacent to every stub: a perfect matching leaves exactly 2 stubs to be
  matched across incidence edges;
* a vertex-node of degree d becomes d pairwise-adjacent stubs, plus one
  parity dummy adjacent to all of them iff d is odd: the stubs matched
  across incidence edges are forced to be even in number;
* each incidence becomes one gadget edge between the two matching stubs.

An incidence belongs to the selected subgraph iff its gadget edge is in the
matching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .errors import InfeasibleDegreeError
from .incidence import IncidenceGraph


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges, stored as sorted node pairs."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        seen: set[int] = set()
        for a, b in self.pairs:
            if a == b or a in seen or b in seen:
                raise ValueError("not a matching: overlapping or degenerate pairs")
            seen.add(a)
            seen.add(b)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def mate_map(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for a, b in self.pairs:
            out[a] = b
            out[b] = a
        return out


def _greedy_seed(adj: Sequence[Sequence[int]], mate: list[int]) -> None:
    for v in range(len(adj)):
        if mate[v] != -1:
            continue
        for u in adj[v]:
            if mate[u] == -1:
                mate[v] = u
                mate[u] = v
                break


def _lca(mate, base, parent, a, b):
    marked = set()
    while True:
        a = base[a]
        marked.add(a)
        if mate[a] == -1:
            break
        a = parent[mate[a]]
    while True:
        b = base[b]
        if b in marked:
            return b
        b = parent[mate[b]]


def _mark_path(mate, base, blossom, parent, v, b, child):
    while base[v] != b:
        blossom[base[v]] = True
        blossom[base[mate[v]]] = True
        parent[v] = child
        child = mate[v]
        v = parent[mate[v]]


def _augment_from(adj: Sequence[Sequence[int]], mate: list[int], root: int) -> bool:
    """BFS for an augmenting path from ``root``; flips it and reports success."""
    n = len(adj)
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    used[root] = True
    q: deque[int] = deque([root])
    while q:
        v = q.popleft()
        for to in adj[v]:
            if base[v] == base[to] or mate[v] == to:
                continue
            if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                # Even-even edge inside the forest: contract the blossom.
                cur = _lca(mate, base, parent, v, to)
                blossom = [False] * n
                _mark_path(mate, base, blossom, parent, v, cur, to)
                _mark_path(mate, base, blossom, parent, to, cur, v)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            q.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if mate[to] == -1:
                    while to != -1:
                        pv = parent[to]
                        ppv = mate[pv]
                        mate[to] = pv
                        mate[pv] = to
                        to = ppv
                    return True
                used[mate[to]] = True
                q.append(mate[to])
    return False


def max_matching(adj: Sequence[Sequence[int]]) -> Matching:
    """Maximum-cardinality matching of a simple undirected graph.

    Deterministic: nodes are processed in increasing order and neighbours in
    adjacency order, so equal inputs give equal matchings.
    """
    n = len(adj)
    mate = [-1] * n
    _greedy_seed(adj, mate)
    for root in range(n):
        if mate[root] == -1:
            _augment_from(adj, mate, root)
    pairs = frozenset((v, mate[v]) for v in range(n) if mate[v] > v)
    return Matching(pairs)


@dataclass(frozen=True)
class GadgetGraph:
    """The matching gadget built from an incidence graph.

    ``incidences[t]`` is the t-th incidence (vertex index, edge id) and
    ``incidence_edge[t]`` the gadget edge realizing it.  All other gadget
    edges are internal (stub-core, stub-stub, stub-dummy).  Node layout:
    v-stubs ``[0, T)``, e-stubs ``[T, 2T)`` for ``T`` incidences, then the
    cores in edge order, then the parity dummies in vertex order.
    """

    adj: tuple[tuple[int, ...], ...]
    incidences: tuple[tuple[int, int], ...]
    incidence_edge: tuple[tuple[int, int], ...]

    @property
    def node_count(self) -> int:
        return len(self.adj)


def reduce_to_matching(g: IncidenceGraph) -> GadgetGraph:
    """Build the gadget whose perfect matchings encode the degree-constrained subgraphs.

    Raises :class:`InfeasibleDegreeError` when some edge-node has degree < 2,
    i.e. some hyperedge has fewer than two vertices and can never be traversed.
    """
    for j in range(g.n_e):
        if len(g.adj[g.n_v + j]) < 2:
            raise InfeasibleDegreeError(
                f"edge e{j + 1} has only {len(g.adj[g.n_v + j])} vertices")

    incidences = g.incidences
    t_count = len(incidences)
    # Node layout: v-stubs [0, T), e-stubs [T, 2T), then cores, then dummies.
    adj: list[list[int]] = [[] for _ in range(2 * t_count)]

    def new_node() -> int:
        adj.append([])
        return len(adj) - 1

    def link(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)

    incidence_edge = []
    for t in range(t_count):
        link(t, t_count + t)
        incidence_edge.append((t, t_count + t))

    # Edge-node gadgets: d-2 cores, each adjacent to all d of the edge's stubs.
    pos = 0
    for j in range(g.n_e):
        d = len(g.adj[g.n_v + j])
        stubs = [t_count + (pos + i) for i in range(d)]
        for _ in range(d - 2):
            core = new_node()
            for s in stubs:
                link(core, s)
        pos += d

    # Vertex-node gadgets: stub clique plus a parity dummy for odd degree.
    stubs_of: dict[int, list[int]] = {}
    for t, (v, _) in enumerate(incidences):
        stubs_of.setdefault(v, []).append(t)
    for v in sorted(stubs_of):
        stubs = stubs_of[v]
        for i in range(len(stubs)):
            for jj in range(i + 1, len(stubs)):
                link(stubs[i], stubs[jj])
        if len(stubs) % 2 == 1:
            dummy = new_node()
            for s in stubs:
                link(dummy, s)

    return GadgetGraph(
        tuple(tuple(sorted(row)) for row in adj),
        incidences,
        tuple(incidence_edge),
    )
