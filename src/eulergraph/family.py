"""Euler-family certificates in spanning-subgraph form, and conversions to and from trails.

A family subgraph is a spanning subgraph of the incidence graph in which
every edge-node has degree exactly 2 and every vertex-node has even degree.
Its non-trivial connected components correspond one-to-one to the closed
trails of an Euler family, so existence reduces to a perfect-matching search
and trail extraction is an Euler-circuit traversal per component.  Every
edge-node has exactly two selected incidences, so the traversal runs on the
vertices alone: it crosses an edge from one selected anchor to the other.

One union-find over a selection's incidences is the package's only
component routine: it gives a certificate's components, and it scores the
merge's candidate cycles on their toggled selections.  Certificates are
frozen: the constructor enforces the degree discipline, every merge move
builds a new one, and trail extraction is not re-verified; trails are
verified once, where they leave the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CertificateViolation, InfeasibleDegreeError
from .hypergraph import (
    EulerFamily,
    Walk,
    canonical_closed_trail,
    verify_euler_object,
)
from .incidence import IncidenceGraph
from .matching import max_matching, reduce_to_matching


def _union_find(g: IncidenceGraph, selected) -> tuple[list[int], int]:
    """Union-find over the subgraph a selection of incidences spans.

    Returns the parent array and the number of non-trivial components.  A
    union hangs the larger root under the smaller, so every parent is at
    most its node and a component's root is its smallest node.  A node lies
    in a non-trivial component exactly when it has a selected incidence, so
    the count is the touched nodes minus the joining unions.
    """
    parent = list(range(g.n_v + g.n_e))
    touched = [False] * len(parent)
    count = 0
    for a, e in selected:
        b = g.n_v + e
        for x in (a, b):
            if not touched[x]:
                touched[x] = True
                count += 1
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            if a < b:
                a, b = b, a
            parent[a] = b
            count -= 1
    return parent, count


@dataclass(frozen=True)
class FamilySubgraph:
    """A certificate subgraph: selected incidences with the degree discipline above."""

    host: IncidenceGraph
    selected: frozenset[tuple[int, int]]

    def __post_init__(self):
        g = self.host
        edges = g.host.edges
        e_deg = [0] * g.n_e
        v_deg = [0] * g.n_v
        for v, e in self.selected:
            if not (0 <= e < g.n_e) or v not in edges[e]:
                raise CertificateViolation(f"({v}, e{e + 1}) is not an incidence of the host")
            e_deg[e] += 1
            v_deg[v] += 1
        for e, d in enumerate(e_deg):
            if d != 2:
                raise CertificateViolation(f"edge-node e{e + 1} has degree {d}, expected 2")
        for v, d in enumerate(v_deg):
            if d % 2 == 1:
                raise CertificateViolation(f"vertex-node {g.host.vertices[v]!r} has odd degree {d}")

    @cached_property
    def subgraph_adj(self) -> tuple[tuple[int, ...], ...]:
        g = self.host
        adj: list[list[int]] = [[] for _ in range(g.n_v + g.n_e)]
        for v, e in self.selected:
            adj[v].append(g.e_node(e))
            adj[g.e_node(e)].append(v)
        return tuple(tuple(sorted(row)) for row in adj)

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], int]:
        parent, count = _union_find(self.host, self.selected)
        # Every parent is at most its node, so one pass in index order
        # resolves each node to its root.
        for x, p in enumerate(parent):
            parent[x] = parent[p]
        return tuple(parent), count

    @property
    def component_of(self) -> tuple[int, ...]:
        """Each node's component root, its smallest node; an isolated node is its own root."""
        return self._components[0]

    @property
    def nontrivial_count(self) -> int:
        """The number of non-trivial components, one per closed trail of the family."""
        return self._components[1]


def find_family_subgraph(g: IncidenceGraph) -> FamilySubgraph | None:
    """Decide Euler-family existence exactly; return a certificate when one exists.

    Incidence t is selected iff the gadget edge ``(t, T + t)`` realizing it,
    for ``T`` incidences, is in the matching, that is iff ``mate[t] == T + t``.
    """
    try:
        gg = reduce_to_matching(g)
    except InfeasibleDegreeError:
        return None
    mate = max_matching(gg.adj)
    if -1 in mate:
        return None
    incidences = g.incidences
    t_count = len(incidences)
    return FamilySubgraph(g, frozenset(
        vt for t, vt in enumerate(incidences) if mate[t] == t_count + t))


def _walk_key(w: Walk):
    return (w.anchors, w.edges)


def trails_from_subgraph(fsub: FamilySubgraph) -> EulerFamily:
    """One canonical closed trail per non-trivial component of the certificate.

    A Hierholzer walk over the vertices: at vertex v it crosses v's lowest
    untraversed selected edge to that edge's other selected anchor, and a
    vertex with none left is popped together with the edge that led to it.
    One pass over the vertices in index order starts a circuit at each vertex
    that still has an untraversed edge, which is the smallest vertex of its
    component.  Not re-verified here; callers verify what they return.
    """
    g = fsub.host
    labels = g.host.vertices
    # rows[v]: v's selected edges, largest first, so pop() yields the lowest.
    rows: list[list[int]] = [[] for _ in range(g.n_v)]
    ends = [0] * g.n_e  # the sum of each edge's two selected anchors
    for v, e in fsub.selected:
        rows[v].append(e)
        ends[e] += v
    for row in rows:
        row.sort(reverse=True)
    used = [False] * g.n_e
    walks: list[Walk] = []
    for start in range(g.n_v):
        if not rows[start]:
            continue
        stack, via = [start], []
        anchors: list[str] = []
        edges: list[int] = []
        while stack:
            v = stack[-1]
            row = rows[v]
            while row and used[row[-1]]:
                row.pop()
            if row:
                e = row.pop()
                used[e] = True
                via.append(e)
                stack.append(ends[e] - v)
            else:
                anchors.append(labels[stack.pop()])
                if via:
                    edges.append(via.pop())
        # The circuit comes out backwards; the canonical form reads both directions.
        walks.append(canonical_closed_trail(Walk(tuple(anchors), tuple(edges))))
    walks.sort(key=_walk_key)
    return EulerFamily(tuple(walks))


def subgraph_from_trails(g: IncidenceGraph, f: EulerFamily) -> FamilySubgraph:
    """Inverse of :func:`trails_from_subgraph` up to rotation, reflection and component order."""
    report = verify_euler_object(g.host, f)
    if not report.valid:
        raise ValueError("invalid family: " + "; ".join(report.violations[:3]))
    h = g.host
    selected: set[tuple[int, int]] = set()
    for w in f.components:
        for j, eid in enumerate(w.edges):
            selected.add((h.vertex_index(w.anchors[j]), eid))
            selected.add((h.vertex_index(w.anchors[j + 1]), eid))
    return FamilySubgraph(g, frozenset(selected))
