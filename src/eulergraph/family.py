"""Euler-family certificates in spanning-subgraph form, and conversions to and from trails.

A family subgraph is a spanning subgraph of the incidence graph in which
every edge-node has degree exactly 2 and every vertex-node has even degree.
Its non-trivial connected components correspond one-to-one to the closed
trails of an Euler family, so existence reduces to a perfect-matching search
and trail extraction is an Euler-circuit traversal per component.

The constructor enforces the degree discipline, so the merge rewrites this
certificate directly and trail extraction is not re-verified; trails are
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
from .incidence import Component, IncidenceGraph, articulation_points, components
from .matching import GadgetGraph, Matching, max_matching, reduce_to_matching


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
        for v, e in sorted(self.selected):
            adj[v].append(g.e_node(e))
            adj[g.e_node(e)].append(v)
        return tuple(tuple(sorted(row)) for row in adj)

    @cached_property
    def components(self) -> tuple[Component, ...]:
        return components(self.subgraph_adj)

    @cached_property
    def nontrivial_components(self) -> tuple[Component, ...]:
        return tuple(c for c in self.components if not c.trivial)

    @cached_property
    def node_component(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, c in enumerate(self.components):
            for node in c.nodes:
                out[node] = i
        return out

    @cached_property
    def cut_vertices(self) -> frozenset[int]:
        return articulation_points(self.subgraph_adj)

    def non_cut_v_vertices(self, component: Component) -> tuple[int, ...]:
        """Vertex-nodes of a non-trivial component that are not cut vertices.

        Cycles guarantee at least two such vertices in every non-trivial
        component of a valid certificate; fewer means the certificate is
        corrupt.
        """
        if component.trivial:
            raise ValueError("component must be non-trivial")
        out = tuple(
            node for node in sorted(component.nodes)
            if self.host.is_v_node(node) and node not in self.cut_vertices)
        if len(out) < 2:
            raise CertificateViolation(
                "non-trivial component with fewer than two non-cut vertex-nodes")
        return out


def extract_subgraph(g: IncidenceGraph, gg: GadgetGraph, m: Matching) -> FamilySubgraph | None:
    """Read a family subgraph out of a gadget matching, or None if it is not perfect."""
    if 2 * m.size != gg.node_count:
        return None
    # Pairs are stored as (a, b) with a < b, and so is incidence_edge[t].
    selected = frozenset(
        gg.incidences[t]
        for t, ab in enumerate(gg.incidence_edge)
        if ab in m.pairs)
    return FamilySubgraph(g, selected)


def find_family_subgraph(g: IncidenceGraph) -> FamilySubgraph | None:
    """Decide Euler-family existence exactly; return a certificate when one exists."""
    try:
        gg = reduce_to_matching(g)
    except InfeasibleDegreeError:
        return None
    return extract_subgraph(g, gg, max_matching(gg.adj))


def _euler_circuit(adj, start: int) -> list[int]:
    """Closed walk through every edge of a connected even-degree subgraph."""
    ptr = [0] * len(adj)
    used: set[tuple[int, int]] = set()
    stack = [start]
    out: list[int] = []
    while stack:
        v = stack[-1]
        row = adj[v]
        while ptr[v] < len(row):
            u = row[ptr[v]]
            key = (v, u) if v < u else (u, v)
            if key in used:
                ptr[v] += 1
            else:
                used.add(key)
                stack.append(u)
                break
        else:
            out.append(stack.pop())
    out.reverse()
    return out


def _walk_key(w: Walk):
    return (w.anchors, w.edges)


def trails_from_subgraph(fsub: FamilySubgraph) -> EulerFamily:
    """One canonical closed trail per non-trivial component of the certificate.

    Not re-verified here; callers verify what they return.
    """
    g = fsub.host
    h = g.host
    walks: list[Walk] = []
    for comp in fsub.components:
        if comp.trivial:
            continue
        start = min(node for node in comp.nodes if g.is_v_node(node))
        seq = _euler_circuit(fsub.subgraph_adj, start)
        anchors = tuple(h.vertices[seq[i]] for i in range(0, len(seq), 2))
        edges = tuple(g.edge_id(seq[i]) for i in range(1, len(seq), 2))
        walks.append(canonical_closed_trail(Walk(anchors, edges)))
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
