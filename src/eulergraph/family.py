"""Euler-family certificates as one anchor pair per edge, and the closed trails they describe.

An Euler family is a set of anchor- and edge-disjoint closed trails covering
every edge once, so its certificate is one pair of distinct anchors per edge,
``anchors[e] = (a, b)`` with ``a < b``, every vertex an anchor an even number
of times.  Joining each edge-node of the incidence graph to its two anchors
gives a spanning subgraph whose non-trivial components are the family's
closed trails, so existence reduces to a perfect-matching search, and each
trail is an Euler circuit that crosses every edge from one anchor to the
other, on the vertices alone.

Many anchor choices are forced before any search: a two-vertex edge anchors
both its vertices, a vertex in one edge anchors none.  A linear propagation
of such rules runs first.  It returns ``None`` on a contradiction, which
proves that no family exists with no gadget built; otherwise the matching
gadget of :mod:`eulergraph.matching` covers only the undecided incidences,
with each edge's remaining need and each vertex's forced parity, and reads
the anchors back from a perfect matching, the forced ones joined by the
matched ones.

One union-find that joins each edge's two anchors is the package's only
component routine: it gives a certificate's components, and it scores the
merge's candidate cycles on their toggled pairs.  Certificates are frozen:
the constructor enforces the pair and parity rules and runs that union-find
once, every merge move builds a new one, and trail extraction is not
re-verified; trails are verified once, where they leave the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CertificateViolation
from .hypergraph import EulerFamily, Walk, canonical_closed_trail, edge_name
from .incidence import IncidenceGraph
from .matching import max_matching, reduce_to_matching


def _union_find(n_v: int, anchors) -> tuple[list[int], int]:
    """Union-find over the vertices, joining each edge's two anchors.

    Returns the parent array and the number of non-trivial components.  A
    union hangs the larger root under the smaller, so every parent is at
    most its vertex and a component's root is its smallest vertex.  A vertex
    lies in a non-trivial component exactly when it anchors some edge, so
    the count is the anchoring vertices minus the joining unions.
    """
    parent = list(range(n_v))
    touched = [False] * n_v
    count = 0
    for a, b in anchors:
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
    """A family certificate: ``anchors[e]``, the two anchors edge e is traversed between."""

    host: IncidenceGraph
    anchors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        g = self.host
        edges = g.host.edges
        if not isinstance(self.anchors, tuple):
            raise CertificateViolation("anchor pairs must come as a tuple")
        if len(self.anchors) != g.n_e:
            raise CertificateViolation(
                f"{len(self.anchors)} anchor pairs for {g.n_e} edges")
        deg = [0] * g.n_v
        for e, pair in enumerate(self.anchors):
            # A tuple, so the certificate hashes into the merge's set of seen ones.
            if not isinstance(pair, tuple):
                raise CertificateViolation(f"edge-node {edge_name(e)} has anchors {pair!r}, not a tuple")
            if len(pair) != 2 or pair[0] == pair[1]:
                raise CertificateViolation(
                    f"edge-node {edge_name(e)} has degree {len(set(pair))}, expected 2")
            # Type and membership first, so no index is used as a position
            # before it is checked (0.0 and True are members of {0, 1}).
            for v in pair:
                if type(v) is not int or v not in edges[e]:
                    raise CertificateViolation(f"({v!r}, {edge_name(e)}) is not an incidence of the host")
                deg[v] += 1
            if pair[0] > pair[1]:
                raise CertificateViolation(f"edge-node {edge_name(e)} has anchors {pair} out of order")
        for v, d in enumerate(deg):
            if d % 2 == 1:
                raise CertificateViolation(f"vertex-node {g.host.vertices[v]!r} has odd degree {d}")
        # The union-find of the anchors: every certificate the package builds
        # is asked for its component count.
        object.__setattr__(self, "_union", _union_find(g.n_v, self.anchors))

    @cached_property
    def component_of(self) -> tuple[int, ...]:
        """Each vertex's component root, its smallest vertex; a vertex anchoring no edge is its own."""
        parent = self._union[0]
        # Every parent is at most its vertex, so one pass in index order
        # resolves each vertex to its root.
        for x, p in enumerate(parent):
            parent[x] = parent[p]
        return tuple(parent)

    @property
    def nontrivial_count(self) -> int:
        """The number of non-trivial components, one per closed trail of the family."""
        return self._union[1]


def _forced_anchors(g: IncidenceGraph) -> list[int] | None:
    """The anchor choices every family shares, propagated to a fixpoint.

    ``state[t]`` is 1 when the t-th incidence anchors its edge in every
    family, 0 when it anchors it in none, and -1 when undecided.  Three
    rules run until none applies:

    * an edge with only as many undecided incidences as anchors it still
      needs takes them all;
    * an edge with two forced anchors excludes the rest;
    * a vertex with one undecided incidence takes the parity that makes its
      anchor count even.

    Each decision is made once and rechecks one edge and one vertex, so the
    fixpoint costs time linear in the incidences.  Returns ``None`` on a
    contradiction: an edge left with more anchors to find than undecided
    incidences, or a vertex with none left and an odd anchor count.  Then no
    family exists.
    """
    n_v, adj, first = g.n_v, g.adj, g.first
    sizes = list(map(len, adj))
    incidences = g.incidences
    state = [-1] * len(incidences)
    open_v, open_e = sizes[:n_v], sizes[n_v:]
    need = [2] * g.n_e
    odd = [0] * n_v
    # Incidence-graph nodes to recheck, vertex v or edge e as n_v + e: at
    # first those a rule can fire on, then both ends of each decision.
    stack = [x for x, d in enumerate(sizes) if (d == 1 if x < n_v else d <= 2)]
    while stack:
        x = stack.pop()
        if x < n_v:
            if open_v[x] != 1:
                if open_v[x] == 0 and odd[x]:
                    return None
                continue
            s = odd[x]
            # The one undecided incidence of x, found in the rows of x's edges.
            for en in adj[x]:
                t = first[en - n_v] + adj[en].index(x)
                if state[t] < 0:
                    break
            todo = (t,)
        else:
            e = x - n_v
            k, u = need[e], open_e[e]
            if k < 0 or u < k:
                return None
            if u == 0 or 0 < k < u:
                continue
            s = int(k > 0)
            todo = [t for t in range(first[e], first[e + 1]) if state[t] < 0]
        for t in todo:
            v, e = incidences[t]
            state[t] = s
            open_e[e] -= 1
            open_v[v] -= 1
            if s:
                need[e] -= 1
                odd[v] ^= 1
            stack.append(v)
            stack.append(n_v + e)
    return state


def find_family_subgraph(g: IncidenceGraph) -> FamilySubgraph | None:
    """Decide Euler-family existence exactly; return a certificate when one exists.

    The forced anchors are propagated first; a contradiction there, returned
    as ``None``, means no family.  The gadget then covers the undecided
    incidences; a perfect matching of it, read back by
    :meth:`eulergraph.matching.GadgetGraph.anchors`, gives each edge its
    forced anchors together with its matched ones, and with no perfect
    matching there is no family either.
    """
    state = _forced_anchors(g)
    if state is None:
        return None
    gg = reduce_to_matching(g, state)
    mate = max_matching(gg)
    if -1 in mate:
        return None
    return FamilySubgraph(g, gg.anchors(mate))


def _walk_key(w: Walk):
    return (w.anchors, w.edges)


def trails_from_subgraph(fsub: FamilySubgraph) -> EulerFamily:
    """One canonical closed trail per non-trivial component of the certificate.

    A Hierholzer walk over the vertices: at vertex v it crosses v's lowest
    untraversed edge to that edge's other anchor, and a vertex with none left
    is popped together with the edge that led to it.  One pass over the
    vertices in index order starts a circuit at each vertex that still has an
    untraversed edge, which is the smallest vertex of its component.  Not
    re-verified here; callers verify what they return.
    """
    g = fsub.host
    labels = g.host.vertices
    anchors = fsub.anchors
    # rows[v]: the edges v anchors, largest first, so pop() yields the lowest.
    rows: list[list[int]] = [[] for _ in range(g.n_v)]
    for e in range(g.n_e - 1, -1, -1):
        a, b = anchors[e]
        rows[a].append(e)
        rows[b].append(e)
    used = [False] * g.n_e
    walks: list[Walk] = []
    for start in range(g.n_v):
        if not rows[start]:
            continue
        stack, via = [start], []
        trail: list[str] = []
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
                a, b = anchors[e]
                stack.append(a + b - v)
            else:
                trail.append(labels[stack.pop()])
                if via:
                    edges.append(via.pop())
        # The circuit comes out backwards; the canonical form reads both directions.
        walks.append(canonical_closed_trail(Walk(tuple(trail), tuple(edges))))
    walks.sort(key=_walk_key)
    return EulerFamily(tuple(walks))
