"""Shared test utilities: independent oracles and instance builders."""

from __future__ import annotations

import os
from collections import Counter, deque
from functools import lru_cache
from itertools import combinations
from math import comb
from pathlib import Path
from typing import NamedTuple

from eulergraph import (
    EulerFamily,
    FamilySubgraph,
    Hypergraph,
    IncidenceGraph,
    Walk,
    build_incidence,
    canonical_closed_trail,
    verify_euler_object,
)
from eulergraph import interchange
from eulergraph.genio import Lcg
from eulergraph.hypergraph import edge_name
from eulergraph.matching import GadgetGraph

SRC = Path(__file__).resolve().parent.parent / "src"
FANO_TRIPLES = ["123", "145", "167", "246", "257", "347", "356"]

# A non-covering input (best-effort bench corpus, seed 1, "random#372") with a
# tour.  The family the matching returns already is that tour.  From another
# family of it, anchors (v4,v7) (v2,v9) (v10,v2) (v4,v7) (v10,v8) (v6,v9)
# (v3,v6) (v3,v8), the merge stops with "no-move" after one escape, so a
# change to the family search can lose this tour (test_interchange pins that
# miss).
TOUR_DEPENDS_ON_FAMILY = (
    "hg 0 10 8\n"
    + "".join(f"v v{i}\n" for i in (1, 10, 2, 3, 4, 5, 6, 7, 8, 9))
    + "e v4 v7\ne v2 v6 v9\ne v10 v2\ne v10 v4 v7\n"
    + "e v10 v8\ne v2 v6 v9\ne v3 v6 v8\ne v10 v3 v4 v8\n")

# A non-covering input (best-effort bench corpus, seed 2, "random#357") with a
# tour that the merge reaches from LONG_ESCAPE_FAMILY only after 99 escapes and
# one diminishing step, the longest escape run on record.  From that family no
# interchanging cycle and no closed trail with distinct vertex-nodes
# diminishes.  Two cycles through v6, the escape v6 e5 v8 e6 and then the
# 4-cycle v6 e4 v9 e7, would merge it in 2 steps; no current move takes them.
# The family is pinned because solve no longer starts from it: with a repeated
# edge seeding its cores first, the matching finds one that merges in one
# diminishing step.
LONG_ESCAPE_RUN = (
    "hg 0 11 10\n"
    + "".join(f"v v{i}\n" for i in (1, 10, 11, 2, 3, 4, 5, 6, 7, 8, 9))
    + "e v1 v9\ne v1 v3 v7 v9\ne v7 v9\ne v10 v6 v7 v9\ne v11 v6 v8\n"
    + "e v11 v6 v8\ne v3 v6 v7 v9\ne v1 v10 v3 v9\ne v1 v3 v7 v9\ne v1 v3 v7 v9\n")
# Each edge's anchor pair, as vertex indices of LONG_ESCAPE_RUN.
LONG_ESCAPE_FAMILY = ((0, 10), (8, 10), (8, 10), (8, 10), (2, 9), (2, 9), (8, 10),
                      (4, 10), (4, 10), (0, 10))

# Inputs where the three propagation rules leave incidences undecided and
# only the gadget's missing perfect matching proves that no family exists.
# "minimal" is the smallest (at most 6 vertices, 5 edges of size 2 to 3):
# the rules fix only the anchors of a b; a needs one anchor from the two
# a c d edges, so c and d share three anchors and one of them ends odd.
# "random#106" is an op of the best-effort bench corpus at seed 2.
MATCHING_ONLY_NEITHER = {
    "minimal": "hg 0 6 5\nv a\nv b\nv c\nv d\nv e\nv f\n"
               "e a b\ne a c d\ne a c d\ne b e f\ne b e f\n",
    "random#106": "hg 0 10 10\n" + "".join(f"v v{i}\n" for i in (1, 10, 2, 3, 4, 5, 6, 7, 8, 9))
                  + "e v1 v2 v6 v7\ne v1 v2 v6 v7\ne v3 v9\ne v10 v8 v9\ne v3 v5\n"
                  + "e v10 v5\ne v10 v5 v8\ne v1 v2 v6 v7\ne v2 v3 v8\ne v10 v8 v9\n",
}


def fano() -> Hypergraph:
    return Hypergraph.from_labels("1234567", FANO_TRIPLES)


def petersen() -> tuple[tuple[int, ...], ...]:
    adj = [[] for _ in range(10)]
    for i in range(5):
        for a, b in ((i, (i + 1) % 5), (i, i + 5), (i + 5, 5 + (i + 2) % 5)):
            adj[a].append(b)
            adj[b].append(a)
    return tuple(tuple(sorted(r)) for r in adj)


def complete_graph(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(j for j in range(n) if j != i) for i in range(n))


def random_graph(rng: Lcg, n: int, density_pct: int) -> tuple[tuple[int, ...], ...]:
    adj = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.below(100) < density_pct:
                adj[a].append(b)
                adj[b].append(a)
    return tuple(tuple(r) for r in adj)


def tutte_berge_max_matching(adj) -> int:
    """Independent maximum-matching size via the deficiency formula."""
    n = len(adj)

    def odd_components(banned: int) -> int:
        seen = 0
        odd = 0
        for s in range(n):
            bit = 1 << s
            if banned & bit or seen & bit:
                continue
            size = 0
            q = deque([s])
            seen |= bit
            while q:
                u = q.popleft()
                size += 1
                for w in adj[u]:
                    wb = 1 << w
                    if not (banned & wb) and not (seen & wb):
                        seen |= wb
                        q.append(w)
            if size % 2 == 1:
                odd += 1
        return odd

    worst = 0
    for banned in range(1 << n):
        deficiency = odd_components(banned) - bin(banned).count("1")
        if deficiency > worst:
            worst = deficiency
    return (n - worst) // 2


def brute_max_matching(adj) -> int:
    """Exact maximum matching size over node subsets (branch on the lowest live node).

    Memoises the best matching of each live node set; more than 16 nodes
    raise :class:`ValueError`.
    """
    n = len(adj)
    if n > 16:
        raise ValueError(f"too many nodes for exhaustive search ({n} > 16)")
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


def grouped_family(groups) -> tuple[Hypergraph, object, FamilySubgraph]:
    """A covering 3-hypergraph plus a family certificate with one component per group.

    Each group pair {x, y} contributes one edge {x, y, z} per vertex z outside
    the group, anchored at (x, y).  Degrees stay even when every group of even
    size sees an even number of outside vertices, so keep the total vertex
    count even unless all groups have odd size.
    """
    labels = [v for grp in groups for v in grp]
    edges = []
    anchors = []
    for grp in groups:
        outside = [z for z in labels if z not in grp]
        for i in range(len(grp)):
            for j in range(i + 1, len(grp)):
                for z in outside:
                    edges.append((grp[i], grp[j], z))
                    anchors.append((grp[i], grp[j]))
    h = Hypergraph.from_labels(labels, edges)
    g = build_incidence(h)
    return h, g, FamilySubgraph(g, anchor_pairs(h, anchors))


def anchor_pairs(h: Hypergraph, label_pairs) -> tuple[tuple[int, int], ...]:
    """Each edge's anchor pair as increasing vertex indices, from a pair of labels per edge."""
    return tuple(tuple(sorted(map(h.vertices.index, pair))) for pair in label_pairs)


def e_node(g: IncidenceGraph, j: int) -> int:
    """The incidence-graph node of edge j: edge-nodes follow the ``n_v`` vertex-nodes."""
    return g.n_v + j


def subgraph_from_trails(g: IncidenceGraph, f: EulerFamily) -> FamilySubgraph:
    """Inverse of :func:`eulergraph.trails_from_subgraph` up to rotation, reflection and
    component order; an invalid family raises :class:`ValueError`."""
    violations = verify_euler_object(g.host, f)
    if violations:
        raise ValueError("invalid family: " + "; ".join(violations[:3]))
    index = g.host.vertices.index
    anchors: list = [None] * g.n_e
    for w in f.components:
        for j, eid in enumerate(w.edges):
            anchors[eid] = tuple(sorted((index(w.anchors[j]), index(w.anchors[j + 1]))))
    return FamilySubgraph(g, tuple(anchors))


def incidences(anchors) -> frozenset[tuple[int, int]]:
    """Anchor pairs, one per edge, as their set of (vertex index, edge id) incidences."""
    return frozenset((v, e) for e, pair in enumerate(anchors) for v in pair)


def subgraph_adj(fsub: FamilySubgraph) -> tuple[tuple[int, ...], ...]:
    """The certificate as a spanning subgraph of the incidence graph, as sorted adjacency rows.

    Edge-node ``n_v + e`` is joined to the two anchors of edge e.
    """
    g = fsub.host
    adj: list[list[int]] = [[] for _ in range(g.n_v + g.n_e)]
    for v, e in incidences(fsub.anchors):
        adj[v].append(e_node(g, e))
        adj[e_node(g, e)].append(v)
    return tuple(tuple(sorted(row)) for row in adj)


def reference_toggle(fsub: FamilySubgraph, nodes) -> frozenset[tuple[int, int]]:
    """The certificate's incidences XOR the incidences along the cycle ``nodes``.

    The reference for the anchor-pair toggle of :mod:`eulergraph.interchange`.
    """
    g = fsub.host
    L = len(nodes)
    cycle = set()
    for i in range(1, L, 2):
        e = nodes[i] - g.n_v
        cycle.add((nodes[i - 1], e))
        cycle.add((nodes[(i + 1) % L], e))
    return incidences(fsub.anchors) ^ cycle


def roadmap_item3() -> Hypergraph:
    """Two repeated triples meeting in v1: it has a tour, which needs a 4-cycle whose
    two edge-nodes lie in one family component."""
    return Hypergraph.from_labels(
        ["v0", "v1", "v2", "v3", "v4"],
        [("v1", "v2", "v3"), ("v0", "v1", "v4"), ("v1", "v2", "v3"), ("v0", "v1", "v4")])


def disjoint_union(*parts: Hypergraph) -> Hypergraph:
    """The parts side by side, each part's labels prefixed with a, b, c, ... in turn."""
    verts: list[str] = []
    edges: list[tuple[str, ...]] = []
    for tag, h in zip("abcdefgh", parts):
        verts += [tag + lab for lab in h.vertices]
        edges += [tuple(tag + lab for lab in h.edge_labels(j)) for j in range(len(h.edges))]
    return Hypergraph.from_labels(verts, edges)


def random_noncovering(rng: Lcg) -> Hypergraph:
    """n in 8..12, m in 6..10, edge arity 2..4, about one edge in 8 a repeat."""
    n = 8 + rng.below(5)
    m = 6 + rng.below(5)
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges: list[tuple[str, ...]] = []
    while len(edges) < m:
        if edges and rng.below(8) == 0:
            edges.append(edges[rng.below(len(edges))])
            continue
        pool = list(range(n))
        rng.shuffle(pool)
        edges.append(tuple(verts[i] for i in sorted(pool[:2 + rng.below(3)])))
    return Hypergraph.from_labels(verts, edges)


def reference_alternating_cycles(g, anchors, start, exact_e, counter):
    """DFS over interchanging cycles with exactly ``exact_e`` edge-nodes.

    The reference for the merge scan: it filters every member of each
    edge-node it enters and keeps a visited set.  Only cycles whose smallest
    vertex-node is ``start`` are produced, so each cycle comes from one
    start.  ``anchors`` is the certificate's anchor pairs, one per edge.
    ``counter`` is a one-cell expansion budget shared across calls.
    """
    adj = g.adj
    n_v = g.n_v
    used = {start}
    path = [start]

    def walk(u, depth):
        if counter[0] <= 0:
            return
        for en in adj[u]:
            counter[0] -= 1
            if counter[0] <= 0:
                return
            if en in used:
                continue
            pair = anchors[en - n_v]
            f_in = u in pair
            for w in adj[en]:
                if w == u or (w in pair) == f_in:
                    continue
                if w == start:
                    if depth + 1 == exact_e:
                        yield tuple(path) + (en,)
                    continue
                if depth + 1 >= exact_e or w in used or w < start:
                    continue
                used.add(en)
                used.add(w)
                path.append(en)
                path.append(w)
                yield from walk(w, depth + 1)
                path.pop()
                path.pop()
                used.discard(en)
                used.discard(w)

    yield from walk(start, 0)


class ExpansionBudget(int):
    """An expansion limit that records, in ``left[0]``, each value it is counted down to."""

    def __new__(cls, value, left):
        self = super().__new__(cls, value)
        self.left = left
        left[0] = value
        return self

    def __sub__(self, other):
        return ExpansionBudget(int(self) - other, self.left)


def record_scan_expansions(monkeypatch):
    """Patch the merge's scan so that each call records the expansions it spent.

    Returns a dict from ``most`` (1 for a cycle scan, 2 for a closed-trail
    scan) to the expansions of each such scan, in call order.
    """
    limit = interchange.MAX_EXPANSIONS
    left = [None]
    monkeypatch.setattr(interchange, "MAX_EXPANSIONS", ExpansionBudget(limit, left))
    scan = interchange._scan
    spent = {1: [], 2: []}

    def recorded_scan(g, anchors, most):
        left[0] = limit
        try:
            yield from scan(g, anchors, most)
        finally:
            spent[most].append(limit - left[0])

    monkeypatch.setattr(interchange, "_scan", recorded_scan)
    return spent


def reference_candidates(g, anchors):
    """Interchanging cycles of the certificate, shortest first, in one expansion budget.

    Reads ``MAX_EDGE_NODES`` and ``MAX_EXPANSIONS`` from
    :mod:`eulergraph.interchange` when called, so a patched limit holds for
    the reference and the scan alike.
    """
    counter = [interchange.MAX_EXPANSIONS]
    for t in range(2, interchange.MAX_EDGE_NODES + 1):
        for s in range(g.n_v):
            yield from reference_alternating_cycles(g, anchors, s, t, counter)


def reference_closed_trails(g, anchors):
    """Interchanging closed trails of the certificate, shortest first, in one expansion budget.

    The reference for the merge's last-resort scan.  A trail starts at its
    smallest vertex-node, passes distinct vertex-nodes and 2 to
    ``MAX_EDGE_NODES + 1`` edge-node visits, and may visit an edge-node
    twice, but never at two neighbouring positions around the trail.  Each
    visit must meet exactly one anchor of the pair the earlier visits left,
    and swaps it for the other end: the walk keeps a copy of the pairs per
    step and filters every member of each edge-node it enters.  One
    expansion is charged per edge-node looked at, as in
    :func:`reference_candidates`.
    """
    adj = g.adj
    n_v = g.n_v
    counter = [interchange.MAX_EXPANSIONS]

    def walk(path, pairs, t):
        u = path[-1]
        for en in adj[u]:
            counter[0] -= 1
            if counter[0] <= 0:
                return
            edge_nodes = path[1::2]
            if (edge_nodes and en == edge_nodes[-1]) or edge_nodes.count(en) == 2:
                continue
            pair = set(pairs[en - n_v])
            for w in adj[en]:
                if w == u or (u in pair) == (w in pair):
                    continue
                if len(edge_nodes) + 1 == t:
                    if w == path[0] and en != edge_nodes[0]:
                        yield (*path, en)
                    continue
                if w <= path[0] or w in path[::2]:
                    continue
                turned = dict(pairs)
                turned[en - n_v] = tuple(sorted(pair ^ {u, w}))
                yield from walk((*path, en, w), turned, t)
                if counter[0] <= 0:
                    return

    for t in range(2, interchange.MAX_EDGE_NODES + 2):
        for s in range(n_v):
            if counter[0] <= 0:
                return
            yield from walk((s,), dict(enumerate(anchors)), t)


def sample_interchanging_cycles(fsub: FamilySubgraph, rng: Lcg, want: int = 10,
                                tries: int = 40, max_e: int = 5) -> list[tuple[int, ...]]:
    """Collect interchanging cycles of fsub, as node tuples, at seeded-random starts and lengths."""
    out = []
    seen = set()
    n_v = fsub.host.n_v
    for _ in range(tries):
        if len(out) >= want:
            break
        t = 2 + rng.below(max_e - 1)
        s = rng.below(n_v)
        skip = rng.below(4)
        counter = [4000]
        i = 0
        for nodes in reference_alternating_cycles(fsub.host, fsub.anchors, s, t, counter):
            if i == skip:
                if nodes not in seen:
                    seen.add(nodes)
                    out.append(nodes)
                break
            i += 1
    return out


class Component(NamedTuple):
    nodes: frozenset[int]
    trivial: bool


def reference_components(adj) -> tuple[Component, ...]:
    """Connected components of a graph given as adjacency rows, by breadth-first search.

    Ordered by smallest member node.  A component is trivial iff it is one
    isolated node.  Applied to :func:`subgraph_adj`, the reference for
    ``FamilySubgraph.component_of`` and ``.nontrivial_count``.
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


def _fresh_euler_circuit(adj, start: int) -> list[int]:
    """Closed walk through every edge of start's component, with its own traversal state."""
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


def reference_trails(fsub: FamilySubgraph) -> EulerFamily:
    """One canonical closed trail per breadth-first-search component, extracted one by one.

    The reference for :func:`eulergraph.trails_from_subgraph`: each
    non-trivial component gets a fresh Euler circuit from its smallest
    vertex-node.
    """
    g = fsub.host
    h = g.host
    walks = []
    adj = subgraph_adj(fsub)
    for comp in reference_components(adj):
        if comp.trivial:
            continue
        start = min(node for node in comp.nodes if node < g.n_v)
        seq = _fresh_euler_circuit(adj, start)
        anchors = tuple(h.vertices[seq[i]] for i in range(0, len(seq), 2))
        edges = tuple(seq[i] - g.n_v for i in range(1, len(seq), 2))
        walks.append(canonical_closed_trail(Walk(anchors, edges)))
    walks.sort(key=lambda w: (w.anchors, w.edges))
    return EulerFamily(tuple(walks))


def all_pairs_covered(h: Hypergraph, k: int) -> tuple[bool, tuple | None]:
    """Direct re-implementation of the covering condition, used as a test oracle."""
    edge_sets = [set(h.edge_labels(j)) for j in range(len(h.edges))]
    for combo in combinations(sorted(h.vertices), k - 1):
        if not any(set(combo) <= es for es in edge_sets):
            return False, combo
    return True, None


def reference_validate_covering(h: Hypergraph, k: int) -> bool:
    """The covering check with one sorted tuple per (k-1)-subset of each edge.

    The reference for :func:`eulergraph.validate_covering`: it collects the
    tuples and compares their count with C(n, k-1).
    """
    if not h.edges or any(len(e) != k for e in h.edges):
        return False
    covered = {sub for e in h.edges for sub in combinations(sorted(e), k - 1)}
    return len(covered) == comb(h.order, k - 1)


def reduction_layers(h: Hypergraph) -> list[tuple[str, Hypergraph]]:
    """The paper's arity reduction one layer at a time, as a reference for the one-pass code.

    Each layer deletes the smallest remaining label and shrinks every edge by
    that vertex where present, else by the edge's smallest label.  Returns
    ``(deleted label, reduced hypergraph)`` per layer, down to arity 3.
    """
    layers = []
    while h.uniformity() > 3:
        deleted = min(h.vertices)
        edges = []
        for j in range(len(h.edges)):
            labels = set(h.edge_labels(j))
            labels.discard(deleted if deleted in labels else min(labels))
            edges.append(labels)
        h = Hypergraph.from_labels([v for v in h.vertices if v != deleted], edges)
        layers.append((deleted, h))
    return layers


def reference_canonical_closed_trail(w: Walk) -> Walk:
    """Canonical form by direct search: the smallest interleaved sequence of all 2m starts.

    The O(m^2) reference for :func:`eulergraph.canonical_closed_trail`.
    """
    k = len(w.edges)
    anchors = w.anchors[:-1]
    edges = w.edges

    def interleave(a, e):
        return tuple(x for pair in zip(a, e) for x in pair)

    starts = []
    for r in range(k):
        starts.append((anchors[r:] + anchors[:r], edges[r:] + edges[:r]))
        starts.append(((anchors[r],) + tuple(anchors[(r - i) % k] for i in range(1, k)),
                       tuple(edges[(r - 1 - i) % k] for i in range(k))))
    a, e = min(starts, key=lambda s: interleave(*s))
    return Walk(a + (a[0],), e)


def reference_verify_euler_object(h: Hypergraph, f: EulerFamily) -> tuple[str, ...]:
    """The violations of ``f`` on ``h``, found with a ``Counter`` per walk and per family.

    The reference for :func:`eulergraph.verify_euler_object`: the same
    checks, reported in the same order.
    """
    bad: list[str] = []
    m = len(h.edges)
    usage: Counter[int] = Counter()
    anchor_owner: dict[str, int] = {}

    for ci, w in enumerate(f.components):
        if not isinstance(w, Walk):
            bad.append(f"component {ci}: {w!r} is not a walk")
            continue
        odd = [a for a in w.anchors if not isinstance(a, str)]
        if odd:
            bad.append(f"component {ci}: anchor {odd[0]!r} is not a vertex label")
            continue
        # type(), not isinstance: a bool is an int but names no edge
        odd = [eid for eid in w.edges if type(eid) is not int]
        if odd:
            bad.append(f"component {ci}: edge id {odd[0]!r} is not an int")
            continue
        if len(w.anchors) != len(w.edges) + 1:
            bad.append(f"component {ci}: {len(w.anchors)} anchors do not fit {len(w.edges)} edges")
            continue
        if len(w.edges) < 2:
            bad.append(f"component {ci}: a closed trail needs at least 2 edges")
        if w.anchors[0] != w.anchors[-1]:
            bad.append(f"component {ci}: not closed ({w.anchors[0]!r} != {w.anchors[-1]!r})")
        dup = [e for e, c in Counter(w.edges).items() if c > 1]
        for e in sorted(dup):
            bad.append(f"component {ci}: edge {edge_name(e)} repeated")
        for j, eid in enumerate(w.edges):
            if not 0 <= eid < m:
                bad.append(f"component {ci}: step {j} uses unknown edge id {eid!r}")
                continue
            usage[eid] += 1
            a, b = w.anchors[j], w.anchors[j + 1]
            ia = h._index.get(a)
            ib = h._index.get(b)
            if ia is None:
                bad.append(f"component {ci}: unknown anchor {a!r} at step {j}")
                continue
            if ib is None:
                bad.append(f"component {ci}: unknown anchor {b!r} at step {j}")
                continue
            if a == b:
                bad.append(f"component {ci}: equal consecutive anchors {a!r} at step {j}")
            if ia not in h.edges[eid]:
                bad.append(f"component {ci}: anchor {a!r} not in {edge_name(eid)} at step {j}")
            if ib not in h.edges[eid]:
                bad.append(f"component {ci}: anchor {b!r} not in {edge_name(eid)} at step {j}")
        labels = dict.fromkeys(w.anchors)
        # anchor_owner holds labels in order of first appearance, so the
        # report does not depend on string hashing.
        for lab, owner in anchor_owner.items():
            if lab in labels:
                bad.append(f"components {owner} and {ci} share anchor {lab!r}")
        for lab in labels:
            anchor_owner.setdefault(lab, ci)

    for eid in sorted(usage):
        if usage[eid] > 1:
            bad.append(f"edge {edge_name(eid)} traversed {usage[eid]} times across the family")
    for eid in range(m):
        if eid not in usage:
            bad.append(f"edge {edge_name(eid)} never traversed")

    return tuple(bad)


def random_closed_trail(rng: Lcg, k: int, n_labels: int) -> Walk:
    """A closed walk of k distinct shuffled edge ids whose consecutive anchors differ."""
    labels = [f"v{i}" for i in range(n_labels)]
    while True:
        anchors = [labels[rng.below(n_labels)] for _ in range(k)]
        if all(anchors[i] != anchors[(i + 1) % k] for i in range(k)):
            break
    edges = list(range(k))
    rng.shuffle(edges)
    return Walk(tuple(anchors) + (anchors[0],), tuple(edges))


def rotations_and_reflections(w: Walk) -> list[Walk]:
    """Every rotation of the closed walk, in both directions."""
    k = len(w.edges)
    a, e = w.anchors[:-1], w.edges
    out = []
    for r in range(k):
        fa, fe = a[r:] + a[:r], e[r:] + e[:r]
        out.append(Walk(fa + (fa[0],), fe))
        ra = (fa[0],) + tuple(reversed(fa[1:]))
        out.append(Walk(ra + (ra[0],), tuple(reversed(fe))))
    return out


def swap_one_anchor(h: Hypergraph, fam: EulerFamily) -> EulerFamily:
    """The family with the second anchor of its first trail swapped for a vertex outside
    that trail's first edge, so the result fails verification."""
    w = fam.components[0]
    outside = next(lab for i, lab in enumerate(h.vertices) if i not in h.edges[w.edges[0]])
    bad = Walk(w.anchors[:1] + (outside,) + w.anchors[2:], w.edges)
    return EulerFamily((bad,) + fam.components[1:])


def src_env() -> dict[str, str]:
    """The environment with ``src`` first on PYTHONPATH, for ``python -m eulergraph`` runs."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), path))))


def matching_size(adj, mate) -> int:
    """The number of pairs of a mate list, after asserting it is a matching of ``adj``.

    Every entry is ``-1`` (exposed) or a neighbour whose own entry points
    back, so the pairs are disjoint edges of ``adj``.
    """
    assert len(mate) == len(adj)
    for v, u in enumerate(mate):
        if u != -1:
            assert 0 <= u < len(adj) and u != v, (v, u)
            assert mate[u] == v, (v, u, mate[u])
            assert u in adj[v] and v in adj[u], (v, u)
    return sum(u != -1 for u in mate) // 2


def greedy_seed(adj, start=None) -> list[int]:
    """The greedy maximal matching of ``adj`` in node order, as a mate list.

    It starts from the matching ``start`` (by default the empty one), and
    each exposed node in turn takes its first exposed neighbour.  On the flat
    rows of a gadget, started from the pairs of the edges that seed their
    cores first, this is the seed its layout fixes (``GadgetGraph.seed``).
    """
    mate = [-1] * len(adj) if start is None else list(start)
    for v in range(len(adj)):
        if mate[v] != -1:
            continue
        for u in adj[v]:
            if mate[u] == -1:
                mate[v] = u
                mate[u] = v
                break
    return mate


def flat_gadget(adj, seed=None) -> GadgetGraph:
    """A test fake: ``adj`` as a :class:`GadgetGraph` of one-part rows.

    Its seed is ``seed``, by default :func:`greedy_seed`.  Rows must be
    symmetric, loop-free and without repeats, and the seed a maximal
    matching, so ``max_matching`` on it matches the plain graph ``adj``.
    Its ``host`` and ``state`` are empty: ``max_matching`` never reads them.
    """
    seed = greedy_seed(adj) if seed is None else seed
    return GadgetGraph(tuple((tuple(row),) for row in adj), tuple(seed), range(0), None, ())


def reference_max_matching(adj, seed=None) -> list[int]:
    """Blossom matching that rescans all n nodes at every contraction.

    The reference for :func:`eulergraph.max_matching`: same seed (``seed``,
    by default :func:`greedy_seed`), same root order and same queue
    discipline, with a flat ``base`` array rebuilt by a full scan, so both
    must return the same mate list.
    """
    n = len(adj)
    mate = greedy_seed(adj) if seed is None else list(seed)

    def lca(base, parent, a, b):
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

    def mark_path(base, blossom, parent, v, b, child):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def augment_from(root):
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    cur = lca(base, parent, v, to)
                    blossom = [False] * n
                    mark_path(base, blossom, parent, v, cur, to)
                    mark_path(base, blossom, parent, to, cur, v)
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
                        return
                    used[mate[to]] = True
                    q.append(mate[to])

    for root in range(n):
        if mate[root] == -1:
            augment_from(root)
    return mate


def reference_gadget_adj(g, decided=None) -> tuple[tuple[int, ...], ...]:
    """The gadget's rows built link by link into lists, then sorted.

    ``decided`` maps (vertex index, edge id) to True for a forced anchor and
    False for an excluded incidence, as :func:`reference_forced_anchors`
    returns it; None decides nothing.  The reference for the rows of
    :func:`eulergraph.reduce_to_matching` given the same decisions: one stub
    per undecided incidence, in incidence order; then, edge by edge, one
    core per stub beyond the anchors the edge still needs, linked to each of
    its stubs; then, vertex by vertex, a dummy linked to each of its stubs
    when its forced anchors are odd in number.  Each vertex's stubs are
    linked pairwise.
    """
    decided = decided or {}
    live = [inc for inc in g.incidences if inc not in decided]
    adj: list[list[int]] = [[] for _ in live]

    def new_node() -> int:
        adj.append([])
        return len(adj) - 1

    def link(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)

    e_stubs: dict[int, list[int]] = {}
    v_stubs: dict[int, list[int]] = {}
    for u, (v, e) in enumerate(live):
        e_stubs.setdefault(e, []).append(u)
        v_stubs.setdefault(v, []).append(u)
    forced = [inc for inc, anchor in decided.items() if anchor]
    for j in range(g.n_e):
        stubs = e_stubs.get(j, [])
        for _ in range(len(stubs) - 2 + sum(e == j for _, e in forced)):
            core = new_node()
            for s in stubs:
                link(core, s)
    for v in range(g.n_v):
        stubs = v_stubs.get(v, [])
        for i in range(len(stubs)):
            for jj in range(i + 1, len(stubs)):
                link(stubs[i], stubs[jj])
        if sum(w == v for w, _ in forced) % 2 == 1:
            dummy = new_node()
            for s in stubs:
                link(dummy, s)
    return tuple(tuple(sorted(row)) for row in adj)


def reference_forced_anchors(h: Hypergraph) -> dict[tuple[int, int], bool] | None:
    """The forced anchor choices, by sweeping the three rules over every edge and
    vertex until a sweep changes nothing; None on a contradiction.

    The reference for ``eulergraph.family._forced_anchors``, keyed by
    (vertex index, edge id): True for a forced anchor, False for an excluded
    one.  Each rule's conclusion holds in every consistent extension of the
    state it fired in, so the fixpoint, and whether it contradicts, does not
    depend on the order the rules run in.
    """
    decided: dict[tuple[int, int], bool] = {}
    changed = True
    while changed:
        changed = False
        for e, members in enumerate(h.edges):
            anchors = sum(decided.get((v, e), False) for v in members)
            open_ = [v for v in members if (v, e) not in decided]
            if anchors > 2 or anchors + len(open_) < 2:
                return None
            if open_ and (anchors == 2 or anchors + len(open_) == 2):
                decided.update(((v, e), anchors < 2) for v in open_)
                changed = True
        for v in range(h.order):
            mine = [e for e, members in enumerate(h.edges) if v in members]
            open_ = [e for e in mine if (v, e) not in decided]
            odd = sum(decided.get((v, e), False) for e in mine) % 2 == 1
            if not open_ and odd:
                return None
            if len(open_) == 1:
                decided[(v, open_[0])] = odd
                changed = True
    return decided


def random_mixed(rng: Lcg) -> Hypergraph:
    """n in 4..8 and 2 to 8 edges of 2 to 5 vertices, about one edge in four a repeat."""
    n = 4 + rng.below(5)
    labels = "abcdefgh"[:n]
    edges: list[tuple[str, ...]] = []
    for _ in range(2 + rng.below(7)):
        if edges and rng.below(4) == 0:
            edges.append(edges[rng.below(len(edges))])
            continue
        pool = list(labels)
        rng.shuffle(pool)
        edges.append(tuple(sorted(pool[:min(n, 2 + rng.below(4))])))
    return Hypergraph.from_labels(labels, edges)


def reference_brute_family_exists(h: Hypergraph) -> bool:
    """Family existence by backtracking over one anchor pair per edge.

    The reference for :func:`eulergraph.brute_family_exists`: it walks all
    prod C(|e|, 2) choices when no family exists.
    """
    m = len(h.edges)
    choices = [list(combinations(sorted(e), 2)) for e in h.edges]
    if any(not c for c in choices):
        return False
    parity = [0] * h.order

    def walk(i: int) -> bool:
        if i == m:
            return not any(parity)
        for a, b in choices[i]:
            parity[a] ^= 1
            parity[b] ^= 1
            if walk(i + 1):
                return True
            parity[a] ^= 1
            parity[b] ^= 1
        return False

    return walk(0)


def reference_brute_tour(h: Hypergraph) -> Walk | None:
    """Euler tour by plain path backtracking, without a memo; canonical or None.

    The reference for :func:`eulergraph.brute_tour`: same start pairs, same
    edge and anchor order, so both must return the same tour.
    """
    m = len(h.edges)
    if m < 2:
        return None
    members = [sorted(e) for e in h.edges]
    used = [False] * m
    anchors: list[int] = []
    eseq: list[int] = []

    def extend(cur: int, start: int, count: int) -> bool:
        if count == m:
            return cur == start
        for eid in range(m):
            if used[eid] or cur not in h.edges[eid]:
                continue
            used[eid] = True
            eseq.append(eid)
            for nxt in members[eid]:
                if nxt == cur:
                    continue
                anchors.append(nxt)
                if extend(nxt, start, count + 1):
                    return True
                anchors.pop()
            eseq.pop()
            used[eid] = False
        return False

    first = members[0]
    for a in first:
        for b in first:
            if a == b:
                continue
            used[0] = True
            anchors[:] = [a, b]
            eseq[:] = [0]
            if extend(b, a, 1):
                walk = Walk(tuple(h.vertices[i] for i in anchors), tuple(eseq))
                tour = canonical_closed_trail(walk)
                assert verify_euler_object(h, EulerFamily((tour,))) == ()
                return tour
            used[0] = False
    return None
