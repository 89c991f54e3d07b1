"""Shared test utilities: independent oracles and instance builders."""

from __future__ import annotations

import os
from collections import deque
from itertools import combinations
from pathlib import Path

from eulergraph import (
    EulerFamily,
    FamilySubgraph,
    Hypergraph,
    Matching,
    Walk,
    build_incidence,
    canonical_closed_trail,
    verify_euler_object,
)
from eulergraph.genio import Lcg
from eulergraph.interchange import _alternating_cycles

SRC = Path(__file__).resolve().parent.parent / "src"
FANO_TRIPLES = ["123", "145", "167", "246", "257", "347", "356"]


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
    selected = set()
    for eid, (x, y) in enumerate(anchors):
        selected.add((h.vertex_index(x), eid))
        selected.add((h.vertex_index(y), eid))
    return h, g, FamilySubgraph(g, frozenset(selected))


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
        for nodes in _alternating_cycles(fsub.host, fsub.subgraph_adj, s, t, counter):
            if i == skip:
                if nodes not in seen:
                    seen.add(nodes)
                    out.append(nodes)
                break
            i += 1
    return out


def all_pairs_covered(h: Hypergraph, k: int) -> tuple[bool, tuple | None]:
    """Direct re-implementation of the covering condition, used as a test oracle."""
    edge_sets = [set(h.edge_labels(j)) for j in range(len(h.edges))]
    for combo in combinations(sorted(h.vertices), k - 1):
        if not any(set(combo) <= es for es in edge_sets):
            return False, combo
    return True, None


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


def reference_max_matching(adj) -> Matching:
    """Blossom matching that rescans all n nodes at every contraction.

    The reference for :func:`eulergraph.max_matching`: same seed, same root
    order and same queue discipline, with a flat ``base`` array rebuilt by a
    full scan, so both must return the same pairs.
    """
    n = len(adj)
    mate = [-1] * n
    for v in range(n):
        if mate[v] != -1:
            continue
        for u in adj[v]:
            if mate[u] == -1:
                mate[v] = u
                mate[u] = v
                break

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
    return Matching(frozenset((v, mate[v]) for v in range(n) if mate[v] > v))


def reference_gadget_adj(g) -> tuple[tuple[int, ...], ...]:
    """The gadget's rows built link by link into lists, then sorted.

    The reference for the rows of :func:`eulergraph.reduce_to_matching`.
    """
    incidences = g.incidences
    t_count = len(incidences)
    adj: list[list[int]] = [[] for _ in range(2 * t_count)]

    def new_node() -> int:
        adj.append([])
        return len(adj) - 1

    def link(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)

    for t in range(t_count):
        link(t, t_count + t)
    pos = 0
    for j in range(g.n_e):
        d = len(g.adj[g.n_v + j])
        stubs = [t_count + (pos + i) for i in range(d)]
        for _ in range(d - 2):
            core = new_node()
            for s in stubs:
                link(core, s)
        pos += d
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
    return tuple(tuple(sorted(row)) for row in adj)


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
                assert verify_euler_object(h, EulerFamily((tour,))).valid
                return tour
            used[0] = False
    return None
