"""Incidence graph construction, and the components of its certificate subgraphs."""

from eulergraph import (
    FamilySubgraph,
    Hypergraph,
    apply_interchange,
    build_incidence,
    find_family_subgraph,
    trails_from_subgraph,
)
from eulergraph.family import _union_find
from eulergraph.genio import Lcg, gen_random_covering

from helpers import (
    e_node,
    fano,
    grouped_family,
    random_noncovering,
    reference_components,
    reference_trails,
    sample_interchanging_cycles,
    subgraph_adj,
)


class TestBuildIncidence:
    def test_single_edge_star(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")])
        g = build_incidence(h)
        assert g.n_v == 3 and g.n_e == 1
        assert g.adj[e_node(g, 0)] == (0, 1, 2)
        assert all(g.adj[v] == (3,) for v in range(3))

    def test_two_copies_complete_bipartite(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        g = build_incidence(h)
        assert sum(len(r) for r in g.adj) == 2 * 6
        assert all(len(g.adj[v]) == 2 for v in range(3))
        assert all(len(g.adj[e_node(g, j)]) == 3 for j in range(2))

    def test_fano_counts(self):
        g = build_incidence(fano())
        assert g.n_v == 7 and g.n_e == 7
        assert sum(len(r) for r in g.adj) == 2 * 21
        assert all(len(g.adj[x]) == 3 for x in range(14))

    def test_hypergraph_recoverable_from_e_neighborhoods(self):
        h = fano()
        g = build_incidence(h)
        for j, e in enumerate(h.edges):
            assert frozenset(g.adj[e_node(g, j)]) == e


def seeded_certificates():
    """Family certificates of the shapes the component routine meets.

    Seeded covering inputs; non-covering draws, many with isolated
    vertex-nodes, each also after a sampled interchange or two; and grouped
    certificates of 12, 20 and 24 components.
    """
    rng = Lcg(29)
    for seed in range(1, 8):
        yield find_family_subgraph(build_incidence(gen_random_covering(7, 3, seed)))
    for _ in range(90):
        fsub = find_family_subgraph(build_incidence(random_noncovering(rng)))
        if fsub is None:
            continue
        yield fsub
        for cyc in sample_interchanging_cycles(fsub, rng, want=2):
            yield apply_interchange(fsub, cyc)
    for count, size in ((12, 3), (20, 2), (24, 2)):
        labels = [f"u{i}" for i in range(1, count * size + 1)]
        yield grouped_family([tuple(labels[i:i + size]) for i in range(0, len(labels), size)])[2]


def _reference_roots(adj) -> tuple[int, ...]:
    """Each node's smallest component-mate, from the breadth-first-search reference."""
    roots = [0] * len(adj)
    for c in reference_components(adj):
        for x in c.nodes:
            roots[x] = min(c.nodes)
    return tuple(roots)


class TestComponents:
    """The union-find components, against a breadth-first-search reference."""

    def test_edgeless(self):
        fsub = FamilySubgraph(build_incidence(Hypergraph.from_labels("abc", [])), ())
        assert fsub.component_of == (0, 1, 2) and fsub.nontrivial_count == 0

    def test_star_single_component(self):
        # one edge anchored at a and c: b anchors nothing and stays its own root
        parent, count = _union_find(3, [(0, 2)])
        assert count == 1 and parent == [0, 1, 0]

    def test_two_disjoint_four_cycles(self):
        _, _, fsub = grouped_family([("a", "b"), ("c", "d")])
        assert fsub.nontrivial_count == 2
        a, c = fsub.component_of[0], fsub.component_of[2]
        assert a != c and sorted(fsub.component_of) == [a, a, c, c]

    def test_partition_property(self):
        certificates = with_isolated = most = 0
        for fsub in seeded_certificates():
            adj = subgraph_adj(fsub)
            ref = reference_components(adj)
            # the vertex-nodes' roots: a component's smallest node is a vertex-node
            assert fsub.component_of == _reference_roots(adj)[:fsub.host.n_v]
            assert fsub.nontrivial_count == sum(not c.trivial for c in ref)
            certificates += 1
            with_isolated += any(not adj[v] for v in range(fsub.host.n_v))
            most = max(most, fsub.nontrivial_count)
        assert certificates >= 120
        assert with_isolated >= 100
        assert most >= 20

    def test_union_find_on_arbitrary_selections(self):
        # the merge scores toggled pairs, so any pair per edge must count right,
        # whatever the vertex parities
        rng = Lcg(31)
        for _ in range(200):
            h = random_noncovering(rng)
            pairs = []
            for e in h.edges:
                members = sorted(e)
                rng.shuffle(members)
                pairs.append(tuple(sorted(members[:2])))
            adj = [[] for _ in range(h.order)]
            for a, b in pairs:
                adj[a].append(b)
                adj[b].append(a)
            parent, count = _union_find(h.order, pairs)
            roots = []
            for x in range(len(parent)):
                while parent[x] != x:
                    x = parent[x]
                roots.append(x)
            assert tuple(roots) == _reference_roots(adj)
            assert count == sum(not c.trivial for c in reference_components(adj))

    def test_trails_equal_reference(self):
        for fsub in seeded_certificates():
            assert trails_from_subgraph(fsub) == reference_trails(fsub)

