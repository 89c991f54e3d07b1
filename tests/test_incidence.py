"""Incidence graph construction and components."""

from eulergraph import Hypergraph, build_incidence, components
from eulergraph.genio import Lcg

from helpers import fano, grouped_family, random_graph


class TestBuildIncidence:
    def test_single_edge_star(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")])
        g = build_incidence(h)
        assert g.n_v == 3 and g.n_e == 1
        assert g.adj[g.e_node(0)] == (0, 1, 2)
        assert all(g.adj[v] == (3,) for v in range(3))

    def test_two_copies_complete_bipartite(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        g = build_incidence(h)
        assert sum(len(r) for r in g.adj) == 2 * 6
        assert all(len(g.adj[v]) == 2 for v in range(3))
        assert all(len(g.adj[g.e_node(j)]) == 3 for j in range(2))

    def test_fano_counts(self):
        g = build_incidence(fano())
        assert g.n_v == 7 and g.n_e == 7
        assert sum(len(r) for r in g.adj) == 2 * 21
        assert all(len(g.adj[x]) == 3 for x in range(14))

    def test_hypergraph_recoverable_from_e_neighborhoods(self):
        h = fano()
        g = build_incidence(h)
        for j, e in enumerate(h.edges):
            assert frozenset(g.adj[g.e_node(j)]) == e


class TestComponents:
    def test_edgeless(self):
        out = components(((), (), ()))
        assert len(out) == 3 and all(c.trivial for c in out)

    def test_star_single_component(self):
        g = build_incidence(Hypergraph.from_labels("abc", [("a", "b", "c")]))
        out = components(g.adj)
        assert len(out) == 1 and not out[0].trivial

    def test_two_disjoint_four_cycles(self):
        _, _, fsub = grouped_family([("a", "b"), ("c", "d")])
        nontrivial = [c for c in fsub.components if not c.trivial]
        assert len(nontrivial) == 2

    def test_partition_property(self):
        rng = Lcg(5)
        for _ in range(20):
            adj = random_graph(rng, 9, 25)
            out = components(adj)
            nodes = [n for c in out for n in c.nodes]
            assert sorted(nodes) == list(range(9))
            for c in out:
                for n in c.nodes:
                    assert all(w in c.nodes for w in adj[n])
