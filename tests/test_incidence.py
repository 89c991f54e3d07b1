"""Incidence graph construction, components, cut vertices."""

import pytest

from eulergraph import (
    Hypergraph,
    articulation_points,
    build_incidence,
    components,
)
from eulergraph.genio import Lcg

from helpers import brute_cut_vertices, fano, grouped_family, random_graph


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


class TestBlocks:
    """Cut vertices: the nodes shared by two blocks."""

    def test_path(self):
        assert articulation_points(((1,), (0, 2), (1,))) == {1}

    def test_four_cycle(self):
        assert not articulation_points(((1, 3), (0, 2), (1, 3), (0, 2)))

    def test_two_squares_sharing_a_vertex(self):
        adj = ((1, 3, 4, 6), (0, 2), (1, 3), (0, 2), (0, 5), (4, 6), (0, 5))
        assert articulation_points(adj) == {0}

    def test_random_graphs_match_brute_force(self):
        rng = Lcg(11)
        for trial in range(60):
            n = 4 + rng.below(6)
            adj = random_graph(rng, n, 20 + rng.below(40))
            assert set(articulation_points(adj)) == brute_cut_vertices(adj)


class TestNonCutVVertices:
    def test_four_cycle_both_v_nodes(self):
        _, _, fsub = grouped_family([("a", "b"), ("c", "d")])
        comp = next(c for c in fsub.components if 0 in c.nodes)
        picks = fsub.non_cut_v_vertices(comp)
        assert picks == (0, 1)  # both vertex-nodes of the 4-cycle

    def test_shared_vertex_is_cut(self):
        # two 4-cycles sharing vertex x: edges e1,e2 anchored (x,u); e3,e4 anchored (x,w)
        h = Hypergraph.from_labels(
            "xuw", [("x", "u", "w")] * 4)
        g = build_incidence(h)
        from eulergraph import FamilySubgraph
        sel = {(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 2), (0, 3), (2, 3)}
        fsub = FamilySubgraph(g, frozenset(sel))
        comp = fsub.components[0]
        assert not comp.trivial
        picks = fsub.non_cut_v_vertices(comp)
        assert picks == (1, 2)  # x (node 0) is the cut vertex

    def test_six_cycle_all_three(self):
        h = Hypergraph.from_labels(
            "uvwxyz", [("u", "v", "x"), ("v", "w", "y"), ("u", "w", "z")])
        g = build_incidence(h)
        from eulergraph import FamilySubgraph
        sel = {(0, 0), (1, 0), (1, 1), (2, 1), (0, 2), (2, 2)}
        fsub = FamilySubgraph(g, frozenset(sel))
        comp = next(c for c in fsub.components if not c.trivial)
        assert fsub.non_cut_v_vertices(comp) == (0, 1, 2)

    def test_trivial_component_rejected(self):
        _, _, fsub = grouped_family([("a", "b"), ("c", "d")])
        trivial = [c for c in fsub.components if c.trivial]
        if trivial:
            with pytest.raises(ValueError):
                fsub.non_cut_v_vertices(trivial[0])
