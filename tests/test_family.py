"""Family certificates: existence, trail extraction, and round trips."""

import pytest

from eulergraph import (
    CertificateViolation,
    EulerFamily,
    FamilySubgraph,
    Hypergraph,
    Walk,
    brute_family_exists,
    build_incidence,
    find_family_subgraph,
    trails_from_subgraph,
    verify_euler_object,
)
from eulergraph.family import subgraph_from_trails
from eulergraph.genio import Lcg, format_walk_line, gen_random_covering

from helpers import fano, grouped_family, sample_interchanging_cycles


class TestFindFamilySubgraph:
    def test_single_edge_none(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")])
        assert find_family_subgraph(build_incidence(h)) is None

    def test_two_copies_four_cycle(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        fsub = find_family_subgraph(build_incidence(h))
        assert fsub is not None
        # a 4-cycle on some vertex pair: both edges anchored at the same pair
        assert fsub.anchors[0] == fsub.anchors[1]

    def test_fano_exists(self):
        assert find_family_subgraph(build_incidence(fano())) is not None

    def test_empty_hypergraph_empty_certificate(self):
        h = Hypergraph.from_labels("abc", [])
        fsub = find_family_subgraph(build_incidence(h))
        assert fsub is not None and fsub.anchors == ()
        assert trails_from_subgraph(fsub) == EulerFamily(())

    def test_undersized_edge_none(self):
        h = Hypergraph.from_labels("abc", [("a",), ("a", "b", "c")])
        assert find_family_subgraph(build_incidence(h)) is None

    def test_matches_oracle_on_random_inputs(self):
        rng = Lcg(43)
        labels = "abcdef"
        for _ in range(250):
            n = 3 + rng.below(4)
            m = 1 + rng.below(4)
            edges = []
            for _ in range(m):
                size = 2 + rng.below(min(3, n - 1))
                e = set()
                while len(e) < size:
                    e.add(labels[rng.below(n)])
                edges.append(tuple(sorted(e)))
            h = Hypergraph.from_labels(labels[:n], edges)
            got = find_family_subgraph(build_incidence(h)) is not None
            assert got == brute_family_exists(h)


class TestFamilySubgraphInvariants:
    def test_degree_discipline_enforced(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        g = build_incidence(h)
        with pytest.raises(CertificateViolation, match="e1 has degree 3"):
            FamilySubgraph(g, ((0, 1, 2), (0, 1)))
        with pytest.raises(CertificateViolation, match="odd degree"):
            FamilySubgraph(g, ((0, 1), (1, 2)))

    def test_non_incidence_rejected(self):
        h = Hypergraph.from_labels("abcd", [("a", "b", "c")] * 2)
        g = build_incidence(h)
        with pytest.raises(CertificateViolation, match="not an incidence"):
            FamilySubgraph(g, ((0, 3), (0, 3)))

    def test_parity_conservation(self):
        for seed in range(1, 8):
            h = gen_random_covering(6, 3, seed)
            fsub = find_family_subgraph(build_incidence(h))
            deg = [0] * fsub.host.n_v
            for pair in fsub.anchors:
                for v in pair:
                    deg[v] += 1
            assert sum(deg) == 2 * len(h.edges)
            assert all(d % 2 == 0 for d in deg)


class TestAnchorPairConstructor:
    """One pair of distinct anchors per edge, inside the edge, every vertex even."""

    @staticmethod
    def two_triples():
        return build_incidence(Hypergraph.from_labels("abc", [("a", "b", "c")] * 2))

    def test_valid_pairs_accepted(self):
        fsub = FamilySubgraph(self.two_triples(), ((0, 2), (0, 2)))
        assert fsub.nontrivial_count == 1 and fsub.component_of == (0, 1, 0)

    @pytest.mark.parametrize("anchors, message", [
        (((0, 1),), "1 anchor pairs for 2 edges"),
        (((0, 1), (0, 1), (0, 1)), "3 anchor pairs for 2 edges"),
        (((0, 1), (1, 1)), "edge-node e2 has degree 1, expected 2"),
        (((0, 1), ()), "edge-node e2 has degree 0, expected 2"),
        (((0, 3), (0, 3)), r"\(3, e1\) is not an incidence of the host"),
        (((1, 0), (0, 1)), "out of order"),
        (((0, 1), (1, 2)), "vertex-node 'a' has odd degree 1"),
    ], ids=["too-few", "too-many", "repeated-anchor", "empty-pair", "outside-edge",
            "out-of-order", "odd-degree"])
    def test_rejected(self, anchors, message):
        with pytest.raises(CertificateViolation, match=message):
            FamilySubgraph(self.two_triples(), anchors)

    def test_negative_index_raises_instead_of_wrapping(self):
        # -3 would index vertex a from the end and leave every degree even
        with pytest.raises(CertificateViolation, match=r"\(-3, e1\) is not an incidence"):
            FamilySubgraph(self.two_triples(), ((-3, 1), (0, 1)))


class TestTrailsFromSubgraph:
    def test_single_four_cycle(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        g = build_incidence(h)
        fsub = FamilySubgraph(g, ((0, 1), (0, 1)))
        fam = trails_from_subgraph(fsub)
        assert len(fam.components) == 1
        assert format_walk_line(fam.components[0]) == "a e1 b e2 a"

    def test_two_disjoint_cycles_two_trails(self):
        _, _, fsub = grouped_family([("a", "b"), ("c", "d")])
        fam = trails_from_subgraph(fsub)
        assert len(fam.components) == 2

    def test_component_count_equals_trail_count(self):
        for groups in ([("a", "b"), ("c", "d"), ("e", "f")],
                       [("a", "b", "c"), ("d", "e", "f"), ("x", "y", "z")]):
            _, _, fsub = grouped_family(groups)
            fam = trails_from_subgraph(fsub)
            assert len(fam.components) == fsub.nontrivial_count

    def test_output_always_verifies(self):
        for seed in range(1, 10):
            h = gen_random_covering(7, 3, seed)
            fsub = find_family_subgraph(build_incidence(h))
            fam = trails_from_subgraph(fsub)
            assert verify_euler_object(h, fam).valid


class TestSubgraphFromTrails:
    def test_explicit_selection(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        g = build_incidence(h)
        fam = EulerFamily((Walk(("a", "b", "a"), (0, 1)),))
        fsub = subgraph_from_trails(g, fam)
        assert fsub.anchors == ((0, 1), (0, 1))

    def test_empty_family_on_empty_hypergraph(self):
        h = Hypergraph.from_labels("ab", [])
        g = build_incidence(h)
        fsub = subgraph_from_trails(g, EulerFamily(()))
        assert fsub.anchors == ()

    def test_invalid_family_rejected(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        g = build_incidence(h)
        with pytest.raises(ValueError):
            subgraph_from_trails(g, EulerFamily((Walk(("a", "b", "a"), (0, 0)),)))

    def test_round_trip_identity_on_selected_sets(self):
        rng = Lcg(47)
        cases = 0
        for seed in range(1, 15):
            h = gen_random_covering(6 + seed % 3, 3, seed)
            g = build_incidence(h)
            fsub = find_family_subgraph(g)
            # wander to diversify the certificate shapes
            from eulergraph import apply_interchange
            for _ in range(3):
                cycles = sample_interchanging_cycles(fsub, rng, want=1)
                if not cycles:
                    break
                fsub = apply_interchange(fsub, cycles[0])
            fam = trails_from_subgraph(fsub)
            assert subgraph_from_trails(g, fam).anchors == fsub.anchors
            cases += 1
        assert cases == 14

    def test_trails_round_trip_canonical(self):
        # trails -> subgraph -> trails is the identity on canonical families
        h = gen_random_covering(7, 3, 3)
        g = build_incidence(h)
        fsub = find_family_subgraph(g)
        fam = trails_from_subgraph(fsub)
        assert trails_from_subgraph(subgraph_from_trails(g, fam)) == fam
