"""Data model, covering validation, and certificate verification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergraph import (
    EulerFamily,
    Hypergraph,
    Walk,
    canonical_closed_trail,
    solve,
    validate_covering,
    verify_euler_object,
)
from eulergraph.genio import Lcg, gen_complete, gen_random_covering

from helpers import (
    all_pairs_covered,
    fano,
    random_closed_trail,
    reference_canonical_closed_trail,
    rotations_and_reflections,
)


class TestConstruction:
    def test_empty_vertex_set_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph((), ())

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph.from_labels(("a", "a"), [])

    def test_unknown_edge_label_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph.from_labels("ab", [("a", "c")])

    def test_label_repeated_within_an_edge_rejected(self):
        # merging the repeat would shrink edge 0 to {a, b} and change the verdict
        with pytest.raises(ValueError, match=r"edge 0 repeats vertex 'a'"):
            Hypergraph.from_labels("abc", [("a", "a", "b"), ("a", "b", "c"), ("a", "b", "c")])
        with pytest.raises(ValueError, match=r"edge 2 repeats vertex 'c'"):
            Hypergraph.from_labels("abc", [("a", "b"), ("b", "c"), ("c", "a", "c")])

    def test_multiset_edges_keep_identity(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c"), ("a", "b", "c")])
        assert len(h.edges) == 2
        assert h.edges[0] == h.edges[1]

    def test_uniformity(self):
        assert fano().uniformity() == 3
        mixed = Hypergraph.from_labels("abc", [("a", "b"), ("a", "b", "c")])
        assert mixed.uniformity() is None
        assert Hypergraph.from_labels("a", []).uniformity() is None


class TestDegree:
    def test_fano_every_vertex_degree_3(self):
        h = fano()
        # independent count: 7 triples, 3 slots each, 21 incidences over 7 points
        for lab in h.vertices:
            assert h.degree(lab) == 3

    def test_multiplicity_counted(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c"), ("a", "b", "c")])
        assert h.degree("a") == 2

    def test_isolated_vertex(self):
        h = Hypergraph.from_labels("abcd", [("a", "b", "c")])
        assert h.degree("d") == 0

    def test_unknown_vertex_raises(self):
        with pytest.raises(KeyError):
            fano().degree("zz")


class TestValidateCovering:
    def test_fano_is_covering(self):
        h = fano()
        report = validate_covering(h, 3)
        assert report.is_k_uniform and report.is_covering
        assert report.witness_uncovered is None
        # oracle: every one of the 21 pairs lies in a triple
        ok, witness = all_pairs_covered(h, 3)
        assert ok and witness is None

    def test_single_triple_on_three_vertices(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")])
        report = validate_covering(h, 3)
        assert report == validate_covering(h, 3)
        assert report.is_k_uniform and report.is_covering

    def test_witness_is_first_lexicographic(self):
        h = Hypergraph.from_labels("abcd", [("a", "b", "c")])
        report = validate_covering(h, 3)
        assert report.is_k_uniform and not report.is_covering
        assert report.witness_uncovered == ("a", "d")

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError):
            validate_covering(fano(), 2)

    def test_non_uniform_not_covering(self):
        h = Hypergraph.from_labels("abcd", [("a", "b"), ("a", "b", "c")])
        report = validate_covering(h, 3)
        assert not report.is_k_uniform and not report.is_covering

    def test_empty_edge_list_not_covering(self):
        h = Hypergraph.from_labels("abc", [])
        assert not validate_covering(h, 3).is_covering

    @pytest.mark.parametrize("n,k,seed", [(5, 3, 1), (6, 3, 2), (6, 4, 3), (7, 4, 4)])
    def test_random_covering_and_min_degree(self, n, k, seed):
        h = gen_random_covering(n, k, seed)
        assert validate_covering(h, k).is_covering
        assert all_pairs_covered(h, k)[0]
        # every vertex has positive degree once |V| >= k
        assert all(h.degree(lab) >= 1 for lab in h.vertices)

    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_oracle_with_edges_removed(self, k):
        # dropping edges from a covering input uncovers subsets; the first
        # missing one in label order must match the direct scan
        for seed in range(1, 16):
            h = gen_random_covering(6 + seed % 3, k, seed)
            for keep in range(len(h.edges) + 1):
                sub = Hypergraph(h.vertices, h.edges[:keep])
                report = validate_covering(sub, k)
                ok, witness = all_pairs_covered(sub, k) if keep else (False, None)
                assert (report.is_covering, report.witness_uncovered) == (ok, witness)


class TestWalkFlags:
    def test_flags(self):
        w = Walk(("a", "b", "a"), (0, 1))
        assert w.is_closed and w.is_trail and w.is_cycle
        assert not Walk(("a", "b"), (0,)).is_closed
        assert not Walk(("a", "b", "a"), (0, 0)).is_trail
        w2 = Walk(("a", "b", "a", "c", "a"), (0, 1, 2, 3))
        assert w2.is_closed and w2.is_trail and not w2.is_cycle


class TestVerifyEulerObject:
    def test_valid_two_edge_tour(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c"), ("a", "b", "c")])
        f = EulerFamily((Walk(("a", "b", "a"), (0, 1)),))
        assert verify_euler_object(h, f).valid

    def test_repeated_edge_rejected(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c"), ("a", "b", "c")])
        f = EulerFamily((Walk(("a", "b", "a"), (0, 0)),))
        report = verify_euler_object(h, f)
        assert not report.valid
        assert any("repeated" in v for v in report.violations)
        assert any("never traversed" in v for v in report.violations)

    def test_one_edge_tour_claims_rejected(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")])
        report = verify_euler_object(h, EulerFamily((Walk(("a", "b"), (0,)),)))
        assert not report.valid

    def test_equal_consecutive_anchors_rejected(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c"), ("a", "b", "c")])
        report = verify_euler_object(h, EulerFamily((Walk(("a", "a", "a"), (0, 1)),)))
        assert not report.valid

    def test_anchor_not_incident_rejected(self):
        h = Hypergraph.from_labels("abcd", [("a", "b", "c"), ("a", "b", "d")])
        report = verify_euler_object(h, EulerFamily((Walk(("d", "a", "d"), (0, 1)),)))
        assert not report.valid
        assert any("not in e1" in v for v in report.violations)

    def test_shared_anchor_across_components_rejected(self):
        h = Hypergraph.from_labels(
            "abcd", [("a", "b", "c")] * 2 + [("a", "d", "c")] * 2)
        f = EulerFamily((
            Walk(("a", "b", "a"), (0, 1)),
            Walk(("a", "d", "a"), (2, 3)),
        ))
        report = verify_euler_object(h, f)
        assert not report.valid
        assert any("share anchor" in v for v in report.violations)

    def test_unknown_anchor_reported_not_raised(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c"), ("a", "b", "c")])
        report = verify_euler_object(h, EulerFamily((Walk(("z", "b", "z"), (0, 1)),)))
        assert not report.valid

    def test_empty_family_on_empty_hypergraph(self):
        h = Hypergraph.from_labels("abc", [])
        assert verify_euler_object(h, EulerFamily(())).valid

    def test_fano_brute_tour_verifies(self):
        from eulergraph import brute_tour

        h = fano()
        tour = brute_tour(h)
        assert tour is not None
        assert verify_euler_object(h, EulerFamily((tour,))).valid


class TestCanonicalClosedTrail:
    def test_requires_closed_trail(self):
        with pytest.raises(ValueError):
            canonical_closed_trail(Walk(("a", "b"), (0,)))

    def test_small_example(self):
        w = Walk(("b", "a", "b"), (1, 0))
        c = canonical_closed_trail(w)
        assert c == Walk(("a", "b", "a"), (0, 1))

    def test_idempotent(self):
        w = Walk(("b", "a", "c", "a", "b"), (2, 0, 1, 3))
        c = canonical_closed_trail(w)
        assert canonical_closed_trail(c) == c

    @pytest.mark.parametrize("anchors", [("a", "a", "b", "a"), ("a", "b", "a", "a")],
                             ids=["inside", "at-closure"])
    def test_equal_consecutive_anchors_rejected(self, anchors):
        with pytest.raises(ValueError):
            canonical_closed_trail(Walk(anchors, (0, 1, 2)))

    def test_matches_reference_on_random_trails(self):
        rng = Lcg(5)
        for _ in range(2000):
            w = random_closed_trail(rng, 2 + rng.below(11), 3 + rng.below(4))
            assert canonical_closed_trail(w) == reference_canonical_closed_trail(w)

    def test_matches_reference_on_every_start_of_solved_tours(self):
        for h, k in ((fano(), 3), (gen_complete(6, 3), 3), (gen_random_covering(5, 3, 17), 3),
                     (gen_random_covering(6, 4, 5), 4)):
            tour = solve(h, k).tour
            for w in rotations_and_reflections(tour):
                assert canonical_closed_trail(w) == reference_canonical_closed_trail(w) == tour

    @given(st.integers(0, 7), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_rotation_reflection_invariance(self, rot, flip):
        anchors = ("a", "b", "c", "d", "b", "e")
        edges = (0, 1, 2, 3, 4, 5)
        k = len(edges)
        r = rot % k
        a = anchors[r:] + anchors[:r]
        e = edges[r:] + edges[:r]
        if flip:
            a = (a[0],) + tuple(reversed(a[1:]))
            e = tuple(reversed(e))
        variant = Walk(a + (a[0],), e)
        base = Walk(anchors + (anchors[0],), edges)
        assert canonical_closed_trail(variant) == canonical_closed_trail(base)


def test_covering_report_fields_match_spec_example():
    # 4-uniform complete design on 6 vertices is covering for k=4
    from eulergraph.genio import gen_complete

    h = gen_complete(6, 4)
    report = validate_covering(h, 4)
    assert report.is_k_uniform and report.is_covering
    assert all_pairs_covered(h, 4)[0]


@given(st.integers(1, 10_000))
@settings(max_examples=30, deadline=None)
def test_random_covering_always_validates(seed):
    h = gen_random_covering(6, 3, seed)
    assert validate_covering(h, 3).is_covering
