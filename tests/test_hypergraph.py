"""Data model, covering validation, and certificate verification."""

from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergraph import (
    EulerFamily,
    Hypergraph,
    Walk,
    canonical_closed_trail,
    certified_family,
    solve,
    validate_covering,
    verify_euler_object,
)
from eulergraph.genio import Lcg, emit_hg, gen_complete, gen_random_covering, gen_sts, parse_hg

from helpers import (
    all_pairs_covered,
    fano,
    random_closed_trail,
    random_noncovering,
    reference_canonical_closed_trail,
    reference_validate_covering,
    reference_verify_euler_object,
    rotations_and_reflections,
    swap_one_anchor,
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
        with pytest.raises(ValueError, match=r"edge e1 repeats vertex 'a'"):
            Hypergraph.from_labels("abc", [("a", "a", "b"), ("a", "b", "c"), ("a", "b", "c")])
        with pytest.raises(ValueError, match=r"edge e3 repeats vertex 'c'"):
            Hypergraph.from_labels("abc", [("a", "b"), ("b", "c"), ("c", "a", "c")])

    def test_edges_given_as_generators_or_sets(self):
        expected = Hypergraph.from_labels("abcd", [("a", "b", "c"), ("b", "c", "d")])
        as_generators = Hypergraph.from_labels(
            iter("abcd"), ((lab for lab in e) for e in ["abc", "bcd"]))
        as_sets = Hypergraph.from_labels("abcd", [{"c", "a", "b"}, frozenset("dcb")])
        assert as_generators == as_sets == expected

    def test_edge_error_messages(self):
        with pytest.raises(ValueError, match=r"^edge e2 references unknown vertex 'z'$"):
            Hypergraph.from_labels("abc", [("a", "b"), ("a", "z")])
        with pytest.raises(ValueError, match=r"^edge e2 references unknown vertex 'z'$"):
            Hypergraph.from_labels("abc", [("a", "b"), (lab for lab in "azb")])
        # Labels are checked in order, so the first fault of an edge is the one reported.
        with pytest.raises(ValueError, match=r"^edge e1 repeats vertex 'a'$"):
            Hypergraph.from_labels("abc", [("a", "a", "z")])
        with pytest.raises(ValueError, match=r"^edge e1 references unknown vertex 'z'$"):
            Hypergraph.from_labels("abc", [("z", "a", "a")])
        with pytest.raises(ValueError, match=r"^edge e1 repeats vertex 'b'$"):
            Hypergraph.from_labels("abc", [iter("abcb")])

    def test_unknown_vertex_index_rejected(self):
        with pytest.raises(ValueError, match=r"^edge e2 references unknown vertex index 3$"):
            Hypergraph(("a", "b", "c"), (frozenset({0, 1}), frozenset({2, 3})))

    @pytest.mark.parametrize("edge, message", [
        (frozenset({0.0, 1, 2}), "edge e1 holds vertex index 0.0, not an int"),
        (frozenset({True, 0, 2}), "edge e1 holds vertex index True, not an int"),
        (frozenset({"a", 1, 2}), "edge e1 references unknown vertex index a"),
    ], ids=["float", "bool", "str"])
    def test_vertex_indices_that_are_not_ints_rejected(self, edge, message):
        # 0.0 and True equal valid indices, and solve() would fail on them later
        with pytest.raises(ValueError, match=f"^{message}$"):
            Hypergraph(("a", "b", "c"), (edge, frozenset({0, 1, 2})))

    def test_edges_that_are_not_sets_rejected(self):
        # a repeated index would otherwise reach the solver as an edge-node of degree 1
        with pytest.raises(ValueError, match=r"^edge e1 is not a frozenset of vertex indices$"):
            Hypergraph(("a", "b", "c"), ((0, 0, 1), frozenset({0, 1})))
        with pytest.raises(ValueError, match=r"^edge e2 is not a frozenset of vertex indices$"):
            Hypergraph(("a", "b", "c"), (frozenset({0, 1}), [1, 2]))

    def test_fields_that_are_not_tuples_rejected(self):
        # a list field would construct, solve, and then fail to hash
        with pytest.raises(ValueError, match="^vertices and edges must be tuples$"):
            Hypergraph(["a", "b", "c"], (frozenset({0, 1, 2}),) * 3)
        with pytest.raises(ValueError, match="^vertices and edges must be tuples$"):
            Hypergraph(("a", "b", "c"), [frozenset({0, 1, 2})] * 3)

    def test_labels_that_are_not_strings_rejected(self):
        # an int label would solve to a tour that format_walk_line cannot print
        with pytest.raises(ValueError, match="^vertex label 1 is not a str$"):
            Hypergraph((1, 2, 3), (frozenset({0, 1, 2}),) * 3)
        with pytest.raises(ValueError, match="^vertex label None is not a str$"):
            Hypergraph.from_labels(["a", None], [("a", None)])

    def test_label_builders_keep_the_constructor_messages(self):
        # from_labels checks its edges first, then the constructor's checks
        for vertices, edges, message in [
            ((), [], "vertex set must be non-empty"),
            (("a", "b", "a"), [("a", "b")], "duplicate vertex label"),
            ((), [("a",)], "edge e1 references unknown vertex 'a'"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                Hypergraph.from_labels(vertices, edges)
        with pytest.raises(ValueError, match="^vertex set must be non-empty$"):
            Hypergraph((), ())
        with pytest.raises(ValueError, match="^duplicate vertex label$"):
            Hypergraph(("a", "a"), ())

    def test_builders_equal_direct_construction(self):
        for h in (fano(), gen_complete(6, 3), gen_random_covering(7, 4, 3), gen_sts(9),
                  parse_hg(emit_hg(gen_sts(7)))[0]):
            checked = Hypergraph(tuple(h.vertices), tuple(h.edges))
            assert checked == h and hash(checked) == hash(h)

    def test_multiset_edges_keep_identity(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c"), ("a", "b", "c")])
        assert len(h.edges) == 2
        assert h.edges[0] == h.edges[1]

    def test_uniformity(self):
        assert fano().uniformity() == 3
        mixed = Hypergraph.from_labels("abc", [("a", "b"), ("a", "b", "c")])
        assert mixed.uniformity() is None
        assert Hypergraph.from_labels("a", []).uniformity() is None


class TestValidateCovering:
    def test_fano_is_covering(self):
        h = fano()
        assert validate_covering(h, 3) is True
        # oracle: every one of the 21 pairs lies in a triple
        ok, witness = all_pairs_covered(h, 3)
        assert ok and witness is None

    def test_single_triple_on_three_vertices(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")])
        assert validate_covering(h, 3) is True

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError):
            validate_covering(fano(), 2)

    def test_non_uniform_not_covering(self):
        h = Hypergraph.from_labels("abcd", [("a", "b"), ("a", "b", "c")])
        assert validate_covering(h, 3) is False

    def test_empty_edge_list_not_covering(self):
        h = Hypergraph.from_labels("abc", [])
        assert validate_covering(h, 3) is False

    @pytest.mark.parametrize("n,k,seed", [(5, 3, 1), (6, 3, 2), (6, 4, 3), (7, 4, 4)])
    def test_random_covering_and_min_degree(self, n, k, seed):
        h = gen_random_covering(n, k, seed)
        assert validate_covering(h, k) is True
        assert all_pairs_covered(h, k)[0]
        # every vertex has positive degree once |V| >= k
        assert all(any(v in e for e in h.edges) for v in range(len(h.vertices)))

    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_oracle_with_edges_removed(self, k):
        # dropping edges from a covering input uncovers subsets; the decision
        # must match the direct scan at every prefix of the edge list
        for seed in range(1, 16):
            h = gen_random_covering(6 + seed % 3, k, seed)
            for keep in range(len(h.edges) + 1):
                sub = Hypergraph(h.vertices, h.edges[:keep])
                assert validate_covering(sub, k) is all_pairs_covered(sub, k)[0]

    def test_same_verdicts_as_subset_tuples(self):
        # Seeded uniform inputs around the covering threshold, each edge list
        # cut short, thinned or given a repeated edge, against the check that
        # builds one tuple per subset; both outcomes, through the count
        # shortcut and past it.
        rng = Lcg(83)
        seen = Counter()
        for _ in range(300):
            k = 3 + rng.below(3)
            n = k + 1 + rng.below(4)
            h = gen_random_covering(n, k, 1 + rng.below(1000))
            edges = list(h.edges)
            variants = [edges, edges[:-1], edges + edges[:1]]
            variants.append([e for e in edges if rng.below(5)] + edges[:2])
            for es in variants:
                sub = Hypergraph(h.vertices, tuple(es))
                verdict = validate_covering(sub, k)
                assert verdict is reference_validate_covering(sub, k)
                seen[verdict, len(es) * k < comb(n, k - 1)] += 1
        assert seen[True, False] and seen[False, False] and seen[False, True], seen

    def test_two_wide_edges(self):
        # two copies of one 2,000-vertex edge: covering at k = 2,000, one int
        # per subset where the reference builds 4,000 tuples of 1,999
        labels = [f"v{i}" for i in range(1, 2001)]
        h = Hypergraph.from_labels(labels, [labels, labels])
        assert validate_covering(h, 2000) is reference_validate_covering(h, 2000) is True
        h1 = Hypergraph.from_labels(labels + ["w"], [labels, labels])
        assert validate_covering(h1, 2000) is reference_validate_covering(h1, 2000) is False


class TestVerifyEulerObject:
    def test_valid_two_edge_tour(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c"), ("a", "b", "c")])
        f = EulerFamily((Walk(("a", "b", "a"), (0, 1)),))
        assert verify_euler_object(h, f) == ()

    def test_repeated_edge_rejected(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c"), ("a", "b", "c")])
        f = EulerFamily((Walk(("a", "b", "a"), (0, 0)),))
        assert verify_euler_object(h, f) == (
            "component 0: edge e1 repeated",
            "edge e1 traversed 2 times across the family",
            "edge e2 never traversed",
        )

    def test_one_edge_tour_claims_rejected(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")])
        assert verify_euler_object(h, EulerFamily((Walk(("a", "b"), (0,)),))) == (
            "component 0: a closed trail needs at least 2 edges",
            "component 0: not closed ('a' != 'b')",
        )

    def test_equal_consecutive_anchors_rejected(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c"), ("a", "b", "c")])
        assert verify_euler_object(h, EulerFamily((Walk(("a", "a", "a"), (0, 1)),))) == (
            "component 0: equal consecutive anchors 'a' at step 0",
            "component 0: equal consecutive anchors 'a' at step 1",
        )

    def test_anchor_not_incident_rejected(self):
        h = Hypergraph.from_labels("abcd", [("a", "b", "c"), ("a", "b", "d")])
        assert verify_euler_object(h, EulerFamily((Walk(("d", "a", "d"), (0, 1)),))) == (
            "component 0: anchor 'd' not in e1 at step 0",
        )

    def test_shared_anchor_across_components_rejected(self):
        h = Hypergraph.from_labels(
            "abcd", [("a", "b", "c")] * 2 + [("a", "d", "c")] * 2)
        f = EulerFamily((
            Walk(("a", "b", "a"), (0, 1)),
            Walk(("a", "d", "a"), (2, 3)),
        ))
        assert verify_euler_object(h, f) == ("components 0 and 1 share anchor 'a'",)

    def test_unknown_anchor_reported_not_raised(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c"), ("a", "b", "c")])
        assert verify_euler_object(h, EulerFamily((Walk(("z", "b", "z"), (0, 1)),))) == (
            "component 0: unknown anchor 'z' at step 0",
            "component 0: unknown anchor 'z' at step 1",
        )

    def test_empty_family_on_empty_hypergraph(self):
        h = Hypergraph.from_labels("abc", [])
        assert verify_euler_object(h, EulerFamily(())) == ()

    def test_walk_and_family_fields_must_be_tuples(self):
        # a list field would verify and then fail to hash
        with pytest.raises(ValueError, match="^anchors and edges must be tuples$"):
            Walk(["a", "b", "a"], (0, 1))
        with pytest.raises(ValueError, match="^anchors and edges must be tuples$"):
            Walk(("a", "b", "a"), [0, 1])
        with pytest.raises(ValueError, match="^components must be a tuple$"):
            EulerFamily([Walk(("a", "b", "a"), (0, 1))])

    @pytest.mark.parametrize("component, violation", [
        (Walk((["a"], "b", ["a"]), (0, 1)), "anchor ['a'] is not a vertex label"),
        (Walk(("a", "b", "a"), (False, True)), "edge id False is not an int"),
        (Walk(("a", "b", "a"), (0, 1.0)), "edge id 1.0 is not an int"),
        (("a", "b", "a"), "('a', 'b', 'a') is not a walk"),
    ], ids=["list-anchor", "bool-edges", "float-edge", "not-a-walk"])
    def test_malformed_members_reported_not_raised(self, component, violation):
        h = Hypergraph.from_labels("abc", [("a", "b", "c"), ("a", "b", "c")])
        assert verify_euler_object(h, EulerFamily((component,))) == (
            f"component 0: {violation}", "edge e1 never traversed", "edge e2 never traversed")

    _MEMBER = st.one_of(st.sampled_from("abcz"), st.integers(-1, 3), st.booleans(), st.none(),
                        st.floats(), st.lists(st.sampled_from("ab"), max_size=2))

    @given(st.lists(st.tuples(st.lists(_MEMBER, max_size=5), st.lists(_MEMBER, max_size=4)),
                    max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_never_raises_on_malformed_walks(self, parts):
        h = Hypergraph.from_labels("abc", [("a", "b", "c"), ("a", "b", "c")])
        f = EulerFamily(tuple(Walk(tuple(a), tuple(e)) for a, e in parts))
        violations = verify_euler_object(h, f)
        assert violations == reference_verify_euler_object(h, f)
        assert isinstance(violations, tuple)
        assert all(isinstance(v, str) for v in violations)
        if any(not isinstance(x, str) for a, _ in parts for x in a) or any(
                type(x) is not int for _, e in parts for x in e):
            assert violations

    def test_matches_reference_on_seeded_and_corrupted_families(self):
        rng = Lcg(23)
        families = []
        while len(families) < 60:
            h = random_noncovering(rng)
            fam = certified_family(h)
            if fam is not None:
                families.append((h, fam))
        for seed in range(1, 21):
            h = gen_random_covering(5 + seed % 4, 3, seed)
            families += [(h, certified_family(h)), (h, solve(h, 3).family)]
        for h, fam in families:
            clean, *corrupted = _corruptions(h, fam)
            assert verify_euler_object(h, clean) == reference_verify_euler_object(h, clean) == ()
            for bad in corrupted:
                got = verify_euler_object(h, bad)
                assert got and got == reference_verify_euler_object(h, bad)

    def test_fano_brute_tour_verifies(self):
        from eulergraph import brute_tour

        h = fano()
        tour = brute_tour(h)
        assert tour is not None
        assert verify_euler_object(h, EulerFamily((tour,))) == ()


def _corruptions(h: Hypergraph, fam: EulerFamily):
    """The family, then one copy of it for each fault the verifier reports,
    each made in its first trail."""
    w, rest = fam.components[0], fam.components[1:]
    a, e = w.anchors, w.edges

    def first(anchors, edges):
        return EulerFamily((Walk(anchors, edges),) + rest)

    yield fam
    yield swap_one_anchor(h, fam)
    yield first(a, e[:-1] + e[:1])  # repeated edge
    yield first(a[:-2] + a[-1:], e[:-1])  # dropped edge
    yield first(("zz",) + a[1:-1] + ("zz",), e)  # unknown label
    yield EulerFamily(fam.components + (w,))  # anchors shared across components
    yield first(a[:-1] + a[1:2], e)  # open trail
    yield first(a + a[:1], e)  # wrong anchor count
    yield first(a[:2], e[:1])  # one-edge trail
    yield first((1,) + a[1:], e)  # non-str anchor
    yield first(a, (True,) + e[1:])  # bool edge id
    yield first(a, (float(e[0]),) + e[1:])  # float edge id


class TestCanonicalClosedTrail:
    def test_requires_closed_trail(self):
        with pytest.raises(ValueError):
            canonical_closed_trail(Walk(("a", "b"), (0,)))

    @pytest.mark.parametrize("anchors, edges", [
        (("a", "b", "c"), (0, 1)),
        (("a", "a"), (0,)),
        (("a", "b", "a"), (0, 0)),
        (("a", "b", "a", "c", "a"), (0, 1, 2, 1)),
        (("a", "b", "a"), (0, 1, 2)),
    ], ids=["open", "one-edge", "repeated-edge", "repeated-edge-later", "anchor-count"])
    def test_malformed_walks_rejected(self, anchors, edges):
        with pytest.raises(ValueError, match="^canonical form is defined for closed trails only$"):
            canonical_closed_trail(Walk(anchors, edges))

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


def test_complete_design_is_covering_spec_example():
    # 4-uniform complete design on 6 vertices is covering for k=4
    from eulergraph.genio import gen_complete

    h = gen_complete(6, 4)
    assert validate_covering(h, 4) is True
    assert all_pairs_covered(h, 4)[0]


@given(st.integers(1, 10_000))
@settings(max_examples=30, deadline=None)
def test_random_covering_always_validates(seed):
    h = gen_random_covering(6, 3, seed)
    assert validate_covering(h, 3) is True
