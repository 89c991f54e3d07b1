"""Family certificates: existence, forced anchors, trail extraction, and round trips."""

from collections import Counter
from itertools import combinations, product
from math import comb, prod

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
    solve,
    trails_from_subgraph,
    verify_euler_object,
)
from eulergraph.family import _forced_anchors
from eulergraph.genio import (
    Lcg,
    format_walk_line,
    gen_complete,
    gen_random_covering,
    gen_sts,
    parse_hg,
)
from eulergraph.matching import reduce_to_matching

from helpers import (
    MATCHING_ONLY_NEITHER,
    fano,
    grouped_family,
    random_mixed,
    random_noncovering,
    reference_forced_anchors,
    reference_gadget_adj,
    sample_interchanging_cycles,
    subgraph_from_trails,
)


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

    @pytest.mark.parametrize("name", sorted(MATCHING_ONLY_NEITHER))
    def test_neither_that_only_the_matching_proves(self, name):
        h, _ = parse_hg(MATCHING_ONLY_NEITHER[name])
        g = build_incidence(h)
        assert -1 in _forced_anchors(g)
        assert find_family_subgraph(g) is None
        assert solve(h, 3).verdict == "neither"
        assert brute_family_exists(h) is False

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


def _forced(g):
    """``_forced_anchors`` as a dict like :func:`helpers.reference_forced_anchors`."""
    state = _forced_anchors(g)
    if state is None:
        return None
    return {g.incidences[t]: s == 1 for t, s in enumerate(state) if s >= 0}


def _families(h):
    """Every family certificate of ``h``, by trying every anchor pair of every edge."""
    for pairs in product(*(combinations(sorted(e), 2) for e in h.edges)):
        parity = Counter(v for pair in pairs for v in pair)
        if all(c % 2 == 0 for c in parity.values()):
            yield pairs


class TestForcedAnchors:
    """The propagation ahead of the gadget is sound, and the gadget after it exact."""

    def test_every_family_keeps_the_forced_anchors(self):
        rng = Lcg(53)
        kinds = Counter()
        for _ in range(300):
            h = random_mixed(rng)
            if prod(comb(len(e), 2) for e in h.edges) > 4000:
                continue
            forced = _forced(build_incidence(h))
            families = list(_families(h))
            if forced is None:
                kinds["refuted"] += 1
                assert not families
                continue
            kinds["decided" if forced else "open"] += 1
            for pairs in families:
                for (v, e), anchor in forced.items():
                    assert (v in pairs[e]) == anchor, (h, v, e)
        assert kinds["refuted"] >= 20 and kinds["decided"] >= 20 and kinds["open"] >= 5, kinds

    def test_fixpoint_equals_the_reference_sweep(self):
        rng = Lcg(59)
        for _ in range(300):
            h = random_mixed(rng)
            assert _forced(build_incidence(h)) == reference_forced_anchors(h)

    def test_found_exactly_when_a_family_exists(self):
        rng = Lcg(61)
        kinds = Counter()
        for _ in range(400):
            h = random_mixed(rng)
            g = build_incidence(h)
            exists = brute_family_exists(h)
            fsub = find_family_subgraph(g)
            assert (fsub is not None) == exists
            forced = _forced(g)
            if forced is None:
                kinds["refuted"] += 1
            elif fsub is not None:
                # the certificate keeps every forced choice
                assert all((v in fsub.anchors[e]) == a for (v, e), a in forced.items())
                kinds["decided" if forced else "open"] += 1
            kinds["repeat"] += len(set(h.edges)) < len(h.edges)
            kinds["odd"] += any(len(row) % 2 for row in g.adj[:g.n_v])
            for e in h.edges:
                kinds[len(e)] += 1
        assert all(kinds[k] for k in (2, 3, 4, 5, "repeat", "odd", "refuted", "decided", "open"))

    def test_noncovering_stream_never_refuted_when_a_family_exists(self):
        rng = Lcg(67)
        refuted = 0
        for _ in range(300):
            h = random_noncovering(rng)
            if _forced(build_incidence(h)) is None:
                assert not brute_family_exists(h)
                refuted += 1
        assert refuted >= 50

    def test_decides_nothing_on_covering_generators(self):
        inputs = [gen_sts(n) for n in (7, 9, 13, 15, 19, 21)]
        inputs += [gen_complete(n, k) for n, k in ((4, 3), (6, 3), (6, 4), (7, 5))]
        inputs += [gen_random_covering(n, k, seed)
                   for seed in range(1, 6) for n, k in ((6, 3), (9, 3), (7, 4), (8, 5))]
        for h in inputs:
            g = build_incidence(h)
            assert set(_forced_anchors(g)) == {-1}
            assert reference_forced_anchors(h) == {}

    def test_gadget_over_an_undecided_state_is_the_full_gadget(self):
        rng = Lcg(71)
        for _ in range(100):
            g = build_incidence(random_mixed(rng))
            try:
                gg = reduce_to_matching(g, [-1] * len(g.incidences))
            except ValueError:
                continue
            assert gg.adj == reference_gadget_adj(g)

    def test_gadget_rows_over_the_forced_state_equal_the_reference(self):
        rng = Lcg(79)
        decided = 0
        for _ in range(200):
            h = random_mixed(rng)
            g = build_incidence(h)
            forced = reference_forced_anchors(h)
            if forced is None:
                continue
            gg = reduce_to_matching(g, _forced_anchors(g))
            assert gg.adj == reference_gadget_adj(g, forced)
            decided += bool(forced)
        assert decided >= 50

    def test_gadget_covers_the_undecided_incidences_only(self):
        rng = Lcg(73)
        shrunk = 0
        for _ in range(200):
            g = build_incidence(random_mixed(rng))
            state = _forced_anchors(g)
            if state is None:
                continue
            gg = reduce_to_matching(g, state)
            undecided = [t for t, s in enumerate(state) if s < 0]
            need = Counter({e: 2 for e in range(g.n_e)})
            need.subtract(e for (_, e), s in zip(g.incidences, state) if s == 1)
            open_e = Counter(g.incidences[t][1] for t in undecided)
            open_v = Counter(g.incidences[t][0] for t in undecided)
            forced_v = Counter(v for (v, _), s in zip(g.incidences, state) if s == 1)
            cores = sum(open_e[e] - need[e] for e in open_e)
            dummies = sum((open_v[v] - forced_v[v]) % 2 for v in range(g.n_v))
            assert len(gg.adj) == 2 * len(undecided) + cores + dummies
            shrunk += len(undecided) < len(g.incidences)
        assert shrunk >= 50


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
        # a list would build, then fail to hash into the merge's set of certificates
        ([(0, 1), (0, 1)], "^anchor pairs must come as a tuple$"),
        (((0, 1), [0, 1]), r"^edge-node e2 has anchors \[0, 1\], not a tuple$"),
    ], ids=["too-few", "too-many", "repeated-anchor", "empty-pair", "outside-edge",
            "out-of-order", "odd-degree", "list-of-pairs", "list-pair"])
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
            assert verify_euler_object(h, fam) == ()


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
