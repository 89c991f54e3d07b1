"""Interchanging cycles, the diminishing-cycle search, and the merge loop."""

import ast
import dataclasses
import functools
import hashlib
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest

from eulergraph import (
    CertificateViolation,
    EulerFamily,
    FamilySubgraph,
    Hypergraph,
    MergeExhaustedError,
    MergeStats,
    Walk,
    apply_interchange,
    brute_tour,
    build_incidence,
    canonical_closed_trail,
    find_diminishing_cycle,
    find_family_subgraph,
    merge_to_tour,
    solve,
    trails_from_subgraph,
    validate_covering,
    verify_euler_object,
)
from eulergraph import interchange
from eulergraph.genio import Lcg, emit_hg, gen_complete, gen_random_covering, gen_sts, parse_hg
from eulergraph.family import _union_find
from eulergraph.interchange import MAX_EDGE_NODES, MAX_EXPANSIONS, _candidates, _toggle, _trails

from helpers import (
    TOUR_DEPENDS_ON_FAMILY,
    ExpansionBudget,
    anchor_pairs,
    disjoint_union,
    e_node,
    fano,
    grouped_family,
    incidences,
    random_noncovering,
    reference_candidates,
    reference_closed_trails,
    reference_components,
    reference_toggle,
    roadmap_item3,
    sample_interchanging_cycles,
    subgraph_adj,
    subgraph_from_trails,
)


def three_component_instance():
    return grouped_family([("a", "b"), ("c", "d"), ("e", "f")])


class TestIsInterchanging:
    """A cycle is interchanging when each of its edge-nodes has exactly one of its two
    cycle neighbours among its anchors."""

    def test_false_when_an_e_node_has_two(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        a, b = h.vertices.index("a"), h.vertices.index("b")
        cycle = (a, e_node(g, 0), b, e_node(g, 1))
        # both cycle neighbours of e1 and of e2 are its anchors
        assert fsub.anchors[0] == fsub.anchors[1] == (a, b)
        with pytest.raises(CertificateViolation):
            apply_interchange(fsub, cycle)


class TestApplyInterchange:
    """Moves are node tuples; the new certificate's degree check is the interchanging test."""

    def test_interchanging_cycle_accepted(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        # edges: e1={a,b,c} e2={a,b,d} anchored (a,b); e3={c,d,a} e4={c,d,b} anchored (c,d)
        a, b, c, d = map(h.vertices.index, "abcd")
        cycle = (a, e_node(g, 0), c, e_node(g, 2))
        after = apply_interchange(fsub, cycle)
        # e1 swaps anchor a for c, e3 swaps c for a; e2 and e4 keep theirs
        assert after.anchors == ((b, c), (a, b), (a, d), (c, d))
        assert incidences(after.anchors) == reference_toggle(fsub, cycle)

    def test_involution(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        cycle = (h.vertices.index("a"), e_node(g, 0), h.vertices.index("c"), e_node(g, 2))
        once = apply_interchange(fsub, cycle)
        again = apply_interchange(once, cycle)
        assert again.anchors == fsub.anchors

    def test_crossing_cycle_merges_two_four_cycles(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        assert fsub.nontrivial_count == 2
        cycle = (h.vertices.index("a"), e_node(g, 0), h.vertices.index("c"), e_node(g, 2))
        after = apply_interchange(fsub, cycle)
        assert after.nontrivial_count == 1
        assert after.component_of == (0,) * 4  # one 8-cycle component

    def test_non_interchanging_rejected(self):
        # both cycle neighbours of e1 and of e2 are its anchors: the pairs would end empty
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        cycle = (h.vertices.index("a"), e_node(g, 0), h.vertices.index("b"), e_node(g, 1))
        with pytest.raises(CertificateViolation, match="degree 0"):
            apply_interchange(fsub, cycle)

    def test_e_node_meeting_no_selected_edge_rejected(self):
        # two copies of {a,b,c,d} anchored (a,b); the cycle through c and d
        # meets no anchor, so both edge-nodes would end at degree 4
        h = Hypergraph.from_labels("abcd", ["abcd", "abcd"])
        g = build_incidence(h)
        a, b, c, d = range(4)
        fsub = FamilySubgraph(g, ((a, b), (a, b)))
        with pytest.raises(CertificateViolation, match="degree 4"):
            apply_interchange(fsub, (c, e_node(g, 0), d, e_node(g, 1)))

    def test_not_a_cycle_rejected(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        for nodes in [(0, e_node(g, 0)), (0, e_node(g, 0), 0, e_node(g, 1)), (0, 1, 2, 3),
                      (0, e_node(g, 0), 2, e_node(g, 4))]:
            with pytest.raises(CertificateViolation):
                apply_interchange(fsub, nodes)

    def test_preserves_certificate_on_random_cycles(self):
        # constructor revalidates: e-degrees 2, v-degrees even
        rng = Lcg(53)
        from eulergraph.genio import gen_random_covering

        count = 0
        for seed in range(1, 12):
            h = gen_random_covering(7, 3, seed)
            fsub = find_family_subgraph(build_incidence(h))
            for cyc in sample_interchanging_cycles(fsub, rng, want=6):
                after = apply_interchange(fsub, cyc)
                assert isinstance(after, FamilySubgraph)
                count += 1
        assert count >= 40


class TestCandidateScoring:
    """Candidates are judged on the toggled pairs, never on a rebuilt certificate."""

    @staticmethod
    def seeded_families():
        for seed in range(1, 8):
            yield find_family_subgraph(build_incidence(gen_random_covering(7, 3, seed)))
        rng = Lcg(17)
        for _ in range(70):
            fsub = find_family_subgraph(build_incidence(random_noncovering(rng)))
            if fsub is not None:
                yield fsub

    def test_toggled_selection_scores_like_the_applied_certificate(self):
        rng = Lcg(71)
        cycles = with_isolated = 0
        for fsub in self.seeded_families():
            g = fsub.host
            with_isolated += any(c.trivial and min(c.nodes) < g.n_v
                                 for c in reference_components(subgraph_adj(fsub)))
            for cyc in sample_interchanging_cycles(fsub, rng, want=6):
                after = apply_interchange(fsub, cyc)
                toggled = _toggle(fsub, cyc)
                assert incidences(toggled) == reference_toggle(fsub, cyc)
                assert _union_find(g.n_v, toggled)[1] == after.nontrivial_count
                cycles += 1
        assert cycles >= 150
        assert with_isolated >= 10


def isolated_vertex_instance():
    """Two non-trivial components plus an isolated vertex-node z."""
    h = Hypergraph.from_labels(
        "abcdz",
        [("a", "b", "c"), ("a", "b", "z"), ("a", "c", "d"), ("c", "d", "z")])
    g = build_incidence(h)
    fsub = FamilySubgraph(g, anchor_pairs(h, ["ab", "ab", "cd", "cd"]))
    assert sum(1 for c in reference_components(subgraph_adj(fsub)) if c.trivial) == 1
    return h, g, fsub


# Starting families of the merge tests below, pinned as anchor tuples, so
# that these tests exercise the merge whatever family the matching finds.
PINNED_FAMILIES = {
    "roadmap-item3": ((2, 3), (1, 4), (2, 3), (1, 4)),
    "sts9": ((3, 6), (4, 7), (5, 8), (1, 5), (2, 4), (2, 3), (4, 8), (5, 7), (4, 5), (6, 7),
             (1, 8), (7, 8)),
    "complete43x2": ((1, 2), (0, 1), (0, 3), (2, 3), (5, 6), (4, 5), (4, 7), (6, 7)),
    "draw20": ((2, 5), (2, 5), (0, 1), (3, 6), (4, 9), (0, 5), (4, 9), (3, 6), (1, 5)),
    "draw43": ((4, 8), (7, 9), (2, 3), (2, 7), (4, 8), (3, 7), (7, 9)),
    "covering531+complete43": ((1, 2), (2, 4), (1, 2), (0, 2), (0, 3), (3, 4), (6, 7), (5, 6),
                               (5, 8), (7, 8)),
    "complete43x3": ((1, 2), (0, 1), (0, 3), (2, 3), (5, 6), (4, 5), (4, 7), (6, 7), (9, 10),
                     (8, 9), (8, 11), (10, 11)),
    "sts7+complete43": ((0, 1), (3, 6), (2, 4), (5, 6), (0, 3), (1, 4), (2, 5), (8, 9), (7, 8),
                        (7, 10), (9, 10)),
}


def pinned_family(h, name):
    """The certificate of ``h`` with the pinned anchors ``PINNED_FAMILIES[name]``."""
    return FamilySubgraph(build_incidence(h), PINNED_FAMILIES[name])


class TestFindDiminishingCycle:
    def test_two_components_four_cycle(self):
        _, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        cycle = find_diminishing_cycle(fsub, {fsub.anchors})
        assert cycle is not None
        after = apply_interchange(fsub, cycle)
        assert after.nontrivial_count == 1

    @pytest.mark.parametrize("make, count", [
        (three_component_instance, 3),
        (lambda: grouped_family([("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")]), 4),
        (isolated_vertex_instance, 2),
    ], ids=["three-groups", "four-groups", "isolated-vertex"])
    def test_every_move_diminishes(self, make, count):
        # the inputs a linking cycle through every component merges at once;
        # the search merges them one diminishing move at a time
        h, g, fsub = make()
        assert fsub.nontrivial_count == count
        while count > 1:
            fsub = apply_interchange(fsub, find_diminishing_cycle(fsub, {fsub.anchors}))
            assert fsub.nontrivial_count < count
            count = fsub.nontrivial_count
        assert verify_euler_object(h, trails_from_subgraph(fsub)) == ()

    def test_four_cycle_with_both_edge_nodes_in_one_component(self):
        # the diminishing 4-cycle has both edge-nodes in one component and
        # its second vertex-node in the other
        fsub = pinned_family(roadmap_item3(), "roadmap-item3")
        assert fsub.nontrivial_count == 2
        cycle = find_diminishing_cycle(fsub, {fsub.anchors})
        assert cycle is not None and len(cycle) == 4
        after = apply_interchange(fsub, cycle)
        assert after.nontrivial_count == 1

    def test_precondition_single_component(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        g = build_incidence(h)
        fsub = find_family_subgraph(g)
        with pytest.raises(ValueError):
            find_diminishing_cycle(fsub, {fsub.anchors})

    def test_steiner_families_need_longer_cycles(self):
        # no two triples of a Steiner system share a pair, so the incidence
        # graph has no 4-cycle; scrambled families still diminish
        rng = Lcg(59)
        fsub = pinned_family(gen_sts(9), "sts9")
        diminished = 0
        for _ in range(40):
            cycles = sample_interchanging_cycles(fsub, rng, want=4)
            if not cycles:
                break
            fsub = apply_interchange(fsub, cycles[rng.below(len(cycles))])
            if fsub.nontrivial_count >= 2:
                cyc = find_diminishing_cycle(fsub, {fsub.anchors})
                assert cyc is not None
                before = fsub.nontrivial_count
                fsub = apply_interchange(fsub, cyc)
                assert fsub.nontrivial_count < before
                diminished += 1
        assert diminished >= 1


class TestMergeToTour:
    def test_tour_returned_unchanged(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        tour = Walk(("b", "a", "b"), (1, 0))
        fsub = subgraph_from_trails(build_incidence(h), EulerFamily((tour,)))
        assert merge_to_tour(fsub) == canonical_closed_trail(tour)
        # the loop tests the component count before the budget, so a family
        # that already is one trail takes no step, even on a zero budget
        stats = MergeStats()
        assert merge_to_tour(fsub, budget=0, stats=stats) == canonical_closed_trail(tour)
        assert stats == MergeStats()

    def test_grouped_three_components(self):
        h, g, fsub = three_component_instance()
        stats = MergeStats()
        tour = merge_to_tour(fsub, stats=stats)
        assert verify_euler_object(h, EulerFamily((tour,))) == ()
        assert stats.steps >= 1

    def test_fano_families_are_already_tours(self):
        # the 7-point system admits exactly 24 family certificates, every one
        # a single closed trail, so merging is a no-op there
        h = fano()
        g = build_incidence(h)
        options = [list(combinations(sorted(e), 2)) for e in h.edges]
        comp_counts = set()
        families = 0
        for assign in product(*options):
            deg = [0] * 7
            for a, b in assign:
                deg[a] += 1
                deg[b] += 1
            if any(d % 2 for d in deg):
                continue
            fsub = FamilySubgraph(g, assign)
            families += 1
            comp_counts.add(fsub.nontrivial_count)
            tour = merge_to_tour(fsub)
            assert verify_euler_object(h, EulerFamily((tour,))) == ()
        assert families == 24
        assert comp_counts == {1}

    def test_steiner9_two_component_family_merges(self):
        # first two-component family certificate of the 9-point system, found
        # by exhaustive anchor-pair assignment, merges to a verified tour
        h = gen_sts(9)
        g = build_incidence(h)
        options = [list(combinations(sorted(e), 2)) for e in h.edges]
        target = None
        for assign in product(*options):
            deg = [0] * 9
            for a, b in assign:
                deg[a] += 1
                deg[b] += 1
            if any(d % 2 for d in deg):
                continue
            fsub = FamilySubgraph(g, assign)
            if fsub.nontrivial_count == 2:
                target = fsub
                break
        assert target is not None
        assert len(trails_from_subgraph(target).components) == 2
        stats = MergeStats()
        tour = merge_to_tour(target, stats=stats)
        assert verify_euler_object(h, EulerFamily((tour,))) == ()
        assert len(tour.edges) == 12 and stats.steps >= 1

    def test_two_trail_family_of_a_tour_merges(self):
        # random#372 has a tour, but from this two-trail family of it no
        # interchanging cycle diminishes: after one escape the merge takes
        # an interchanging closed trail that visits e8 twice
        h, _ = parse_hg(TOUR_DEPENDS_ON_FAMILY)
        pairs = [("v4", "v7"), ("v2", "v9"), ("v10", "v2"), ("v4", "v7"),
                 ("v10", "v8"), ("v6", "v9"), ("v3", "v6"), ("v3", "v8")]
        fsub = FamilySubgraph(build_incidence(h), anchor_pairs(h, pairs))
        assert fsub.nontrivial_count == 2
        stats = MergeStats()
        tour = merge_to_tour(fsub, stats=stats)
        assert verify_euler_object(h, EulerFamily((tour,))) == ()
        assert (stats.steps, stats.diminishing, stats.escapes) == (2, 1, 1)

    def test_every_family_of_a_tour_input_merges(self, monkeypatch):
        # A seeded search for more inputs like random#372: drop one of its
        # edges half the time and add up to two edges of 2 or 3 vertices.
        # From every family of every draw with a tour, the merge reaches a
        # tour; from many of them only through a closed-trail move.
        real = interchange._diminishing_trail
        trail_moves = []

        def counted(fsub):
            move = real(fsub)
            trail_moves.append(move is not None)
            return move

        monkeypatch.setattr(interchange, "_diminishing_trail", counted)
        base, _ = parse_hg(TOUR_DEPENDS_ON_FAMILY)
        labels = base.vertices
        rng = Lcg(3)
        witnesses = tours = families = 0
        for _ in range(100):
            edges = [base.edge_labels(j) for j in range(len(base.edges))]
            if rng.below(2):
                edges.pop(rng.below(len(edges)))
            for _ in range(rng.below(3)):
                size = 2 + rng.below(2)
                e = set()
                while len(e) < size:
                    e.add(labels[rng.below(len(labels))])
                edges.append(tuple(sorted(e)))
            h = Hypergraph.from_labels(labels, edges)
            if brute_tour(h) is None:
                continue
            tours += 1
            g = build_incidence(h)
            for assign in product(*(combinations(sorted(e), 2) for e in h.edges)):
                if any(c % 2 for c in Counter(v for pair in assign for v in pair).values()):
                    continue
                families += 1
                del trail_moves[:]
                tour = merge_to_tour(FamilySubgraph(g, assign))
                assert verify_euler_object(h, EulerFamily((tour,))) == ()
                witnesses += any(trail_moves)
        assert (tours, families, witnesses) == (60, 488, 43)

    def test_complete_five_from_scrambled_family(self):
        rng = Lcg(61)
        h = gen_complete(5, 3)
        g = build_incidence(h)
        fsub = find_family_subgraph(g)
        for _ in range(8):
            cycles = sample_interchanging_cycles(fsub, rng, want=5)
            if not cycles:
                break
            fsub = apply_interchange(fsub, cycles[rng.below(len(cycles))])
        tour = merge_to_tour(fsub)
        assert verify_euler_object(h, EulerFamily((tour,))) == ()
        assert len(tour.edges) == 10

    def test_budget_zero_raises(self):
        h, g, fsub = three_component_instance()
        with pytest.raises(MergeExhaustedError) as exc:
            merge_to_tour(fsub, budget=0)
        assert exc.value.reason == "budget"
        assert exc.value.anchors == fsub.anchors

    def test_negative_budget_rejected_before_any_step(self):
        # the message solve gives, not a budget exhaustion (exit 3 on the command line)
        h, g, fsub = three_component_instance()
        stats = MergeStats()
        with pytest.raises(ValueError, match="step budget must be non-negative, got -1"):
            merge_to_tour(fsub, budget=-1, stats=stats)
        assert stats == MergeStats()

    def test_negative_budget_rejected_on_a_tour(self):
        fsub = find_family_subgraph(build_incidence(fano()))
        assert fsub.nontrivial_count == 1
        with pytest.raises(ValueError, match="step budget must be non-negative, got -1"):
            merge_to_tour(fsub, budget=-1)


def _stream_draw(i):
    rng = Lcg(0)
    for _ in range(i):
        random_noncovering(rng)
    return random_noncovering(rng)


def _two_complete_four_three():
    return disjoint_union(gen_complete(4, 3), gen_complete(4, 3))


def _covering_plus_complete_four_three():
    return disjoint_union(gen_random_covering(5, 3, 1), gen_complete(4, 3))


def _three_complete_four_three():
    return disjoint_union(gen_complete(4, 3), gen_complete(4, 3), gen_complete(4, 3))


def _sts7_plus_complete_four_three():
    # through the file format, as the best-effort bench op reads it: parsing
    # sorts the labels, so the vertex order differs from disjoint_union's
    return parse_hg(emit_hg(disjoint_union(gen_sts(7), gen_complete(4, 3))))[0]


_TRAJECTORY_INPUTS = [
    (_two_complete_four_three, None),
    (_two_complete_four_three, 40),
    (lambda: _stream_draw(20), None),
    (lambda: _stream_draw(43), None),
    (_covering_plus_complete_four_three, None),
]
_TRAJECTORY_IDS = ["complete43x2", "complete43x2-budget40", "draw20", "draw43",
                   "covering531+complete43"]


class TestLadderTrajectories:
    """Move counts and final certificates of merges without a tour, pinned.

    Each merge starts from the family ``PINNED_FAMILIES`` holds for its
    input.  Counts are ``(steps, diminishing, pivot_reduce, pivot_neutral,
    escapes)``; every step is a diminishing move or an escape, so the two
    pivot counters read 0.  The digest is the SHA-256 of the sorted
    (vertex, edge) incidences of ``MergeExhaustedError.anchors``.
    """

    @pytest.mark.parametrize("make, family, budget, counts, reason, digest", [
        (_two_complete_four_three, "complete43x2", None, (83, 35, 0, 0, 48), "no-move",
         "745e441803e2f23210813e19597dbe751b7fd48849514e6b4ac5c5cfa5eb5908"),
        (_two_complete_four_three, "complete43x2", 40, (40, 18, 0, 0, 22), "budget",
         "a87855383254676155e33291712f37c5207efc36bd6255ccb2384f24b4265029"),
        (lambda: _stream_draw(20), "draw20", None, (27, 0, 0, 0, 27), "no-move",
         "221b7d853a218de7d6f9317c1880b74fdcc5b00a81192bfb14598aaafa1c68b5"),
        (lambda: _stream_draw(43), "draw43", None, (3, 1, 0, 0, 2), "no-move",
         "4a153a187db63bb2b49b0b0aa093e0466c51b8fbc7f5f205e143e59c0edf7b22"),
        (_covering_plus_complete_four_three, "covering531+complete43", None, (240, 40, 0, 0, 200),
         "no-move", "c8fdde9c87d1e8352c06e67932436999f01a0373316e0a6df1da3efcd8994109"),
        # the two longest merges of the best-effort bench workload
        (_three_complete_four_three, "complete43x3", None, (535, 244, 0, 0, 291), "no-move",
         "6f4959d41fe266f9465d38c7d4c7b569db4126aad3e9845c308cd9d614c59e2e"),
        (_sts7_plus_complete_four_three, "sts7+complete43", None, (259, 72, 0, 0, 187), "no-move",
         "be25433fa83898c4345622ccd88102d2379b238e66c227c57d60d98e22729363"),
    ], ids=_TRAJECTORY_IDS + ["complete43x3", "sts7+complete43"])
    def test_pinned_trajectory(self, make, family, budget, counts, reason, digest):
        fsub = pinned_family(make(), family)
        stats = MergeStats()
        with pytest.raises(MergeExhaustedError) as exc:
            merge_to_tour(fsub, budget=budget, stats=stats)
        assert (stats.steps, stats.diminishing, stats.pivot_reduce, stats.pivot_neutral,
                stats.escapes) == counts
        assert stats.steps == stats.diminishing + stats.escapes
        assert exc.value.reason == reason
        incidences = sorted((v, e) for e, pair in enumerate(exc.value.anchors) for v in pair)
        assert hashlib.sha256(repr(incidences).encode()).hexdigest() == digest

    @pytest.mark.parametrize("make, budget", _TRAJECTORY_INPUTS, ids=_TRAJECTORY_IDS)
    def test_best_effort_family_does_not_depend_on_the_merge(self, make, budget):
        # solve falls back to the matching's family, not to where the merge
        # stopped, so a change of merge moves leaves best-effort certificates alone
        h = make()
        res = solve(h, 3, budget=budget)
        assert res.verdict == "not-covering-best-effort"
        assert res.family == trails_from_subgraph(find_family_subgraph(build_incidence(h)))

    def test_merge_stats_has_the_fields_the_bench_reads(self):
        run_py = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
        read = next(
            ast.literal_eval(node.value) for node in ast.parse(run_py.read_text()).body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "MERGE_STATS" for t in node.targets))
        assert "escapes" in read
        assert set(read) <= {f.name for f in dataclasses.fields(MergeStats)}


def _two_scans(g, fsub, seen):
    """Reference: the first diminishing candidate, then a fresh scan for the first unseen.

    Every candidate is scored, even one confined to a single component.
    """
    base = fsub.nontrivial_count
    diminishing = next(
        (nodes for nodes in reference_candidates(g, fsub.anchors)
         if _union_find(g.n_v, _toggle(fsub, nodes))[1] < base),
        None)
    unseen = next(
        (nodes for nodes in reference_candidates(g, fsub.anchors)
         if _toggle(fsub, nodes) not in seen),
        None)
    return diminishing, unseen


class TestEscapeMove:
    """The merge's move when no diminishing cycle is found, exercised directly."""

    def test_first_unseen_candidate_respects_seen_set(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        # a crossing 4-cycle diminishes, and the escape never replaces it
        diminishing = _two_scans(g, fsub, set())[0]
        assert diminishing is not None
        assert find_diminishing_cycle(fsub, {fsub.anchors}) == diminishing
        # every candidate confined to one component: none diminishes
        fsub = pinned_family(_two_complete_four_three(), "complete43x2")
        assert fsub.nontrivial_count == 2
        g = fsub.host
        seen = {fsub.anchors}
        assert _two_scans(g, fsub, seen)[0] is None
        move = find_diminishing_cycle(fsub, seen)
        assert move is not None
        first = apply_interchange(fsub, move)
        assert first.anchors not in seen
        seen.add(first.anchors)
        move2 = find_diminishing_cycle(fsub, seen)
        assert move2 is not None and move2 != move
        assert apply_interchange(fsub, move2).anchors not in seen
        seen |= {apply_interchange(fsub, nodes).anchors
                 for nodes in _candidates(g, fsub.anchors)}
        assert find_diminishing_cycle(fsub, seen) is None

    @pytest.mark.parametrize("make, budget", _TRAJECTORY_INPUTS, ids=_TRAJECTORY_IDS)
    def test_one_scan_matches_two_scans_step_by_step(self, make, budget):
        fsub = find_family_subgraph(build_incidence(make()))
        g = fsub.host
        seen = {fsub.anchors}
        limit = budget if budget is not None else 10 * g.n_e ** 2
        steps = 0
        while fsub.nontrivial_count > 1 and steps < limit:
            diminishing, unseen = _two_scans(g, fsub, seen)
            move = find_diminishing_cycle(fsub, seen)
            assert move == (diminishing or unseen)
            if move is None:
                break
            fsub = apply_interchange(fsub, move)
            seen.add(fsub.anchors)
            steps += 1
        assert steps > 0


def _merge_states(fsub, budget):
    """Every certificate a merge from ``fsub`` holds, in order, as ``merge_to_tour`` steps."""
    limit = budget if budget is not None else 10 * fsub.host.n_e ** 2
    seen = {fsub.anchors}
    yield fsub
    for _ in range(limit):
        if fsub.nontrivial_count < 2 or (move := find_diminishing_cycle(fsub, seen)) is None:
            return
        fsub = apply_interchange(fsub, move)
        seen.add(fsub.anchors)
        yield fsub


@functools.lru_cache(maxsize=1)
def _scanned_states():
    """The states of the pinned merges and of the merges from 200 random non-covering draws."""
    states = [fsub for make, budget in _TRAJECTORY_INPUTS
              for fsub in _merge_states(find_family_subgraph(build_incidence(make())), budget)]
    rng = Lcg(26)
    for _ in range(200):
        fsub = find_family_subgraph(build_incidence(random_noncovering(rng)))
        if fsub is not None:
            states += _merge_states(fsub, None)
    return states


class TestScanMatchesReference:
    """The merge scan yields the reference enumerator's cycles and spends the same budget."""

    @staticmethod
    def _scan(scan, fsub, limit, monkeypatch):
        left = [None]
        monkeypatch.setattr(interchange, "MAX_EXPANSIONS", ExpansionBudget(limit, left))
        return list(scan(fsub.host, fsub.anchors)), limit - left[0]

    @pytest.mark.parametrize("limit", [MAX_EXPANSIONS, 1, 5, 37, 400])
    def test_same_cycles_and_expansions(self, limit, monkeypatch):
        states = _scanned_states()
        assert len(states) > 500
        cut = 0
        for fsub in states:
            cycles, spent = self._scan(_candidates, fsub, limit, monkeypatch)
            want, want_spent = self._scan(reference_candidates, fsub, limit, monkeypatch)
            assert cycles == want
            assert spent == min(want_spent, limit)
            cut += want_spent >= limit
        # The small limits cut some scans, the default one none.
        assert (cut > 0) == (limit != MAX_EXPANSIONS)

    def test_scans_are_independent(self):
        # Every piece of scan state belongs to one call: two scans consumed
        # in turn, and a fresh scan next to an abandoned one, each yield the
        # reference's list.
        states = (fsub for fsub in _scanned_states()
                  if len(list(reference_candidates(fsub.host, fsub.anchors))) > 3)
        a, b = next(states), next(states)
        assert a.anchors != b.anchors
        want = [list(reference_candidates(f.host, f.anchors)) for f in (a, b)]
        scans = [_candidates(f.host, f.anchors) for f in (a, b)]
        got = ([], [])
        live = [0, 1]
        while live:
            for i in tuple(live):
                nodes = next(scans[i], None)
                if nodes is None:
                    live.remove(i)
                else:
                    got[i].append(nodes)
        assert list(got) == want
        abandoned = _candidates(a.host, a.anchors)
        assert [next(abandoned), next(abandoned)] == want[0][:2]
        assert list(_candidates(a.host, a.anchors)) == want[0]
        assert list(abandoned) == want[0][2:]


class TestClosedTrails:
    """The merge's last resort: interchanging closed trails, scanned when no cycle move is left."""

    @pytest.mark.parametrize("limit", [MAX_EXPANSIONS, 5, 400])
    def test_same_trails_and_expansions_as_reference(self, limit, monkeypatch):
        cut = 0
        for fsub in _scanned_states()[::4]:
            trails, spent = TestScanMatchesReference._scan(_trails, fsub, limit, monkeypatch)
            want, want_spent = TestScanMatchesReference._scan(
                reference_closed_trails, fsub, limit, monkeypatch)
            assert trails == want
            assert spent == min(want_spent, limit)
            cut += want_spent >= limit
        assert (cut > 0) == (limit != MAX_EXPANSIONS)

    def test_every_trail_toggles_to_a_certificate(self):
        # Distinct vertex-nodes, each edge-node at most twice and never next
        # to itself around the trail; the trails without a repeated edge-node
        # are the cycle scan's candidates, in the same order.
        repeated = 0
        for fsub in _scanned_states()[::4]:
            g = fsub.host
            trails = list(_trails(g, fsub.anchors))
            simple = [nodes for nodes in trails if len(set(nodes[1::2])) == len(nodes) // 2]
            assert [nodes for nodes in simple if len(nodes) <= 2 * MAX_EDGE_NODES] == list(
                _candidates(g, fsub.anchors))
            for nodes in trails:
                assert len(set(nodes[::2])) == len(nodes) // 2
                edge_nodes = nodes[1::2]
                assert all(edge_nodes.count(en) <= 2 for en in edge_nodes)
                assert all(a != b for a, b in zip(edge_nodes, edge_nodes[1:] + edge_nodes[:1]))
                apply_interchange(fsub, nodes)
            repeated += len(simple) < len(trails)
        assert repeated >= 30

    def test_piece_gate_against_components(self):
        # The trail scan runs only where a connected piece of the host holds
        # two non-trivial components; the reference counts them per piece.
        seen = Counter()
        for fsub in _scanned_states():
            g = fsub.host
            piece_of = {}
            for c in reference_components(g.adj):
                piece_of.update(dict.fromkeys(c.nodes, min(c.nodes)))
            per_piece = Counter(piece_of[min(c.nodes)]
                                for c in reference_components(subgraph_adj(fsub)) if not c.trivial)
            shares = max(per_piece.values()) >= 2
            assert interchange._shares_a_piece(fsub) == shares
            seen[shares] += 1
        assert seen[True] and seen[False]

    def test_no_trail_scan_across_pieces(self, monkeypatch):
        # two pieces, one trail each: the merge stops with no trail scanned
        h = Hypergraph.from_labels("abcd", ["ab", "ab", "cd", "cd"])
        fsub = find_family_subgraph(build_incidence(h))
        assert fsub.nontrivial_count == 2
        monkeypatch.setattr(interchange, "_trails", None)
        with pytest.raises(MergeExhaustedError) as exc:
            merge_to_tour(fsub)
        assert (exc.value.reason, exc.value.steps) == ("no-move", 0)


class TestDirectOrderThree:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_all_edge_counts(self, m):
        # The order-3 input needs no closed form: its family has one non-trivial
        # component, and the merge reads the tour out of it without a move.
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * m)
        assert validate_covering(h, 3)
        fsub = find_family_subgraph(build_incidence(h))
        assert fsub.nontrivial_count == 1
        stats = MergeStats()
        tour = merge_to_tour(fsub, stats=stats)
        assert verify_euler_object(h, EulerFamily((tour,))) == ()
        assert len(tour.edges) == m
        assert stats.steps == 0
