"""Interchanging cycles, the diminishing-cycle search, and the merge loop."""

import ast
import dataclasses
import hashlib
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
    build_incidence,
    canonical_closed_trail,
    find_diminishing_cycle,
    find_family_subgraph,
    merge_to_tour,
    solve,
    subgraph_from_trails,
    trails_from_subgraph,
    validate_covering,
    verify_euler_object,
)
from eulergraph.genio import Lcg, gen_complete, gen_random_covering, gen_sts
from eulergraph.interchange import _candidates, _cycle_incidences, _nontrivial_count

from helpers import (
    disjoint_union,
    fano,
    grouped_family,
    random_noncovering,
    roadmap_item3,
    sample_interchanging_cycles,
)


def three_component_instance():
    return grouped_family([("a", "b"), ("c", "d"), ("e", "f")])


class TestIsInterchanging:
    """A cycle is interchanging when each of its edge-nodes meets exactly one selected cycle edge."""

    def test_false_when_an_e_node_has_two(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        a, b = h.vertex_index("a"), h.vertex_index("b")
        cycle = (a, g.e_node(0), b, g.e_node(1))
        incidences = _cycle_incidences(g, cycle)
        for e in (0, 1):
            assert {(a, e), (b, e)} <= incidences & fsub.selected
        with pytest.raises(CertificateViolation):
            apply_interchange(fsub, cycle)


class TestApplyInterchange:
    """Moves are node tuples; the new certificate's degree check is the interchanging test."""

    def test_interchanging_cycle_accepted(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        # edges: e1={a,b,c} e2={a,b,d} anchored (a,b); e3={c,d,a} e4={c,d,b} anchored (c,d)
        a, c = h.vertex_index("a"), h.vertex_index("c")
        cycle = (a, g.e_node(0), c, g.e_node(2))
        after = apply_interchange(fsub, cycle)
        assert after.selected == fsub.selected ^ {(a, 0), (c, 0), (a, 2), (c, 2)}

    def test_involution(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        cycle = (h.vertex_index("a"), g.e_node(0), h.vertex_index("c"), g.e_node(2))
        once = apply_interchange(fsub, cycle)
        again = apply_interchange(once, cycle)
        assert again.selected == fsub.selected

    def test_crossing_cycle_merges_two_four_cycles(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        assert len(fsub.nontrivial_components) == 2
        cycle = (h.vertex_index("a"), g.e_node(0), h.vertex_index("c"), g.e_node(2))
        after = apply_interchange(fsub, cycle)
        nontrivial = after.nontrivial_components
        assert len(nontrivial) == 1
        assert len(nontrivial[0].nodes) == 8  # one 8-cycle component

    def test_non_interchanging_rejected(self):
        # both cycle edges at e1 and at e2 are selected: the edge-nodes would end at degree 0
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        cycle = (h.vertex_index("a"), g.e_node(0), h.vertex_index("b"), g.e_node(1))
        with pytest.raises(CertificateViolation, match="degree 0"):
            apply_interchange(fsub, cycle)

    def test_e_node_meeting_no_selected_edge_rejected(self):
        # two copies of {a,b,c,d} anchored (a,b); the cycle through c and d
        # meets no selected edge, so both edge-nodes would end at degree 4
        h = Hypergraph.from_labels("abcd", ["abcd", "abcd"])
        g = build_incidence(h)
        a, b, c, d = range(4)
        fsub = FamilySubgraph(g, frozenset({(a, 0), (b, 0), (a, 1), (b, 1)}))
        with pytest.raises(CertificateViolation, match="degree 4"):
            apply_interchange(fsub, (c, g.e_node(0), d, g.e_node(1)))

    def test_not_a_cycle_rejected(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        for nodes in [(0, g.e_node(0)), (0, g.e_node(0), 0, g.e_node(1)), (0, 1, 2, 3)]:
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
    """Candidates are judged on the toggled selection, never on a rebuilt certificate."""

    @staticmethod
    def seeded_families():
        for seed in range(1, 8):
            yield find_family_subgraph(build_incidence(gen_random_covering(7, 3, seed)))
        rng = Lcg(17)
        for _ in range(60):
            fsub = find_family_subgraph(build_incidence(random_noncovering(rng)))
            if fsub is not None:
                yield fsub

    def test_toggled_selection_scores_like_the_applied_certificate(self):
        rng = Lcg(71)
        cycles = with_isolated = 0
        for fsub in self.seeded_families():
            g = fsub.host
            with_isolated += any(c.trivial and g.is_v_node(min(c.nodes)) for c in fsub.components)
            for cyc in sample_interchanging_cycles(fsub, rng, want=6):
                after = apply_interchange(fsub, cyc)
                toggled = fsub.selected ^ _cycle_incidences(g, cyc)
                assert toggled == after.selected
                assert _nontrivial_count(g, toggled) == len(after.nontrivial_components)
                cycles += 1
        assert cycles >= 150
        assert with_isolated >= 10


def isolated_vertex_instance():
    """Two non-trivial components plus an isolated vertex-node z."""
    h = Hypergraph.from_labels(
        "abcdz",
        [("a", "b", "c"), ("a", "b", "z"), ("a", "c", "d"), ("c", "d", "z")])
    g = build_incidence(h)
    sel = set()
    for eid, pair in enumerate([("a", "b"), ("a", "b"), ("c", "d"), ("c", "d")]):
        sel.add((h.vertex_index(pair[0]), eid))
        sel.add((h.vertex_index(pair[1]), eid))
    fsub = FamilySubgraph(g, frozenset(sel))
    assert sum(1 for c in fsub.components if c.trivial) == 1
    return h, g, fsub


class TestFindDiminishingCycle:
    def test_two_components_four_cycle(self):
        _, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        cycle = find_diminishing_cycle(g, fsub)
        assert cycle is not None
        after = apply_interchange(fsub, cycle)
        assert len(after.nontrivial_components) == 1

    @pytest.mark.parametrize("make, count", [
        (three_component_instance, 3),
        (lambda: grouped_family([("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")]), 4),
        (isolated_vertex_instance, 2),
    ], ids=["three-groups", "four-groups", "isolated-vertex"])
    def test_every_move_diminishes(self, make, count):
        # the inputs a linking cycle through every component merges at once;
        # the search merges them one diminishing move at a time
        h, g, fsub = make()
        assert len(fsub.nontrivial_components) == count
        while count > 1:
            fsub = apply_interchange(fsub, find_diminishing_cycle(g, fsub))
            assert len(fsub.nontrivial_components) < count
            count = len(fsub.nontrivial_components)
        assert verify_euler_object(h, trails_from_subgraph(fsub)).valid

    def test_four_cycle_with_both_edge_nodes_in_one_component(self):
        # the diminishing 4-cycle has both edge-nodes in one component and
        # its second vertex-node in the other
        h = roadmap_item3()
        g = build_incidence(h)
        fsub = find_family_subgraph(g)
        assert len(fsub.nontrivial_components) == 2
        cycle = find_diminishing_cycle(g, fsub)
        assert cycle is not None and len(cycle) == 4
        after = apply_interchange(fsub, cycle)
        assert len(after.nontrivial_components) == 1

    def test_precondition_single_component(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        g = build_incidence(h)
        fsub = find_family_subgraph(g)
        with pytest.raises(ValueError):
            find_diminishing_cycle(g, fsub)

    def test_steiner_families_need_longer_cycles(self):
        # no two triples of a Steiner system share a pair, so the incidence
        # graph has no 4-cycle; scrambled families still diminish
        rng = Lcg(59)
        h = gen_sts(9)
        g = build_incidence(h)
        fsub = find_family_subgraph(g)
        diminished = 0
        for _ in range(40):
            cycles = sample_interchanging_cycles(fsub, rng, want=4)
            if not cycles:
                break
            fsub = apply_interchange(fsub, cycles[rng.below(len(cycles))])
            if len(fsub.nontrivial_components) >= 2:
                cyc = find_diminishing_cycle(g, fsub)
                assert cyc is not None
                before = len(fsub.nontrivial_components)
                fsub = apply_interchange(fsub, cyc)
                assert len(fsub.nontrivial_components) < before
                diminished += 1
        assert diminished >= 1


class TestMergeToTour:
    def test_tour_returned_unchanged(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        tour = Walk(("b", "a", "b"), (1, 0))
        fsub = subgraph_from_trails(build_incidence(h), EulerFamily((tour,)))
        assert merge_to_tour(fsub) == canonical_closed_trail(tour)

    def test_grouped_three_components(self):
        h, g, fsub = three_component_instance()
        stats = MergeStats()
        tour = merge_to_tour(fsub, stats=stats)
        assert verify_euler_object(h, EulerFamily((tour,))).valid
        assert stats.steps >= 1

    def test_fano_families_are_already_tours(self):
        # the 7-point system admits exactly 24 family certificates, every one
        # a single closed trail, so merging is a no-op there
        h = fano()
        g = build_incidence(h)
        from itertools import combinations, product

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
            sel = frozenset((v, e) for e, pair in enumerate(assign) for v in pair)
            fsub = FamilySubgraph(g, sel)
            families += 1
            comp_counts.add(len(fsub.nontrivial_components))
            tour = merge_to_tour(fsub)
            assert verify_euler_object(h, EulerFamily((tour,))).valid
        assert families == 24
        assert comp_counts == {1}

    def test_steiner9_two_component_family_merges(self):
        # first two-component family certificate of the 9-point system, found
        # by exhaustive anchor-pair assignment, merges to a verified tour
        h = gen_sts(9)
        g = build_incidence(h)
        from itertools import combinations, product

        options = [list(combinations(sorted(e), 2)) for e in h.edges]
        target = None
        for assign in product(*options):
            deg = [0] * 9
            for a, b in assign:
                deg[a] += 1
                deg[b] += 1
            if any(d % 2 for d in deg):
                continue
            sel = frozenset((v, e) for e, pair in enumerate(assign) for v in pair)
            fsub = FamilySubgraph(g, sel)
            if len(fsub.nontrivial_components) == 2:
                target = fsub
                break
        assert target is not None
        assert len(trails_from_subgraph(target).components) == 2
        stats = MergeStats()
        tour = merge_to_tour(target, stats=stats)
        assert verify_euler_object(h, EulerFamily((tour,))).valid
        assert len(tour.edges) == 12 and stats.steps >= 1

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
        report = verify_euler_object(h, EulerFamily((tour,)))
        assert report.valid and len(tour.edges) == 10

    def test_budget_zero_raises(self):
        h, g, fsub = three_component_instance()
        with pytest.raises(MergeExhaustedError) as exc:
            merge_to_tour(fsub, budget=0)
        assert exc.value.reason == "budget"
        assert exc.value.selected is not None


def _stream_draw(i):
    rng = Lcg(0)
    for _ in range(i):
        random_noncovering(rng)
    return random_noncovering(rng)


def _two_complete_four_three():
    return disjoint_union(gen_complete(4, 3), gen_complete(4, 3))


def _covering_plus_complete_four_three():
    return disjoint_union(gen_random_covering(5, 3, 1), gen_complete(4, 3))


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

    Counts are ``(steps, diminishing, pivot_reduce, pivot_neutral,
    escapes)``; every step is a diminishing move or an escape, so the two
    pivot counters read 0.  The digest is the SHA-256 of
    ``repr(sorted(MergeExhaustedError.selected))``.
    """

    @pytest.mark.parametrize("make, budget, counts, reason, digest", [
        (_two_complete_four_three, None, (83, 35, 0, 0, 48), "no-move",
         "745e441803e2f23210813e19597dbe751b7fd48849514e6b4ac5c5cfa5eb5908"),
        (_two_complete_four_three, 40, (40, 18, 0, 0, 22), "budget",
         "a87855383254676155e33291712f37c5207efc36bd6255ccb2384f24b4265029"),
        (lambda: _stream_draw(20), None, (27, 0, 0, 0, 27), "no-move",
         "221b7d853a218de7d6f9317c1880b74fdcc5b00a81192bfb14598aaafa1c68b5"),
        (lambda: _stream_draw(43), None, (3, 1, 0, 0, 2), "no-move",
         "4a153a187db63bb2b49b0b0aa093e0466c51b8fbc7f5f205e143e59c0edf7b22"),
        (_covering_plus_complete_four_three, None, (240, 40, 0, 0, 200), "no-move",
         "c8fdde9c87d1e8352c06e67932436999f01a0373316e0a6df1da3efcd8994109"),
    ], ids=_TRAJECTORY_IDS)
    def test_pinned_trajectory(self, make, budget, counts, reason, digest):
        fsub = find_family_subgraph(build_incidence(make()))
        stats = MergeStats()
        with pytest.raises(MergeExhaustedError) as exc:
            merge_to_tour(fsub, budget=budget, stats=stats)
        assert (stats.steps, stats.diminishing, stats.pivot_reduce, stats.pivot_neutral,
                stats.escapes) == counts
        assert stats.steps == stats.diminishing + stats.escapes
        assert exc.value.reason == reason
        assert hashlib.sha256(repr(sorted(exc.value.selected)).encode()).hexdigest() == digest

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
    base = len(fsub.nontrivial_components)
    diminishing = next(
        (nodes for nodes in _candidates(g, fsub.subgraph_adj)
         if _nontrivial_count(g, fsub.selected ^ _cycle_incidences(g, nodes)) < base),
        None)
    unseen = next(
        (nodes for nodes in _candidates(g, fsub.subgraph_adj)
         if fsub.selected ^ _cycle_incidences(g, nodes) not in seen),
        None)
    return diminishing, unseen


class TestEscapeMove:
    """The merge's move when no diminishing cycle is found, exercised directly."""

    def test_first_unseen_candidate_respects_seen_set(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        # a crossing 4-cycle diminishes, and the escape never replaces it
        assert find_diminishing_cycle(g, fsub, {fsub.selected}) == find_diminishing_cycle(g, fsub)
        # every candidate confined to one component: none diminishes
        fsub = find_family_subgraph(build_incidence(_two_complete_four_three()))
        assert len(fsub.nontrivial_components) == 2
        g = fsub.host
        assert find_diminishing_cycle(g, fsub) is None
        seen = {fsub.selected}
        move = find_diminishing_cycle(g, fsub, seen)
        assert move is not None
        first = apply_interchange(fsub, move)
        assert first.selected not in seen
        seen.add(first.selected)
        move2 = find_diminishing_cycle(g, fsub, seen)
        assert move2 is not None and move2 != move
        assert apply_interchange(fsub, move2).selected not in seen
        seen |= {apply_interchange(fsub, nodes).selected
                 for nodes in _candidates(g, fsub.subgraph_adj)}
        assert find_diminishing_cycle(g, fsub, seen) is None

    @pytest.mark.parametrize("make, budget", _TRAJECTORY_INPUTS, ids=_TRAJECTORY_IDS)
    def test_one_scan_matches_two_scans_step_by_step(self, make, budget):
        fsub = find_family_subgraph(build_incidence(make()))
        g = fsub.host
        seen = {fsub.selected}
        limit = budget if budget is not None else 10 * g.n_e ** 2
        steps = 0
        while len(fsub.nontrivial_components) > 1 and steps < limit:
            diminishing, unseen = _two_scans(g, fsub, seen)
            assert find_diminishing_cycle(g, fsub) == diminishing
            move = find_diminishing_cycle(g, fsub, seen)
            assert move == (diminishing or unseen)
            if move is None:
                break
            fsub = apply_interchange(fsub, move)
            seen.add(fsub.selected)
            steps += 1
        assert steps > 0


class TestDirectOrderThree:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_all_edge_counts(self, m):
        # The order-3 input needs no closed form: its family has one non-trivial
        # component, and the merge reads the tour out of it without a move.
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * m)
        assert validate_covering(h, 3).is_covering
        fsub = find_family_subgraph(build_incidence(h))
        assert len(fsub.nontrivial_components) == 1
        stats = MergeStats()
        tour = merge_to_tour(fsub, stats=stats)
        assert verify_euler_object(h, EulerFamily((tour,))).valid
        assert len(tour.edges) == m
        assert stats.steps == 0
