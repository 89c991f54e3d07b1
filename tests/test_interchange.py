"""Interchanging cycles, diminishing-cycle strategies, and the merge loop."""

import hashlib

import pytest

from eulergraph import (
    CertificateViolation,
    EulerFamily,
    FamilySubgraph,
    Hypergraph,
    InterchangeCycle,
    MergeExhaustedError,
    MergeStats,
    Walk,
    apply_interchange,
    build_incidence,
    canonical_closed_trail,
    find_diminishing_cycle,
    find_family_subgraph,
    find_linking_cycle,
    is_interchanging,
    merge_to_tour,
    subgraph_from_trails,
    trails_from_subgraph,
    validate_covering,
    verify_euler_object,
)
from eulergraph import interchange
from eulergraph.genio import Lcg, gen_complete, gen_random_covering, gen_sts
from eulergraph.interchange import (
    _cycle_incidences,
    _nontrivial_count,
    _toggled_rows,
)

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
    def test_true_when_each_e_node_has_one_selected_edge(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        # edges: e1={a,b,c} e2={a,b,d} anchored (a,b); e3={c,d,a} e4={c,d,b} anchored (c,d)
        a, c = h.vertex_index("a"), h.vertex_index("c")
        cycle = (a, g.e_node(0), c, g.e_node(2))
        assert is_interchanging(fsub, cycle)

    def test_false_when_an_e_node_has_two(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        a, b = h.vertex_index("a"), h.vertex_index("b")
        cycle = (a, g.e_node(0), b, g.e_node(1))
        assert not is_interchanging(fsub, cycle)

    def test_not_a_cycle_raises(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        with pytest.raises(ValueError):
            is_interchanging(fsub, (0, g.e_node(0)))
        with pytest.raises(ValueError):
            is_interchanging(fsub, (0, g.e_node(0), 0, g.e_node(1)))
        with pytest.raises(ValueError):
            is_interchanging(fsub, (0, 1, 2, 3))


class TestApplyInterchange:
    def test_involution(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        cycle = InterchangeCycle.from_nodes(
            fsub, (h.vertex_index("a"), g.e_node(0), h.vertex_index("c"), g.e_node(2)))
        once = apply_interchange(fsub, cycle)
        again = apply_interchange(once, InterchangeCycle.from_nodes(once, cycle.nodes))
        assert again.selected == fsub.selected

    def test_crossing_cycle_merges_two_four_cycles(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        assert len(fsub.nontrivial_components) == 2
        cycle = InterchangeCycle.from_nodes(
            fsub, (h.vertex_index("a"), g.e_node(0), h.vertex_index("c"), g.e_node(2)))
        after = apply_interchange(fsub, cycle)
        nontrivial = after.nontrivial_components
        assert len(nontrivial) == 1
        assert len(nontrivial[0].nodes) == 8  # one 8-cycle component

    def test_non_interchanging_rejected(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        cycle = InterchangeCycle.from_nodes(
            fsub, (h.vertex_index("a"), g.e_node(0), h.vertex_index("b"), g.e_node(1)))
        with pytest.raises(CertificateViolation):
            apply_interchange(fsub, cycle)

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
                toggled = fsub.selected ^ _cycle_incidences(g, cyc.nodes)
                assert toggled == after.selected
                assert _nontrivial_count(g, toggled) == len(after.nontrivial_components)
                assert tuple(_toggled_rows(fsub.subgraph_adj, cyc.nodes)) == after.subgraph_adj
                cycles += 1
        assert cycles >= 150
        assert with_isolated >= 10


class TestFindLinkingCycle:
    def test_three_components_one_shot(self):
        h, g, fsub = three_component_instance()
        assert len(fsub.nontrivial_components) == 3
        cycle = find_linking_cycle(g, fsub)
        assert cycle is not None and cycle.interchanging()
        after = apply_interchange(fsub, cycle)
        assert len(after.nontrivial_components) == 1

    def test_four_components_one_shot(self):
        h, g, fsub = grouped_family([("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")])
        cycle = find_linking_cycle(g, fsub)
        after = apply_interchange(fsub, cycle)
        assert len(after.nontrivial_components) == 1

    def test_requires_three_components(self):
        _, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        assert find_linking_cycle(g, fsub) is None

    def test_isolated_vertex_qualifies_as_pick(self):
        # two non-trivial components plus an isolated vertex-node z:
        # three components total, so the linking strategy applies and routes
        # the cycle through z
        h = Hypergraph.from_labels(
            "abcdz",
            [("a", "b", "c"), ("a", "b", "z"), ("a", "c", "d"), ("c", "d", "z")])
        g = build_incidence(h)
        sel = set()
        for eid, pair in enumerate([("a", "b"), ("a", "b"), ("c", "d"), ("c", "d")]):
            sel.add((h.vertex_index(pair[0]), eid))
            sel.add((h.vertex_index(pair[1]), eid))
        fsub = FamilySubgraph(g, frozenset(sel))
        comps = fsub.components
        assert len(comps) == 3
        assert sum(1 for c in comps if c.trivial) == 1
        cycle = find_linking_cycle(g, fsub)
        assert cycle is not None
        assert h.vertex_index("z") in cycle.nodes
        after = apply_interchange(fsub, cycle)
        assert len(after.nontrivial_components) == 1


class TestFindDiminishingCycle:
    def test_two_components_four_cycle(self):
        _, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        cycle = find_diminishing_cycle(g, fsub)
        assert cycle is not None
        after = apply_interchange(fsub, cycle)
        assert len(after.nontrivial_components) == 1

    def test_four_cycle_with_both_edge_nodes_in_one_component(self):
        # the diminishing 4-cycle has both edge-nodes in one component and
        # its second vertex-node in the other
        h = roadmap_item3()
        g = build_incidence(h)
        fsub = find_family_subgraph(g)
        assert len(fsub.nontrivial_components) == 2
        cycle = find_diminishing_cycle(g, fsub)
        assert cycle is not None and len(cycle.nodes) == 4
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

    def test_pivot_override_accepted(self):
        h, _, fsub = three_component_instance()
        tour = merge_to_tour(fsub, pivot="c")
        assert verify_euler_object(h, EulerFamily((tour,))).valid


def _stream_draw(i):
    rng = Lcg(0)
    for _ in range(i):
        random_noncovering(rng)
    return random_noncovering(rng)


def _two_complete_four_three():
    return disjoint_union(gen_complete(4, 3), gen_complete(4, 3))


def _covering_plus_complete_four_three():
    return disjoint_union(gen_random_covering(5, 3, 1), gen_complete(4, 3))


class TestLadderTrajectories:
    """Rung counts and final certificates of merges without a tour, pinned.

    The values come from the certificate-rebuilding scorer; scoring on the
    toggled selection must take the same moves in the same order.  Every
    rung fires across these inputs.  The digest is the SHA-256 of
    ``repr(sorted(MergeExhaustedError.selected))``.
    """

    @pytest.mark.parametrize("make, budget, counts, reason, digest", [
        (_two_complete_four_three, None, (70, 27, 0, 30, 13), "no-move",
         "53b8225dab5bf37798679aec363d5d8caf3de16121a27e21f783d5d93296c52f"),
        (_two_complete_four_three, 40, (40, 16, 0, 17, 7), "budget",
         "cbaa5fc8d7ae189d8ddeaf20e0d44c1deb2bbce759b4e0ed074e26a15ee8f3ab"),
        (lambda: _stream_draw(20), None, (25, 0, 3, 14, 8), "no-move",
         "2922e4a624c84cbaad29ecd9f39794044021ddae3d147ae1cbc5e85cab19e537"),
        (lambda: _stream_draw(43), None, (3, 1, 1, 0, 1), "no-move",
         "4a153a187db63bb2b49b0b0aa093e0466c51b8fbc7f5f205e143e59c0edf7b22"),
        (_covering_plus_complete_four_three, None, (265, 25, 6, 212, 22), "no-move",
         "e77b6f8dc607f7b1391d61053f085cc78550d020b1d41192c4cd07af197ae1da"),
    ], ids=["complete43x2", "complete43x2-budget40", "draw20", "draw43", "covering531+complete43"])
    def test_pinned_trajectory(self, make, budget, counts, reason, digest):
        fsub = find_family_subgraph(build_incidence(make()))
        stats = MergeStats()
        with pytest.raises(MergeExhaustedError) as exc:
            merge_to_tour(fsub, budget=budget, stats=stats)
        assert (stats.steps, stats.diminishing, stats.pivot_reduce, stats.pivot_neutral,
                stats.escapes) == counts
        assert exc.value.reason == reason
        assert hashlib.sha256(repr(sorted(exc.value.selected)).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "make", [_two_complete_four_three, _covering_plus_complete_four_three],
        ids=["complete43x2", "covering531+complete43"])
    def test_memoised_lookahead_facts_belong_to_the_selection(self, monkeypatch, make):
        # every memo entry the merge leaves must equal the facts recomputed
        # from a certificate built on that selection
        calls = []
        real = interchange._neutral_pivot_cycle

        def spy(g, fsub, v0, seen, memo):
            calls.append((g, v0, memo))
            return real(g, fsub, v0, seen, memo)

        monkeypatch.setattr(interchange, "_neutral_pivot_cycle", spy)
        fsub = find_family_subgraph(build_incidence(make()))
        with pytest.raises(MergeExhaustedError):
            merge_to_tour(fsub)
        g, v0, memo = calls[0]
        assert all(c[2] is memo for c in calls)
        looked_ahead = 0
        for sel, (count, opens) in memo.items():
            nxt = FamilySubgraph(g, sel)
            assert count == len(nxt.nontrivial_components)
            if opens is not None:
                looked_ahead += 1
                assert opens == (
                    interchange._reducing_pivot_cycle(g, nxt, v0, frozenset()) is not None)
        assert looked_ahead >= 5


class TestPivotStage:
    """The merge loop's fallback searches, exercised directly.

    Desk-scale covering instances resolve through diminishing cycles alone,
    so these stages rarely run inside merge_to_tour; they still need to
    behave when called.
    """

    def test_reducing_cycle_drops_pivot_degree_by_two(self):
        from eulergraph.genio import gen_random_covering
        from eulergraph.interchange import _reducing_pivot_cycle

        h = gen_random_covering(6, 3, 1)
        g = build_incidence(h)
        fsub = find_family_subgraph(g)
        v0 = 0
        cycle = _reducing_pivot_cycle(g, fsub, v0, {fsub.selected})
        assert cycle is not None and cycle.nodes[0] == v0
        before = len(fsub.subgraph_adj[v0])
        after = apply_interchange(fsub, cycle)
        assert len(after.subgraph_adj[v0]) == before - 2

    def test_reducing_cycle_skips_seen_certificates(self):
        from eulergraph.genio import gen_random_covering
        from eulergraph.interchange import _reducing_pivot_cycle

        h = gen_random_covering(6, 3, 1)
        fsub = find_family_subgraph(build_incidence(h))
        first = _reducing_pivot_cycle(fsub.host, fsub, 0, {fsub.selected})
        seen = {fsub.selected, apply_interchange(fsub, first).selected}
        second = _reducing_pivot_cycle(fsub.host, fsub, 0, seen)
        assert second is not None and second.nodes[0] == 0
        assert apply_interchange(fsub, second).selected not in seen

    def test_neutral_cycle_keeps_pivot_degree(self):
        from eulergraph.interchange import _neutral_pivot_cycle

        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        seen = {fsub.selected}
        cycle = _neutral_pivot_cycle(g, fsub, 0, seen, {})
        assert cycle is not None
        after = apply_interchange(fsub, cycle)
        assert len(after.subgraph_adj[0]) == len(fsub.subgraph_adj[0])
        assert after.selected not in seen

    @pytest.mark.parametrize("v0", [4, 6])
    def test_neutral_lookahead_reads_the_toggled_selection(self, v0):
        # on this draw the lookahead's answer after the neutral move differs
        # from the answer on the certificate before it
        from eulergraph.interchange import _neutral_pivot_cycle, _reducing_pivot_cycle

        fsub = find_family_subgraph(build_incidence(_stream_draw(270)))
        g = fsub.host
        memo = {}
        _neutral_pivot_cycle(g, fsub, v0, {fsub.selected}, memo)
        before = _reducing_pivot_cycle(g, fsub, v0, frozenset()) is not None
        looked_ahead = [(sel, opens) for sel, (_, opens) in memo.items() if opens is not None]
        assert any(opens != before for _, opens in looked_ahead)
        for sel, opens in looked_ahead:
            nxt = FamilySubgraph(g, sel)
            assert opens == (_reducing_pivot_cycle(g, nxt, v0, frozenset()) is not None)

    def test_any_unseen_move_respects_seen_set(self):
        from eulergraph.interchange import _any_unseen_move

        h, g, fsub = grouped_family([("a", "b"), ("c", "d")])
        seen = {fsub.selected}
        move = _any_unseen_move(g, fsub, seen)
        assert move is not None
        first = apply_interchange(fsub, move)
        assert first.selected not in seen
        seen.add(first.selected)
        move2 = _any_unseen_move(g, fsub, seen)
        assert move2 is not None
        assert apply_interchange(fsub, move2).selected not in seen


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
        tour = merge_to_tour(fsub, stats=stats, covering=True)
        assert verify_euler_object(h, EulerFamily((tour,))).valid
        assert len(tour.edges) == m
        assert stats.steps == 0
