"""Arity reduction and the end-to-end solve pipeline."""

import hashlib
import sys

import pytest

from eulergraph import (
    CertificateViolation,
    EulerFamily,
    Hypergraph,
    MergeExhaustedError,
    MergeStats,
    build_incidence,
    certified_family,
    find_family_subgraph,
    merge_to_tour,
    solve,
    trails_from_subgraph,
    validate_covering,
    verify_euler_object,
)
from eulergraph import interchange, solver
from eulergraph.genio import (
    Lcg,
    format_walk_line,
    gen_complete,
    gen_random_covering,
    gen_sts,
    parse_hg,
)
from eulergraph.oracle import brute_tour
from eulergraph.solver import _reduce_to_order3

from helpers import (
    TOUR_DEPENDS_ON_FAMILY,
    disjoint_union,
    fano,
    grouped_family,
    random_noncovering,
    roadmap_item3,
    swap_one_anchor,
)

# A non-covering input with a family and no tour.  Unless the merge skips
# moves back to certificates it has seen, a move here that undoes the
# diminishing move before it repeats until the step budget runs out.
NO_TOUR_REVISIT_LOOP = (
    "hg 0 10 7\n"
    + "".join(f"v v{i}\n" for i in (1, 10, 2, 3, 4, 5, 6, 7, 8, 9))
    + "e v10 v5 v9\ne v10 v2 v8\ne v3 v4 v5\ne v3 v8\n"
    + "e v5 v6 v9\ne v1 v4 v7 v8\ne v10 v2 v8\n")


def family_only() -> Hypergraph:
    """Two disjoint repeated triples: a two-trail family and no tour."""
    return Hypergraph.from_labels(
        "abpcdq", [("a", "b", "p"), ("a", "b", "p"), ("c", "d", "q"), ("c", "d", "q")])


def one_component() -> Hypergraph:
    """Two triples sharing a and b: the family is already a tour."""
    return Hypergraph.from_labels("abcd", [("a", "b", "c"), ("a", "b", "d")])


def small_multiset(rng: Lcg) -> Hypergraph:
    """A 3-uniform multiset on 4..7 vertices with 2..8 edges, about one edge in four a repeat."""
    n = 4 + rng.below(4)
    m = 2 + rng.below(7)
    labels = [f"v{i}" for i in range(n)]
    edges = []
    for _ in range(m):
        if edges and rng.below(4) == 0:
            edges.append(edges[rng.below(len(edges))])
        else:
            order = list(range(n))
            rng.shuffle(order)
            edges.append(tuple(labels[i] for i in sorted(order[:3])))
    return Hypergraph.from_labels(labels, edges)


class TestReduceOrder:
    def test_complete_6_4(self):
        h = gen_complete(6, 4)
        reduced, deleted = _reduce_to_order3(h, 4)
        assert reduced.order == 5 and len(reduced.edges) == 15
        assert validate_covering(reduced, 3)
        assert deleted == ("v1",)

    def test_every_edge_contains_deleted_vertex(self):
        h = Hypergraph.from_labels(
            "abcde",
            [("a", "b", "c", "d"), ("a", "b", "c", "e"),
             ("a", "b", "d", "e"), ("a", "c", "d", "e")])
        assert validate_covering(h, 4)
        reduced, deleted = _reduce_to_order3(h, 4)
        assert deleted == ("a",)
        assert all(reduced.edge_labels(j) == h.edge_labels(j)[1:] for j in range(4))

    def test_dropped_vertices_lexicographic(self):
        # v1 then v2 are deleted; an edge missing one loses its smallest label instead
        h = gen_complete(7, 5)
        reduced, deleted = _reduce_to_order3(h, 5)
        assert deleted == ("v1", "v2")
        for j in range(len(h.edges)):
            assert reduced.edge_labels(j) == h.edge_labels(j)[2:]

    def test_edge_map_is_bijection(self):
        # edge ids survive: reduced edge j is a proper subset of original edge j
        h = gen_complete(7, 4)
        reduced, _ = _reduce_to_order3(h, 4)
        assert len(reduced.edges) == len(h.edges)
        assert all(set(reduced.edge_labels(j)) < set(h.edge_labels(j))
                   for j in range(len(h.edges)))

    def test_no_layer_at_arity_three(self):
        assert solve(fano(), 3).reductions == ()

    def test_non_covering_input_not_reduced(self):
        h = Hypergraph.from_labels("abcde", [("a", "b", "c", "d")] * 2)
        res = solve(h, 4)
        assert res.verdict == "eulerian" and res.reductions == ()


class TestLiftTour:
    def test_edge_relabel_round_trip(self):
        # the lift is the identity: a tour of the reduced hypergraph is a tour of h
        h = gen_complete(6, 4)
        reduced, _ = _reduce_to_order3(h, 4)
        tour = solve(reduced, 3).tour
        assert verify_euler_object(h, EulerFamily((tour,))) == ()
        assert solve(h, 4).tour == tour


class TestSolve:
    def test_fano_eulerian(self):
        res = solve(fano(), 3)
        assert res.verdict == "eulerian"
        assert res.family == EulerFamily((res.tour,))
        assert len(res.tour.edges) == 7
        # independent re-verification
        assert verify_euler_object(fano(), res.family) == ()

    @pytest.mark.parametrize("k,labels", [(3, "abc"), (4, "abcd"), (5, "abcde")])
    def test_single_edge_neither(self, k, labels):
        h = Hypergraph.from_labels(labels, [tuple(labels)])
        assert solve(h, k).verdict == "neither"

    def test_empty_hypergraph_vacuously_eulerian(self):
        h = Hypergraph.from_labels("ab", [])
        res = solve(h, 3)
        assert res.verdict == "eulerian" and res.tour is None
        assert res.family == EulerFamily(()) and verify_euler_object(h, res.family) == ()

    def test_complete_6_4_via_reduction(self):
        h = gen_complete(6, 4)
        res = solve(h, 4)
        assert res.verdict == "eulerian" and verify_euler_object(h, res.family) == ()
        assert len(res.reductions) == 1
        assert len(res.tour.edges) == 15

    def test_complete_7_5_two_layers(self):
        h = gen_complete(7, 5)
        res = solve(h, 5)
        assert res.verdict == "eulerian" and verify_euler_object(h, res.family) == ()
        assert len(res.reductions) == 2
        assert len(res.tour.edges) == 21

    def test_order3_direct(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 5)
        stats = MergeStats()
        res = solve(h, 3, stats=stats)
        assert res.verdict == "eulerian" and verify_euler_object(h, res.family) == ()
        assert stats.steps == 0

    @pytest.mark.parametrize("k, m", [(k, m) for k in (3, 4, 5) for m in range(2, 8)])
    def test_one_edge_repeated(self, k, m):
        # One k-vertex edge repeated m times reduces to order 3, where a family
        # has at most one non-trivial component: the merge returns at once.
        labels = "abcde"[:k]
        h = Hypergraph.from_labels(labels, [tuple(labels)] * m)
        stats = MergeStats()
        res = solve(h, k, stats=stats)
        assert res.verdict == "eulerian" and res.family == EulerFamily((res.tour,))
        assert len(res.tour.edges) == m
        assert verify_euler_object(h, res.family) == ()
        assert stats.steps == 0

    def test_non_covering_quasi_exact_negative(self):
        # two edges meeting in one vertex: any anchor choice leaves odd parity
        h = Hypergraph.from_labels("abcde", [("a", "b", "c"), ("a", "d", "e")])
        res = solve(h, 3)
        assert res.verdict == "neither"
        assert res.tour is None and res.family is None

    def test_non_covering_tour_found(self):
        h = one_component()
        res = solve(h, 3)
        assert res.verdict == "eulerian" and verify_euler_object(h, res.family) == ()

    def test_non_covering_disconnected_family_only(self):
        h = family_only()
        res = solve(h, 3)
        assert res.verdict == "not-covering-best-effort"
        assert res.tour is None
        assert len(res.family.components) == 2
        assert verify_euler_object(h, res.family) == ()  # the family itself is certified

    def test_budget_propagates(self):
        # covering instance whose matching-produced family starts with two
        # components, so the merge loop must take at least one step
        h = gen_random_covering(5, 3, 21)
        stats = MergeStats()
        assert solve(h, 3, stats=stats).verdict == "eulerian"
        assert stats.steps >= 1
        with pytest.raises(MergeExhaustedError):
            solve(h, 3, budget=0)

    def test_shared_stats_budget_counts_each_call(self):
        # the fields accumulate across calls, but each merge's budget starts
        # from what stats.steps held on entry; a fresh MergeStats per call
        # counts that call's steps alone
        union = disjoint_union(gen_random_covering(5, 3, 1), gen_complete(4, 3))
        covering = gen_random_covering(5, 3, 21)
        for h, verdict, steps in ((union, "not-covering-best-effort", 277),
                                  (covering, "eulerian", 1)):
            own = MergeStats()
            assert solve(h, 3, stats=own).verdict == verdict
            assert own.steps == steps
        stats = MergeStats()
        for total in (277, 554):
            assert solve(union, 3, stats=stats).verdict == "not-covering-best-effort"
            assert stats.steps == total
        assert solve(covering, 3, stats=stats).verdict == "eulerian"
        assert stats.steps == 555
        fsub = find_family_subgraph(build_incidence(union))
        with pytest.raises(MergeExhaustedError) as exc:
            merge_to_tour(fsub, budget=40, stats=stats)
        assert (exc.value.reason, exc.value.steps, stats.steps) == ("budget", 40, 595)

    def test_shared_stats_budget_on_one_piece(self):
        # The same rules on an input whose edges form one piece and which has
        # a family but no tour (draw 20 of Lcg(0)): its merge ends no-move
        # after 27 steps, so a budget of 20 cuts every call, whatever
        # stats.steps held on entry.
        rng = Lcg(0)
        for _ in range(20):
            random_noncovering(rng)
        h = random_noncovering(rng)
        piece = set(h.edges[0])
        for _ in h.edges:
            piece |= set().union(*(e for e in h.edges if e & piece))
        assert all(e <= piece for e in h.edges)
        assert brute_tour(h) is None
        own = MergeStats()
        assert solve(h, 3, stats=own).verdict == "not-covering-best-effort"
        assert own.steps == 27
        stats = MergeStats()
        for total in (27, 54):
            assert solve(h, 3, stats=stats).verdict == "not-covering-best-effort"
            assert stats.steps == total
        for total in (74, 94):
            assert solve(h, 3, budget=20, stats=stats).verdict == "not-covering-best-effort"
            assert stats.steps == total
        fsub = find_family_subgraph(build_incidence(h))
        with pytest.raises(MergeExhaustedError) as exc:
            merge_to_tour(fsub, budget=20, stats=stats)
        assert (exc.value.reason, exc.value.steps, stats.steps) == ("budget", 20, 114)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            solve(gen_random_covering(5, 3, 17), 3, budget=-1)

    def test_four_cycle_inside_one_component_merges(self):
        h = roadmap_item3()
        res = solve(h, 3)
        assert res.verdict == "eulerian"
        assert verify_euler_object(h, EulerFamily((res.tour,))) == ()

    def test_no_tour_pivot_moves_never_revisit(self):
        h, _ = parse_hg(NO_TOUR_REVISIT_LOOP)
        stats = MergeStats()
        res = solve(h, 3, stats=stats)
        assert res.verdict == "not-covering-best-effort"
        assert res.family is not None and verify_euler_object(h, res.family) == ()
        assert stats.steps < 10

    def test_tour_that_depends_on_the_family_found(self):
        h, _ = parse_hg(TOUR_DEPENDS_ON_FAMILY)
        assert brute_tour(h) is not None
        res = solve(h, 3)
        assert res.verdict == "eulerian" and res.family == EulerFamily((res.tour,))
        assert verify_euler_object(h, res.family) == ()

    def test_tour_found_iff_brute_force_finds_one(self):
        rng = Lcg(3)
        missed, overclaimed = [], []
        for i in range(2000):
            h = small_multiset(rng)
            has_tour = brute_tour(h) is not None
            res = solve(h, 3)
            found = res.verdict == "eulerian"
            if found:
                assert verify_euler_object(h, EulerFamily((res.tour,))) == ()
            if has_tour and not found:
                missed.append(i)
            if found and not has_tour:
                overclaimed.append(i)
        assert missed == [] and overclaimed == []

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError):
            solve(fano(), 2)

    def test_deterministic_certificates(self):
        for n, k, seed in ((6, 3, 9), (7, 3, 2), (6, 4, 5)):
            h = gen_random_covering(n, k, seed)
            a = solve(h, k)
            b = solve(h, k)
            assert format_walk_line(a.tour) == format_walk_line(b.tour)

    def test_steps_recorded(self):
        from helpers import grouped_family

        # a fresh MergeStats per call records that call's steps, the same
        # count on every call, each step diminishing or an escape
        grouped, _, _ = grouped_family([("a", "b"), ("c", "d"), ("e", "f")])
        for h, steps in ((grouped, 0), (gen_random_covering(5, 3, 21), 1)):
            for _ in range(2):
                stats = MergeStats()
                assert solve(h, 3, stats=stats).verdict == "eulerian"
                assert stats.steps == stats.diminishing + stats.escapes == steps

    def test_verdict_never_overclaims(self):
        # every eulerian verdict carries a verified tour
        for seed in range(1, 20):
            h = gen_random_covering(5, 3, seed)
            res = solve(h, 3)
            assert res.verdict == "eulerian"
            assert verify_euler_object(h, EulerFamily((res.tour,))) == ()


class TestBoundaryVerify:
    """Interior steps are not re-verified; the check where solve returns catches their faults."""

    def corrupt(self, monkeypatch, module, h):
        real = module.trails_from_subgraph
        monkeypatch.setattr(module, "trails_from_subgraph",
                            lambda fsub: swap_one_anchor(h, real(fsub)))

    def count_verifies(self, monkeypatch) -> list[EulerFamily]:
        """Route every package call of ``verify_euler_object`` through a recorder."""
        calls = []
        real = verify_euler_object

        def counting(host, fam):
            calls.append(fam)
            return real(host, fam)

        for name, mod in list(sys.modules.items()):
            if name.startswith("eulergraph") and hasattr(mod, "verify_euler_object"):
                monkeypatch.setattr(mod, "verify_euler_object", counting)
        return calls

    def test_corrupt_family_on_non_covering_input_raises(self, monkeypatch):
        # the one-component family is read out by the merge's own exit
        h = one_component()
        assert len(solve(h, 3).family.components) == 1
        self.corrupt(monkeypatch, interchange, h)
        with pytest.raises(CertificateViolation):
            solve(h, 3)

    def test_corrupt_family_only_output_raises(self, monkeypatch):
        h = family_only()
        assert solve(h, 3).verdict == "not-covering-best-effort"
        self.corrupt(monkeypatch, solver, h)
        with pytest.raises(CertificateViolation):
            solve(h, 3)

    @pytest.mark.parametrize("make", [fano, lambda: gen_random_covering(5, 3, 21)],
                             ids=["tour-at-once", "merged"])
    def test_corrupt_merge_output_on_covering_input_raises(self, monkeypatch, make):
        h = make()
        self.corrupt(monkeypatch, interchange, h)
        with pytest.raises(CertificateViolation):
            solve(h, 3)

    @pytest.mark.parametrize("make", [fano, lambda: gen_random_covering(5, 3, 21)],
                             ids=["tour-at-once", "merged"])
    def test_covering_solve_verifies_once(self, monkeypatch, make):
        h = make()
        calls = self.count_verifies(monkeypatch)
        res = solve(h, 3)
        assert res.verdict == "eulerian" and verify_euler_object(h, res.family) == ()
        assert calls == [EulerFamily((res.tour,))]

    @pytest.mark.parametrize("make, verdict", [
        (one_component, "eulerian"),
        (roadmap_item3, "eulerian"),
        (family_only, "not-covering-best-effort"),
        (lambda: Hypergraph.from_labels("ab", []), "eulerian"),
    ], ids=["one-component", "merged", "family-only", "empty"])
    def test_non_covering_solve_verifies_once(self, monkeypatch, make, verdict):
        h = make()
        assert not validate_covering(h, 3)
        calls = self.count_verifies(monkeypatch)
        res = solve(h, 3)
        assert res.verdict == verdict and verify_euler_object(h, res.family) == ()
        assert calls == [res.family]

    def test_covering_decided_once(self, monkeypatch):
        # solve tells the merge that the input is covering; the merge does not
        # check again
        h = gen_random_covering(5, 3, 21)
        calls = []
        real = validate_covering

        def counting(host, kk):
            calls.append(kk)
            return real(host, kk)

        for name, mod in list(sys.modules.items()):
            if name.startswith("eulergraph") and hasattr(mod, "validate_covering"):
                monkeypatch.setattr(mod, "validate_covering", counting)
        stats = MergeStats()
        res = solve(h, 3, stats=stats)
        assert res.verdict == "eulerian" and stats.steps >= 1
        assert calls == [3]


class TestGoldenCertificates:
    """``solve``'s certificates are pinned byte for byte; a change to them is deliberate."""

    @pytest.mark.parametrize("make, k, digest", [
        (lambda: gen_sts(19), 3,
         "93f2cec7943e7204aa685c739368c686a21f9143d0560bf1dd0a8d4c8b5a7088"),
        (lambda: gen_sts(45), 3,
         "1acd44cb07c7ee96c858642f285f86bf1d51d674f3c79c3602f19b5f43e9dcd9"),
        (lambda: gen_complete(13, 3), 3,
         "66583d51fdf8e6d11b86b2359ba31de2f3ac863c7a3ee88cc1471ca82b8c85c5"),
        (lambda: gen_complete(10, 5), 5,
         "409f3f21d360d55b1aee0dfa385537978ba7f44f028c98c1c5dc69c72b05d7d9"),
        (lambda: gen_random_covering(22, 3, 1), 3,
         "97da5b3e085fe707377d0fd9ce4bca4a7c262188a61c7d13d9a12f893f757c58"),
        (roadmap_item3, 3,
         "7f57701c7c87780416e566506039af868183c2d2d53141d04f6b213931bf01c0"),
        # Vertex cliques of 406 and 75 stubs, beyond the bench's largest (126).
        (lambda: gen_complete(30, 3), 3,
         "c782498df94e5a8fb80bb9b7350a41f7ac037e89c69ab7b104b60324224e63ae"),
        (lambda: gen_sts(151), 3,
         "e4dfe6f703ae352e1afcd6aa844669298118e76cb7e6a5dee173bc8df9f2f6cd"),
    ], ids=["sts19", "sts45", "complete13-3", "complete10-5", "random22-3-1", "roadmap-item3",
            "complete30-3", "sts151"])
    def test_tour_digest(self, make, k, digest):
        res = solve(make(), k)
        assert res.verdict == "eulerian"
        line = format_walk_line(res.tour) + "\n"
        assert hashlib.sha256(line.encode()).hexdigest() == digest


def _family_lines(fam) -> str:
    return "".join(format_walk_line(w) + "\n" for w in fam.components) + "\n"


def _grouped():
    """A covering 3-hypergraph with a certificate of three trails."""
    return grouped_family([("a", "b", "c"), ("d", "e", "f"), ("g", "h", "i")])


def _random_with_family(count: int):
    rng = Lcg(3)
    out = []
    while len(out) < count:
        h = random_noncovering(rng)
        if certified_family(h) is not None:
            out.append(h)
    return out


class TestGoldenFamilies:
    """Family certificates are pinned byte for byte too: the canonical start of
    each trail and the order of the trails in a family."""

    @pytest.mark.parametrize("make, digest", [
        (lambda: [disjoint_union(gen_complete(4, 3), gen_complete(4, 3))],
         "aafc30a36ab728c756b3d2da71c9311d804fae766e89650229388e298cc0afa3"),
        (lambda: [disjoint_union(gen_sts(7), gen_complete(4, 3))],
         "d3924bd28f211ec5705eff823caf3f6b01a88d6de05a76a6a817524498f34300"),
        (lambda: [_grouped()[0]],
         "22a438be194ddec545df75eadff0eab9f9c5f2368c89cdeca30ee196b4bc13d4"),
        (lambda: _random_with_family(40),
         "3903473d8ddcc1c5873cb88076bb3c9571a2f057e41f8bbe9c8ce51d34352515"),
    ], ids=["complete4-3-twice", "sts7-and-complete4-3", "grouped-3x3", "random-noncovering"])
    def test_family_digest(self, make, digest):
        text = ""
        for h in make():
            text += _family_lines(certified_family(h))
            res = solve(h, 3)
            text += _family_lines(res.family) if res.family is not None else "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_grouped_trails_digest(self):
        text = _family_lines(trails_from_subgraph(_grouped()[2]))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8eb5d6ff5e20723b8e6f58a6bfa033ed80305a5b8ad460d63376747d108558ca")
