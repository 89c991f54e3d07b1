"""Blossom matching kernel and the degree-prescription gadget."""

from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from eulergraph import (
    FamilySubgraph,
    Hypergraph,
    brute_family_exists,
    build_incidence,
    find_family_subgraph,
    matching,
    max_matching,
    reduce_to_matching,
)
from eulergraph.family import _forced_anchors
from eulergraph.genio import Lcg, gen_complete, gen_random_covering, gen_sts, parse_hg
from eulergraph.matching import _augment_from
from eulergraph.solver import _reduce_to_order3

from helpers import (
    MATCHING_ONLY_NEITHER,
    brute_max_matching,
    complete_graph,
    fano,
    flat_gadget,
    greedy_seed,
    incidences,
    matching_size,
    petersen,
    random_graph,
    random_mixed,
    random_noncovering,
    reference_gadget_adj,
    reference_max_matching,
)


def open_gadget(g):
    """The gadget with every incidence undecided."""
    return reduce_to_matching(g, [-1] * len(g.incidences))


class TestMaxMatching:
    def test_triangle(self):
        adj = complete_graph(3)
        assert matching_size(adj, max_matching(flat_gadget(adj))) == 1

    def test_k4_perfect(self):
        adj = complete_graph(4)
        assert max_matching(flat_gadget(adj)) == [1, 0, 3, 2]
        assert matching_size(adj, max_matching(flat_gadget(adj))) == 2

    def test_petersen_perfect(self):
        adj = petersen()
        assert matching_size(adj, max_matching(flat_gadget(adj))) == 5

    def test_empty_graph(self):
        assert max_matching(flat_gadget(((), (), ()))) == [-1, -1, -1]
        assert max_matching(flat_gadget(())) == []

    def test_matching_is_disjoint(self):
        rng = Lcg(23)
        for _ in range(40):
            adj = random_graph(rng, 4 + rng.below(9), 15 + rng.below(60))
            matching_size(adj, max_matching(flat_gadget(adj)))

    def test_against_exhaustive_on_random_graphs(self):
        rng = Lcg(29)
        for _ in range(120):
            n = 3 + rng.below(12)
            adj = random_graph(rng, n, 10 + rng.below(70))
            assert matching_size(adj, max_matching(flat_gadget(adj))) == brute_max_matching(adj)

    def test_deterministic(self):
        rng = Lcg(31)
        adj = random_graph(rng, 12, 40)
        mate = max_matching(flat_gadget(adj))
        matching_size(adj, mate)
        assert mate == max_matching(flat_gadget(adj))

    def test_same_pairs_as_full_rescan_kernel_on_random_graphs(self):
        rng = Lcg(43)
        graphs = [random_graph(rng, n, density_pct)
                  for n in range(20, 121, 20) for density_pct in (4, 10, 25, 60)]
        # Small dense draws: the root often lies in a triangle with its first
        # neighbour and that neighbour's mate, so blossoms close early.
        rng = Lcg(97)
        graphs += [random_graph(rng, 2 + rng.below(30), 30 + rng.below(71)) for _ in range(400)]
        # The same kinds of draw with each row shuffled: the contract allows
        # symmetric rows in any order, while the draws above and every gadget
        # list each row in ascending order.
        rng = Lcg(101)
        for _ in range(300):
            rows = [list(row) for row in random_graph(rng, 2 + rng.below(40), 10 + rng.below(91))]
            for row in rows:
                rng.shuffle(row)
            graphs.append(tuple(map(tuple, rows)))
        for adj in graphs:
            mate = max_matching(flat_gadget(adj))
            matching_size(adj, mate)
            assert mate == reference_max_matching(adj)

    def test_same_pairs_as_full_rescan_kernel_on_gadgets(self):
        # The gadgets find_family_subgraph builds over the forced anchors:
        # covering 3-uniform inputs (open gadgets, near-perfect, whose clique
        # rows nest blossoms deeply), arity 4 to 6 coverings reduced to arity
        # 3 as tour-k45 runs them, non-covering and mixed-arity draws as
        # best-effort runs them, and inputs whose gadget has no perfect
        # matching, where the exposed nodes must agree too.
        hs = [gen_sts(27), gen_sts(31)]
        hs += [gen_random_covering(n, 3, seed) for n in range(14, 23) for seed in range(1, 7)]
        hs += [_reduce_to_order3(gen_random_covering(n, k, seed), k)[0]
               for k, n in ((4, 7), (4, 12), (5, 8), (5, 11), (6, 9), (6, 10))
               for seed in range(1, 4)]
        # Dense reduced coverings: nearly every blossom is a triangle closed
        # below the scanning node.
        hs += [_reduce_to_order3(gen_complete(n, k), k)[0] for n, k in ((8, 5), (9, 4))]
        rng_noncovering, rng_mixed = Lcg(53), Lcg(59)
        hs += [random_noncovering(rng_noncovering) for _ in range(150)]
        hs += [random_mixed(rng_mixed) for _ in range(150)]
        hs += [parse_hg(text)[0] for text in MATCHING_ONLY_NEITHER.values()]
        seen = Counter()
        gadgets = []
        for h in hs:
            g = build_incidence(h)
            state = _forced_anchors(g)
            if state is None:
                seen["refuted"] += 1
                continue
            gadgets.append(reduce_to_matching(g, state))
            seen["decided" if max(state) >= 0 else "open"] += 1
        # Drawn states, which the propagation never leaves: vertices with one
        # stub, forced-odd vertices with no stub (a dummy with an empty row),
        # and edges that still need 0, 1 or 2 anchors from their stubs.
        rng = Lcg(61)
        for _ in range(300):
            g = build_incidence(random_mixed(rng))
            state = drawn_state(rng, g)
            gg = reduce_to_matching(g, state)
            gadgets.append(gg)
            stubs = Counter(v for (v, _), s in zip(g.incidences, state) if s < 0)
            forced = Counter(v for (v, _), s in zip(g.incidences, state) if s == 1)
            seen["single-stub"] += 1 in stubs.values()
            seen["stubless-dummy"] += any(forced[v] % 2 and not stubs[v] for v in range(g.n_v))
            for j in range(g.n_e):
                decided = state[g.first[j]:g.first[j + 1]]
                if -1 in decided:
                    seen[f"needs-{2 - decided.count(1)}"] += 1
        for gg in gadgets:
            adj = gg.adj
            mate = max_matching(gg)
            matching_size(adj, mate)
            assert mate == max_matching(flat_gadget(adj, gg.seed)) == reference_max_matching(
                adj, gg.seed)
            # The seed is a maximal matching; with no edge that seeds its cores
            # first, the greedy one in node order.
            matching_size(adj, gg.seed)
            assert not any(gg.seed[v] == -1 and any(gg.seed[x] == -1 for x in row)
                           for v, row in enumerate(adj))
            cores_first = seeds_cores_first(gg)
            assert cores_first or list(gg.seed) == greedy_seed(adj)
            seen["cores-first" if cores_first else "greedy"] += 1
            seen["perfect" if -1 not in mate else "exposed"] += 1
        kinds = ("refuted", "decided", "open", "perfect", "exposed", "single-stub",
                 "stubless-dummy", "needs-0", "needs-1", "needs-2", "cores-first", "greedy")
        assert all(seen[k] for k in kinds), seen

    @staticmethod
    def _count_searches(monkeypatch):
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return _augment_from(*args)

        monkeypatch.setattr(matching, "_augment_from", counted)
        return calls

    @pytest.mark.parametrize("h, searches", [
        (gen_sts(45), 165),
        (gen_complete(13, 3), 143),
    ], ids=["sts45", "complete13"])
    def test_searches_left_on_open_gadgets(self, h, searches, monkeypatch):
        # The seed leaves 330 and 286 exposed nodes, each edge's core or the
        # odd stub that found it taken; every search augments and matches two.
        gg = open_gadget(build_incidence(h))
        calls = self._count_searches(monkeypatch)
        mate = max_matching(gg)
        assert calls[0] == searches == gg.seed.count(-1) // 2
        assert -1 not in mate
        # The flat rows, seeded by scanning them, take the same searches.
        assert max_matching(flat_gadget(gg.adj)) == mate == reference_max_matching(gg.adj)
        assert calls[0] == 2 * searches

    def test_wide_edges_start_perfect(self, monkeypatch):
        # An edge with more cores than anchors to find seeds its cores first:
        # two copies of a 2,000-vertex edge start from a perfect seed, where
        # pairing each vertex's two stubs would leave all 3,996 cores exposed
        # and a search from each, in time cubic in the edge size.
        gg = open_gadget(build_incidence(two_wide_edges(2000)))
        calls = self._count_searches(monkeypatch)
        assert -1 not in gg.seed
        assert max_matching(gg) == list(gg.seed)
        assert calls[0] == 0

    def test_search_leaves_its_state_reset(self):
        cases = (
            # Triangle 0-1-2 (1-2 matched) with pendant 3, and triangle 4-5-6
            # (5-6 matched).  The search from 0 contracts {0, 1, 2} and
            # augments to 3; the search from 4 contracts {4, 5, 6} and finds
            # no path.
            (((1, 2), (0, 2), (0, 1, 3), (2,), (5, 6), (4, 6), (4, 5)),
             [-1, 2, 1, -1, -1, 6, 5],
             ((0, True, [1, 0, 3, 2, -1, 6, 5]), (4, False, [1, 0, 3, 2, -1, 6, 5]))),
            # Nested blossoms, matched 0-4, 1-3 and 2-7.  The search from 5
            # contracts the triangle 4-2-7 into base 4, then the odd cycle
            # 5-1=3-7=2-4=0-5, which holds that blossom, into base 5, and
            # augments along 5-1=3-7=2-4=0-6.
            (((4, 5, 6), (3, 5), (4, 7), (1, 7), (0, 2, 7), (0, 1), (0,), (2, 3, 4)),
             [4, 3, 7, 1, 0, -1, -1, 2],
             ((5, True, [6, 5, 4, 7, 2, 1, 0, 3]),)),
            # A triangle below a non-root even node, matched 1-2 and 3-4.
            # The search from 0 grows 1, then 2 grows 3 and meets 4, the
            # mate it just queued: the triangle 2-3=4-2 contracts into base
            # 2, and 3 augments to 5 along 0-1=2-4=3-5.
            (((1,), (0, 2), (1, 3, 4), (2, 4, 5), (2, 3), (3,)),
             [-1, 2, 1, 4, 3, -1],
             ((0, True, [1, 0, 4, 5, 2, 3]),)),
        )
        for adj, mate, searches in cases:
            n = len(adj)
            reset = ([False] * n, [-1] * n, list(range(n)), [0] * n)
            used, parent, base, stamp = scratch = tuple(map(list, reset))
            rows = [(row,) for row in adj]
            for root, found, after in searches:
                assert _augment_from(rows, mate, root, used, parent, base, stamp) is found
                assert mate == after
                assert scratch == reset


def seeds_cores_first(gg):
    """Whether some edge of the gadget has more cores than anchors to find."""
    g, state = gg.host, gg.state
    for j in range(g.n_e):
        decided = state[g.first[j]:g.first[j + 1]]
        if decided.count(-1) > 2 * (2 - decided.count(1)):
            return True
    return False


def drawn_state(rng, g):
    """A seeded state that ``reduce_to_matching`` accepts: each edge gets 0 to 2
    forced anchors and excludes up to all but 2 of its incidences, so it keeps
    at least as many undecided incidences as anchors it still needs."""
    state = []
    for j in range(g.n_e):
        size = g.first[j + 1] - g.first[j]
        forced = rng.below(3)
        excluded = rng.below(size - 1)
        slots = [1] * forced + [0] * excluded + [-1] * (size - forced - excluded)
        rng.shuffle(slots)
        state += slots
    return state


def two_wide_edges(n):
    """Two copies of one edge on all ``n`` vertices: every vertex has degree 2."""
    return Hypergraph(tuple(f"v{i}" for i in range(1, n + 1)), (frozenset(range(n)),) * 2)


def stored_entries(gg):
    """Row entries the gadget stores, each distinct row part counted once."""
    parts = {id(part): part for row in gg.rows for part in row}
    return sum(map(len, parts.values()))


def counts(g, state):
    """``(U, cores, dummies, entries)`` of the gadget over ``state``: the stubs,
    the u-k cores of each edge, one dummy per vertex of odd forced parity,
    and the row entries stored: each vertex's stubs, each edge's cores, the
    stubs of each edge with a core, and each dummy once."""
    stubs, forced, forced_v = Counter(), Counter(), Counter()
    for (v, e), s in zip(g.incidences, state):
        if s < 0:
            stubs[e] += 1
        elif s:
            forced[e] += 1
            forced_v[v] += 1
    u_count = sum(stubs.values())
    cores = sum(u - 2 + forced[e] for e, u in stubs.items())
    dummies = sum(c % 2 for c in forced_v.values())
    cored = sum(u for e, u in stubs.items() if u > 2 - forced[e])
    return u_count, cores, dummies, u_count + cores + cored + dummies


def decisions(g, state):
    """``state`` as the map :func:`helpers.reference_gadget_adj` reads."""
    return {inc: bool(s) for inc, s in zip(g.incidences, state) if s >= 0}


def gadget_states(h):
    """The gadgets of ``h`` over the open state and over the forced one, with the
    states; a forced state that propagation refutes yields ``None`` for the gadget."""
    g = build_incidence(h)
    open_state = [-1] * len(g.incidences)
    try:
        yield g, open_state, reduce_to_matching(g, open_state)
    except ValueError:
        pass
    state = _forced_anchors(g)
    yield g, state, state and reduce_to_matching(g, state)


class TestGadget:
    def test_edge_node_degree_three_has_one_core(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")])
        gg = open_gadget(build_incidence(h))
        assert gg.cores == range(3, 4)
        assert gg.adj[3] == (0, 1, 2)
        assert all(gg.adj[s] == (3,) for s in range(3))

    def test_even_vertex_degree_no_dummy(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        g = build_incidence(h)
        gg = open_gadget(g)
        assert len(gg.adj) == gg.cores.stop
        # each v-node of degree 2 contributes two mutually adjacent stubs
        a_stubs = [t for t, (v, e) in enumerate(g.incidences) if v == 0]
        assert len(a_stubs) == 2
        assert a_stubs[1] in gg.adj[a_stubs[0]]

    def test_odd_forced_parity_gets_dummy(self):
        # three copies of a triple: every vertex has odd degree, but with
        # nothing forced no vertex gets a dummy
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 3)
        g = build_incidence(h)
        assert len(open_gadget(g).adj) == 9 + 3
        # a forced in e1: its two stubs left meet a dummy, so an odd number
        # of them anchor
        state = [1, -1, -1] + [-1] * 6
        gg = reduce_to_matching(g, state)
        a_stubs = [t - 1 for t, (v, _) in enumerate(g.incidences) if v == 0 and t]
        assert gg.cores == range(8, 8 + 1 + 1 + 1)
        dummy = len(gg.adj) - 1
        assert dummy == gg.cores.stop
        assert gg.adj[dummy] == tuple(a_stubs)
        assert all(dummy in gg.adj[t] for t in a_stubs)
        assert gg.adj == reference_gadget_adj(g, decisions(g, state))

    def test_node_count_formula(self):
        # U stubs, u-k cores per edge, one dummy per vertex of odd forced
        # parity, on both streams of the matchability test and on drawn states
        rng = Lcg(67)
        hs = [Hypergraph.from_labels("abc", [("a", "b", "c")] * 2), fano(),
              Hypergraph.from_labels("abcd", [("a", "b", "c"), ("a", "b", "d"), ("c", "d")])]
        hs += [random_mixed(rng) for _ in range(200)]
        hs += [random_noncovering(rng) for _ in range(200)]
        seen = Counter()
        for h in hs:
            for g, state, gg in gadget_states(h):
                if gg is None:
                    continue
                u_count, cores, dummies, _ = counts(g, state)
                assert len(gg.adj) == u_count + cores + dummies
                assert gg.cores == range(u_count, u_count + cores)
                seen["dummies"] += dummies
            state = drawn_state(rng, g)
            u_count, cores, dummies, _ = counts(g, state)
            assert len(reduce_to_matching(g, state).adj) == u_count + cores + dummies
        assert seen["dummies"] > 0

    def test_two_copies_gadget_is_8_nodes(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        gg = open_gadget(build_incidence(h))
        assert len(gg.adj) == 8

    def test_rows_equal_reference_builder(self):
        rng = Lcg(47)
        labels = "abcdefghi"
        kinds = Counter()
        for _ in range(150):
            n = 5 + rng.below(5)
            edges = []
            for _ in range(1 + rng.below(12)):
                if edges and rng.below(4) == 0:
                    edges.append(edges[rng.below(len(edges))])
                    kinds["repeat"] += 1
                    continue
                e = set()
                while len(e) < 2 + rng.below(4):
                    e.add(labels[rng.below(n)])
                edges.append(tuple(sorted(e)))
                kinds[len(e)] += 1
            g = build_incidence(Hypergraph.from_labels(labels[:n], edges))
            gg = open_gadget(g)
            assert gg.adj == reference_gadget_adj(g)
            assert all(a < b for row in gg.adj for a, b in zip(row, row[1:]))
            # Drawn states give dummies, and edges that need 0, 1 or 2.
            state = drawn_state(rng, g)
            gg = reduce_to_matching(g, state)
            assert gg.adj == reference_gadget_adj(g, decisions(g, state))
            assert all(a < b for row in gg.adj for a, b in zip(row, row[1:]))
            kinds["dummies"] += counts(g, state)[2]
            g1 = build_incidence(Hypergraph.from_labels(labels[:n], edges + [("a",)]))
            with pytest.raises(ValueError, match="vertices left for 2 anchors"):
                open_gadget(g1)
        assert all(kinds[k] for k in (2, 3, 4, 5, "repeat", "dummies"))

    def test_storage_is_linear(self):
        # Each vertex's stubs are stored once, not once per stub, and each
        # edge's cores and stubs once: U entries in the vertex tuples, U - K
        # in the core tuples for K the anchors the edges still need, at most
        # U in the edge stub tuples and one per dummy; at most 3U with
        # nothing forced.
        hs = [gen_complete(20, 3), _reduce_to_order3(gen_complete(10, 5), 5)[0], two_wide_edges(200)]
        rng = Lcg(89)
        hs += [random_noncovering(rng) for _ in range(100)]
        decided = 0
        for h in hs:
            for g, state, gg in gadget_states(h):
                if gg is None:
                    continue
                u_count, _, _, entries = counts(g, state)
                assert stored_entries(gg) == entries
                if max(state) < 0:
                    assert stored_entries(gg) <= 3 * u_count
                decided += max(state) >= 0
                for t in range(u_count):
                    clique = gg.rows[t][0]
                    assert t in clique
                    assert all(gg.rows[s][0] is clique for s in clique)
                # One cores tuple per edge, shared by the edge's stubs, and one
                # stubs tuple per edge, shared by its cores.
                edge_of = [e for (_, e), s in zip(g.incidences, state) if s < 0]
                shared = {(edge_of[t], id(gg.rows[t][1])) for t in range(u_count)}
                assert len(shared) == len(set(edge_of))
                assert len({id(gg.rows[c][0]) for c in gg.cores}) <= len(set(edge_of))
        assert decided >= 20
        # complete(20, 3): 7,980 stored entries for flat rows of 588,240.
        gg = open_gadget(build_incidence(gen_complete(20, 3)))
        assert (stored_entries(gg), sum(map(len, gg.adj))) == (7_980, 588_240)
        # Two edges of 200 vertices: the cores' flat rows alone hold 79,200.
        gg = open_gadget(build_incidence(two_wide_edges(200)))
        assert (stored_entries(gg), sum(map(len, gg.adj))) == (1_196, 158_800)

    def test_state_of_the_wrong_length_raises(self):
        g = build_incidence(gen_complete(5, 3))
        t_count = len(g.incidences)
        for length in (t_count + 5, t_count - 1, 0):
            with pytest.raises(ValueError, match=f"state has {length} entries for {t_count}"):
                reduce_to_matching(g, [-1] * length)
        assert len(open_gadget(g).adj) > 0

    def test_infeasible_degree(self):
        h = Hypergraph.from_labels("ab", [("a",)])
        with pytest.raises(ValueError, match="e1 has only 1 vertices left for 2 anchors"):
            open_gadget(build_incidence(h))

    def test_back_map(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        g = build_incidence(h)
        gg = open_gadget(g)
        # a stub's neighbours outside its vertex's stubs are its edge's cores
        for t, (v, e) in enumerate(g.incidences):
            own = {s for s, (w, _) in enumerate(g.incidences) if w == v and s != t}
            assert set(gg.adj[t]) - own == {gg.cores[e]}
        # a perfect matching anchors exactly the incidences whose stub is not
        # matched to a core
        mate = max_matching(flat_gadget(gg.adj))
        assert 2 * matching_size(gg.adj, mate) == len(gg.adj)
        fsub = find_family_subgraph(g)
        assert incidences(fsub.anchors) == {
            g.incidences[t] for t in range(len(g.incidences)) if mate[t] not in gg.cores}
        assert gg.anchors(mate) == fsub.anchors

    def test_perfect_matching_by_exhaustion(self):
        # two copies of a triple: the 8-node gadget has a perfect matching;
        # a single triple: its 4-node gadget has none
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        gg = open_gadget(build_incidence(h))
        assert 2 * brute_max_matching(gg.adj) == len(gg.adj)
        assert 2 * matching_size(gg.adj, max_matching(flat_gadget(gg.adj))) == len(gg.adj)
        single = Hypergraph.from_labels("abc", [("a", "b", "c")])
        gg1 = open_gadget(build_incidence(single))
        assert 2 * brute_max_matching(gg1.adj) < len(gg1.adj)

    def test_matchable_iff_a_family_exists(self):
        # 3,000 draws of the mixed-arity stream of Lcg(11) and of the
        # non-covering stream of Lcg(7), each over the open state and over the
        # forced one: a perfect matching exactly when a family exists, and
        # every read-back a certificate
        seen = Counter()
        for stream, rng in ((random_mixed, Lcg(11)), (random_noncovering, Lcg(7))):
            for _ in range(3000):
                h = stream(rng)
                exists = brute_family_exists(h)
                for g, state, gg in gadget_states(h):
                    if gg is None:
                        assert not exists
                        seen["refuted"] += 1
                        continue
                    mate = max_matching(gg)
                    perfect = -1 not in mate
                    assert perfect == exists
                    if perfect:
                        assert FamilySubgraph(g, gg.anchors(mate)).host is g
                    seen["perfect" if perfect else "exposed", max(state) >= 0] += 1
        assert all(seen[k] for k in (("perfect", True), ("perfect", False), ("exposed", True),
                                     ("exposed", False), "refuted")), seen


class TestRoundTrip:
    """Gadget has a perfect matching iff a family certificate exists."""

    def _agrees(self, h: Hypergraph) -> bool:
        g = build_incidence(h)
        try:
            gg = open_gadget(g)
        except ValueError:
            return brute_family_exists(h) is False
        perfect = 2 * matching_size(gg.adj, max_matching(flat_gadget(gg.adj))) == len(gg.adj)
        assert (find_family_subgraph(g) is not None) == perfect
        return perfect == brute_family_exists(h)

    def test_exhaustive_small(self):
        # all edge multisets of size <= 3 over >=2-subsets of 4 vertices,
        # up to vertex relabelling
        labels = "abcd"
        subsets = [c for r in (2, 3, 4) for c in combinations(range(4), r)]
        perms = list(permutations(range(4)))
        seen_canon = set()
        checked = 0
        for r in range(0, 4):
            for combo in combinations_with_replacement(range(len(subsets)), r):
                edge_list = tuple(sorted(subsets[i] for i in combo))
                canon = min(
                    tuple(sorted(tuple(sorted(p[v] for v in e)) for e in edge_list))
                    for p in perms)
                if canon in seen_canon:
                    continue
                seen_canon.add(canon)
                h = Hypergraph.from_labels(
                    labels, [tuple(labels[v] for v in e) for e in edge_list])
                assert self._agrees(h)
                checked += 1
        assert checked == 44  # canonical representatives over 4 vertices

    def test_random_medium(self):
        rng = Lcg(41)
        labels = "abcdef"
        for _ in range(300):
            n = 3 + rng.below(4)
            m = 1 + rng.below(4)
            edges = []
            for _ in range(m):
                size = 2 + rng.below(min(3, n - 1))
                e = set()
                while len(e) < size:
                    e.add(labels[rng.below(n)])
                edges.append(tuple(sorted(e)))
            assert self._agrees(Hypergraph.from_labels(labels[:n], edges))
