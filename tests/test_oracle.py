"""The brute-force oracles themselves, cross-checked by independent routes."""

import ast
import time
from itertools import combinations
from pathlib import Path

import pytest

import eulergraph.oracle
from eulergraph.oracle import MAX_TOUR_EDGES
from eulergraph import (
    CertificateViolation,
    EulerFamily,
    Hypergraph,
    VerifyReport,
    brute_family_exists,
    brute_tour,
    solve,
    verify_euler_object,
)
from eulergraph.cli import EXIT_INPUT, main
from eulergraph.genio import (
    Lcg,
    emit_hg,
    format_walk_line,
    gen_complete,
    gen_random_covering,
    gen_sts,
)

from helpers import (
    brute_max_matching,
    complete_graph,
    disjoint_union,
    fano,
    petersen,
    random_graph,
    random_noncovering,
    reference_brute_family_exists,
    reference_brute_tour,
    roadmap_item3,
    tutte_berge_max_matching,
)


class TestBruteFamilyExists:
    def test_single_edge_false(self):
        assert not brute_family_exists(Hypergraph.from_labels("abc", [("a", "b", "c")]))

    def test_two_copies_true(self):
        assert brute_family_exists(Hypergraph.from_labels("abc", [("a", "b", "c")] * 2))

    def test_fano_true(self):
        assert brute_family_exists(fano())

    def test_empty_true(self):
        assert brute_family_exists(Hypergraph.from_labels("a", []))

    def test_undersized_edge_false(self):
        assert not brute_family_exists(Hypergraph.from_labels("ab", [("a",), ("a", "b")]))

    def test_budget(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 11)
        with pytest.raises(ValueError):
            brute_family_exists(h)

    def test_state_cap_fails_fast(self):
        # Ten 10-vertex edges over 20 vertices: without the cap the sweep
        # walks about 2^19 states per edge and takes seconds.
        h = _wide_edges(20, 10)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"too many parity states .* \(over 2\*\*16\)"):
            brute_family_exists(h)
        assert time.perf_counter() - start < 2.0

    def test_five_vertex_edges_equal_reference(self):
        h = _wide_edges(10, 5)
        assert brute_family_exists(h) == reference_brute_family_exists(h)

    def test_update_cap_bounds_time(self, tmp_path, capsys):
        # Ten 12-vertex edges over 18 vertices keep under 2^16 states, yet a
        # sweep without the cap on states x pairs per step answers True after
        # about 2 s; with it, the third edge step raises.
        h = _wide_edges(18, 12)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"too many parity states .* at e3 \(over 2\*\*16\)"):
            brute_family_exists(h)
        assert time.perf_counter() - start < 0.1
        path = tmp_path / "wide12.hg"
        path.write_text(emit_hg(h), encoding="utf-8")
        assert main(["oracle", "family", str(path)]) == EXIT_INPUT
        assert "too many parity states" in capsys.readouterr().err

    def test_cli_exits_two_on_state_cap(self, tmp_path, capsys):
        path = tmp_path / "wide.hg"
        path.write_text(emit_hg(_wide_edges(20, 10)), encoding="utf-8")
        assert main(["oracle", "family", str(path)]) == EXIT_INPUT
        assert "too many parity states" in capsys.readouterr().err


class TestBruteTour:
    def test_two_copies_canonical(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        assert format_walk_line(brute_tour(h)) == "a e1 b e2 a"

    def test_single_edge_none(self):
        assert brute_tour(Hypergraph.from_labels("abc", [("a", "b", "c")])) is None

    def test_recursion_bound_rejects_before_searching(self):
        # one recursion level per edge: 1,140 edges would pass a 2,000-edge
        # budget and then overflow the interpreter's stack
        h = gen_complete(20, 3)
        with pytest.raises(ValueError, match=f"> {MAX_TOUR_EDGES}"):
            brute_tour(h, 2000)

    def test_cli_exits_two_above_recursion_bound(self, tmp_path, capsys):
        path = tmp_path / "k20.hg"
        path.write_text(emit_hg(gen_complete(20, 3)), encoding="utf-8")
        assert main(["oracle", "tour", str(path), "--max-edges", "2000"]) == EXIT_INPUT
        assert f"1140 > {MAX_TOUR_EDGES}" in capsys.readouterr().err

    def test_failed_self_check_raises(self, monkeypatch):
        # an explicit raise, not an assert, so python -O keeps the check
        monkeypatch.setattr(eulergraph.oracle, "verify_euler_object",
                            lambda h, f: VerifyReport(False, ("forced",)))
        with pytest.raises(CertificateViolation, match="forced"):
            brute_tour(Hypergraph.from_labels("abc", [("a", "b", "c")] * 2))

    def test_all_triples_of_four_vertices(self):
        h = gen_complete(4, 3)
        tour = brute_tour(h)
        assert tour is not None
        assert verify_euler_object(h, EulerFamily((tour,))).valid

    @pytest.mark.parametrize("parts", [
        (gen_complete(4, 3), gen_complete(4, 3)),
        (gen_complete(4, 3), gen_complete(4, 3), gen_complete(4, 3)),
        (gen_sts(7), gen_complete(4, 3)),
        (gen_random_covering(5, 3, 1), gen_complete(4, 3)),
    ], ids=["complete(4,3)x2", "complete(4,3)x3", "sts(7)+complete(4,3)",
            "random_covering(5,3,1)+complete(4,3)"])
    def test_disjoint_unions_equal_reference(self, parts):
        # Every start pair fails, so each pair (b, a) is skipped after (a, b).
        h = disjoint_union(*parts)
        assert brute_tour(h, 12) is None
        assert reference_brute_tour(h) is None

    def test_roadmap_item3_equal_reference(self):
        h = roadmap_item3()
        tour = brute_tour(h)
        assert tour is not None and tour == reference_brute_tour(h)

    def test_family_without_tour_equal_reference(self):
        rng = Lcg(7)
        found = 0
        while found < 15:
            h = random_noncovering(rng)
            if not brute_family_exists(h):
                continue
            tour = brute_tour(h)
            assert tour == reference_brute_tour(h)
            found += tour is None
        assert found == 15

    def test_parity_blocked_none(self):
        h = Hypergraph.from_labels("abcde", [("a", "b", "c"), ("a", "d", "e")])
        assert brute_tour(h) is None

    def test_agrees_with_solver_on_covering_inputs(self):
        checked = 0
        for n in (4, 5):
            for seed in range(1, 13):
                h = gen_random_covering(n, 3, seed)
                if len(h.edges) > 7:
                    continue
                res = solve(h, 3)
                oracle_tour = brute_tour(h)
                assert (res.verdict == "eulerian") == (oracle_tour is not None)
                checked += 1
        assert checked >= 10

    def test_family_positive_when_solver_finds_family(self):
        from eulergraph import build_incidence, find_family_subgraph

        rng = Lcg(67)
        labels = "abcde"
        for _ in range(150):
            n = 3 + rng.below(3)
            m = 1 + rng.below(4)
            edges = []
            for _ in range(m):
                size = 2 + rng.below(min(3, n - 1))
                e = set()
                while len(e) < size:
                    e.add(labels[rng.below(n)])
                edges.append(tuple(sorted(e)))
            h = Hypergraph.from_labels(labels[:n], edges)
            assert brute_family_exists(h) == (
                find_family_subgraph(build_incidence(h)) is not None)


def _wide_edges(n: int, size: int) -> Hypergraph:
    """Ten seeded edges of ``size`` vertices each over n vertices."""
    rng = Lcg(5)
    edges = []
    for _ in range(10):
        pool = list(range(n))
        rng.shuffle(pool)
        edges.append([f"v{i}" for i in pool[:size]])
    return Hypergraph.from_labels([f"v{i}" for i in range(n)], edges)


def _mixed_draw(rng: Lcg) -> Hypergraph:
    """n in 1..12, m in 0..10, edge sizes 2..5 with one edge in ten of size 1 (capped at n),
    and about one edge in six a repeat of an earlier one."""
    n = 1 + rng.below(12)
    m = rng.below(11)
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges: list[tuple[str, ...]] = []
    while len(edges) < m:
        if edges and rng.below(6) == 0:
            edges.append(edges[rng.below(len(edges))])
            continue
        size = 1 if rng.below(10) == 0 else 2 + rng.below(4)
        pool = list(range(n))
        rng.shuffle(pool)
        edges.append(tuple(verts[i] for i in sorted(pool[:size])))
    return Hypergraph.from_labels(verts, edges)


def _four_uniform_no_family() -> Hypergraph:
    """Nine 4-subsets of six vertices plus an edge with three vertices of degree one.

    Every anchor pair of the last edge holds one of its degree-one vertices,
    so no family exists; a backtracking search walks all 6^10 pair choices
    before it can say so.
    """
    verts = [f"v{i}" for i in range(1, 7)] + ["x", "y", "z"]
    edges = list(combinations(verts[:6], 4))[:9] + [("v1", "x", "y", "z")]
    return Hypergraph.from_labels(verts, edges)


class TestStateSpaceSearch:
    """The parity-state sweep and the memoised tour search against the plain
    backtracking references in ``helpers``."""

    def test_equal_to_references_on_seeded_draws(self):
        rng = Lcg(1)
        seen = {"family": 0, "tour": 0, "family without tour": 0}
        for _ in range(300):
            h = _mixed_draw(rng)
            family = brute_family_exists(h)
            assert family == reference_brute_family_exists(h)
            tour = brute_tour(h)
            if family:
                assert tour == reference_brute_tour(h)
                seen["family"] += 1
                seen["tour" if tour else "family without tour"] += 1
            else:
                # A tour is a one-trail family; the reference would walk
                # every trail to show the same.
                assert tour is None
        assert min(seen.values()) >= 10

    @pytest.mark.parametrize("edges", [[], [("a", "b", "c")], [("a",)], [("a", "b")]],
                             ids=["edgeless", "one-triple", "one-singleton", "one-pair"])
    def test_edgeless_and_single_edge(self, edges):
        h = Hypergraph.from_labels("abc", edges)
        assert brute_family_exists(h) == reference_brute_family_exists(h) == (not edges)
        assert brute_tour(h) is None
        assert reference_brute_tour(h) is None

    def test_four_uniform_no_family(self):
        h = _four_uniform_no_family()
        assert len(h.edges) == 10 and h.uniformity() == 4
        assert not brute_family_exists(h)
        assert brute_tour(h) is None

    def test_imports_only_the_data_model(self):
        src = Path(brute_tour.__code__.co_filename).read_text(encoding="utf-8")
        modules = set()
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.ImportFrom):
                modules.add(f"eulergraph.{node.module}" if node.level else node.module)
            elif isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
        # the data model and the exception types; no engine code
        assert {m for m in modules if m.startswith("eulergraph")} == {
            "eulergraph.errors", "eulergraph.hypergraph"}


class TestBruteMaxMatching:
    def test_known(self):
        assert brute_max_matching(complete_graph(3)) == 1
        assert brute_max_matching(complete_graph(4)) == 2
        assert brute_max_matching(petersen()) == 5

    def test_deficiency_formula_agreement(self):
        # two seeded streams: n 4..9 at density 15..69 %, n 3..9 at 20..69 %
        for seed, count, low_n, low_density in ((71, 20, 4, 15), (37, 25, 3, 20)):
            rng = Lcg(seed)
            for _ in range(count):
                n = low_n + rng.below(10 - low_n)
                adj = random_graph(rng, n, low_density + rng.below(70 - low_density))
                assert brute_max_matching(adj) == tutte_berge_max_matching(adj)

    def test_budget(self):
        for n in (17, 20):
            with pytest.raises(ValueError, match=f"{n} > 16"):
                brute_max_matching(complete_graph(n))


def test_budget_validation(tmp_path, capsys):
    # a non-positive edge limit is rejected by both searches and the command
    # line, the edgeless input included
    h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
    for limit in (0, -1):
        for search in (brute_family_exists, brute_tour):
            with pytest.raises(ValueError, match="max_edges must be positive"):
                search(h, limit)
    path = tmp_path / "edgeless.hg"
    path.write_text(emit_hg(Hypergraph.from_labels("abc", [])), encoding="utf-8")
    for what in ("tour", "family"):
        assert main(["oracle", what, str(path), "--max-edges", "0"]) == EXIT_INPUT
        assert "--max-edges must be positive" in capsys.readouterr().err
