"""Tests of the benchmark's own parts: checker, self-time arithmetic, corpora, tracing.

Run from the root of the repository with ``python3 -m pytest -q perfbench/tests``.
"""

import subprocess
import sys

import pytest

import checker
import corpus
import tracing
from eulergraph import solver
from eulergraph.genio import emit_hg, format_walk_line, gen_sts

STS7 = emit_hg(gen_sts(7))


@pytest.fixture(scope="module")
def tour_line():
    h = gen_sts(7)
    return format_walk_line(solver.solve(h, 3).tour)


def test_checker_accepts_the_solver_tour(tour_line):
    assert checker.check_certificate(checker.hg_edges(STS7), [tour_line], tour=True) is None


def _corruptions(line, edges):
    toks = line.split()
    yield " ".join(toks[:-2])                                   # last edge dropped
    yield " ".join(toks[:3] + toks[1:])                         # first edge used twice
    yield " ".join(toks[:-1] + [toks[1]])                       # not closed
    yield " ".join(toks[:1] + ["e99"] + toks[2:])               # unknown edge
    yield " ".join(toks[:1] + ["e01"] + toks[2:])               # malformed edge name
    yield " ".join(toks[:2] + [toks[0]] + toks[3:])             # equal consecutive anchors
    outside = min(set().union(*edges) - edges[int(toks[1][1:]) - 1])
    yield " ".join(toks[:2] + [outside] + toks[3:])             # anchor outside its edge


def test_checker_rejects_corrupted_tours(tour_line):
    edges = checker.hg_edges(STS7)
    for bad in _corruptions(tour_line, edges):
        assert bad != tour_line
        assert checker.check_certificate(edges, [bad], tour=True) is not None, bad


def test_checker_rejects_a_tour_split_in_two_and_shared_anchors():
    edges = [frozenset("ab"), frozenset("ab"), frozenset("cd"), frozenset("cd")]
    family = ["a e1 b e2 a", "c e3 d e4 c"]
    assert checker.check_certificate(edges, family, tour=False) is None
    assert checker.check_certificate(edges, family, tour=True) is not None
    shared = [frozenset("ab"), frozenset("ab"), frozenset("ac"), frozenset("ac")]
    assert checker.check_certificate(shared, ["a e1 b e2 a", "a e3 c e4 a"], tour=False)


def test_judge_failures_and_underclaims():
    inst = corpus.Instance("x", STS7, 7, family=True, tour=True)
    assert checker.judge(inst, "neither", []) == ("neither, but a family exists", False)
    assert checker.judge(inst, "eulerian", ["1 e1 2 e2 1"])[0].startswith("eulerian without")
    no_tour = corpus.Instance("y", STS7, 7, family=True, tour=False)
    assert checker.judge(no_tour, "neither", [])[0] is not None
    assert checker.judge(no_tour, "bogus", [])[0] is not None


def test_self_times_on_a_hand_built_tree():
    # root [0,100] has children a [10,40] and b [50,90]; a has child c
    # [20,30]; b has children d [60,70] and e [65,80], which overlap.
    spans = [
        (0, 0, 100, -1, 0),
        (1, 10, 40, 0, 0),
        (2, 20, 30, 1, 0),
        (1, 50, 90, 0, 0),
        (3, 60, 70, 3, 0),
        (3, 65, 80, 3, 0),
    ]
    assert tracing.self_times(spans) == [30, 20, 10, 20, 10, 15]
    self_ns, calls = tracing.layer_totals(["op", "a", "c", "d"], spans)
    assert self_ns == {"op": 30, "a": 40, "c": 10, "d": 25}
    assert calls == {"op": 1, "a": 2, "c": 1, "d": 2}


def test_child_running_past_its_parent_is_clipped():
    spans = [(0, 0, 10, -1, 0), (1, 5, 15, 0, 0)]
    assert tracing.self_times(spans) == [5, 10]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpora_regenerate_identically(workload):
    first = corpus.build(workload, 7)
    assert corpus.build(workload, 7) == first
    assert corpus.build(workload, 8) != first
    assert len(first) >= 100


def test_best_effort_keeps_the_known_defects_in():
    names = {inst.name: inst for inst in corpus.build("best-effort", 1)}
    union = names["complete(4,3)x3"]
    assert union.family and not union.tour
    item3 = names["roadmap-item3"]
    assert item3.family and item3.tour


def test_tracing_wraps_and_restores_every_binding():
    import eulergraph
    from eulergraph import family, interchange

    before = (eulergraph.solve, family.max_matching, interchange.apply_interchange)
    rec = tracing.Recorder()
    with tracing.installed(tracing.bindings(rec)):
        assert family.max_matching is not before[1]
        solver.solve(gen_sts(9), 3)
    assert (eulergraph.solve, family.max_matching, interchange.apply_interchange) == before
    names = {rec.names[s[0]] for s in rec.spans}
    assert {"solver.solve", "matching.max_matching", "matching.reduce_to_matching"} <= names
    assert rec.counts["matching.gadget_nodes"] > 0
    solve_span = next(s for s in rec.spans if rec.names[s[0]] == "solver.solve")
    assert solve_span[3] == -1


def test_digest_is_the_same_under_two_hash_seeds():
    proc = subprocess.run(
        [sys.executable, str(corpus.__file__).replace("corpus.py", "run.py"),
         "--workload", "tour-k45", "--seed", "3", "--hashseed-check"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "digests match" in proc.stdout
