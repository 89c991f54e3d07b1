"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The main sweep (criterion 1) is shared by criteria 9 and 10, so it runs
once per pass as a module fixture and twice overall for the determinism
check.  Criterion 10 writes the step-count distribution to
``reports/step_counts.json``.
"""

import json
import subprocess
import sys
import time
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

import pytest

from eulergraph import (
    EulerFamily,
    Hypergraph,
    MergeStats,
    apply_interchange,
    brute_family_exists,
    brute_tour,
    build_incidence,
    find_family_subgraph,
    max_matching,
    merge_to_tour,
    solve,
    validate_covering,
    verify_euler_object,
)
from eulergraph.genio import (
    Lcg,
    emit_hg,
    format_walk_line,
    gen_complete,
    gen_random_covering,
    gen_sts,
)
from eulergraph.interchange import MAX_EXPANSIONS
from eulergraph.solver import _reduce_to_order3

from helpers import (
    brute_max_matching,
    complete_graph,
    flat_gadget,
    grouped_family,
    matching_size,
    petersen,
    random_graph,
    record_scan_expansions,
    reduction_layers,
    sample_interchanging_cycles,
    src_env,
)

REPORTS = Path(__file__).resolve().parent.parent / "reports"


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def sweep_instances():
    out = []
    for n in range(4, 9):
        for seed in range(1, 51):
            out.append((f"random-n{n}-s{seed}", gen_random_covering(n, 3, seed)))
    for n in range(4, 9):
        out.append((f"complete-{n}-3", gen_complete(n, 3)))
    for n in (7, 9, 13):
        out.append((f"sts-{n}", gen_sts(n)))
    return out


def run_sweep():
    records = []
    for name, h in sweep_instances():
        stats = MergeStats()
        res = solve(h, 3, stats=stats)
        ok = (
            res.verdict == "eulerian"
            and res.tour is not None
            and verify_euler_object(h, EulerFamily((res.tour,))) == ()
        )
        records.append({
            "name": name,
            "edges": len(h.edges),
            "ok": ok,
            "steps": stats.steps,
            "budget": 10 * len(h.edges) ** 2,
            "cert": format_walk_line(res.tour) if res.tour else "",
        })
    return records


@pytest.fixture(scope="module")
def sweep():
    t0 = time.time()
    records = run_sweep()
    return records, time.time() - t0


def test_c01_covering_3_sweep_all_eulerian(sweep):
    records, elapsed = sweep
    failures = [r["name"] for r in records if not r["ok"]]
    passed = not failures and elapsed < 60
    _report("C01 covering-3 sweep", passed,
            f"{len(records)} instances, {len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 60, f"sweep took {elapsed:.1f}s"


def test_c02_single_edge_always_neither():
    cases = []
    for k, labels in ((3, "abc"), (4, "abcd"), (5, "abcde")):
        for extra in range(3):
            verts = labels + "xyz"[:extra]
            h = Hypergraph.from_labels(verts, [tuple(labels)])
            cases.append(solve(h, k).verdict == "neither")
    passed = all(cases)
    _report("C02 single-edge necessity", passed, f"{len(cases)} cases")
    assert passed


def test_c03_higher_arity_reduction():
    t0 = time.time()
    instances = [gen_complete(6, 4), gen_complete(7, 4), gen_complete(7, 5)]
    ks = [4, 4, 5]
    seeds = [(5, s) for s in range(1, 8)] + [(6, s) for s in range(1, 8)] + \
            [(7, s) for s in range(1, 7)]
    for n, seed in seeds:
        instances.append(gen_random_covering(n, 4, seed))
        ks.append(4)
    failures = []
    for h, k in zip(instances, ks):
        res = solve(h, k)
        if res.verdict != "eulerian" or verify_euler_object(h, EulerFamily((res.tour,))):
            failures.append((h.order, k))
            continue
        # every reference layer keeps the covering property and edge count, and
        # the one-pass reduction equals the last layer edge for edge
        layers = reduction_layers(h)
        if tuple(deleted for deleted, _ in layers) != res.reductions:
            failures.append(("deleted-labels", h.order, k))
        cur = h
        for _, reduced in layers:
            if not validate_covering(reduced, cur.uniformity() - 1):
                failures.append(("layer", h.order, k))
            if len(reduced.edges) != len(cur.edges):
                failures.append(("edge-count", h.order, k))
            cur = reduced
        if _reduce_to_order3(h, k)[0] != cur:
            failures.append(("one-pass", h.order, k))
    elapsed = time.time() - t0
    passed = not failures and elapsed < 60
    _report("C03 arity reduction", passed,
            f"{len(instances)} instances, {len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 60


def test_c04_family_existence_exhaustive():
    # every edge multiset is checked; the canonical-representative count is
    # reported since all other cases are its relabellings
    t0 = time.time()
    disagreements = []
    checked = 0
    canonical = 0
    for nv in range(1, 6):
        labels = "abcde"[:nv]
        triples = list(combinations(range(nv), 3))
        perms = list(permutations(range(nv)))
        for r in range(0, 4):
            for combo in combinations_with_replacement(range(len(triples)), r):
                edge_list = tuple(sorted(triples[i] for i in combo))
                canon = min(
                    tuple(sorted(tuple(sorted(p[v] for v in e)) for e in edge_list))
                    for p in perms)
                if edge_list == canon:
                    canonical += 1
                h = Hypergraph.from_labels(
                    labels, [tuple(labels[v] for v in e) for e in edge_list])
                via_matching = find_family_subgraph(build_incidence(h)) is not None
                via_oracle = brute_family_exists(h)
                if via_matching != via_oracle:
                    disagreements.append(edge_list)
                checked += 1
    elapsed = time.time() - t0
    passed = not disagreements and elapsed < 300
    _report("C04 family exactness", passed,
            f"{checked} hypergraphs ({canonical} up to relabelling), "
            f"{len(disagreements)} disagreements, {elapsed:.1f}s")
    assert not disagreements, disagreements
    assert elapsed < 300


def test_c05_interchange_preserves_certificates():
    rng = Lcg(101)
    pairs = 0
    failures = 0
    seed = 0
    fss = []
    while len(fss) < 24:
        seed += 1
        h = gen_random_covering(6 + seed % 4, 3, seed)
        fsub = find_family_subgraph(build_incidence(h))
        if fsub is not None:
            fss.append(fsub)
    for groups in ([("a", "b"), ("c", "d"), ("e", "f")],
                   [("a", "b", "c"), ("d", "e", "f"), ("g", "h", "i")],
                   [("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")]):
        fss.append(grouped_family(groups)[2])
    idx = 0
    while pairs < 1000:
        fsub = fss[idx % len(fss)]
        idx += 1
        cycles = sample_interchanging_cycles(fsub, rng, want=12, tries=60)
        for cyc in cycles:
            if pairs >= 1000:
                break
            try:
                after = apply_interchange(fsub, cyc)  # revalidates degrees
                back = apply_interchange(after, cyc)
                if back.anchors != fsub.anchors:
                    failures += 1
            except Exception:
                failures += 1
            pairs += 1
        if cycles:
            # wander so later samples come from fresh certificates
            fss[(idx - 1) % len(fss)] = apply_interchange(fsub, cycles[0])
    passed = failures == 0 and pairs == 1000
    _report("C05 interchange invariants", passed, f"{pairs} pairs, {failures} failures")
    assert passed


def _group_corpus():
    """100 covering 3-hypergraphs with certificates of >= 3 non-trivial components."""
    rng = Lcg(103)
    out = []
    # size-2 groups need an even total order to keep anchor degrees even
    shapes = [
        [2, 2, 2], [2, 2, 2, 2], [3, 3, 2], [3, 3, 3], [2, 2, 2, 2, 2],
        [3, 3, 2, 2, 2], [3, 3, 2, 2], [3, 3, 3, 3],
    ]
    alphabet = [f"u{i}" for i in range(1, 25)]
    while len(out) < 100:
        shape = shapes[rng.below(len(shapes))]
        labels = alphabet[: sum(shape)]
        order = labels[:]
        rng.shuffle(order)
        groups = []
        pos = 0
        for size in shape:
            groups.append(tuple(order[pos:pos + size]))
            pos += size
        out.append(grouped_family(groups))
    return out


def _large_grouped_certificates():
    """Grouped certificates of 5 to 20 components, 264 to 1,188 edges."""
    out = []
    for count, size in ((12, 2), (9, 3), (5, 5), (12, 3), (20, 2)):
        labels = [f"u{i}" for i in range(1, count * size + 1)]
        out.append(grouped_family(
            [tuple(labels[i:i + size]) for i in range(0, len(labels), size)]))
    return out


def test_c06_linking_strategy_reaches_one_component(monkeypatch):
    # the search alone merges every grouped certificate, one diminishing
    # step per component joined, without an escape, and no scan of these
    # merges reaches the expansion budget
    scans = record_scan_expansions(monkeypatch)
    failures = 0
    corpus = _group_corpus() + _large_grouped_certificates()
    for h, g, fsub in corpus:
        c = fsub.nontrivial_count
        if not validate_covering(h, 3) or c < 3:
            failures += 1
            continue
        stats = MergeStats()
        tour = merge_to_tour(fsub, stats=stats)
        if (verify_euler_object(h, EulerFamily((tour,)))
                or stats.escapes != 0 or stats.diminishing != c - 1):
            failures += 1
    spent = scans[1] + scans[2]
    passed = failures == 0 and max(spent) < MAX_EXPANSIONS
    _report("C06 search merges grouped certificates", passed,
            f"{len(corpus)} certificates, {failures} failures, {len(spent)} scans, "
            f"at most {max(spent)} of {MAX_EXPANSIONS} expansions")
    assert passed


def test_c08_matching_kernel_exactness():
    t0 = time.time()
    rng = Lcg(107)
    disagreements = 0
    for _ in range(500):
        n = 3 + rng.below(12)
        adj = random_graph(rng, n, 10 + rng.below(75))
        if matching_size(adj, max_matching(flat_gadget(adj))) != brute_max_matching(adj):
            disagreements += 1
    for adj, want in ((complete_graph(3), 1), (complete_graph(4), 2), (petersen(), 5)):
        got = matching_size(adj, max_matching(flat_gadget(adj)))
        if got != want or brute_max_matching(adj) != want:
            disagreements += 1
    elapsed = time.time() - t0
    passed = disagreements == 0 and elapsed < 30
    _report("C08 matching kernel", passed,
            f"503 graphs, {disagreements} disagreements, {elapsed:.1f}s")
    assert passed


def test_c09_sweep_is_deterministic(sweep):
    records, _ = sweep
    again = run_sweep()
    first = [r["cert"] for r in records]
    second = [r["cert"] for r in again]
    in_process = first == second
    # cross-process spot check through the command line
    h = gen_random_covering(6, 3, 11)
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "case.hg"
        path.write_text(emit_hg(h))
        outs = [
            subprocess.run(
                [sys.executable, "-m", "eulergraph", "tour", str(path)],
                capture_output=True, text=True, check=True, env=src_env()).stdout
            for _ in range(2)
        ]
    cross_process = outs[0] == outs[1]
    passed = in_process and cross_process
    _report("C09 determinism", passed,
            f"{len(first)} certificates byte-identical, CLI re-run identical")
    assert in_process and cross_process


def test_c10_budget_health_and_report(sweep):
    records, _ = sweep
    over = [r["name"] for r in records if r["steps"] > r["budget"]]
    dist = {}
    for r in records:
        dist[r["steps"]] = dist.get(r["steps"], 0) + 1
    REPORTS.mkdir(exist_ok=True)
    payload = {
        "instances": [
            {k: r[k] for k in ("name", "edges", "steps", "budget")} for r in records
        ],
        "step_distribution": {str(k): v for k, v in sorted(dist.items())},
        "max_steps": max(r["steps"] for r in records),
    }
    (REPORTS / "step_counts.json").write_text(json.dumps(payload, indent=2) + "\n")
    passed = not over
    _report("C10 budget health", passed,
            f"max steps {payload['max_steps']}, distribution {payload['step_distribution']}")
    assert not over, over


def _every_simple_hypergraph(n: int, k: int):
    """Every simple k-uniform hypergraph on n labelled vertices, by edge mask."""
    vertices = tuple("abcdef"[:n])
    subsets = [frozenset(e) for e in combinations(range(n), k)]
    for mask in range(1 << len(subsets)):
        yield Hypergraph(vertices, tuple(e for i, e in enumerate(subsets) if mask >> i & 1))


@pytest.mark.parametrize("n, k, covering", [(4, 3, 5), (5, 3, 388), (5, 4, 6), (6, 5, 7)])
def test_c11_theorem_on_every_small_covering_hypergraph(n, k, covering):
    # the paper's theorem, over every input of these orders: a covering
    # k-hypergraph with k >= 3 and at least two edges has an Euler tour
    found = 0
    for h in _every_simple_hypergraph(n, k):
        if not validate_covering(h, k):
            continue
        found += 1
        res = solve(h, k)
        assert res.verdict == "eulerian", h
        assert verify_euler_object(h, EulerFamily((res.tour,))) == (), h
    _report(f"C11 theorem n={n} k={k}", found == covering, f"{found} covering, all eulerian")
    assert found == covering


def test_c11_graphs_are_outside_the_theorem():
    # k = 2, the case the paper excludes: most graphs on 5 vertices with no
    # isolated vertex and at least two edges have no Euler tour
    graphs = [h for h in _every_simple_hypergraph(5, 2)
              if len(h.edges) >= 2 and len(set().union(*h.edges)) == 5]
    without = sum(brute_tour(h) is None for h in graphs)
    _report("C11 graph control", (len(graphs), without) == (768, 730),
            f"{len(graphs)} graphs, {without} without a tour")
    assert (len(graphs), without) == (768, 730)
