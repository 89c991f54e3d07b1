"""Benchmark for eulergraph: end-to-end metrics, checked certificates, traced layer times.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tour-k3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload best-effort --seed 1 --hashseed-check

One operation is ``parse_hg`` -> ``solve(h, k, stats=MergeStats())`` ->
``format_walk_line`` per returned trail, the way the command line runs it,
with GC and ``solve``'s own verification on.  A run sets up the seeded corpus
several times (reporting the median as ``setup_s``), runs one untimed warm-up
pass that also checks every certificate, then repeats timed passes for about
``--seconds`` seconds.  With ``--trace 1`` every second pass runs with every
public package function wrapped in a timing span, and the run
reports per-layer self times and counts instead of end-to-end metrics.
End-to-end times are corrected for the machine's speed by the reference
kernel in ``calibration.py`` (see NOTES.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a
determinism record (certificate digest, interpreter, platform, seed) are
written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(SRC))
try:
    import eulergraph
    from eulergraph import genio, solver
except ImportError as exc:
    sys.exit(f"cannot import eulergraph from {SRC}: {exc}")
if Path(eulergraph.__file__).resolve().parent.parent != SRC:
    sys.exit(f"eulergraph was imported from {eulergraph.__file__}, not from {SRC}")

import calibration  # noqa: E402
import checker  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

MIN_SETUPS = 3
MAX_SETUPS = 15
SETUP_SECONDS = 1.0
CALIBRATE_EVERY_S = 0.5

# Per-layer metrics whose value is a summed self time; the rest are counts.
SELF_MS = (
    "genio.parse_hg", "genio.format_walk_line",
    "hypergraph.validate_covering", "hypergraph.canonical_closed_trail",
    "hypergraph.verify_euler_object",
    "incidence.build_incidence", "incidence.components", "incidence.block_decomposition",
    "matching.reduce_to_matching", "matching.max_matching",
    "family.find_family_subgraph", "family.extract_subgraph", "family.trails_from_subgraph",
    "family.subgraph_from_trails",
    "interchange.merge_to_tour", "interchange.find_diminishing_cycle",
    "interchange.find_linking_cycle", "interchange.apply_interchange",
    "solver.solve", "solver.reduce_order", "solver.lift_tour",
)
CALLS = (
    "hypergraph.validate_covering", "hypergraph.canonical_closed_trail",
    "hypergraph.verify_euler_object", "matching.max_matching",
    "interchange.find_diminishing_cycle", "interchange.find_linking_cycle",
    "interchange.apply_interchange", "solver.reduce_order",
)
MERGE_STATS = ("steps", "diminishing", "pivot_reduce", "pivot_neutral", "escapes")


def run_op(inst):
    """One operation: parse, solve and format, as the command line does it."""
    h, k = genio.parse_hg(inst.text)
    stats = eulergraph.MergeStats()
    result = solver.solve(h, k if k >= 3 else 3, stats=stats)
    if result.tour is not None:
        trails = (result.tour,)
    elif result.verdict != checker.NEITHER and result.family is not None:
        trails = result.family.components
    else:
        trails = ()
    return result.verdict, [genio.format_walk_line(w) for w in trails], stats, len(result.reductions)


class Pass:
    """Wall time and output of every operation in one pass over the corpus."""

    def __init__(self, ops, rec: tracing.Recorder | None = None):
        self.ops = ops
        self.rec = rec
        self.seconds: list[float] = []
        self.kernel: list[float] = []
        self.outputs: list[tuple[str, list[str]] | None] = []
        self.errors: list[str | None] = []
        self.counts = dict.fromkeys(MERGE_STATS, 0) | {"reduction_layers": 0}

    def time(self, op, inst) -> None:
        """Run and time one operation; record its output, or its error."""
        start = time.perf_counter_ns()
        try:
            verdict, lines, stats, layers = op(inst)
            error = None
        except Exception as exc:  # the benchmark goes on; the op counts as failed
            error = f"{type(exc).__name__}: {exc}"
        self.seconds.append((time.perf_counter_ns() - start) / 1e9)
        self.errors.append(error)
        if error is not None:
            self.outputs.append(None)
            return
        self.outputs.append((verdict, lines))
        for key in MERGE_STATS:
            self.counts[key] += getattr(stats, key)
        self.counts["reduction_layers"] += layers

    @property
    def corrected(self) -> list[float]:
        """Operation times at the reference speed of ``calibration``."""
        return [s * calibration.REFERENCE_S / k for s, k in zip(self.seconds, self.kernel)]

    def digest(self) -> str:
        """SHA-256 of every certificate line, operation by operation."""
        sha = hashlib.sha256()
        for out in self.outputs:
            for line in out[1] if out else ["<raised>"]:
                sha.update(line.encode() + b"\n")
            sha.update(b"\n")
        return sha.hexdigest()


PLAIN = (run_op, contextlib.nullcontext, None)


def traced_lane():
    """A lane whose operations run with every public package function traced."""
    rec = tracing.Recorder()
    timed_op = rec.timed(tracing.OP, run_op)
    binds = tracing.bindings(rec)

    def op(inst):
        rec.op += 1
        return timed_op(inst)

    return op, lambda: tracing.installed(binds), rec


def run_passes(ops, lanes) -> list[Pass]:
    """One pass per lane ``(op, context, recorder)``, in lockstep.

    Operation i runs in every lane, back to back and in alternating lane
    order, before operation i+1, so all lanes meet the same machine speed.
    The reference kernel is timed before, after and every
    ``CALIBRATE_EVERY_S`` seconds; each operation is corrected by the mean of
    the two kernel times around it.
    """
    passes = [Pass(ops, rec) for _, _, rec in lanes]
    order = list(zip(passes, lanes))
    marks = [calibration.kernel_seconds()]
    chunk: list[int] = []
    last = time.perf_counter()
    for i, inst in enumerate(ops):
        if time.perf_counter() - last > CALIBRATE_EVERY_S:
            marks.append(calibration.kernel_seconds())
            last = time.perf_counter()
        chunk.append(len(marks) - 1)
        for p, (op, context, _) in order if i % 2 == 0 else order[::-1]:
            with context():
                p.time(op, inst)
    marks.append(calibration.kernel_seconds())
    for p in passes:
        p.kernel = [(marks[c] + marks[c + 1]) / 2 for c in chunk]
    return passes


class Verdicts:
    """Every operation judged against ground truth; each distinct output is checked once."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[int, tuple[tuple[str, list[str]] | None, str | None, bool]] = {}
        self.attempted = self.failed = self.changed = 0
        self.reasons: list[str] = []

    def add(self, p: Pass) -> None:
        for i, (inst, out, err) in enumerate(zip(self.ops, p.outputs, p.errors)):
            self.attempted += 1
            if err is not None:
                failure, under = f"raised {err}", False
            elif i in self.first and self.first[i][0] == out:
                _, failure, under = self.first[i]
            else:
                failure, under = checker.judge(inst, *out)
            if i in self.first:
                self.changed += self.first[i][0] != out
            else:
                self.first[i] = (out, failure, under)
            if failure is not None:
                self.failed += 1
                self.reasons.append(f"{inst.name}: {failure}")

    @property
    def underclaims(self) -> int:
        return sum(under for _, _, under in self.first.values())

    @property
    def tour_recall(self) -> float:
        exist = [i for i, inst in enumerate(self.ops) if inst.tour]
        found = sum(
            1 for i in exist
            if self.first[i][1] is None and self.first[i][0][0] == checker.EULERIAN)
        return found / len(exist) if exist else 1.0


def setup(workload: str, seed: int):
    """Build the corpus several times; return it, the median corrected build time and the count."""
    walls: list[float] = []
    times: list[float] = []
    first = None
    while len(walls) < MIN_SETUPS or (sum(walls) < SETUP_SECONDS and len(walls) < MAX_SETUPS):
        before = calibration.kernel_seconds()
        start = time.perf_counter()
        ops = corpus.build(workload, seed)
        walls.append(time.perf_counter() - start)
        kernel = (before + calibration.kernel_seconds()) / 2
        times.append(walls[-1] * calibration.REFERENCE_S / kernel)
        if first is None:
            first = ops
        elif ops != first:
            raise RuntimeError(f"{workload}: corpus for seed {seed} did not regenerate identically")
    return first, statistics.median(times), len(walls)


def timed_passes(ops, lanes, seconds: float, verdicts: Verdicts) -> list[list[Pass]]:
    """The passes of each lane, for as long as the next round is expected to end
    inside ``seconds``.  ``lanes`` makes the lanes of one round."""
    rounds: list[list[Pass]] = []
    start = time.perf_counter()
    while True:
        rounds.append(run_passes(ops, lanes()))
        for p in rounds[-1]:
            verdicts.add(p)
        if (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) > seconds:
            return [list(passes) for passes in zip(*rounds)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_medians(passes: list[Pass]) -> list[float]:
    """Each operation's median corrected time over the passes."""
    return [statistics.median(times) for times in zip(*(p.corrected for p in passes))]


def end_to_end(ops, passes: list[Pass], verdicts: Verdicts, setup_s: float) -> dict:
    per_op = op_medians(passes)
    return {
        "setup_s": metric(setup_s, "s"),
        "throughput_edges_per_s": metric(sum(inst.edges for inst in ops) / sum(per_op), "edges/s"),
        "latency_p50_ms": metric(1e3 * statistics.median(per_op), "ms"),
        "latency_p90_ms": metric(1e3 * statistics.quantiles(per_op, n=10)[8], "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "certified_share": metric(1 - verdicts.failed / verdicts.attempted, "share"),
        "tour_recall": metric(verdicts.tour_recall, "share"),
    }


def layer_row(p: Pass) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    self_ns, calls = tracing.layer_totals(p.rec.names, p.rec.spans)
    glue_ns = self_ns.pop(tracing.OP)
    row = {f"{name}.self_ms": self_ns.get(name, 0) / 1e6 for name in SELF_MS}
    row |= {f"{name}.calls": calls.get(name, 0) for name in CALLS}
    row |= {key: p.rec.counts[key] for key in tracing.COUNTS}
    row |= {f"interchange.{key}": p.counts[key] for key in MERGE_STATS}
    row["solver.reduction_layers"] = p.counts["reduction_layers"]
    applies = calls.get("interchange.apply_interchange", 0)
    row["interchange.productive_ratio"] = p.counts["steps"] / applies if applies else 0.0
    row["trace.accounted_share"] = sum(self_ns.values()) / (sum(self_ns.values()) + glue_ns)
    return row


def per_layer(traced: list[Pass], plain: list[Pass], verdicts: Verdicts) -> dict:
    """Medians over traced passes; overhead is against the untraced passes of the same run."""
    rows = [layer_row(p) for p in traced]
    out = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    out["trace.overhead_share"] = sum(op_medians(traced)) / sum(op_medians(plain)) - 1
    out["calibration.kernel_ms"] = 1e3 * statistics.median(k for p in plain for k in p.kernel)
    out["verdict.failed_share"] = verdicts.failed / verdicts.attempted
    out["verdict.underclaims"] = verdicts.underclaims

    def unit(key: str) -> str:
        if key.endswith("_ms"):
            return "ms"
        return "share" if key.endswith(("_share", "_ratio")) else "count"

    return {key: metric(value, unit(key)) for key, value in sorted(out.items())}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def write_spans(path: Path, traced: list[Pass]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass\top\tname\tstart_ns\tend_ns\tparent\n")
        for i, p in enumerate(traced):
            names = p.rec.names
            for name_id, start, end, parent, op in p.rec.spans:
                fh.write(f"{i}\t{op}\t{names[name_id]}\t{start}\t{end}\t{parent}\n")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and human-readable notes."""
    ops, setup_s, setups = setup(workload, seed)
    verdicts = Verdicts(ops)
    (warm,) = run_passes(ops, [PLAIN])
    verdicts.add(warm)
    if trace:
        plain, traced = timed_passes(ops, lambda: [PLAIN, traced_lane()], seconds, verdicts)
        metrics = per_layer(traced, plain, verdicts)
        passes = plain + traced
    else:
        (passes,) = timed_passes(ops, lambda: [PLAIN], seconds, verdicts)
        metrics = end_to_end(ops, passes, verdicts, setup_s)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}"
    record = {
        "workload": workload, "seed": seed, "sha256": warm.digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "commit": git_commit(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
    stem.with_suffix(".determinism.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        write_spans(stem.with_suffix(".spans.tsv"), traced)
    notes = [
        f"workload {workload}, seed {seed}: {len(ops)} ops a pass, {setups} set-ups, "
        f"1 warm-up pass, {len(passes)} timed passes",
        f"latency: per-op medians over {len(passes)} passes, {len(ops)} samples",
        f"reference kernel: median {1e3 * statistics.median(k for p in passes for k in p.kernel):.3f} ms"
        f" against {1e3 * calibration.REFERENCE_S:g} ms at the reference speed; uncorrected"
        f" pass wall times {', '.join(f'{sum(p.seconds):.3f}' for p in passes)} s",
        f"certificate sha256 {record['sha256']}",
        f"underclaims {verdicts.underclaims}, outputs that changed between passes {verdicts.changed}",
    ] + [f"FAILED {reason}" for reason in verdicts.reasons[:10]]
    result = {
        "correct": verdicts.failed == 0 and verdicts.changed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }
    return result, notes


def hashseed_check(workload: str, seed: int) -> int:
    """Compare the certificate digest under PYTHONHASHSEED=0 and =1, each in its own process."""
    digests = []
    for hashseed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--digest"],
            env=os.environ | {"PYTHONHASHSEED": hashseed}, capture_output=True, text=True,
            timeout=600, check=True)
        digests.append(proc.stdout.split()[-1])
        print(f"PYTHONHASHSEED={hashseed}: {digests[-1]}")
    same = digests[0] == digests[1]
    print(f"{workload} seed {seed}: digests {'match' if same else 'DIFFER'}")
    return 0 if same else 1


def run_all(args) -> int:
    """Each workload in a fresh process; prints every table and the three results."""
    results = {}
    for workload in corpus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=True)
        *table, last = proc.stdout.strip().splitlines()
        print("\n".join(table))
        results[workload] = json.loads(last)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest", action="store_true",
                        help="print the certificate digest of one pass and exit")
    parser.add_argument("--hashseed-check", action="store_true",
                        help="check that the digest is the same under PYTHONHASHSEED=0 and =1")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.hashseed_check:
        return hashseed_check(args.workload, args.seed)
    if args.digest:
        print(run_passes(corpus.build(args.workload, args.seed), [PLAIN])[0].digest())
        return 0
    result, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in notes:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
