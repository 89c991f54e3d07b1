"""Command line front end.

Exit codes: 0 success (tour/family found, certificate valid), 1 verified
negative, 2 input error (a ``ValueError``, which includes
:class:`~eulergraph.errors.FormatError`, or an ``OSError``), 3 search or
budget exhausted (:class:`~eulergraph.errors.MergeExhaustedError`), 4
internal error (a constructed certificate failed the boundary check with
:class:`~eulergraph.errors.CertificateViolation`, or any other unexpected
exception).  Exit 1 therefore only ever means a verified negative.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from . import genio
from .errors import CertificateViolation, MergeExhaustedError
from .hypergraph import EulerFamily, verify_euler_object
from .oracle import MAX_EDGES, brute_family_exists, brute_tour
from .solver import VERDICT_EULERIAN, VERDICT_NEITHER, certified_family, solve

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_EXHAUSTED = 3
EXIT_INTERNAL = 4


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_family(fam: EulerFamily, empty: str, out: str | None) -> None:
    """One certificate line per closed trail; an empty family writes one comment line."""
    lines = "".join(genio.format_walk_line(w) + "\n" for w in fam.components)
    _write_out(lines or f"# empty hypergraph: {empty}\n", out)


def _cmd_tour(args) -> int:
    h = genio.load_hg(args.file)
    # The arity comes from the edges, so an "hg 0" covering k-hypergraph is still reduced.
    result = solve(h, max(h.uniformity() or 3, 3), budget=args.budget)
    if result.verdict == VERDICT_NEITHER:
        print("verified: no Euler family, hence no Euler tour", file=sys.stderr)
        return EXIT_NEGATIVE
    # The family is the tour alone when eulerian (empty for an edgeless input),
    # and the certified family when a best-effort merge stopped without a tour.
    _write_family(result.family, "vacuously eulerian", args.out)
    if result.verdict == VERDICT_EULERIAN:
        return EXIT_OK
    print(f"tour search exhausted ({result.verdict}); wrote the family certificate instead",
          file=sys.stderr)
    return EXIT_EXHAUSTED


def _cmd_family(args) -> int:
    fam = certified_family(genio.load_hg(args.file))
    if fam is None:
        print("verified: no Euler family exists", file=sys.stderr)
        return EXIT_NEGATIVE
    _write_family(fam, "empty Euler family", args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    h = genio.load_hg(args.file)
    with open(args.cert, encoding="utf-8") as fh:
        fam = genio.parse_family(h, fh.read())
    violations = verify_euler_object(h, fam)
    for violation in violations:
        print(violation, file=sys.stderr)
    if violations:
        return EXIT_NEGATIVE
    print("valid certificate")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.kind == "complete":
        h = genio.gen_complete(args.n, args.k)
    elif args.kind == "sts":
        h = genio.gen_sts(args.n)
    else:
        h = genio.gen_random_covering(args.n, args.k, args.seed)
    _write_out(genio.emit_hg(h), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    h = genio.load_hg(args.file)
    # Checked here, so a bad limit fails with the option's name on every input.
    if args.max_edges <= 0:
        raise ValueError("--max-edges must be positive")
    if args.what == "tour":
        tour = brute_tour(h, args.max_edges)
        if tour is None and h.edges:
            print("verified: no Euler tour exists", file=sys.stderr)
            return EXIT_NEGATIVE
        # An edgeless input has no tour and is vacuously eulerian, as in `tour`.
        _write_family(EulerFamily(() if tour is None else (tour,)), "vacuously eulerian", None)
        return EXIT_OK
    if brute_family_exists(h, args.max_edges):
        print("an Euler family exists")
        return EXIT_OK
    print("verified: no Euler family exists", file=sys.stderr)
    return EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eulergraph",
        description="Euler tours and Euler families of hypergraphs, with certificates.")
    sub = p.add_subparsers(dest="command", required=True)

    tour = sub.add_parser(
        "tour", help="construct a certified Euler tour; when a non-covering input's merge "
                     "stops, write its certified Euler family instead (exit 3)")
    tour.add_argument("file")
    tour.add_argument("--budget", type=int,
                      help="interchange step budget of the merge (default 10*|E|^2)")
    tour.add_argument("--out", help="write the certificate to a file")
    tour.set_defaults(func=_cmd_tour)

    fam = sub.add_parser("family", help="construct a certified Euler family")
    fam.add_argument("file")
    fam.add_argument("--out")
    fam.set_defaults(func=_cmd_family)

    ver = sub.add_parser("verify", help="verify a tour or family certificate")
    ver.add_argument("file")
    ver.add_argument("--cert", required=True)
    ver.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen", help="generate covering hypergraphs")
    gsub = gen.add_subparsers(dest="kind", required=True)
    complete = gsub.add_parser("complete", help="all k-subsets of n vertices")
    complete.add_argument("n", type=int)
    complete.add_argument("k", type=int)
    sts = gsub.add_parser("sts", help="Steiner triple system of order n")
    sts.add_argument("n", type=int)
    rnd = gsub.add_parser("random", help="seeded greedy random covering")
    rnd.add_argument("n", type=int)
    rnd.add_argument("k", type=int)
    rnd.add_argument("seed", type=int)
    for sp in (complete, sts, rnd):
        sp.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)

    orc = sub.add_parser("oracle", help="brute-force ground truth on small inputs")
    orc.add_argument("what", choices=("tour", "family"))
    orc.add_argument("file")
    orc.add_argument("--max-edges", type=int, default=MAX_EDGES)
    orc.set_defaults(func=_cmd_oracle)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MergeExhaustedError as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except CertificateViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # A bug: keep the traceback for the report, and never exit 1, which
        # means a verified negative.
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
