"""Generators, the text formats, and the command line."""

import hashlib
import subprocess
import sys
import time
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergraph import FormatError, Hypergraph, Walk, validate_covering
from eulergraph import cli, interchange, solver
from eulergraph.cli import EXIT_INTERNAL, main
from eulergraph.genio import (
    MAX_GEN_SIZE,
    Lcg,
    emit_hg,
    format_walk_line,
    gen_complete,
    gen_random_covering,
    gen_sts,
    parse_family,
    parse_hg,
    parse_walk_line,
)

from helpers import random_mixed, random_noncovering, src_env, swap_one_anchor

FIXTURES = Path(__file__).parent / "fixtures"


class TestLcg:
    def test_golden_sequence(self):
        rng = Lcg(1)
        assert [rng.draw() for _ in range(4)] == [
            908834774, 1093944153, 1392341196, 822192870]

    def test_shuffle_deterministic(self):
        a = list(range(10))
        b = list(range(10))
        Lcg(7).shuffle(a)
        Lcg(7).shuffle(b)
        assert a == b and a != list(range(10))


class TestGenerators:
    def test_complete_counts(self):
        assert len(gen_complete(4, 3).edges) == 4
        assert len(gen_complete(5, 3).edges) == 10
        h = gen_complete(6, 4)
        assert len(h.edges) == 15
        assert validate_covering(h, 4)

    def test_complete_validation(self):
        with pytest.raises(ValueError):
            gen_complete(3, 3)
        with pytest.raises(ValueError):
            gen_complete(4, 2)

    @pytest.mark.parametrize("n", [n for n in range(7, 100) if n % 6 in (1, 3)])
    def test_sts_every_pair_exactly_once(self, n):
        h = gen_sts(n)
        assert len(h.edges) == n * (n - 1) // 6
        counts = {}
        for j in range(len(h.edges)):
            for p in combinations(h.edge_labels(j), 2):
                counts[p] = counts.get(p, 0) + 1
        assert len(counts) == n * (n - 1) // 2
        assert all(v == 1 for v in counts.values())
        assert validate_covering(h, 3)

    @pytest.mark.parametrize("n", [3, 6, 8, 11])
    def test_sts_inadmissible_orders(self, n):
        with pytest.raises(ValueError, match=f"no Steiner triple system of order {n} "):
            gen_sts(n)

    def test_random_covering_validates(self):
        for seed in (1, 2, 3):
            for n, k in ((5, 3), (7, 3), (6, 4)):
                h = gen_random_covering(n, k, seed)
                assert validate_covering(h, k)

    def test_random_covering_deterministic(self):
        a = gen_random_covering(7, 3, 42)
        b = gen_random_covering(7, 3, 42)
        assert a == b

    # The count is computed before anything is built: at the sizes below a
    # generator that built first would never return.
    @pytest.mark.parametrize("make, count", [
        (lambda: gen_complete(60, 30), comb(60, 30)),
        (lambda: gen_random_covering(60, 30, 1), comb(60, 29)),
        (lambda: gen_sts(1000003), 1000003 * 1000002 // 6),
    ], ids=["complete", "random", "sts"])
    def test_oversized_requests_fail_before_building(self, make, count):
        assert count > MAX_GEN_SIZE
        with pytest.raises(ValueError, match=f": {count} is more than the limit of {MAX_GEN_SIZE}$"):
            make()

    def test_random_covering_minimal_order(self):
        h = gen_random_covering(4, 3, 1)
        assert len(h.edges) >= 2
        assert validate_covering(h, 3)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# SHA-256 of emit_hg output.  The seeded corpora and every bench digest rest
# on these bytes, so any change to the generators or the emitter must keep
# them.  Labels v10 and up sort before v2, so the n >= 10 cases also pin the
# label order of vertex and edge lines.
GOLDEN_HG = {
    (gen_random_covering, (14, 3, 5)):
        "ccae92c0023b060d3276165d36013fdb0873c3891a5f5080357f8fcce8ef20e3",
    (gen_random_covering, (22, 3, 9)):
        "4c9f7b7f98827b501cf792b95a0dd0ad006d12d87958db2e2e2ff3799151d921",
    (gen_random_covering, (10, 4, 2)):
        "425bec69c40ef273364a94a9d86101121d680750a8afc1c3d22fc1c1c092c402",
    (gen_random_covering, (9, 5, 3)):
        "dfb95b77f27036eab11e9fa2fd80c049a6fa2cfa24df9655c9763fe7c85e950e",
    (gen_random_covering, (9, 6, 1)):
        "8dc1e5cf8d4463ef9253fcc98f190b2e1ffa738ebbb94c4029d4107a838523fb",
    (gen_sts, (7,)): "bfb96359acb4c0b5a33c7bfae73a773a792ed280587d331828e8e9c602b00cad",
    (gen_sts, (9,)): "688c3017ab8de19be828f66f154ef28280a1f4334c43832be220ebc463d28554",
    (gen_sts, (13,)): "08620e182d53369e8806b42f457ed0a7f3b554f6d0281ca69f9363cf3a9063f3",
    (gen_sts, (151,)): "d68c593688cdfbe579258bc72d2254e44fa8281e8aa99e20841c84e7aa075e82",
    (gen_sts, (19,)): "2c056b5344ec1167d1b243d88eb3453fa062ec891bc2975f9b433de183e1cb2f",
    (gen_sts, (21,)): "06d65fefcc173d9b620090131d1601678b0360f265fa9f5ebdb3fb33143b625a",
    (gen_complete, (9, 3)): "bc1708f84d437623b5a984d6264501a4c5029494d3b77bcb44f00e2a17ce14b6",
    (gen_complete, (8, 5)): "9981b3f60e471463fed9cbdac6094dbbfc8d972b4dd9b23a28fd4d2cd97ab1c7",
}


class TestGoldenDigests:
    @pytest.mark.parametrize("gen, args", list(GOLDEN_HG),
                             ids=[f"{g.__name__}{a}" for g, a in GOLDEN_HG])
    def test_emitted_text(self, gen, args):
        assert _sha256(emit_hg(gen(*args))) == GOLDEN_HG[gen, args]

    def test_lcg_below_and_shuffle_stream(self):
        rng = Lcg(12345)
        values = [rng.below(b) for b in range(1, 400)]
        items = list(range(50))
        rng.shuffle(items)
        values += items + [rng.below(1 << 40)]
        assert _sha256(" ".join(map(str, values))) == (
            "40a1ce0c2700aa78087c6bc5f0af148f82ad4429b33ab8f2dd995c8cc40a9a7f")


class TestHgFormat:
    def test_round_trip(self):
        h = gen_random_covering(6, 3, 5)
        text = emit_hg(h)
        h2, k = parse_hg(text)
        assert k == 3
        assert emit_hg(h2) == text
        assert [set(h2.edge_labels(j)) for j in range(len(h2.edges))] == \
               [set(h.edge_labels(j)) for j in range(len(h.edges))]

    def test_comments_and_blank_lines_ignored(self):
        text = "# corpus\nhg 3 3 1  # header\n\nv a\nv b\nv c\ne a b c\n"
        h, k = parse_hg(text)
        assert h.order == 3 and len(h.edges) == 1

    def test_malformed_header(self):
        with pytest.raises(FormatError) as exc:
            parse_hg("hg 3 3\nv a\n")
        assert exc.value.line == 1
        assert isinstance(exc.value, ValueError)

    def test_arity_mismatch_reports_line(self):
        text = "hg 3 3 1\nv a\nv b\nv c\ne a b\n"
        with pytest.raises(FormatError) as exc:
            parse_hg(text)
        assert exc.value.line == 5

    def test_unknown_label_reports_line(self):
        text = "hg 3 3 1\nv a\nv b\nv c\ne a b z\n"
        with pytest.raises(FormatError) as exc:
            parse_hg(text)
        assert exc.value.line == 5

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(FormatError):
            parse_hg("hg 3 2 0\nv a\nv a\n")

    def test_duplicate_vertex_found_in_linear_time(self):
        # the last of 50,000 vertex lines repeats the first; a scan of the
        # labels read so far makes this quadratic
        n = 50_000
        text = f"hg 3 {n} 0\n" + "".join(f"v v{i}\n" for i in range(n - 1)) + "v v0\n"
        start = time.perf_counter()
        with pytest.raises(FormatError, match=f"line {n + 1}: duplicate vertex label 'v0'"):
            parse_hg(text)
        assert time.perf_counter() - start < 5

    def test_duplicate_edge_lines_allowed(self):
        text = "hg 3 3 2\nv a\nv b\nv c\ne a b c\ne a b c\n"
        h, _ = parse_hg(text)
        assert len(h.edges) == 2

    def test_nonuniform_k_zero(self):
        h = Hypergraph.from_labels("abc", [("a", "b"), ("a", "b", "c")])
        text = emit_hg(h)
        assert text.splitlines()[0] == "hg 0 3 2"
        h2, k = parse_hg(text)
        assert k == 0 and len(h2.edges) == 2

    def test_fano_fixture_round_trips_byte_identically(self):
        text = (FIXTURES / "fano.hg").read_text()
        h, k = parse_hg(text)
        assert k == 3 and h.order == 7 and len(h.edges) == 7
        assert emit_hg(h) == text

    def test_label_with_whitespace_rejected_on_emit(self):
        h = Hypergraph.from_labels(("a b", "c", "d"), [("a b", "c", "d")])
        with pytest.raises(ValueError):
            emit_hg(h)

    def test_empty_edge_rejected_on_emit(self):
        # its line would read "e " alone, which parse_hg refuses
        h = Hypergraph.from_labels("abc", [("a", "b", "c"), ()])
        with pytest.raises(ValueError, match="edge e2 has no vertices"):
            emit_hg(h)

    @given(st.integers(1, 10_000), st.integers(5, 8))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random(self, seed, n):
        h = gen_random_covering(n, 3, seed)
        text = emit_hg(h)
        h2, _ = parse_hg(text)
        assert emit_hg(h2) == text


    def test_header_arity_is_the_arity_solved(self):
        # the bench solves at the header's k (3 when below 3) and the tour
        # command at the edges' common size (3 when mixed or below 3); on
        # emitted text the two must be the same problem
        hs = [gen_sts(n) for n in (7, 9, 13, 15)]
        for k in (3, 4, 5):
            hs += [gen_complete(n, k) for n in range(k + 1, k + 4)]
            hs += [gen_random_covering(n, k, seed)
                   for n in range(k + 1, 10) for seed in (1, 2, 3)]
        rng = Lcg(7)
        hs += [random_mixed(rng) for _ in range(300)]
        hs += [random_noncovering(rng) for _ in range(300)]
        for h in hs:
            h, k = parse_hg(emit_hg(h))
            assert (k if k >= 3 else 3) == max(h.uniformity() or 3, 3), emit_hg(h)


class TestWalkLines:
    def test_format_and_parse(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        w = Walk(("a", "b", "a"), (0, 1))
        line = format_walk_line(w)
        assert line == "a e1 b e2 a"
        assert parse_walk_line(h, line) == w

    def test_bad_edge_token(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        with pytest.raises(FormatError):
            parse_walk_line(h, "a x1 b e2 a")

    def test_out_of_range_edge(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        with pytest.raises(FormatError):
            parse_walk_line(h, "a e3 b e2 a")

    def test_unknown_vertex(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        with pytest.raises(FormatError):
            parse_walk_line(h, "z e1 b e2 z")

    def test_even_token_count_rejected(self):
        h = Hypergraph.from_labels("abc", [("a", "b", "c")] * 2)
        with pytest.raises(FormatError):
            parse_walk_line(h, "a e1 b e2")

    def test_parse_family_multiline(self):
        h = Hypergraph.from_labels("abcd", [("a", "b", "c")] * 2 + [("c", "d", "a")] * 2)
        text = "a e1 b e2 a\nc e3 d e4 c\n"
        fam = parse_family(h, text)
        assert len(fam.components) == 2


class TestCli:
    def test_gen_tour_verify_pipeline(self, tmp_path, capsys):
        hg = tmp_path / "sts7.hg"
        assert main(["gen", "sts", "7", "--out", str(hg)]) == 0
        cert = tmp_path / "tour.cert"
        assert main(["tour", str(hg), "--out", str(cert)]) == 0
        assert main(["verify", str(hg), "--cert", str(cert)]) == 0
        out = capsys.readouterr().out
        assert "valid certificate" in out

    def test_family_command(self, tmp_path, capsys):
        hg = tmp_path / "c.hg"
        main(["gen", "complete", "5", "3", "--out", str(hg)])
        assert main(["family", str(hg)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines

    def test_tour_single_edge_negative(self, tmp_path):
        hg = tmp_path / "one.hg"
        hg.write_text("hg 3 3 1\nv a\nv b\nv c\ne a b c\n")
        assert main(["tour", str(hg)]) == 1

    def test_family_negative(self, tmp_path):
        hg = tmp_path / "one.hg"
        hg.write_text("hg 3 3 1\nv a\nv b\nv c\ne a b c\n")
        assert main(["family", str(hg)]) == 1

    def test_invalid_certificate_exit_one(self, tmp_path):
        hg = tmp_path / "two.hg"
        hg.write_text("hg 3 3 2\nv a\nv b\nv c\ne a b c\ne a b c\n")
        cert = tmp_path / "bad.cert"
        cert.write_text("a e1 b e1 a\n")
        assert main(["verify", str(hg), "--cert", str(cert)]) == 1

    def test_parse_error_exit_two(self, tmp_path, capsys):
        hg = tmp_path / "bad.hg"
        hg.write_text("hg 3 oops 1\n")
        assert main(["tour", str(hg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: line 1: header fields must be integers\n"

    def test_certificate_parse_error_exit_two(self, tmp_path, capsys):
        hg = tmp_path / "two.hg"
        hg.write_text("hg 3 3 2\nv a\nv b\nv c\ne a b c\ne a b c\n")
        cert = tmp_path / "bad.cert"
        cert.write_text("a e99 b e2 a\n")
        assert main(["verify", str(hg), "--cert", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: line 1: edge name 'e99' out of range\n"

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["tour", str(tmp_path / "absent.hg")]) == 2

    def test_sts_inadmissible_exit_two(self, capsys):
        assert main(["gen", "sts", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: no Steiner triple system of order 6 "
                                "(need n % 6 in {1, 3} and n >= 7)\n")

    def test_oversized_gen_exit_two(self, capsys):
        assert main(["gen", "complete", "60", "30"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"input error: complete(60, 30) has C(60, 30) edges: "
                                f"{comb(60, 30)} is more than the limit of {MAX_GEN_SIZE}\n")

    def test_oracle_commands(self, tmp_path, capsys):
        hg = tmp_path / "two.hg"
        hg.write_text("hg 3 3 2\nv a\nv b\nv c\ne a b c\ne a b c\n")
        assert main(["oracle", "tour", str(hg)]) == 0
        assert "a e1 b e2 a" in capsys.readouterr().out
        assert main(["oracle", "family", str(hg)]) == 0
        one = tmp_path / "one.hg"
        one.write_text("hg 3 3 1\nv a\nv b\nv c\ne a b c\n")
        assert main(["oracle", "tour", str(one)]) == 1
        assert main(["oracle", "family", str(one)]) == 1

    def test_edgeless_input_all_commands_agree(self, tmp_path, capsys):
        hg = tmp_path / "empty.hg"
        hg.write_text("hg 3 3 0\nv a\nv b\nv c\n")
        assert main(["tour", str(hg)]) == 0
        tour_out = capsys.readouterr().out
        assert tour_out == "# empty hypergraph: vacuously eulerian\n"
        assert main(["oracle", "tour", str(hg)]) == 0
        assert capsys.readouterr().out == tour_out
        assert main(["family", str(hg)]) == 0
        assert main(["oracle", "family", str(hg)]) == 0

    def test_family_only_exit_three(self, tmp_path, capsys):
        hg = tmp_path / "split.hg"
        hg.write_text(
            "hg 3 6 4\nv a\nv b\nv c\nv d\nv p\nv q\n"
            "e a b p\ne a b p\ne c d q\ne c d q\n")
        assert main(["tour", str(hg)]) == 3
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if l.strip()]) == 2

    def test_family_only_written_to_out_file(self, tmp_path, capsys):
        hg = tmp_path / "split.hg"
        hg.write_text(
            "hg 3 6 4\nv a\nv b\nv c\nv d\nv e\nv f\n"
            "e a b c\ne a b c\ne d e f\ne d e f\n")
        cert = tmp_path / "family.cert"
        assert main(["tour", str(hg), "--out", str(cert)]) == 3
        assert cert.read_text() == "b e1 c e2 b\ne e3 f e4 e\n"
        assert capsys.readouterr().out == ""
        assert main(["verify", str(hg), "--cert", str(cert)]) == 0

    def test_tour_reads_the_arity_from_the_edges(self, tmp_path, capsys):
        # a covering 4-hypergraph is reduced whether its header says 4 or 0
        text = emit_hg(gen_complete(7, 4))
        assert text.startswith("hg 4 ")
        lines = []
        for header in ("hg 4 ", "hg 0 "):
            hg = tmp_path / "complete74.hg"
            hg.write_text(header + text[len("hg 4 "):])
            assert main(["tour", str(hg)]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        assert lines[0] == format_walk_line(solver.solve(gen_complete(7, 4), 4).tour) + "\n"

    def test_budget_exhausted_exit_three(self, tmp_path):
        # random covering instance whose matching-produced family starts with
        # two components, so a zero budget bites immediately
        hg = tmp_path / "needs_merge.hg"
        assert main(["gen", "random", "5", "3", "21", "--out", str(hg)]) == 0
        assert main(["tour", str(hg)]) == 0
        assert main(["tour", str(hg), "--budget", "0"]) == 3

    def test_negative_budget_exit_two(self, tmp_path, capsys):
        hg = tmp_path / "needs_merge.hg"
        assert main(["gen", "random", "5", "3", "21", "--out", str(hg)]) == 0
        assert main(["tour", str(hg), "--budget", "-5"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_unexpected_exception_exit_four(self, tmp_path, capsys, monkeypatch):
        # exit 1 is kept for verified negatives; any other failure is internal
        hg = tmp_path / "two.hg"
        hg.write_text("hg 3 3 2\nv a\nv b\nv c\ne a b c\ne a b c\n")

        def broken_solve(*args, **kwargs):
            raise RuntimeError("forced")

        monkeypatch.setattr(cli, "solve", broken_solve)
        assert main(["tour", str(hg)]) == EXIT_INTERNAL == 4
        assert "internal error: RuntimeError: forced" in capsys.readouterr().err

    def assert_boundary_failure(self, tmp_path, capsys, monkeypatch, text, command, module):
        hg = tmp_path / "input.hg"
        hg.write_text(text)
        h, _ = parse_hg(text)
        real = module.trails_from_subgraph
        monkeypatch.setattr(module, "trails_from_subgraph",
                            lambda fsub: swap_one_anchor(h, real(fsub)))
        assert main([command, str(hg)]) == EXIT_INTERNAL == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, module", [("tour", interchange), ("family", solver)])
    def test_boundary_check_failure_exit_four(self, tmp_path, capsys, monkeypatch, command, module):
        # the one-component tour is read out by the merge's own exit
        text = "hg 3 4 2\nv a\nv b\nv c\nv d\ne a b c\ne a b d\n"
        self.assert_boundary_failure(tmp_path, capsys, monkeypatch, text, command, module)

    def test_boundary_check_failure_family_only_exit_four(self, tmp_path, capsys, monkeypatch):
        text = ("hg 3 6 4\nv a\nv b\nv p\nv c\nv d\nv q\n"
                "e a b p\ne a b p\ne c d q\ne c d q\n")
        assert solver.solve(parse_hg(text)[0], 3).verdict == "not-covering-best-effort"
        self.assert_boundary_failure(tmp_path, capsys, monkeypatch, text, "tour", solver)

    def test_verify_report_independent_of_hash_seed(self, tmp_path):
        # two trails sharing anchors a and b; the report lists them in the
        # order they first appear in the family, under every string hash seed
        hg = tmp_path / "shared.hg"
        hg.write_text("hg 3 6 4\n" + "".join(f"v {x}\n" for x in "abcdef")
                      + "e a b c\ne a b d\ne a b e\ne a b f\n")
        cert = tmp_path / "shared.cert"
        cert.write_text("a e1 b e2 a\nb e3 a e4 b\n")
        errs = set()
        for seed in range(6):
            run = subprocess.run(
                [sys.executable, "-m", "eulergraph", "verify", str(hg), "--cert", str(cert)],
                capture_output=True, text=True, env=dict(src_env(), PYTHONHASHSEED=str(seed)))
            assert run.returncode == 1
            errs.add(run.stderr)
        assert errs == {"components 0 and 1 share anchor 'a'\n"
                        "components 0 and 1 share anchor 'b'\n"}

    def test_module_entry_point_deterministic(self, tmp_path):
        hg = tmp_path / "r.hg"
        main(["gen", "random", "6", "3", "11", "--out", str(hg)])
        runs = [
            subprocess.run(
                [sys.executable, "-m", "eulergraph", "tour", str(hg)],
                capture_output=True, text=True, check=True, env=src_env())
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout and runs[0].stdout.strip()
