"""Generators, the text formats, and the command line."""

import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergraph import FormatError, Hypergraph, InadmissibleOrderError, Walk, validate_covering
from eulergraph import cli, interchange, solver
from eulergraph.cli import EXIT_INTERNAL, main
from eulergraph.genio import (
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

from helpers import src_env, swap_one_anchor

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
        assert validate_covering(h, 4).is_covering

    def test_complete_validation(self):
        with pytest.raises(ValueError):
            gen_complete(3, 3)
        with pytest.raises(ValueError):
            gen_complete(4, 2)

    @pytest.mark.parametrize("n", [7, 9, 13])
    def test_sts_every_pair_exactly_once(self, n):
        h = gen_sts(n)
        assert len(h.edges) == n * (n - 1) // 6
        counts = {}
        for j in range(len(h.edges)):
            for p in combinations(h.edge_labels(j), 2):
                counts[p] = counts.get(p, 0) + 1
        assert len(counts) == n * (n - 1) // 2
        assert all(v == 1 for v in counts.values())
        assert validate_covering(h, 3).is_covering

    @pytest.mark.parametrize("n", [3, 6, 8, 11])
    def test_sts_inadmissible_orders(self, n):
        with pytest.raises(InadmissibleOrderError):
            gen_sts(n)

    def test_random_covering_validates(self):
        for seed in (1, 2, 3):
            for n, k in ((5, 3), (7, 3), (6, 4)):
                h = gen_random_covering(n, k, seed)
                assert validate_covering(h, k).is_covering

    def test_random_covering_deterministic(self):
        a = gen_random_covering(7, 3, 42)
        b = gen_random_covering(7, 3, 42)
        assert a == b

    def test_random_covering_minimal_order(self):
        h = gen_random_covering(4, 3, 1)
        assert len(h.edges) >= 2
        assert validate_covering(h, 3).is_covering


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

    @given(st.integers(1, 10_000), st.integers(5, 8))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random(self, seed, n):
        h = gen_random_covering(n, 3, seed)
        text = emit_hg(h)
        h2, _ = parse_hg(text)
        assert emit_hg(h2) == text


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

    def test_parse_error_exit_two(self, tmp_path):
        hg = tmp_path / "bad.hg"
        hg.write_text("hg 3 oops 1\n")
        assert main(["tour", str(hg)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["tour", str(tmp_path / "absent.hg")]) == 2

    def test_sts_inadmissible_exit_two(self, capsys):
        assert main(["gen", "sts", "6"]) == 2

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

    def test_budget_exhausted_exit_three(self, tmp_path):
        # random covering instance whose matching-produced family starts with
        # two components, so a zero budget bites immediately
        hg = tmp_path / "needs_merge.hg"
        assert main(["gen", "random", "5", "3", "17", "--out", str(hg)]) == 0
        assert main(["tour", str(hg)]) == 0
        assert main(["tour", str(hg), "--budget", "0"]) == 3

    def test_negative_budget_exit_two(self, tmp_path, capsys):
        hg = tmp_path / "needs_merge.hg"
        assert main(["gen", "random", "5", "3", "17", "--out", str(hg)]) == 0
        assert main(["tour", str(hg), "--budget", "-5"]) == 2
        assert "budget" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, module", [("tour", interchange), ("family", cli)])
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
