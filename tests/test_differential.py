"""Differential checks of the engine against the brute-force oracles.

Each input class has at most 10 edges, so ``oracle.brute_family_exists`` and
``oracle.brute_tour`` give exact ground truth.  ``solve``,
``find_family_subgraph``, ``certified_family`` and the command line
(``tour``, ``family`` and ``verify`` round trips through files, run in
process) must agree with it:

* no overclaim: ``eulerian`` only with a tour the oracle confirms exists,
  ``neither`` only where no family exists;
* no underclaim: a family-only verdict only where no tour exists.

A seeded stream of non-covering inputs also checks that every draw with a
brute-force tour still ends ``eulerian``, now that forced anchors fix part
of each family before the merge.

Hypothesis runs derandomized with fixed example counts, so every run draws
the same inputs.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulergraph import (
    EulerFamily,
    Hypergraph,
    brute_family_exists,
    brute_tour,
    build_incidence,
    certified_family,
    find_family_subgraph,
    solve,
    validate_covering,
    verify_euler_object,
)
from eulergraph.cli import EXIT_EXHAUSTED, EXIT_NEGATIVE, EXIT_OK, main
from eulergraph.genio import Lcg, emit_hg, parse_hg

from helpers import random_noncovering

DIFFERENTIAL = settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
)


@st.composite
def _hypergraph(draw, n_range, sizes, distinct=False, pool=None):
    """Vertices v1..vn and 2 to 10 edges whose sizes come from ``sizes``, capped at n.

    ``distinct`` forbids repeated edges; ``pool`` draws the edges from at
    most that many distinct edges, so longer edge lists repeat some.
    """
    n = draw(st.integers(*n_range))
    verts = [f"v{i}" for i in range(1, n + 1)]

    def edge(size):
        return st.permutations(verts).map(lambda p: frozenset(p[:size]))

    one_edge = sizes.flatmap(edge)
    if pool is not None:
        base = draw(st.lists(one_edge, min_size=1, max_size=pool, unique=True))
        edges = draw(st.lists(st.sampled_from(base), min_size=2, max_size=10))
    else:
        edges = draw(st.lists(one_edge, min_size=2, max_size=10, unique=distinct))
    return Hypergraph.from_labels(verts, [sorted(e) for e in edges])


CLASSES = {
    "3-uniform": _hypergraph((4, 9), st.just(3), distinct=True),
    "multiset": _hypergraph((3, 7), st.just(3), pool=4),
    "non-uniform": _hypergraph((3, 12), st.integers(2, 5)),
    "4-uniform": _hypergraph((5, 12), st.just(4)),
    "5-uniform": _hypergraph((6, 12), st.just(5)),
    "undersized": _hypergraph((3, 8), st.integers(1, 3)),
}


def _truth(h: Hypergraph) -> tuple[bool, bool]:
    """(a family exists, a tour exists) by the oracles."""
    family = brute_family_exists(h)
    return family, family and brute_tour(h) is not None


def _check_solve(h: Hypergraph, k: int, family: bool, tour: bool) -> None:
    res = solve(h, k if k >= 3 else 3)
    if res.verdict == "eulerian":
        assert tour, "eulerian without a brute-force tour"
        assert verify_euler_object(h, EulerFamily((res.tour,))).valid
    elif res.verdict == "neither":
        assert not family, "neither, but a family exists"
    else:
        assert res.verdict == "not-covering-best-effort"
        assert family and verify_euler_object(h, res.family).valid
        assert not tour, "underclaim: family only, but a tour exists"
    assert (find_family_subgraph(build_incidence(h)) is not None) == family
    fam = certified_family(h)
    assert (fam is not None) == family
    if fam is not None:
        assert verify_euler_object(h, fam).valid


def _check_cli(h: Hypergraph, family: bool, tour: bool, tmp) -> None:
    hg, cert = tmp / "input.hg", tmp / "cert.txt"
    hg.write_text(emit_hg(h), encoding="utf-8")
    want = EXIT_OK if tour else EXIT_EXHAUSTED if family else EXIT_NEGATIVE
    cert.unlink(missing_ok=True)
    assert main(["tour", str(hg), "--out", str(cert)]) == want
    if family:
        assert main(["verify", str(hg), "--cert", str(cert)]) == EXIT_OK
        lines = cert.read_text(encoding="utf-8").splitlines()
        assert (len(lines) == 1) == tour
    cert.unlink(missing_ok=True)
    assert main(["family", str(hg), "--out", str(cert)]) == (EXIT_OK if family else EXIT_NEGATIVE)
    if family:
        assert main(["verify", str(hg), "--cert", str(cert)]) == EXIT_OK


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


@pytest.mark.parametrize("kind", sorted(CLASSES))
@DIFFERENTIAL
@given(data=st.data())
def test_engine_agrees_with_oracle(kind, data, workdir):
    h, k = parse_hg(emit_hg(data.draw(CLASSES[kind])))
    if kind == "3-uniform":
        assume(not validate_covering(h, 3))
    if kind == "non-uniform":
        assume(k == 0)
    if kind == "undersized":
        assume(any(len(e) < 2 for e in h.edges))
    family, tour = _truth(h)
    _check_solve(h, k, family, tour)
    _check_cli(h, family, tour, workdir)


def test_one_edge_inputs_agree_with_oracle(workdir):
    # one edge is never a closed trail, covering or not, at every edge size
    for n in range(1, 7):
        verts = [f"v{i}" for i in range(1, n + 1)]
        for size in range(1, n + 1):
            h, k = parse_hg(emit_hg(Hypergraph.from_labels(verts, [verts[:size]])))
            family, tour = _truth(h)
            assert not family and not tour
            _check_solve(h, k, family, tour)
            _check_cli(h, family, tour, workdir)


def test_no_tour_lost_on_a_noncovering_stream():
    # the forced anchors fix part of each family before the merge starts,
    # so a draw with a tour must still end eulerian
    rng = Lcg(79)
    tours = 0
    for _ in range(400):
        h = random_noncovering(rng)
        if brute_tour(h) is not None:
            assert solve(h, 3).verdict == "eulerian", emit_hg(h)
            tours += 1
    assert tours >= 150
