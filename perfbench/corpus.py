"""Seeded workload corpora, emitted as ``.hg`` text, with ground truth.

Every input comes from the package's seeded generators and ``genio.Lcg``, so
one seed fixes a corpus byte for byte.  Ground truth is computed here, during
set-up, and never inside the timed region:

* covering inputs with at least two edges have an Euler tour (the paper's
  main theorem), so they need no search;
* other inputs get ``oracle.brute_family_exists`` and, when a family exists
  and the edges form one piece, ``oracle.brute_tour`` (no family means no
  tour);
* the family oracle runs on each connected piece of the edge set, smallest
  first: a family exists iff every piece has one, since pieces share no
  vertex.  An input whose edges form more than one piece has no tour.
"""

from __future__ import annotations

from dataclasses import dataclass

from eulergraph import Hypergraph, brute_family_exists, brute_tour
from eulergraph.genio import Lcg, emit_hg, gen_complete, gen_random_covering, gen_sts

WORKLOADS = ("tour-k3", "tour-k45", "best-effort")


@dataclass(frozen=True)
class Instance:
    """One benchmark input and what a correct answer must show about it."""

    name: str
    text: str
    edges: int
    family: bool
    tour: bool


def _covering(name: str, h: Hypergraph) -> Instance:
    if len(h.edges) < 2:
        raise ValueError(f"{name}: a covering input needs at least two edges")
    return Instance(name, emit_hg(h), len(h.edges), True, True)


def _edge_pieces(h: Hypergraph) -> list[Hypergraph]:
    """Sub-hypergraphs spanned by the connected pieces of the edge set."""
    root = list(range(h.order))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for e in h.edges:
        first, *rest = sorted(e)
        for v in rest:
            root[find(v)] = find(first)
    groups: dict[int, list[int]] = {}
    for j, e in enumerate(h.edges):
        groups.setdefault(find(min(e)), []).append(j)
    pieces = []
    for ids in groups.values():
        labels = sorted({h.vertices[v] for j in ids for v in h.edges[j]})
        pieces.append(Hypergraph.from_labels(labels, [h.edge_labels(j) for j in ids]))
    return pieces


def _noncovering(name: str, h: Hypergraph) -> Instance:
    pieces = sorted(_edge_pieces(h), key=lambda p: len(p.edges))
    family = all(brute_family_exists(p) for p in pieces)
    tour = family and len(pieces) == 1 and brute_tour(h) is not None
    return Instance(name, emit_hg(h), len(h.edges), family, tour)




def _disjoint_union(*parts: Hypergraph) -> Hypergraph:
    verts: list[str] = []
    edges: list[tuple[str, ...]] = []
    for tag, h in zip("abcdefgh", parts):
        verts += [tag + lab for lab in h.vertices]
        edges += [tuple(tag + lab for lab in h.edge_labels(j)) for j in range(len(h.edges))]
    return Hypergraph.from_labels(verts, edges)


def _random_noncovering(rng: Lcg) -> Hypergraph:
    """n in 8..12, m in 6..10, edge arity 2..4, about one edge in 8 a repeat."""
    n = 8 + rng.below(5)
    m = 6 + rng.below(5)
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges: list[tuple[str, ...]] = []
    while len(edges) < m:
        if edges and rng.below(8) == 0:
            edges.append(edges[rng.below(len(edges))])
            continue
        pool = list(range(n))
        rng.shuffle(pool)
        edges.append(tuple(verts[i] for i in sorted(pool[:2 + rng.below(3)])))
    return Hypergraph.from_labels(verts, edges)


# Each workload has a fixed part and a seeded part.  The largest inputs set
# throughput and p90 latency, so they are fixed; a seed varies only inputs
# small and numerous enough that their cost hardly moves with it.


def tour_k3(seed: int) -> list[Instance]:
    out = [_covering(f"sts({n})", gen_sts(n)) for n in range(19, 46) if n % 6 in (1, 3)]
    out += [_covering(f"complete({n},3)", gen_complete(n, 3)) for n in range(8, 14)]
    out += [
        _covering(f"random_covering({n},3,{s})", gen_random_covering(n, 3, s))
        for n in (21, 22) for s in range(1, 10)]
    rng = Lcg(seed)
    for i in range(66):
        n, s = 14 + i % 7, rng.draw()
        out.append(_covering(f"random_covering({n},3,{s})", gen_random_covering(n, 3, s)))
    return out


# Seeded shapes of tour-k45 as ((k, n), count).  Op times roughly double
# with each step of n, so a median that fell between two shapes would jump
# with the seed.  Eight draws each of the three shapes near 9 ms put the
# median inside one dense group.  Larger random coverings are fixed, and stop
# at n = 14 for k = 4, 11 for k = 5 and 10 for k = 6: random_covering(16,5)
# takes about 9 s and random_covering(15,6) about 32 s, which would swamp a
# pass.
_K45_SEEDED = (
    [((4, 5), 3), ((5, 6), 3), ((4, 6), 3), ((6, 7), 3)]
    + [((4, 7), 5), ((5, 7), 5), ((6, 8), 5), ((4, 8), 5), ((5, 8), 5), ((4, 9), 5)]
    + [((6, 9), 8), ((5, 9), 8), ((4, 10), 8)]
    + [((4, 11), 5), ((5, 10), 5), ((4, 12), 5)])
_K45_FIXED = ((4, 13), (4, 14), (5, 11), (6, 10))


def tour_k45(seed: int) -> list[Instance]:
    out = [_covering(f"complete({n},4)", gen_complete(n, 4)) for n in range(6, 11)]
    out += [_covering(f"complete({n},5)", gen_complete(n, 5)) for n in range(7, 11)]
    out += [
        _covering(f"random_covering({n},{k},{s})", gen_random_covering(n, k, s))
        for k, n in _K45_FIXED for s in range(1, 4)]
    rng = Lcg(seed)
    for (k, n), count in _K45_SEEDED:
        for _ in range(count):
            s = rng.draw()
            out.append(_covering(f"random_covering({n},{k},{s})", gen_random_covering(n, k, s)))
    return out


def _roadmap_item3() -> Hypergraph:
    """An input with a tour that the merge ladder misses (ROADMAP open item 3)."""
    return Hypergraph.from_labels(
        ["v0", "v1", "v2", "v3", "v4"],
        [("v1", "v2", "v3"), ("v0", "v1", "v4"), ("v1", "v2", "v3"), ("v0", "v1", "v4")])


# Draws of the stream Lcg(0) that have a family but no tour: the first six
# such draws.  They stand for that stratum in every corpus (see best_effort).
_FIXED_STREAM_DRAWS = (20, 43, 94, 135, 191, 219)


def best_effort(seed: int) -> list[Instance]:
    c, s, r = gen_complete, gen_sts, gen_random_covering
    # Disjoint unions of covering pieces have a family but no tour, so the
    # merge spends its whole 10*m^2 step budget: the interchange ladder's
    # worst case.  complete(5,3)+complete(4,3) (14 edges, about 75 s) is left
    # out only for run length.
    out = [
        _noncovering("complete(4,3)+complete(4,3)", _disjoint_union(c(4, 3), c(4, 3))),
        _noncovering("complete(4,3)x3", _disjoint_union(c(4, 3), c(4, 3), c(4, 3))),
        _noncovering("sts(7)+complete(4,3)", _disjoint_union(s(7), c(4, 3))),
        _noncovering("random_covering(5,3,1)+complete(4,3)", _disjoint_union(r(5, 3, 1), c(4, 3))),
        _noncovering("roadmap-item3", _roadmap_item3()),
    ]
    fixed = Lcg(0)
    draws = [_random_noncovering(fixed) for _ in range(_FIXED_STREAM_DRAWS[-1] + 1)]
    for i in _FIXED_STREAM_DRAWS:
        inst = _noncovering(f"fixed#{i}", draws[i])
        if not inst.family or inst.tour:
            raise RuntimeError(f"fixed#{i} no longer has a family without a tour")
        out.append(inst)
    # Seeded draws come in fixed numbers per ground-truth class: 350 with a
    # tour and 100 without a family.  Op times form clusters (no family about
    # 0.25 ms, a tour without a merge about 0.5 ms, a tour after a merge 1 ms
    # and up), so with free class counts the median and p90 jumped between
    # clusters from seed to seed; these counts put both inside one.  Draws
    # with a family but no tour are set aside: their merge runs the step
    # budget out at a cost from 2 ms to 7 s, so a few of them would make the
    # timings depend on the seed more than on the code.  The fixed members
    # above stand for that class.
    quota = {(True, True): 350, (False, False): 100}
    total = sum(quota.values())
    rng = Lcg(seed)
    kept = []
    while len(kept) < total:
        name, h = f"random#{len(kept)}", _random_noncovering(rng)
        # Once the draws without a family are complete, a draw whose edges
        # form more than one piece has no tour and needs no oracle.
        if quota[(False, False)] == 0 and len(_edge_pieces(h)) > 1:
            continue
        inst = _noncovering(name, h)
        cls = (inst.family, inst.tour)
        if quota.get(cls, 0) > 0:
            quota[cls] -= 1
            kept.append(inst)
    return out + kept


BUILDERS = {"tour-k3": tour_k3, "tour-k45": tour_k45, "best-effort": best_effort}


def build(workload: str, seed: int) -> list[Instance]:
    """The corpus of one workload; the same seed gives the same instances."""
    return BUILDERS[workload](seed)
