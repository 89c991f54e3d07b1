"""Core hypergraph model: vertex sets, hyperedge multisets, walks, and certificate verification.

Vertices are opaque string labels mapped internally to dense indices.  Edges
form an indexed multiset: the identity of an edge is its position in the
``edges`` tuple, so two edges with equal content remain distinct.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb


@dataclass(frozen=True)
class Hypergraph:
    """A finite hypergraph with labelled vertices and an indexed edge multiset.

    ``edges[i]`` is the frozenset of vertex indices of edge ``i``; an edge of
    any other type is rejected.  User-facing output always uses the original
    labels; the printable name of edge ``i`` is ``e{i+1}``.
    """

    vertices: tuple[str, ...]
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("vertex set must be non-empty")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex label")
        valid = frozenset(range(len(self.vertices)))
        for i, e in enumerate(self.edges):
            if not isinstance(e, frozenset):
                raise ValueError(f"edge {edge_name(i)} is not a frozenset of vertex indices")
            if not valid.issuperset(e):
                v = next(v for v in e if v not in valid)
                raise ValueError(f"edge {edge_name(i)} references unknown vertex index {v}")

    @classmethod
    def from_labels(cls, vertices, edges) -> Hypergraph:
        """Build a hypergraph from label iterables, preserving the given orders.

        An edge is a set, so a label repeated within one edge is rejected
        rather than merged.  Labels are checked one by one, for the error
        message, only when an edge's index set comes out short.
        """
        vs = tuple(vertices)
        index = {lab: i for i, lab in enumerate(vs)}
        position = index.__getitem__
        es = []
        for e in edges:
            labs = tuple(e)
            try:
                members = frozenset(map(position, labs))
            except KeyError:
                members = frozenset()  # short, so the scan below names the label
            if len(members) != len(labs):
                seen = set()
                for lab in labs:
                    if lab not in index:
                        raise ValueError(
                            f"edge {edge_name(len(es))} references unknown vertex {lab!r}")
                    if lab in seen:
                        raise ValueError(f"edge {edge_name(len(es))} repeats vertex {lab!r}")
                    seen.add(lab)
            es.append(members)
        return cls(vs, tuple(es))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.vertices)}

    @property
    def order(self) -> int:
        return len(self.vertices)

    def edge_labels(self, j: int) -> tuple[str, ...]:
        """Sorted vertex labels of one edge."""
        return tuple(sorted(map(self.vertices.__getitem__, self.edges[j])))

    def uniformity(self) -> int | None:
        """The common edge cardinality, or None if edges are absent or mixed."""
        sizes = {len(e) for e in self.edges}
        if len(sizes) != 1:
            return None
        return next(iter(sizes))


def edge_name(j: int) -> str:
    """Printable name of an edge id, 1-based: ``e1``, ``e2``, ..."""
    return f"e{j + 1}"


def validate_covering(h: Hypergraph, k: int) -> bool:
    """Whether ``h`` is a covering k-hypergraph.

    Covering means: non-empty, k-uniform, and every (k-1)-subset of the
    vertex set lies inside at least one edge.  One pass collects the
    (k-1)-subsets of the edges and compares their count with C(n, k-1).
    """
    if k < 3:
        raise ValueError(f"covering hypergraphs are defined for k >= 3, got k={k}")
    if not h.edges or any(len(e) != k for e in h.edges):
        return False
    covered = {sub for e in h.edges for sub in combinations(sorted(e), k - 1)}
    return len(covered) == comb(h.order, k - 1)


@dataclass(frozen=True)
class Walk:
    """An alternating vertex/edge sequence v0 e1 v1 ... ek vk.

    Anchors are vertex labels; edges are edge ids of the host hypergraph.
    Shape and incidence validity against a host are checked by
    :func:`verify_euler_object`, not by the constructor.
    """

    anchors: tuple[str, ...]
    edges: tuple[int, ...]

    @property
    def is_closed(self) -> bool:
        return len(self.edges) >= 2 and bool(self.anchors) and self.anchors[0] == self.anchors[-1]

    @property
    def is_trail(self) -> bool:
        return len(set(self.edges)) == len(self.edges)


@dataclass(frozen=True)
class EulerFamily:
    """Pairwise anchor- and edge-disjoint closed trails jointly covering every edge.

    A family with exactly one component is an Euler tour.
    """

    components: tuple[Walk, ...]


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violations: tuple[str, ...]


def verify_euler_object(h: Hypergraph, f: EulerFamily) -> VerifyReport:
    """Check an Euler family (or tour, as a 1-component family) against its host.

    Never raises: every failed condition is reported with the offending
    component or edge index.
    """
    bad: list[str] = []
    m = len(h.edges)
    usage: Counter[int] = Counter()
    anchor_owner: dict[str, int] = {}

    for ci, w in enumerate(f.components):
        if len(w.anchors) != len(w.edges) + 1:
            bad.append(f"component {ci}: {len(w.anchors)} anchors do not fit {len(w.edges)} edges")
            continue
        if len(w.edges) < 2:
            bad.append(f"component {ci}: a closed trail needs at least 2 edges")
        if w.anchors[0] != w.anchors[-1]:
            bad.append(f"component {ci}: not closed ({w.anchors[0]!r} != {w.anchors[-1]!r})")
        dup = [e for e, c in Counter(w.edges).items() if c > 1]
        for e in sorted(dup):
            bad.append(f"component {ci}: edge {edge_name(e)} repeated")
        for j, eid in enumerate(w.edges):
            if not isinstance(eid, int) or not (0 <= eid < m):
                bad.append(f"component {ci}: step {j} uses unknown edge id {eid!r}")
                continue
            usage[eid] += 1
            a, b = w.anchors[j], w.anchors[j + 1]
            ia = h._index.get(a)
            ib = h._index.get(b)
            if ia is None:
                bad.append(f"component {ci}: unknown anchor {a!r} at step {j}")
                continue
            if ib is None:
                bad.append(f"component {ci}: unknown anchor {b!r} at step {j}")
                continue
            if a == b:
                bad.append(f"component {ci}: equal consecutive anchors {a!r} at step {j}")
            if ia not in h.edges[eid]:
                bad.append(f"component {ci}: anchor {a!r} not in {edge_name(eid)} at step {j}")
            if ib not in h.edges[eid]:
                bad.append(f"component {ci}: anchor {b!r} not in {edge_name(eid)} at step {j}")
        labels = dict.fromkeys(w.anchors)
        shared = labels.keys() & anchor_owner.keys()
        if shared:
            # anchor_owner holds labels in order of first appearance, so the
            # report does not depend on string hashing.
            for lab in [x for x in anchor_owner if x in shared]:
                bad.append(f"components {anchor_owner[lab]} and {ci} share anchor {lab!r}")
        for lab in labels:
            anchor_owner.setdefault(lab, ci)

    for eid in sorted(usage):
        if usage[eid] > 1:
            bad.append(f"edge {edge_name(eid)} traversed {usage[eid]} times across the family")
    for eid in range(m):
        if eid not in usage:
            bad.append(f"edge {edge_name(eid)} never traversed")

    return VerifyReport(not bad, tuple(bad))


def canonical_closed_trail(w: Walk) -> Walk:
    """Rotate/reflect a closed trail into a canonical form.

    Among all rotations and both directions, picks the lexicographically
    smallest interleaved (anchor, edge, anchor, ...) sequence.  The edges of a
    closed trail are distinct and consecutive anchors differ, so no two starts
    share their first (anchor, edge) pair and the smallest pair picks the
    walk in one pass.  Canonical forms make certificates comparable as values.
    """
    if len(w.anchors) != len(w.edges) + 1 or not w.is_closed or not w.is_trail:
        raise ValueError("canonical form is defined for closed trails only")
    a, e = w.anchors, w.edges
    k = len(e)
    if any(a[i] == a[i + 1] for i in range(k)):
        raise ValueError("closed trail with equal consecutive anchors")
    # Forward start r reads (a[r], e[r]); reverse start r reads (a[r], e[r-1]).
    _, _, r, forward = min(
        min((a[r], e[r], r, True), (a[r], e[r - 1], r, False)) for r in range(k))
    if forward:
        return Walk(a[r:k] + a[:r + 1], e[r:] + e[:r])
    return Walk(tuple(a[(r - i) % k] for i in range(k + 1)),
                tuple(e[(r - 1 - i) % k] for i in range(k)))
