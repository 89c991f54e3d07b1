"""Core hypergraph model: vertex sets, hyperedge multisets, walks, and certificate verification.

Vertices are opaque string labels mapped internally to dense indices.  Edges
form an indexed multiset: the identity of an edge is its position in the
``edges`` tuple, so two edges with equal content remain distinct.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from operator import eq


@dataclass(frozen=True)
class Hypergraph:
    """A finite hypergraph with labelled vertices and an indexed edge multiset.

    ``vertices`` is a tuple of ``str`` labels and ``edges`` a tuple whose
    ``edges[i]`` is the frozenset of ``int`` vertex indices of edge ``i``;
    anything else is rejected, so the object is hashable and every label prints.
    User-facing output always uses the original labels; the printable name
    of edge ``i`` is ``e{i+1}``.
    """

    vertices: tuple[str, ...]
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        vertices, edges = self.vertices, self.edges
        if not isinstance(vertices, tuple) or not isinstance(edges, tuple):
            raise ValueError("vertices and edges must be tuples")
        if not vertices:
            raise ValueError("vertex set must be non-empty")
        for lab in vertices:
            if not isinstance(lab, str):
                raise ValueError(f"vertex label {lab!r} is not a str")
        # Each label's index, kept for the verifier; a repeated label shrinks it.
        index = dict(zip(vertices, range(len(vertices))))
        if len(index) != len(vertices):
            raise ValueError("duplicate vertex label")
        object.__setattr__(self, "_index", index)
        valid = frozenset(range(len(vertices)))
        for i, e in enumerate(edges):
            if not isinstance(e, frozenset):
                raise ValueError(f"edge {edge_name(i)} is not a frozenset of vertex indices")
            if not valid.issuperset(e):
                v = next(v for v in e if v not in valid)
                raise ValueError(f"edge {edge_name(i)} references unknown vertex index {v}")
            # 0.0 and True are members of valid too, but index no list.
            for v in e:
                if type(v) is not int:
                    raise ValueError(f"edge {edge_name(i)} holds vertex index {v!r}, not an int")

    @classmethod
    def from_labels(cls, vertices, edges) -> Hypergraph:
        """Build a hypergraph from label iterables, preserving the given orders.

        An edge is a set, so a label repeated within one edge is rejected
        rather than merged.
        """
        vs = tuple(vertices)
        index = {lab: i for i, lab in enumerate(vs)}
        es = []
        for e in edges:
            members = set()
            for lab in e:
                i = index.get(lab)
                if i is None:
                    raise ValueError(f"edge {edge_name(len(es))} references unknown vertex {lab!r}")
                if i in members:
                    raise ValueError(f"edge {edge_name(len(es))} repeats vertex {lab!r}")
                members.add(i)
            es.append(frozenset(members))
        return cls(vs, tuple(es))

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
    vertex set lies inside at least one edge.  Each edge holds k of them, so
    fewer than C(n, k-1) / k edges never cover.  Otherwise one pass collects
    the (k-1)-subsets of the edges, each e - {x} as one int, the bitmask of
    e with bit x cleared, and compares their count with C(n, k-1).
    """
    if k < 3:
        raise ValueError(f"covering hypergraphs are defined for k >= 3, got k={k}")
    if not h.edges or any(len(e) != k for e in h.edges):
        return False
    need = comb(h.order, k - 1)
    if len(h.edges) * k < need:
        return False
    bits = [1 << x for x in range(h.order)]
    masks = [sum(map(bits.__getitem__, e)) for e in h.edges]
    covered = {mask ^ bits[x] for mask, e in zip(masks, h.edges) for x in e}
    return len(covered) == need


@dataclass(frozen=True)
class Walk:
    """An alternating vertex/edge sequence v0 e1 v1 ... ek vk.

    Anchors are vertex labels; edges are edge ids of the host hypergraph.
    Both fields must be tuples, so a walk hashes and cannot change; their
    members, shape and incidence validity against a host are checked by
    :func:`verify_euler_object`, not by the constructor.
    """

    anchors: tuple[str, ...]
    edges: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.anchors, tuple) or not isinstance(self.edges, tuple):
            raise ValueError("anchors and edges must be tuples")


@dataclass(frozen=True)
class EulerFamily:
    """Pairwise anchor- and edge-disjoint closed trails jointly covering every edge.

    A family with exactly one component is an Euler tour.  ``components``
    must be a tuple; :func:`verify_euler_object` checks what it holds.
    """

    components: tuple[Walk, ...]

    def __post_init__(self):
        if not isinstance(self.components, tuple):
            raise ValueError("components must be a tuple")


def verify_euler_object(h: Hypergraph, f: EulerFamily) -> tuple[str, ...]:
    """Check an Euler family (or tour, as a 1-component family) against its host.

    Returns the violations found, in a fixed order; an empty tuple means the
    family is valid.  Never raises: every failed condition is reported with
    the offending component or edge index.
    """
    bad: list[str] = []
    edges = h.edges
    m = len(edges)
    index = h._index
    usage = [0] * m
    anchor_owner: dict[str, int] = {}

    for ci, w in enumerate(f.components):
        if not isinstance(w, Walk):
            bad.append(f"component {ci}: {w!r} is not a walk")
            continue
        anchors, ids = w.anchors, w.edges
        if not all(isinstance(a, str) for a in anchors):
            odd = next(a for a in anchors if not isinstance(a, str))
            bad.append(f"component {ci}: anchor {odd!r} is not a vertex label")
            continue
        # type(), not isinstance: a bool is an int but names no edge
        if not all(type(eid) is int for eid in ids):
            odd = next(eid for eid in ids if type(eid) is not int)
            bad.append(f"component {ci}: edge id {odd!r} is not an int")
            continue
        k = len(ids)
        if len(anchors) != k + 1:
            bad.append(f"component {ci}: {len(anchors)} anchors do not fit {k} edges")
            continue
        if k < 2:
            bad.append(f"component {ci}: a closed trail needs at least 2 edges")
        if anchors[0] != anchors[-1]:
            bad.append(f"component {ci}: not closed ({anchors[0]!r} != {anchors[-1]!r})")
        if len(set(ids)) != k:
            for e in sorted(e for e, c in Counter(ids).items() if c > 1):
                bad.append(f"component {ci}: edge {edge_name(e)} repeated")
        at = list(map(index.get, anchors))
        for j, eid in enumerate(ids):
            if not 0 <= eid < m:
                bad.append(f"component {ci}: step {j} uses unknown edge id {eid!r}")
                continue
            usage[eid] += 1
            ia, ib = at[j], at[j + 1]
            if ia is None:
                bad.append(f"component {ci}: unknown anchor {anchors[j]!r} at step {j}")
                continue
            if ib is None:
                bad.append(f"component {ci}: unknown anchor {anchors[j + 1]!r} at step {j}")
                continue
            # Labels are distinct, so equal indices are equal labels.
            if ia == ib:
                bad.append(
                    f"component {ci}: equal consecutive anchors {anchors[j]!r} at step {j}")
            e = edges[eid]
            if ia not in e:
                bad.append(
                    f"component {ci}: anchor {anchors[j]!r} not in {edge_name(eid)} at step {j}")
            if ib not in e:
                b = anchors[j + 1]
                bad.append(f"component {ci}: anchor {b!r} not in {edge_name(eid)} at step {j}")
        labels = dict.fromkeys(anchors)
        # anchor_owner holds labels in order of first appearance, so the
        # report does not depend on string hashing.
        for lab, owner in anchor_owner.items():
            if lab in labels:
                bad.append(f"components {owner} and {ci} share anchor {lab!r}")
        for lab in labels:
            anchor_owner.setdefault(lab, ci)

    if max(usage, default=0) > 1:
        for eid, c in enumerate(usage):
            if c > 1:
                bad.append(f"edge {edge_name(eid)} traversed {c} times across the family")
    if 0 in usage:
        for eid, c in enumerate(usage):
            if not c:
                bad.append(f"edge {edge_name(eid)} never traversed")

    return tuple(bad)


def canonical_closed_trail(w: Walk) -> Walk:
    """Rotate/reflect a closed trail into a canonical form.

    Among all rotations and both directions, picks the lexicographically
    smallest interleaved (anchor, edge, anchor, ...) sequence.  It starts at
    the smallest anchor label, so only starts there compete, and each reads
    one of the two edges beside it first: the edge after it going forward,
    the edge before it going backward.  The edges of a closed trail are
    distinct and that label never follows itself, so the smallest of these
    edge ids is read first from exactly one start in one direction, and one
    pass over the starts picks both.  Canonical forms make certificates
    comparable as values.  Any other walk, one with fewer than two edges, a
    repeated edge, an end apart from its start or a mismatched anchor count,
    raises ``ValueError``.
    """
    a, e = w.anchors, w.edges
    k = len(e)
    if len(a) != k + 1 or k < 2 or a[0] != a[-1] or len(set(e)) != k:
        raise ValueError("canonical form is defined for closed trails only")
    if any(map(eq, a, a[1:])):
        raise ValueError("closed trail with equal consecutive anchors")
    ring = a[:k]
    lo = min(ring)
    low = None
    r = -1
    for _ in range(ring.count(lo)):
        r = ring.index(lo, r + 1)
        # Forward from r reads e[r] first, backward from r reads e[r - 1].
        if low is None or e[r] < low:
            low, start, ahead = e[r], r, True
        if e[r - 1] < low:
            low, start, ahead = e[r - 1], r, False
    if not ahead:
        # Backward from start is forward from k - start on the reversed walk.
        a, e, start = a[::-1], e[::-1], k - start
    return Walk(a[start:k] + a[:start + 1], e[start:] + e[:start])
