"""Corpus generators and the bit-exact text formats.

Hypergraph file format (``.hg``)::

    hg <k> <n> <m>     header; k=0 marks a non-uniform edge list
    v <label>          n lines, one vertex label each
    e <l1> ... <lk>    m lines, k labels each (any arity when k=0)

``#`` starts a comment, blank lines are skipped, labels are whitespace-free
UTF-8 tokens.  Emission is byte-deterministic: vertex lines sorted, each edge
line's labels sorted, edge order preserved (edge ids are positional).

Tour certificates are a single line ``v0 e1 v1 e2 ... v0`` alternating vertex
labels and 1-based edge names; a family certificate is one such line per
closed trail.

Randomness comes from an explicit 64-bit linear congruential generator so
corpora regenerate identically anywhere: state' = (state * 6364136223846793005
+ 1442695040888963407) mod 2**64, each draw returning the top 31 bits;
``below(n)`` is one draw mod n, and ``shuffle`` makes one ``below(i + 1)``
draw for each position i from the back.

The generators work on vertex indices: vertex i is labelled ``v{i+1}`` (or
its Steiner-system point name), edges are built as index sets, and labels
appear only when the text form is emitted, with each edge's indices sorted
by the rank of their labels (so ``v10`` comes before ``v2``).
"""

from __future__ import annotations

import re
from itertools import combinations

from .errors import FormatError
from .hypergraph import EulerFamily, Hypergraph, Walk, edge_name

_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class Lcg:
    """Deterministic 64-bit LCG (documented in the module docstring)."""

    def __init__(self, seed: int):
        self.state = seed & _LCG_MASK

    def draw(self) -> int:
        self.state = (self.state * _LCG_MUL + _LCG_INC) & _LCG_MASK
        return self.state >> 33

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        self.state = state = (self.state * _LCG_MUL + _LCG_INC) & _LCG_MASK
        return (state >> 33) % n

    def shuffle(self, items: list) -> None:
        """Fisher-Yates from the back, one ``below(i + 1)`` draw per position."""
        state = self.state
        for i in range(len(items) - 1, 0, -1):
            state = (state * _LCG_MUL + _LCG_INC) & _LCG_MASK
            j = (state >> 33) % (i + 1)
            items[i], items[j] = items[j], items[i]
        self.state = state


def gen_complete(n: int, k: int) -> Hypergraph:
    """All k-subsets of n vertices; covering by construction."""
    if not n > k >= 3:
        raise ValueError(f"need n > k >= 3, got n={n}, k={k}")
    verts = tuple(f"v{i}" for i in range(1, n + 1))
    return Hypergraph(verts, tuple(map(frozenset, combinations(range(n), k))))


def gen_sts(n: int) -> Hypergraph:
    """A Steiner triple system of order n: every pair in exactly one triple.

    Orders 3 mod 6 use the quasigroup-on-three-wings construction over
    Z_(n/3) with the halving product; orders 1 mod 6 use the variant with a
    point at infinity over a half-idempotent commutative quasigroup of even
    order.
    """
    if n < 7 or n % 6 not in (1, 3):
        raise ValueError(
            f"no Steiner triple system of order {n} (need n % 6 in {{1, 3}} and n >= 7)")

    def lab(p) -> str:
        return p if isinstance(p, str) else f"{p[0]}{'abc'[p[1]]}"

    triples: list[tuple] = []
    if n % 6 == 3:
        t = n // 6
        q = 2 * t + 1
        half = t + 1  # 2 * half == 1 (mod q), so (x + y) * half halves the sum
        pts = [(x, i) for i in range(3) for x in range(q)]
        for x in range(q):
            triples.append(((x, 0), (x, 1), (x, 2)))
        for i in range(3):
            for x in range(q):
                for y in range(x + 1, q):
                    triples.append(((x, i), (y, i), (((x + y) * half) % q, (i + 1) % 3)))
    else:
        t = n // 6
        q = 2 * t

        def rho(z: int) -> int:
            return z // 2 if z % 2 == 0 else t + (z - 1) // 2

        pts = ["oo"] + [(x, i) for i in range(3) for x in range(q)]
        for x in range(t):
            triples.append(((x, 0), (x, 1), (x, 2)))
        for i in range(3):
            for x in range(t):
                triples.append(("oo", (t + x, i), (x, (i + 1) % 3)))
        for i in range(3):
            for x in range(q):
                for y in range(x + 1, q):
                    triples.append(((x, i), (y, i), (rho((x + y) % q), (i + 1) % 3)))

    index = {p: i for i, p in enumerate(pts)}
    return Hypergraph(tuple(lab(p) for p in pts),
                      tuple(frozenset([index[p] for p in tri]) for tri in triples))


def gen_random_covering(n: int, k: int, seed: int) -> Hypergraph:
    """Seeded greedy covering: visit (k-1)-subsets in random order, patch uncovered ones.

    An uncovered subset s gets one extra vertex, drawn uniformly from the
    n-k+1 vertices outside s in increasing order.
    """
    if not n > k >= 3:
        raise ValueError(f"need n > k >= 3, got n={n}, k={k}")
    rng = Lcg(seed)
    subsets = list(combinations(range(n), k - 1))
    rng.shuffle(subsets)
    outside = n - k + 1
    covered: set[tuple[int, ...]] = set()
    edges: list[frozenset[int]] = []
    for s in subsets:
        if s in covered:
            continue
        # The r-th vertex outside the sorted s: step over each member at or below it.
        r = x = rng.below(outside)
        for v in s:
            if v > x:
                break
            x += 1
        p = x - r  # members of s below x
        e = s[:p] + (x,) + s[p:]
        edges.append(frozenset(e))
        covered.update(combinations(e, k - 1))
    return Hypergraph(tuple(f"v{i}" for i in range(1, n + 1)), tuple(edges))


def emit_hg(h: Hypergraph) -> str:
    """Byte-deterministic text form of a hypergraph.

    Raises :class:`ValueError` on what the format cannot hold: an empty
    label, one with whitespace or ``#``, or an edge with no vertices.
    """
    k = h.uniformity() or 0
    for lab in h.vertices:
        if not lab or re.search(r"\s|#", lab):
            raise ValueError(f"label {lab!r} cannot appear in the text format")
    for j, e in enumerate(h.edges):
        if not e:
            raise ValueError(
                f"edge {edge_name(j)} has no vertices and cannot appear in the text format")
    labels = sorted(h.vertices)
    rank = [0] * len(labels)  # vertex index -> position of its label in sorted order
    for r, lab in enumerate(labels):
        rank[h._index[lab]] = r
    lines = [f"hg {k} {len(labels)} {len(h.edges)}"]
    lines += [f"v {lab}" for lab in labels]
    label_of, rank_of = labels.__getitem__, rank.__getitem__
    lines += ["e " + " ".join(map(label_of, sorted(map(rank_of, e)))) for e in h.edges]
    return "\n".join(lines) + "\n"


def parse_hg(text: str) -> tuple[Hypergraph, int]:
    """Parse the text form; returns the hypergraph and the declared arity."""
    rows: list[tuple[int, list[str]]] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((ln, body.split()))
    if not rows:
        raise FormatError("empty hypergraph file")
    head_ln, head = rows[0]
    if len(head) != 4 or head[0] != "hg":
        raise FormatError("header must read 'hg <k> <n> <m>'", head_ln)
    try:
        k, n, m = (int(x) for x in head[1:])
    except ValueError:
        raise FormatError("header fields must be integers", head_ln) from None
    if k < 0 or n < 1 or m < 0:
        raise FormatError("header needs k >= 0, n >= 1, m >= 0", head_ln)
    if len(rows) != 1 + n + m:
        raise FormatError(
            f"expected {n} vertex lines and {m} edge lines, found {len(rows) - 1}", head_ln)
    index: dict[str, int] = {}
    for ln, row in rows[1:1 + n]:
        if row[0] != "v" or len(row) != 2:
            raise FormatError("expected 'v <label>'", ln)
        if row[1] in index:
            raise FormatError(f"duplicate vertex label {row[1]!r}", ln)
        index[row[1]] = len(index)
    position = index.__getitem__
    edges: list[frozenset[int]] = []
    for ln, row in rows[1 + n:]:
        if row[0] != "e" or len(row) < 2:
            raise FormatError("expected 'e <label> ...'", ln)
        members = row[1:]
        if k > 0 and len(members) != k:
            raise FormatError(f"arity mismatch: expected {k} labels, found {len(members)}", ln)
        try:
            e = frozenset(map(position, members))
        except KeyError as exc:  # the first unknown label, in line order
            raise FormatError(f"unknown vertex label {exc.args[0]!r}", ln) from None
        if len(e) != len(members):
            raise FormatError("repeated label within an edge", ln)
        edges.append(e)
    return Hypergraph(tuple(index), tuple(edges)), k


def load_hg(path) -> Hypergraph:
    """The hypergraph of a ``.hg`` file; :func:`parse_hg` also gives its declared arity."""
    with open(path, encoding="utf-8") as fh:
        return parse_hg(fh.read())[0]


def format_walk_line(w: Walk) -> str:
    """Certificate line for a walk: labels and 1-based edge names, alternating."""
    parts: list[str] = []
    for j, eid in enumerate(w.edges):
        parts.append(w.anchors[j])
        parts.append(edge_name(eid))
    parts.append(w.anchors[-1])
    return " ".join(parts)


_EDGE_TOKEN = re.compile(r"^e([1-9][0-9]*)$")


def parse_walk_line(h: Hypergraph, line: str, lineno: int | None = None) -> Walk:
    """Parse one certificate line back into a walk over ``h``."""
    toks = line.split()
    if len(toks) < 3 or len(toks) % 2 == 0:
        raise FormatError("certificate line must alternate 'v e v ... v'", lineno)
    anchors: list[str] = []
    edges: list[int] = []
    for pos, tok in enumerate(toks):
        if pos % 2 == 0:
            if tok not in h._index:
                raise FormatError(f"unknown vertex label {tok!r}", lineno)
            anchors.append(tok)
        else:
            mobj = _EDGE_TOKEN.match(tok)
            if mobj is None:
                raise FormatError(f"expected an edge name like e3, found {tok!r}", lineno)
            eid = int(mobj.group(1)) - 1
            if eid >= len(h.edges):
                raise FormatError(f"edge name {tok!r} out of range", lineno)
            edges.append(eid)
    return Walk(tuple(anchors), tuple(edges))


def parse_family(h: Hypergraph, text: str) -> EulerFamily:
    walks = []
    for ln, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            walks.append(parse_walk_line(h, body, ln))
    return EulerFamily(tuple(walks))
