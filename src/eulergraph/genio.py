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
appear only when the text form is emitted, each edge line listing its labels
in sorted order (so ``v10`` comes before ``v2``).
"""

from __future__ import annotations

import re
from itertools import combinations
from math import comb

from .errors import FormatError
from .hypergraph import EulerFamily, Hypergraph, Walk, edge_name

_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

# The most edges (or, for gen_random_covering, candidate subsets) a generator
# builds; the count is computed first, so a larger request fails at once.
MAX_GEN_SIZE = 1_000_000


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
        return self.draw() % n

    def shuffle(self, items: list) -> None:
        """Fisher-Yates from the back, one ``below(i + 1)`` draw per position."""
        state = self.state
        for i in range(len(items) - 1, 0, -1):
            state = (state * _LCG_MUL + _LCG_INC) & _LCG_MASK
            j = (state >> 33) % (i + 1)
            items[i], items[j] = items[j], items[i]
        self.state = state


def _check_size(count: int, what: str) -> None:
    """Raise :class:`ValueError` when ``count`` exceeds :data:`MAX_GEN_SIZE`."""
    if count > MAX_GEN_SIZE:
        raise ValueError(f"{what}: {count} is more than the limit of {MAX_GEN_SIZE}")


def gen_complete(n: int, k: int) -> Hypergraph:
    """All k-subsets of n vertices; covering by construction."""
    if not n > k >= 3:
        raise ValueError(f"need n > k >= 3, got n={n}, k={k}")
    _check_size(comb(n, k), f"complete({n}, {k}) has C({n}, {k}) edges")
    verts = tuple(f"v{i}" for i in range(1, n + 1))
    return Hypergraph(verts, tuple(map(frozenset, combinations(range(n), k))))


def gen_sts(n: int) -> Hypergraph:
    """A Steiner triple system of order n: every pair in exactly one triple.

    One construction serves both admissible residues: Bose's for
    n = 3 (mod 6) and Skolem's for n = 1 (mod 6).  The points lie on three
    wings of ``q = n // 3`` points each; let ``t = n // 6``.  Point x of
    wing i (i = 0, 1, 2) is labelled ``{x}a``, ``{x}b`` or ``{x}c`` and is
    vertex ``off + i*q + x``.  ``off`` is 0 for Bose.  For Skolem it is 1,
    and vertex 0 is the point at infinity ``oo``.

    The triples come in a fixed order:

    - the wing triples {x of each wing}, for x < q (Bose) or x < t (Skolem);
    - Skolem only: the 3t triples {oo, t + x of wing i, x of wing i + 1};
    - for each wing i and each pair x < y in it, the triple that adds point
      ``mid[(x + y) % q]`` of wing i + 1 (wings count mod 3).

    ``mid[z]`` is ``z // 2`` for even z and ``(z + q - off) // 2`` for odd
    z: halving in Z_q for Bose's odd q, Skolem's half-idempotent product for
    even q.  The table is stored twice over, so ``x + y`` indexes it
    without the modulus.
    """
    if n < 7 or n % 6 not in (1, 3):
        raise ValueError(
            f"no Steiner triple system of order {n} (need n % 6 in {{1, 3}} and n >= 7)")
    _check_size(n * (n - 1) // 6, f"sts({n}) has n(n-1)/6 triples")
    q, t, off = n // 3, n // 6, int(n % 6 == 1)
    mid = [z // 2 if z % 2 == 0 else (z + q - off) // 2 for z in range(q)] * 2
    triples = [(off + x, off + q + x, off + 2 * q + x) for x in range(t if off else q)]
    if off:
        triples += [(0, 1 + i * q + t + x, 1 + (i + 1) % 3 * q + x)
                    for i in range(3) for x in range(t)]
    for i in range(3):
        cur, nxt = off + i * q, off + (i + 1) % 3 * q
        triples += [(cur + x, cur + y, nxt + mid[x + y]) for x in range(q) for y in range(x + 1, q)]
    return Hypergraph(("oo",) * off + tuple(f"{x}{w}" for w in "abc" for x in range(q)),
                      tuple(map(frozenset, triples)))


def gen_random_covering(n: int, k: int, seed: int) -> Hypergraph:
    """Seeded greedy covering: visit (k-1)-subsets in random order, patch uncovered ones.

    An uncovered subset s gets one extra vertex, drawn uniformly from the
    n-k+1 vertices outside s in increasing order.
    """
    if not n > k >= 3:
        raise ValueError(f"need n > k >= 3, got n={n}, k={k}")
    _check_size(comb(n, k - 1), f"random({n}, {k}) visits C({n}, {k - 1}) subsets")
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
    lines = [f"hg {k} {len(h.vertices)} {len(h.edges)}"]
    lines += [f"v {lab}" for lab in sorted(h.vertices)]
    lines += ["e " + " ".join(h.edge_labels(j)) for j in range(len(h.edges))]
    return "\n".join(lines) + "\n"


def parse_hg(text: str) -> tuple[Hypergraph, int]:
    """Parse the text form; returns the hypergraph and the declared arity."""
    # The rows of tokens of the non-blank lines, and their line numbers.
    rows: list[list[str]] = []
    lines: list[int] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        row = raw.split()
        if row:
            rows.append(row)
            lines.append(ln)
    if not rows:
        raise FormatError("empty hypergraph file")
    head = rows[0]
    if len(head) != 4 or head[0] != "hg":
        raise FormatError("header must read 'hg <k> <n> <m>'", lines[0])
    try:
        k, n, m = map(int, head[1:])
    except ValueError:
        raise FormatError("header fields must be integers", lines[0]) from None
    if k < 0 or n < 1 or m < 0:
        raise FormatError("header needs k >= 0, n >= 1, m >= 0", lines[0])
    if len(rows) != 1 + n + m:
        raise FormatError(
            f"expected {n} vertex lines and {m} edge lines, found {len(rows) - 1}", lines[0])
    index: dict[str, int] = {}
    for i in range(1, 1 + n):
        row = rows[i]
        if row[0] != "v" or len(row) != 2:
            raise FormatError("expected 'v <label>'", lines[i])
        if row[1] in index:
            raise FormatError(f"duplicate vertex label {row[1]!r}", lines[i])
        index[row[1]] = i - 1
    position = index.__getitem__
    edges: list[frozenset[int]] = []
    for i in range(1 + n, 1 + n + m):
        row = rows[i]
        if row[0] != "e" or len(row) < 2:
            raise FormatError("expected 'e <label> ...'", lines[i])
        members = row[1:]
        if k > 0 and len(members) != k:
            raise FormatError(
                f"arity mismatch: expected {k} labels, found {len(members)}", lines[i])
        try:
            e = frozenset(map(position, members))
        except KeyError as exc:  # the first unknown label, in line order
            raise FormatError(f"unknown vertex label {exc.args[0]!r}", lines[i]) from None
        if len(e) != len(members):
            raise FormatError("repeated label within an edge", lines[i])
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
