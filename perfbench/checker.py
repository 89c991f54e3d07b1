"""Certificate checker and verdict judge that share no code with the package.

The checker reads the ``.hg`` text and the certificate lines itself, so a
defect in the package's parser, formatter or verifier cannot hide its own
output.  It imports nothing from ``eulergraph``.
"""

from __future__ import annotations

EULERIAN = "eulerian"
NEITHER = "neither"
FAMILY_ONLY = ("not-covering-best-effort", "quasi-eulerian-only")


def hg_edges(text: str) -> list[frozenset[str]]:
    """Vertex-label sets of the edges of a ``.hg`` text, in edge-id order."""
    edges = []
    for raw in text.splitlines():
        row = raw.split("#", 1)[0].split()
        if row and row[0] == "e":
            edges.append(frozenset(row[1:]))
    return edges


def check_certificate(edges: list[frozenset[str]], lines: list[str], tour: bool) -> str | None:
    """Why ``lines`` are not an Euler tour (``tour``) or Euler family of ``edges``; None if valid.

    Each line must be a closed trail ``v0 e1 v1 ... v0`` of at least two
    edges whose consecutive anchors are distinct and lie in the edge between
    them.  Across all lines every edge is used exactly once, and no anchor
    appears in two lines.  A tour is exactly one line.
    """
    if tour and len(lines) != 1:
        return f"a tour is one closed trail, got {len(lines)} lines"
    used = [0] * len(edges)
    owner: dict[str, int] = {}
    for li, line in enumerate(lines):
        toks = line.split()
        if len(toks) < 5 or len(toks) % 2 == 0:
            return f"line {li}: {len(toks)} tokens do not form a closed trail of two or more edges"
        anchors, names = toks[0::2], toks[1::2]
        if anchors[0] != anchors[-1]:
            return f"line {li}: not closed ({anchors[0]} != {anchors[-1]})"
        for j, name in enumerate(names):
            digits = name[1:]
            eid = int(digits) - 1 if name[:1] == "e" and digits.isdigit() else -1
            if not (0 <= eid < len(edges)) or name != f"e{eid + 1}":
                return f"line {li}: {name!r} is not an edge of the input"
            a, b = anchors[j], anchors[j + 1]
            if a == b:
                return f"line {li}: equal consecutive anchors {a} around {name}"
            if a not in edges[eid] or b not in edges[eid]:
                return f"line {li}: anchors {a}, {b} do not both lie in {name}"
            used[eid] += 1
        for a in set(anchors):
            if owner.setdefault(a, li) != li:
                return f"lines {owner[a]} and {li} share anchor {a}"
    for eid, count in enumerate(used):
        if count != 1:
            return f"edge e{eid + 1} used {count} times"
    return None


def judge(inst, verdict: str, lines: list[str]) -> tuple[str | None, bool]:
    """Compare one operation's output with the instance's ground truth.

    Returns ``(failure, underclaim)``.  ``failure`` is None for a correct
    answer, else the reason: a certificate the checker rejects, ``neither``
    where a family exists, or ``eulerian`` without a valid tour.  An
    underclaim is a family-only verdict on an input that has a tour; it is
    honest but weaker than it could be, and is not a failure.
    """
    edges = hg_edges(inst.text)
    if verdict == EULERIAN:
        why = check_certificate(edges, lines, tour=True)
        return (None if why is None else f"eulerian without a valid tour: {why}"), False
    if verdict == NEITHER:
        return ("neither, but a family exists" if inst.family else None), False
    if verdict in FAMILY_ONLY:
        why = check_certificate(edges, lines, tour=False)
        return (None if why is None else f"{verdict} with an invalid family: {why}"), inst.tour
    return f"unknown verdict {verdict!r}", False
