"""The degree-prescription gadget, and the blossom matching that solves it.

The functions below state their contracts; the gadget's layout and seed,
and why the kernel's shortcuts leave its matchings unchanged, are described
here, once.

The gadget turns "pick a spanning subgraph of the incidence graph with every
edge-node of degree exactly 2 and every vertex-node of even degree" into a
perfect-matching question.  Some incidences may already be decided, forced
in or out by :mod:`eulergraph.family`'s propagation; the gadget covers the
undecided ones only:

* an edge-node with u undecided incidences that still needs k anchors (2
  minus its forced ones) becomes u stubs plus u-k cores, every core adjacent
  to every stub: a perfect matching leaves exactly k stubs to be matched
  across incidence edges;
* a vertex-node with u undecided incidences and p forced anchors becomes u
  pairwise-adjacent stubs, plus one parity dummy adjacent to all of them iff
  u-p is odd: the stubs matched across incidence edges are forced to have
  the parity of p, so the vertex's anchor count is even;
* each undecided incidence becomes one gadget edge between the two matching
  stubs, and anchors its vertex in its edge iff that gadget edge is matched.

With nothing decided, every edge needs 2 and every p is 0, so an edge-node
of degree d gets d-2 cores and a vertex-node a dummy iff its degree is odd.

**Layout.**  For ``U`` undecided incidences, taken in the order of
``IncidenceGraph.incidences``, the nodes are the v-stubs ``[0, U)``, the
e-stubs ``[U, 2U)``, the cores edge by edge, then the parity dummies vertex
by vertex.  The u-th undecided incidence is the gadget edge ``(u, U + u)``,
so it anchors its edge iff ``mate[u] == U + u``; every other gadget edge is
internal (stub-core, stub-stub, stub-dummy).  As flat rows the gadget would
hold a clique per vertex and a core list per e-stub, the sums of d_v^2 and
of u_e^2 entries for u_e undecided incidences in edge e, so each row is
stored as a tuple of parts, read in order as one row:

* a v-stub's row is its vertex's clique, one tuple shared by the vertex's
  stubs and listing the stub itself, then its own tail: its e-stub, then its
  vertex's dummy if any;
* an e-stub's row is its v-stub, then its edge's cores, one tuple shared by
  the edge's e-stubs;
* a core's row is its edge's e-stub tuple, shared by the edge's cores, and a
  dummy's row is its vertex's clique.

That is at most 6U entries: U in the cliques, 2U in the tails, U in the
e-stubs' heads, U in the core tuples, U in the stub tuples.  Every entry
outside a row's last part is a v-stub.

**Own entry.**  A v-stub's clique lists the stub itself.  That changes
nothing: the search scans only even nodes, and an even node met in its own
row lies in the scanning node's blossom, so the entry takes the
same-blossom ``continue``; the base lookup it makes only compresses a path,
which keeps every root.

**Layout seed.**  The layout fixes the greedy maximal matching that scans
the flat rows in node order, so the gadget is built with it.  A v-stub's
flat row lists its vertex's other stubs first, then its e-stub, so the seed
pairs consecutive stubs of each vertex and an odd one out takes its e-stub;
each e-stub still free takes its edge's next free core; the cores and
dummies left over see only matched nodes.  The seed matches every v-stub
and leaves about two e-stubs exposed per hyperedge, so about one
augmentation runs per hyperedge (330 on ``sts(45)``).

**Kernel.**  The classical blossom-contraction search (Edmonds, "Paths,
trees, and flowers", 1965) runs from each exposed root in increasing order.
Each search grows an alternating BFS forest from the root, shrinking odd
cycles (blossoms) to their base, until an augmenting path is found or proven
absent.  It is one flat loop over a plain list that serves as its queue.  A
scanned edge to a node already even (queued) either stays inside one
blossom or closes a new one; an edge to a node outside the tree grows it by
that node and its mate, or augments when that node is exposed.  Blossom
bases are kept in a union-find array with path compression, looked up
inline and walked only when a base is not its own root.  A general
contraction relabels only the bases on its two paths, but it finds the
blossom's base, the lowest common ancestor of the edge's two ends, by
stamping every base from the scanning node's up to the root and walking up
from the other end to the first stamped one: it costs time in the depth of
the tree, not in the size of the blossom.  The stamps are a per-search
counter in one array, so a contraction allocates no set.  The search state
(``used``, ``parent``, ``base``, ``stamp``) is allocated once per
:func:`max_matching`, and each search resets only the nodes it touched, at
once when it augments, so a search that stays small costs time in its
tree, not in the graph.

**Last part.**  Augmenting never exposes a node, so every v-stub stays
matched from the seed on: no root is a v-stub, and only the last part of a
row can hold an exposed node.

**Length-3 path.**  Most augmenting paths have length 3, and
:func:`max_matching` takes such a path without growing a tree when the
search would find it first.  The seed is maximal, so every neighbour of an
exposed root is matched and no shorter path exists.  The search scans the
root's whole row before any other node and grows the root's first neighbour
``a`` first, so ``a``'s mate ``p`` is the next node it scans.  Only the root
is exposed in the tree, so the first exposed ``x`` other than the root in
``p``'s row ends the path the search flips: root, ``a``, ``p``, ``x``; by
the last-part rule only that part of ``p``'s row is read.  Blossoms closed
before that, the triangle root-``a``-``p`` too, never re-point the parent of
``a``: it is odd until a blossom takes it in, that blossom's base is the
root, and a walk stops at that base.  The flip reads only the parents of
``x`` and ``a``, so the mate list is the one the search would leave.  Only
when ``p`` has no such neighbour does the search run: on ``sts(45)``, 128
of the 330 augmentations.

**Triangle contraction.**  On covering inputs most contractions close a
triangle below the scanning node ``v``: the even end ``to`` is its own base
and its mate ``x`` is the odd node ``v`` grew earlier in its row.  ``x`` is
odd and in no blossom, since one holding ``x`` holds its mate and ``to`` is
the base of none holding ``x``.  The common ancestor is then ``v``'s base,
the walk from ``v`` passes nothing and the walk from ``to`` passes ``to``
and ``x`` alone, so the general path would re-point ``to``'s parent to
``v``, give ``to`` and ``x`` ``v``'s base and queue ``x``.  The kernel makes
exactly those writes in constant time, so parents, bases, queue order and
mate lists are the same.  ``to`` is never the exposed root there: an even
neighbour of the root joins the root's blossom in the root's own scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Sequence

from .hypergraph import edge_name
from .incidence import IncidenceGraph


def _find(base, x):
    """Base of the blossom holding ``x``; compresses the path it walked."""
    root = x
    while base[root] != root:
        root = base[root]
    while base[x] != root:
        base[x], x = root, base[x]
    return root


def _augment_from(rows: Sequence[Sequence[Sequence[int]]], mate: list[int], root: int,
                  used: list[bool], parent: list[int], base: list[int],
                  stamp: list[int]) -> bool:
    """BFS for an augmenting path from ``root``; flips it and reports success.

    Each row is a sequence of parts, read in order as one row, and may list
    the scanned node itself (the own-entry rule in the module docstring).

    ``used``, ``parent``, ``base`` and ``stamp`` must arrive reset
    (``False``, ``-1``, identity, ``0``) and are left reset: the search
    records the root, every node it gives a parent and every node it queues
    as even, and resets exactly those.  Path compression, blossom
    relabelling and the LCA stamps only touch nodes already in the tree, so
    these cover every entry the search changed.
    """
    touched = [root]
    used[root] = True
    q = [root]
    mark = 0
    for v in q:  # the loop also reaches what is queued while it runs
        bv = base[v]
        if base[bv] != bv:
            bv = _find(base, v)
        for part in rows[v]:
            for to in part:
                if used[to]:
                    # Both ends even: nothing within one blossom (v's mate is
                    # even only inside v's own, and v may list itself), else
                    # a new blossom whose base is the LCA of the two bases.
                    bt = base[to]
                    if base[bt] != bt:
                        bt = _find(base, to)
                    if bv == bt:
                        continue
                    # The triangle below v, to its own base and its mate x
                    # grown by v: the general path's writes, in constant time
                    # (module docstring).
                    if bt == to:
                        x = mate[to]
                        if parent[x] == v:
                            base[to] = base[x] = bv
                            parent[to] = v
                            used[x] = True
                            q.append(x)
                            continue
                    # Stamp the bases from v up to the root, then walk up from
                    # to until a stamped base.
                    mark += 1
                    b = bv
                    while True:
                        stamp[b] = mark
                        if mate[b] == -1:
                            break
                        x = parent[mate[b]]
                        b = base[x]
                        if base[b] != b:
                            b = _find(base, x)
                    b = bt
                    while stamp[b] != mark:
                        x = parent[mate[b]]
                        b = base[x]
                        if base[b] != b:
                            b = _find(base, x)
                    # Walk each side up to b, re-pointing parent and collecting the
                    # bases passed.  Relabel only after both walks: a base merged
                    # early would stop a walk inside a blossom it has not crossed.
                    members: list[int] = []
                    for x, child in ((v, to), (to, v)):
                        while True:
                            bx = base[x]
                            if base[bx] != bx:
                                bx = _find(base, x)
                            if bx == b:
                                break
                            mx = mate[x]
                            bm = base[mx]
                            if base[bm] != bm:
                                bm = _find(base, mx)
                            members.append(bx)
                            members.append(bm)
                            parent[x] = child
                            child = mx
                            x = parent[mx]
                    for x in members:
                        base[x] = b
                    bv = b
                    # A node not yet even was never contracted, so it is its own
                    # base: the newly even nodes are the odd bases passed.  Queue
                    # them in index order; that order fixes the matching returned.
                    for x in sorted(members):
                        if not used[x]:
                            used[x] = True
                            q.append(x)
                elif parent[to] == -1:
                    # Outside the tree: to becomes odd and its mate even.
                    parent[to] = v
                    touched.append(to)
                    mt = mate[to]
                    if mt == -1:
                        while to != -1:
                            pv = parent[to]
                            ppv = mate[pv]
                            mate[to] = pv
                            mate[pv] = to
                            to = ppv
                        _reset(touched, used, parent, base, stamp)
                        return True
                    used[mt] = True
                    touched.append(mt)
                    q.append(mt)
    _reset(touched, used, parent, base, stamp)
    return False


def _reset(touched, used, parent, base, stamp) -> None:
    for x in touched:
        used[x] = False
        parent[x] = -1
        base[x] = x
        stamp[x] = 0


def max_matching(gg: GadgetGraph) -> list[int]:
    """Maximum-cardinality matching of the gadget ``gg``, as a mate list.

    ``mate[v]`` is the node matched to ``v``, or ``-1`` when ``v`` is exposed,
    so the matching is perfect iff ``-1 not in mate``.  Starts from
    ``gg.seed`` and augments from each exposed root in increasing order,
    taking a length-3 path without a search where the search would find it
    first (module docstring), so equal gadgets give equal matchings.
    """
    rows = gg.rows
    mate = list(gg.seed)
    n = len(rows)
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    stamp = [0] * n
    for root in range(n):
        if mate[root] != -1:
            continue
        first = rows[root][0]
        if not first:
            continue
        # The length-3 path (module docstring): the root's first neighbour
        # a, a's mate p, and the first exposed x in p's last part.
        a = first[0]
        p = mate[a]
        for x in rows[p][-1]:
            if mate[x] == -1 and x != root:
                mate[x], mate[p], mate[a], mate[root] = p, x, root, a
                break
        else:
            _augment_from(rows, mate, root, used, parent, base, stamp)
    return mate


@dataclass(frozen=True)
class GadgetGraph:
    """The matching gadget built from an incidence graph, in linear space.

    ``rows[x]`` is node x's row as a tuple of parts, laid out as the module
    docstring describes, and ``seed`` the layout seed, a mate list.
    ``host`` and ``state`` are the incidence graph and the decisions it was
    built from.
    """

    rows: tuple[tuple[tuple[int, ...], ...], ...]
    seed: tuple[int, ...]
    host: IncidenceGraph
    state: Sequence[int]

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """The flat adjacency rows: each row's parts joined, less the row's own node.

        An inspection view, built on first use: :func:`max_matching` reads
        ``rows``, while the tests and the bench's gadget counts
        (``perfbench/tracing.py``) read these.
        """
        flat = []
        for v, row in enumerate(self.rows):
            joined = row[0] if len(row) == 1 else sum(row, ())
            if v in joined:
                i = joined.index(v)
                joined = joined[:i] + joined[i + 1:]
            flat.append(joined)
        return tuple(flat)

    def anchors(self, mate: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Each edge's anchors under the perfect matching ``mate`` of ``adj``.

        An edge's anchors are its forced incidences together with its
        undecided ones whose gadget edge is matched.  Incidences are grouped
        by edge in increasing vertex order, so each edge's anchors arrive in
        increasing order.
        """
        u_count = self.state.count(-1)
        u = 0
        pairs: list[list[int]] = [[] for _ in range(self.host.n_e)]
        for (v, e), s in zip(self.host.incidences, self.state):
            if s < 0:
                s = mate[u] == u_count + u
                u += 1
            if s:
                pairs[e].append(v)
        return tuple(map(tuple, pairs))


def reduce_to_matching(g: IncidenceGraph, state: Sequence[int]) -> GadgetGraph:
    """Build the gadget whose perfect matchings encode the degree-constrained subgraphs.

    ``state[t]`` is 1 when the t-th incidence is a forced anchor, 0 when it
    is excluded and -1 when undecided.  Returns the gadget over the
    undecided incidences, with its rows and seed laid out as the module
    docstring describes, in node order.

    Raises :class:`ValueError` unless ``state`` has one entry per incidence,
    or when some edge has fewer undecided vertices than anchors it needs,
    e.g. a hyperedge with fewer than two vertices, which can never be
    traversed.  :func:`eulergraph.family.find_family_subgraph` never meets
    the second case: its propagation refutes such a state first.
    """
    incidences, first = g.incidences, g.first
    if len(state) != len(incidences):
        raise ValueError(f"state has {len(state)} entries for {len(incidences)} incidences")
    u_count = state.count(-1)
    # The layout seed's stub entries: each stub takes its e-stub until its
    # vertex's next stub arrives and pairs with it.
    stubs_of: list[list[int]] = [[] for _ in range(g.n_v)]
    odd = [0] * g.n_v
    mate = [-1] * (2 * u_count)
    u = 0
    for (v, _), s in zip(incidences, state):
        if s < 0:
            stubs = stubs_of[v]
            if len(stubs) % 2:
                a = stubs[-1]
                mate[a], mate[u], mate[u_count + a] = u, a, -1
            else:
                mate[u], mate[u_count + u] = u_count + u, u
            stubs.append(u)
            u += 1
        elif s:
            odd[v] ^= 1

    # Edge pass: e-stub rows, then d-k cores per edge, each free e-stub
    # seeded with its edge's next core.
    stub_rows: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    core_rows: list[tuple[tuple[int, ...]]] = []
    stub = u_count
    core = 2 * u_count
    for j in range(g.n_e):
        decided = state[first[j]:first[j + 1]]
        d = decided.count(-1)
        k = 2 - decided.count(1)
        if d < k:
            raise ValueError(f"edge {edge_name(j)} has only {d} vertices left for {k} anchors")
        stubs = tuple(range(stub, stub + d))
        cores = tuple(range(core, core + d - k))
        stub_rows += [((s - u_count,), cores) for s in stubs]
        core_rows += repeat((stubs,), d - k)
        free, end = stub, stub + d
        for c in cores:
            while free < end and mate[free] >= 0:
                free += 1
            if free < end:
                mate[free] = c
                mate.append(free)
                free += 1
            else:
                mate.append(-1)
        stub += d
        core += d - k

    # Vertex pass: v-stub rows, and a parity dummy for each vertex whose
    # stub count minus forced count is odd.
    v_rows: list[tuple[tuple[int, ...], ...]] = [()] * u_count
    dummy_rows: list[tuple[tuple[int, ...]]] = []
    dummy = core
    for stubs, p in zip(stubs_of, odd):
        # A vertex with no undecided incidence adds nothing, unless its
        # forced count is odd: then its dummy has no stub to match.
        if not stubs and not p:
            continue
        clique = tuple(stubs)
        tail: tuple[int, ...] = ()
        if (len(clique) - p) % 2 == 1:
            dummy_rows.append((clique,))
            tail = (dummy,)
            dummy += 1
        for t in clique:
            v_rows[t] = (clique, (u_count + t,) + tail)
    mate += repeat(-1, len(dummy_rows))

    rows = (*v_rows, *stub_rows, *core_rows, *dummy_rows)
    return GadgetGraph(rows, tuple(mate), g, state)
