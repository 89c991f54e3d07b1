"""The degree-prescription gadget, and the blossom matching that solves it.

The functions below state their contracts; the gadget's layout and seed,
and why the kernel's shortcut leaves its matchings unchanged, are described
here, once.

The gadget turns "pick a spanning subgraph of the incidence graph with every
edge-node of degree exactly 2 and every vertex-node of even degree" into a
perfect-matching question (a degree gadget after Cornuéjols, "General
factors of graphs", 1988).  Some incidences may already be decided, forced
in or out by :mod:`eulergraph.family`'s propagation; the gadget covers the
undecided ones only, one node each, its *stub*:

* an edge with u undecided incidences that still needs k anchors (2 minus
  its forced ones) gets u-k cores, every core adjacent to each of the
  edge's stubs: a perfect matching leaves exactly k of them unmatched to a
  core;
* a vertex's stubs are pairwise adjacent, and a parity dummy adjacent to
  all of them joins them iff the vertex's forced anchor count p is odd: the
  stubs matched to each other or to the dummy then number p mod 2 plus an
  even count, so the vertex's anchor count is even;
* an incidence anchors its edge iff its stub is not matched to one of that
  edge's cores.

With nothing decided, every edge needs 2 and every p is 0, so an edge of
size d gets d-2 cores and no vertex gets a dummy.

**Layout.**  For ``U`` undecided incidences, taken in the order of
``IncidenceGraph.incidences``, the nodes are the stubs ``[0, U)``, the cores
edge by edge, then the parity dummies vertex by vertex.  Each row is a tuple
of parts, read in order as one row, so that no clique is stored once per
member:

* a stub's row is its vertex's stubs, one tuple shared by them that lists
  the stub itself, then its edge's cores, one tuple shared by the edge's
  stubs, then ``(dummy,)`` when its vertex has one;
* a core's row is its edge's stubs, one tuple shared by the edge's cores,
  and a dummy's row is its vertex's stubs.

That is U entries in the vertex tuples, U-K in the core tuples for K the
anchors the edges still need, at most U in the edge stub tuples (an edge
with no core stores none) and one per dummy: at most 3U on an input with
no forced anchor, which has no dummy.  Every row lists its nodes in
increasing order.

**Own entry.**  A stub's first part lists the stub itself.  That changes
nothing: the search scans only even nodes, and an even node met in its own
row lies in the scanning node's blossom, so the entry takes the
same-blossom ``continue``; the base lookup it makes only compresses a path,
which keeps every root.

**Layout seed.**  The gadget is built with a maximal matching to start
from.  An edge with more cores than anchors to find (u-k > k: five or more
vertices with nothing forced) gives its cores to its first u-k stubs, so
that most of its stubs start where most must end.  The other stubs of each
vertex pair up in order, and an odd one out takes its edge's first free
core, or else its dummy; the cores and dummies left over see only matched
nodes.  Without the first rule two copies of one wide edge would start with
every core exposed and take a search from each, each as long as the edge,
where they now start perfect.  With no such edge, as on every 3-uniform
input, the seed is the greedy maximal matching that scans the flat rows in
node order, since a stub's flat row lists its vertex's other stubs first,
then its edge's cores, then its dummy.

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
    ``gg.seed`` and searches from each exposed root in increasing order, so
    equal gadgets give equal matchings.
    """
    rows = gg.rows
    mate = list(gg.seed)
    n = len(rows)
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    stamp = [0] * n
    for root in range(n):
        if mate[root] == -1:
            _augment_from(rows, mate, root, used, parent, base, stamp)
    return mate


@dataclass(frozen=True)
class GadgetGraph:
    """The matching gadget built from an incidence graph, in linear space.

    ``rows[x]`` is node x's row as a tuple of parts, laid out as the module
    docstring describes, ``seed`` the layout seed, a mate list, and
    ``cores`` the range of the core nodes.  ``host`` and ``state`` are the
    incidence graph and the decisions it was built from.
    """

    rows: tuple[tuple[tuple[int, ...], ...], ...]
    seed: tuple[int, ...]
    cores: range
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
        undecided ones whose stub is not matched to a core.  Incidences are
        grouped by edge in increasing vertex order, so each edge's anchors
        arrive in increasing order.
        """
        cores = self.cores
        u = 0
        pairs: list[list[int]] = [[] for _ in range(self.host.n_e)]
        for (v, e), s in zip(self.host.incidences, self.state):
            if s < 0:
                s = mate[u] not in cores
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
    # Edge pass: u-k cores per edge; an edge with more cores than anchors to
    # find seeds its first u-k stubs with them.
    mate = [-1] * u_count
    edge_cores: list[tuple[int, ...]] = []
    core_rows: list[tuple[tuple[int, ...]]] = []
    stub, core = 0, u_count
    for j in range(g.n_e):
        decided = state[first[j]:first[j + 1]]
        d = decided.count(-1)
        k = 2 - decided.count(1)
        if d < k:
            raise ValueError(f"edge {edge_name(j)} has only {d} vertices left for {k} anchors")
        stubs = tuple(range(stub, stub + d))
        cores = tuple(range(core, core + d - k))
        edge_cores += repeat(cores, d)
        core_rows += repeat((stubs,), d - k)
        if d - k > k:
            mate[stub:stub + d - k] = cores
            mate += stubs[:d - k]
        else:
            mate += repeat(-1, d - k)
        stub += d
        core += d - k

    # Stub pass: each vertex's stubs and forced parity, and the seed's pairs
    # of its consecutive stubs still free; an odd one out waits in lone.
    stubs_of: list[list[int]] = [[] for _ in range(g.n_v)]
    odd = [0] * g.n_v
    lone = [-1] * g.n_v
    u = 0
    for (v, _), s in zip(incidences, state):
        if s < 0:
            stubs_of[v].append(u)
            if mate[u] < 0:
                w = lone[v]
                if w < 0:
                    lone[v] = u
                else:
                    mate[w], mate[u] = u, w
                    lone[v] = -1
            u += 1
        elif s:
            odd[v] ^= 1

    # Vertex pass: stub rows, the odd one out on its edge's first free core,
    # and a parity dummy for each vertex whose forced count is odd, taken by
    # the odd one out that found no core.
    stub_rows: list[tuple[tuple[int, ...], ...]] = [()] * u_count
    dummy_rows: list[tuple[tuple[int, ...]]] = []
    for stubs, p, x in zip(stubs_of, odd, lone):
        clique = tuple(stubs)
        # Cores are taken in order, so the last one is free iff some is.
        if x >= 0 and edge_cores[x] and mate[edge_cores[x][-1]] < 0:
            c = next(c for c in edge_cores[x] if mate[c] < 0)
            mate[c], mate[x] = x, c
            x = -1
        if p:
            dummy = (len(mate),)
            dummy_rows.append((clique,))
            mate.append(x)
            if x >= 0:
                mate[x] = dummy[0]
            for t in clique:
                stub_rows[t] = (clique, edge_cores[t], dummy)
        else:
            for t in clique:
                stub_rows[t] = (clique, edge_cores[t])

    rows = (*stub_rows, *core_rows, *dummy_rows)
    return GadgetGraph(rows, tuple(mate), range(u_count, core), g, state)
