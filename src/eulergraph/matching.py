"""Maximum matching of the degree-prescription gadget, and the gadget itself.

The matching kernel is the classical blossom-contraction search (Edmonds,
"Paths, trees, and flowers", 1965): repeatedly grow an alternating BFS forest
from an exposed node, shrinking odd cycles (blossoms) to their base, until an
augmenting path is found or proven absent.  Each search is one flat loop over
a plain list that serves as its queue.  A scanned edge to a node already even
(queued) either stays inside one blossom or closes a new one; an edge to a
node outside the tree grows it by that node and its mate, or augments when
that node is exposed.  Blossom bases are kept in a union-find array with path
compression, looked up inline and walked only when a base is not its own root.
A general contraction relabels only the bases on its two paths, but it finds
the blossom's base, the lowest common ancestor of the edge's two ends, by
stamping every base from the scanning node's up to the root and walking up
from the other end to the first stamped one: it costs time in the depth of the
tree, not in the size of the blossom.  The stamps are a per-search counter in
one array, so a contraction allocates no set.  The search state
(``used``, ``parent``, ``base``, ``stamp``) is allocated once per
:func:`max_matching`, and each search resets only the nodes it touched, at
once when it augments, so a search that stays small costs time proportional to
its tree, not to the graph.  Rows are read as sequences of parts, in order, so
the gadget can share one part between many rows.  The search starts from the
greedy maximal matching in node order that the gadget's layout fixes.  It
pairs the v-stubs inside their own vertex cliques and leaves two e-stubs
exposed per hyperedge, so about one augmentation still runs per hyperedge
(330 on ``sts(45)``).

Most of those augmenting paths have length 3, and :func:`max_matching` takes
such a path without growing a tree when the search would find it first.  The
seed is maximal and augmenting never exposes a node, so every neighbour of an
exposed root is matched.  The search scans the root's whole row before any
other node and grows the root's first neighbour ``a`` first, so ``a``'s mate
``p`` is the next node it scans.  Only the root is exposed in the tree, so
the first exposed ``x`` other than the root in ``p``'s row ends the path the
search flips: root, ``a``, ``p``, ``x``.  Only the last part of ``p``'s row is
read: every entry outside a row's last part is a v-stub, matched by the seed
and never exposed.  Blossoms closed before that, the
triangle root-``a``-``p`` too, never re-point the parent of ``a``: it is odd
until a blossom takes it in, that blossom's base is the root, and a walk
stops at that base.  The flip reads only the parents of ``x`` and ``a``, so
the mate list is the one the search would leave.  Only when ``p`` has no such
neighbour does the search run: on ``sts(45)``, 128 of the 330 augmentations.

Most contractions close a triangle below the scanning node ``v``: the even end
``to`` is its own base and its mate ``x`` is the odd node ``v`` grew earlier
in its row.  The common ancestor is then ``v``'s base, the walk from ``v``
passes nothing and the walk from ``to`` passes ``to`` and ``x`` alone, so the
general path would re-point ``to``'s parent to ``v``, give ``to`` and ``x``
``v``'s base and queue ``x``.  The kernel makes exactly those writes in
constant time, so parents, bases, queue order and mate lists are the same.
``to`` is never the exposed root there: an even neighbour of the root joins the
root's blossom in the root's own scan.

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
  stubs.

With nothing decided, every edge needs 2 and every p is 0, so an edge-node
of degree d gets d-2 cores and a vertex-node a dummy iff its degree is odd.
An undecided incidence (v, e) anchors v in e iff its gadget edge is in the
matching.  The node layout fixes that edge, so the gadget stores its rows and
the decisions it was built from, :func:`max_matching` returns the bare mate
list, and :meth:`GadgetGraph.anchors` reads the layout back: the u-th
undecided incidence anchors its edge iff ``mate[u] == U + u``, for ``U``
undecided incidences, and a perfect matching leaves each edge exactly two
anchors, the pair the family certificate stores.

The gadget is stored in linear space.  Its flat rows hold a clique per vertex
and a core list per e-stub, the sums of d_v^2 and of u_e^2 entries for u_e
undecided incidences in edge e, so rows are stored as parts.  A v-stub's row
is its vertex's clique, one tuple shared by the vertex's stubs and listing
the stub itself, then its own tail: its e-stub, then its vertex's dummy if
any.  An e-stub's row is its v-stub, then its edge's cores, one tuple shared
by the edge's e-stubs.  A core's row is its edge's stub tuple and a dummy's
its vertex's clique.  That is at most 6U entries: U in the cliques, 2U in the
tails, U in the e-stubs' heads, U in the core tuples, U in the stub tuples.
The stub's own entry changes nothing: the search scans only even nodes, and
an even node met in its own row lies in the scanning node's blossom, so the
entry takes the same-blossom ``continue``; the base lookup it makes only
compresses a path, which keeps every root.

The layout also fixes the greedy node-order seed of the flat rows: a
v-stub's flat row lists its vertex's other stubs first, so the seed pairs
consecutive stubs of each vertex, an odd one out takes its e-stub, each
e-stub still free takes its edge's next free core, and the cores and dummies
left over see only matched nodes.  :func:`reduce_to_matching` lays it out
with the nodes.  It matches every v-stub, and augmenting never exposes a
node, so no root is a v-stub and every entry outside a row's last part, a
v-stub, stays matched: the length-3 path reads only that last part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Sequence

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

    Each row is a sequence of parts, read in order as one row.  A part may
    list the scanned node itself: that node is even and in its own blossom,
    so the entry takes the same-blossom ``continue`` and changes nothing.

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
                    # The triangle below v: to is its own base and v grew its
                    # mate x.  Make the writes the general path below would (see
                    # the module docstring).  x is odd and in no blossom, since
                    # one holding x holds its mate and to is the base of none
                    # holding x, so x is queued.  to is never the exposed root
                    # here: an even neighbour of the root joins the root's
                    # blossom in the root's own scan.
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
    reading rows as in :func:`_augment_from`, so equal gadgets give equal
    matchings.  Every entry outside a row's last part is a v-stub, matched by
    the seed and never exposed: augmenting never exposes a node, so no root
    is a v-stub and only the last part of a row can hold an exposed node.
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
        # The path the search would find first, when it has length 3: the
        # root's first neighbour a, a's mate p (the next node it scans), and
        # the first exposed x in p's row, which lies in its last part.  The
        # seed leaves no two exposed nodes adjacent, so there is no shorter
        # path.
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

    Node layout, for the ``U`` undecided incidences, in the order of
    ``IncidenceGraph.incidences``: v-stubs ``[0, U)``, e-stubs ``[U, 2U)``,
    then the cores in edge order, then the parity dummies in vertex order.
    The u-th of them (vertex index, edge id) is realized by the gadget edge
    ``(u, U + u)`` from its v-stub to its e-stub; all other gadget edges are
    internal (stub-core, stub-stub, stub-dummy).  ``host`` and ``state`` are
    the incidence graph and the decisions it was built from.

    ``rows[x]`` is node x's row as a tuple of parts.  A v-stub's row is its
    vertex's clique, one tuple shared by all of that vertex's stubs and
    listing the stub itself, then the stub's tail: its e-stub, then its
    vertex's dummy if it has one.  An e-stub's row is its v-stub, then its
    edge's cores, one tuple shared by the edge's e-stubs.  Core and dummy
    rows are one part: a core's is its edge's stub tuple, shared by the
    edge's cores, and a dummy's is its vertex's clique.  Every entry outside
    a row's last part is a v-stub.  ``seed`` is the greedy node-order
    matching of the flat rows, read off the layout.
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
        undecided ones whose gadget edge ``(u, U + u)`` is matched.
        Incidences are grouped by edge in increasing vertex order, so each
        edge's anchors arrive in increasing order.
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
    is excluded and -1 when undecided.  The gadget covers the undecided
    incidences only: an edge needing ``k`` more anchors from ``u`` undecided
    incidences gets ``u - k`` cores, and a vertex gets a parity dummy when
    its undecided count minus its forced count is odd.  With nothing
    decided, every edge needs 2 and every forced count is 0.

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
    # Node layout: v-stubs [0, U), e-stubs [U, 2U), then cores, then dummies.
    # ``mate`` is the greedy node-order seed of the flat rows, laid out with
    # the nodes.  A v-stub's flat row lists its vertex's other stubs first,
    # then its e-stub, so the seed pairs consecutive stubs of a vertex and an
    # odd one out takes its e-stub: each stub takes its e-stub until its
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
                mate[u_count + a] = -1
                mate[a] = u
                mate[u] = a
            else:
                mate[u] = u_count + u
                mate[u_count + u] = u
            stubs.append(u)
            u += 1
        elif s:
            odd[v] ^= 1

    # Vertex-node gadgets: stub clique plus a parity dummy iff the stub count
    # minus the forced count is odd, so the stubs matched across have the
    # forced count's parity and the vertex's anchor count ends even.  An edge
    # with d undecided incidences that needs k more anchors gets d-k cores,
    # so U - 2 n_e + (forced anchors) cores come before the first dummy once
    # the edge loop below has checked every d >= k.
    v_rows: list[tuple[tuple[int, ...], ...]] = [()] * u_count
    dummy_rows: list[tuple[tuple[int, ...]]] = []
    dummy = 3 * u_count - 2 * g.n_e + state.count(1)
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

    # Edge-node gadgets: d-k cores, each adjacent to all d of the edge's stubs.
    # An e-stub's row: its v-stub, then its edge's cores, one tuple the
    # edge's e-stubs share.  In the seed each free e-stub takes its edge's
    # next core; cores and dummies still free then see only matched nodes
    # and stay so.
    stub_rows: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    core_rows: list[tuple[tuple[int, ...]]] = []
    stub = u_count
    core = 2 * u_count
    for j in range(g.n_e):
        decided = state[first[j]:first[j + 1]]
        d = decided.count(-1)
        k = 2 - decided.count(1)
        if d < k:
            raise ValueError(f"edge e{j + 1} has only {d} vertices left for {k} anchors")
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
    mate += repeat(-1, len(dummy_rows))

    rows = (*v_rows, *stub_rows, *core_rows, *dummy_rows)
    return GadgetGraph(rows, tuple(mate), g, state)
