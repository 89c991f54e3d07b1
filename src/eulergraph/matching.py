"""Maximum matching on general graphs, and the degree-prescription gadget.

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
its tree, not to the graph.  A greedy maximal matching in node order seeds the
search.  On a gadget it pairs the v-stubs inside their own vertex cliques and
leaves two e-stubs exposed per hyperedge, so about one augmentation still runs
per hyperedge (330 on ``sts(45)``).

Most of those augmenting paths have length 3, and :func:`max_matching` takes
such a path without growing a tree when the search would find it first.  The
seed is maximal and augmenting never exposes a node, so every neighbour of an
exposed root is matched.  The search scans the root's whole row before any
other node and grows the root's first neighbour ``a`` first, so ``a``'s mate
``p`` is the next node it scans.  Only the root is exposed in the tree, so
the first exposed ``x`` other than the root in ``p``'s row ends the path the
search flips: root, ``a``, ``p``, ``x``.  Blossoms closed before that, the
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
matching.  The node layout fixes that edge, so the gadget stores its
adjacency rows and the decisions it was built from, :func:`max_matching`
returns the bare mate list, and :meth:`GadgetGraph.anchors` reads the
layout back: the u-th undecided incidence anchors its edge iff
``mate[u] == U + u``, for ``U`` undecided incidences, and a perfect matching
leaves each edge exactly two anchors, the pair the family certificate stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .incidence import IncidenceGraph


def _greedy_seed(adj: Sequence[Sequence[int]], mate: list[int]) -> None:
    for v in range(len(adj)):
        if mate[v] != -1:
            continue
        for u in adj[v]:
            if mate[u] == -1:
                mate[v] = u
                mate[u] = v
                break


def _find(base, x):
    """Base of the blossom holding ``x``; compresses the path it walked."""
    root = x
    while base[root] != root:
        root = base[root]
    while base[x] != root:
        base[x], x = root, base[x]
    return root


def _augment_from(adj: Sequence[Sequence[int]], mate: list[int], root: int,
                  used: list[bool], parent: list[int], base: list[int],
                  stamp: list[int]) -> bool:
    """BFS for an augmenting path from ``root``; flips it and reports success.

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
        for to in adj[v]:
            if used[to]:
                # Both ends even: nothing within one blossom (v's mate is
                # even only inside v's own), else a new blossom whose base
                # is the LCA of the two bases.
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


def max_matching(adj: Sequence[Sequence[int]]) -> list[int]:
    """Maximum-cardinality matching of a simple undirected graph, as a mate list.

    ``mate[v]`` is the node matched to ``v``, or ``-1`` when ``v`` is exposed,
    so the matching is perfect iff ``-1 not in mate``.  Deterministic: nodes
    are processed in increasing order and neighbours in adjacency order, so
    equal inputs give equal matchings.  Rows must be symmetric (``u`` in
    ``adj[v]`` iff ``v`` in ``adj[u]``), loop-free and without repeats: the
    seed is maximal, and the length-3 path is the search's own, only on such
    rows.
    """
    n = len(adj)
    mate = [-1] * n
    _greedy_seed(adj, mate)
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    stamp = [0] * n
    for root in range(n):
        if mate[root] != -1 or not adj[root]:
            continue
        # The path the search would find first, when it has length 3: the
        # root's first neighbour a, a's mate p (the next node it scans), and
        # the first exposed x in p's row.  The seed leaves no two exposed
        # nodes adjacent, so there is no shorter path.
        a = adj[root][0]
        p = mate[a]
        for x in adj[p]:
            if mate[x] == -1 and x != root:
                mate[x], mate[p], mate[a], mate[root] = p, x, root, a
                break
        else:
            _augment_from(adj, mate, root, used, parent, base, stamp)
    return mate


@dataclass(frozen=True)
class GadgetGraph:
    """The matching gadget built from an incidence graph, as adjacency rows.

    Node layout, for the ``U`` undecided incidences, in the order of
    ``IncidenceGraph.incidences``: v-stubs ``[0, U)``, e-stubs ``[U, 2U)``,
    then the cores in edge order, then the parity dummies in vertex order.
    The u-th of them (vertex index, edge id) is realized by the gadget edge
    ``(u, U + u)`` from its v-stub to its e-stub; all other gadget edges are
    internal (stub-core, stub-stub, stub-dummy).  ``host`` and ``state`` are
    the incidence graph and the decisions it was built from.
    """

    adj: tuple[tuple[int, ...], ...]
    host: IncidenceGraph
    state: Sequence[int]

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
    incidences = g.incidences
    if len(state) != len(incidences):
        raise ValueError(f"state has {len(state)} entries for {len(incidences)} incidences")
    n_v, n_e = g.n_v, g.n_e
    need = [2] * n_e
    odd = [0] * n_v
    live = []
    widths = [0] * n_e
    for (v, e), s in zip(incidences, state):
        if s < 0:
            live.append((v, e))
            widths[e] += 1
        elif s:
            need[e] -= 1
            odd[v] ^= 1
    for j in range(n_e):
        if widths[j] < need[j]:
            raise ValueError(
                f"edge e{j + 1} has only {widths[j]} vertices left for {need[j]} anchors")

    u_count = len(live)
    stubs_of: list[list[int]] = [[] for _ in range(n_v)]
    for t, (v, _) in enumerate(live):
        stubs_of[v].append(t)
    # Node layout: v-stubs [0, U), e-stubs [U, 2U), then cores, then dummies.
    # Every row is built once, already sorted: the layout orders its parts.
    dummy = 2 * u_count + sum(d - k for d, k in zip(widths, need))
    adj: list[tuple[int, ...]] = [()] * (
        dummy + sum((len(s) - p) % 2 for s, p in zip(stubs_of, odd)))

    # Vertex-node gadgets: stub clique plus a parity dummy iff the stub count
    # minus the forced count is odd, so the stubs matched across have the
    # forced count's parity and the vertex's anchor count ends even.
    # A v-stub's row: the other stubs of its vertex, its e-stub, its dummy.
    for stubs, p in zip(stubs_of, odd):
        clique = tuple(stubs)
        tail: tuple[int, ...] = ()
        if (len(clique) - p) % 2 == 1:
            adj[dummy] = clique
            tail = (dummy,)
            dummy += 1
        for i, t in enumerate(clique):
            adj[t] = (*clique[:i], *clique[i + 1:], u_count + t, *tail)

    # Edge-node gadgets: d-k cores, each adjacent to all d of the edge's stubs.
    # An e-stub's row: its v-stub, then its edge's cores.
    stub = u_count
    core = 2 * u_count
    for d, k in zip(widths, need):
        stubs = tuple(range(stub, stub + d))
        cores = tuple(range(core, core + d - k))
        for s in stubs:
            adj[s] = (s - u_count, *cores)
        for c in cores:
            adj[c] = stubs
        stub += d
        core += d - k

    return GadgetGraph(tuple(adj), g, state)
