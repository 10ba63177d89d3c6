"""Branch-relocation moves on weighted trees.

A move detaches a bundle of branches from a pivot u and reattaches it at a
neighbor w. The induced change of the weighted Steiner k-Wiener index has a
binomial closed form; repeatedly applying moves with the heavier side kept
at the pivot straightens any weighted tree into a path without ever
decreasing the index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

from .errors import PreconditionError
from .graph import Graph, _branch, bfs_distances, is_tree
from .steiner import _require_k
from .weights import as_weights

__all__ = [
    "BranchMove",
    "relocate_branches",
    "relocation_sw_delta",
    "straighten_to_path",
    "moves_to_json",
]


@dataclass(frozen=True)
class BranchMove:
    """Detach the branches hanging at `branches` (neighbors of u) and hang
    them at w instead. Requires the u-w edge and branches ⊆ N(u) - {w}."""

    tree: Graph
    u: int
    w: int
    branches: frozenset

    def __post_init__(self) -> None:
        t = self.tree
        if not is_tree(t):
            raise PreconditionError("move host is not a tree")
        if not t.has_edge(self.u, self.w):
            raise PreconditionError(f"no edge {self.u}-{self.w}")
        if not self.branches:
            raise PreconditionError("empty branch set")
        for a in self.branches:
            if a == self.w:
                raise PreconditionError("branch set may not contain w")
            if not t.has_edge(self.u, a):
                raise PreconditionError(f"branch {a} is not a neighbor of u")


def relocate_branches(move: BranchMove) -> Graph:
    """Apply the move. The result is a tree, as the host is one and each
    branch root trades its edge to u for one to w (never already adjacent).

    Only the neighbor tuples of u, w and the moved branch roots change;
    every other tuple of the old tree is reused.
    """
    u, w, roots = move.u, move.w, move.branches
    adj = list(move.tree.adj)
    adj[u] = tuple(x for x in adj[u] if x not in roots)
    adj[w] = tuple(sorted(adj[w] + tuple(roots)))
    for a in roots:
        adj[a] = tuple(sorted(w if x == u else x for x in adj[a]))
    return Graph._trusted(move.tree.n, adj)


def relocation_sw_delta(move: BranchMove, weights, k: int) -> int:
    """Closed-form change of the weighted Steiner k-Wiener index.

    Counting k-subsets of copies that meet the moved branches and exactly
    one side of the u-w edge gives
        sum_i C(c(X), k-i) * (C(c(U), i) - C(c(W), i)),  i = 1..k-1,
    which is >= 0 whenever the u-side is at least as heavy as the w-side.
    It can be 0 on such a move: K1,3 with unit weights at k = 4. The w-side
    and the moved branches are walked; the u-side weighs what is left.
    """
    c = as_weights(weights, move.tree.n)
    if k < 1:
        raise PreconditionError("k must be >= 1")
    adj = move.tree.adj
    cw = c.weight_of(_branch(adj, move.u, move.w))
    cx = sum(c.weight_of(_branch(adj, move.u, a)) for a in move.branches)
    cu = c.total - cw - cx
    return sum(
        comb(cx, k - i) * (comb(cu, i) - comb(cw, i)) for i in range(1, k)
    )


def straighten_to_path(tree: Graph, weights, k: int) -> tuple[Graph, list[BranchMove]]:
    """Iron a weighted tree into a path by repeated branch relocation.

    At the smallest-id vertex of degree >= 3, branches are ordered by weight
    (descending, ties by smallest contained vertex id); all but the two
    lightest move to the neighbor inside the lightest branch. The kept side,
    the pivot plus the second-lightest branch, then outweighs the target
    branch, so the weighted index never drops along the trace for any k.
    That is checked before every move, and it makes the loop end: at k = 2
    a move raises the index by c(X) * (c(U) - c(W)) >= 1, and lemma 2,
    bound_rhs("lemma2", N=N, C=C, k=2), caps that index. Each tree is proved
    a tree once: as the host of its move, or here. Returns the path and the
    trace.

    Branches are read, not walked: rooted at vertex 0, the tree keeps parent,
    sub (subtree weight) and low (lowest id below) across moves. At pivot p,
    child x gives the branch (sub[x], low[x]) and the parent (total - sub[p],
    0), as it holds the root. Moved roots hang under w; if p's parent moved,
    w takes it and p hangs under w. Then (sub, low) of the lower of p and w,
    then of the other, is recomputed from its children: O(deg p + deg w).
    """
    if not is_tree(tree):
        raise PreconditionError("input is not a tree")
    c = as_weights(weights, tree.n)
    if c.min_weight() < 1:
        raise PreconditionError("straightening requires weights >= 1")
    _require_k(k, c.total)
    t, trace = tree, []
    depth = bfs_distances(t, 0)
    parent = [min(nbrs, key=depth.__getitem__) if v else -1 for v, nbrs in enumerate(t.adj)]
    sub, low = [0] * t.n, [0] * t.n

    def settle(v: int) -> None:
        kids = [x for x in t.adj[v] if x != parent[v]]
        sub[v] = c[v] + sum(sub[x] for x in kids)
        low[v] = min([v, *(low[x] for x in kids)])

    for v in sorted(range(t.n), key=depth.__getitem__, reverse=True):
        settle(v)
    hubs = {v for v in range(t.n) if len(t.adj[v]) >= 3}
    while hubs:
        pivot = min(hubs)
        up = parent[pivot]
        comps = [(sub[pivot] - c.total, 0, x) if x == up else (-sub[x], low[x], x)
                 for x in t.adj[pivot]]
        if c[pivot] - sum(cw for cw, _, _ in comps) != c.total:
            raise AssertionError("straightening lost track of the branch weights")
        comps.sort()
        second, lightest = -comps[-2][0], -comps[-1][0]
        if c[pivot] + second <= lightest:
            raise AssertionError("straightening move would not keep the heavier side")
        w = comps[-1][2]
        move = BranchMove(t, pivot, w, frozenset(nb for _, _, nb in comps[:-2]))
        t = relocate_branches(move)
        trace.append(move)
        for a in move.branches - {up}:
            parent[a] = w
        if up in move.branches:
            parent[w], parent[pivot] = up, w
        for v in (pivot, w) if parent[pivot] == w else (w, pivot):
            settle(v)
        hubs -= {pivot, w}
        hubs.update(v for v in (pivot, w) if len(t.adj[v]) >= 3)
    if not is_tree(t):
        raise AssertionError("straightening did not end in a tree")
    return t, trace


def moves_to_json(trace) -> str:
    """Audit form of a move trace: array of {u, w, A} records."""
    rows = [
        {"u": mv.u, "w": mv.w, "A": sorted(mv.branches)} for mv in trace
    ]
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))
