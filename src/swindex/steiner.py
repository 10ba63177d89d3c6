"""Exact Steiner distances and Steiner k-Wiener indices.

The Steiner distance of a terminal set S is the edge count of a smallest
connected subgraph containing S. Sums over all k-subsets give the k-Wiener
index; the weighted variants count every vertex with multiplicity c(v).
All arithmetic is exact (ints and fractions.Fraction).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations, repeat
from math import comb, prod
from operator import add, itemgetter, mul
from struct import Struct, calcsize
from typing import NamedTuple

from .errors import PreconditionError
from .graph import Graph, all_pairs_distances, is_connected, is_tree
from .weights import WeightFn, as_weights

__all__ = [
    "steiner_distance",
    "steiner_wiener",
    "avg_steiner_distance",
    "steiner_wiener_weighted",
    "steiner_wiener_weighted_naive",
    "steiner_wiener_weighted_tree",
]


def _require_connected(g: Graph) -> None:
    """Raise unless g is non-empty and connected."""
    if g.n == 0:
        raise PreconditionError("graph has no vertices")
    if not is_connected(g):
        raise PreconditionError("graph is disconnected")


def _terminal_tuple(g: Graph, terminals) -> tuple[int, ...]:
    ts = sorted(set(terminals))
    if not ts:
        raise PreconditionError("terminal set is empty")
    if ts[0] < 0 or ts[-1] >= g.n:
        raise PreconditionError("terminal out of range")
    return tuple(ts)


class _Packed(NamedTuple):
    dist: list[list[int]]
    rows: list[int]  # rows[v] holds dist[v][u] in lane u, lanes in sys.byteorder
    code: str  # the struct (and memoryview) format of one lane
    ones: int  # 1 in every lane


def _pack(dist: list[list[int]], size: int) -> _Packed:
    """Pack `dist` for sets of up to `size` vertices (size 1 packs as 2, so
    every entry fits) in the narrowest lanes of W = 8, 16, 32 or 64 bits with
    (size - 1)·D < 2^(W-1), D the largest entry; PreconditionError if none
    fits. That suffices: s vertices have d <= (s - 1)·D. A lane-min operand is
    a merge sum R(A) + R(X - A) <= |X|·D with |X| <= size - 1, or a closure
    sum M(X)[u] + d(u, v) <= (|X| + 1)·D with |X| <= size - 2, so it is at
    most (size - 1)·D and leaves its lane's guard bit clear; a root sum
    M(base)[u] + d(u, r) <= size·D <= 2·(size - 1)·D < 2^W carries into no lane.
    """
    top = (max(size, 2) - 1) * max(map(max, dist))
    code = next((x for x in "BHIQ" if top < 1 << (8 * calcsize(x) - 1)), None)
    if code is None:
        raise PreconditionError(f"Steiner distances up to {top} overflow 64-bit lanes")
    pack_row = Struct(f"{len(dist)}{code}").pack
    rows = [int.from_bytes(pack_row(*row), sys.byteorder) for row in [[1] * len(dist), *dist]]
    return _Packed(dist, rows[1:], code, rows[0])


def _subset_distances(packed: _Packed, terminals: tuple[int, ...], size: int):
    """Dreyfus–Wagner over every size-subset of the sorted `terminals`, on a
    matrix `_pack`ed for at least `size`.

    Yields (base, roots, values) for each (size-1)-subset `base` in
    lexicographic order, where roots are the terminals after base[-1] and
    values[i] = d(base + (roots[i],)). The closed row R(X)[v] = d(X + {v})
    of each X with |X| <= size-2 is one packed int, built once from the rows
    of its bipartitions, and dropped once no later base can contain X. All
    tables belong to this call: O(C(|terminals|, size-2)) rows of n lanes.
    """
    dist, prow, code, ones = packed
    nbytes, shift = len(prow) * calcsize(code), 8 * calcsize(code) - 1
    guard = ones << shift
    rows: dict = {t: prow[t] for t in terminals}
    # bipartitions of an s-tuple as index getters, the first part holding
    # index 0; a one-index getter returns the bare vertex, the key of its row
    halves = {
        s: [(itemgetter(0, *a), itemgetter(*(i for i in range(1, s) if i not in a)))
            for r in range(s - 1) for a in combinations(range(1, s), r)]
        for s in range(2, size)
    }
    pos = {t: i for i, t in enumerate(terminals)}

    def lanes(x: int) -> memoryview:
        return memoryview(x.to_bytes(nbytes, sys.byteorder)).cast(code)

    def lane_min(sums) -> int:
        # t marks the lanes where m >= s, and t - (t >> (W-1)) fills their low bits
        m = next(sums)
        for s in sums:
            t = ((m | guard) - s) & guard
            m ^= (m ^ s) & (t - (t >> shift))
        return m

    def merged(x) -> int:
        # M(X) = lane-min over bipartitions (A, X-A) of R(A) + R(X-A)
        return lane_min(closed(a(x)) + closed(b(x)) for a, b in halves[len(x)])

    def closed(x) -> int:
        row = rows.get(x)
        if row is None:
            # one relaxation through the metric closure: R(X) = lane-min over u of M(X)[u] + P[u]
            row = rows[x] = lane_min(map(add, map(mul, lanes(merged(x)), repeat(ones)), prow))
        return row

    first = None
    for base in combinations(terminals[:-1], size - 1):
        if size > 3 and base[0] != first:
            # later bases start at base[0] or after, so rows of sets that
            # start before it are never read again (below size 4, only
            # single vertices have rows)
            first = base[0]
            for x in [x for x in rows if type(x) is tuple and x[0] < first]:
                del rows[x]
        roots = terminals[pos[base[-1]] + 1 :]
        if size > 2:
            m = merged(base)
            yield base, roots, [min(lanes(m + prow[r])) for r in roots]
        else:  # a pair's distance is its matrix entry
            yield base, roots, list(map(dist[base[0]].__getitem__, roots))


def _set_distance(packed: _Packed, terminals: tuple[int, ...]) -> int:
    """d(S) of one sorted terminal tuple, through the same engine."""
    if len(terminals) == 1:
        return 0
    ((_, _, (value,)),) = _subset_distances(packed, terminals, len(terminals))
    return value


def steiner_distance(g: Graph, terminals) -> int:
    """Fewest edges of a connected subgraph containing all terminals."""
    ts = _terminal_tuple(g, terminals)
    _require_connected(g)
    return _set_distance(_pack(all_pairs_distances(g), len(ts)), ts)


def _require_k(k: int, total: int) -> None:
    if not 1 <= k <= total:
        raise PreconditionError(f"k={k} out of range 1..{total} (subset size vs total weight)")


def steiner_wiener(g: Graph, k: int) -> int:
    """Sum of Steiner distances over all k-subsets of vertices: the weighted
    index with every weight 1."""
    return steiner_wiener_weighted(g, 1, k)


def avg_steiner_distance(g: Graph, k: int) -> Fraction:
    """Mean Steiner distance of a k-subset, as an exact fraction."""
    return Fraction(steiner_wiener(g, k), comb(g.n, k))


def steiner_wiener_weighted(g: Graph, weights, k: int) -> int:
    """Sum of d(S*) over all k-subsets of copies, S* the set of originals."""
    c = as_weights(weights, g.n)
    _require_connected(g)
    _require_k(k, c.total)
    return _indices(g, c, (k,))[k]


def _indices(g: Graph, c: WeightFn, ks) -> dict[int, int]:
    """SW_k^c(g) for each k in ks, from at most one distance matrix.

    The one place that picks an algorithm, by the graph's shape alone: no
    branch reads the weights. It needs g connected and every k in
    1..c.total. In order: k = 1 gives 0; a tree takes the edge-cut formula;
    a graph whose twin quotient is a tree takes its closed form; everything
    else goes to the grouped enumeration.
    """
    out = dict.fromkeys(ks, 0)
    rest = [k for k in out if k > 1]
    if not rest or g.m == g.n - 1:
        return out | {k: _edge_cut_index(g, c, k) for k in rest}
    twins = _twin_indices(g, c, rest)
    if twins:
        return out | twins
    dist = all_pairs_distances(g)
    return out | {k: _grouped_index(dist, c, k) for k in rest}


def _twin_indices(g: Graph, c: WeightFn, ks: list[int]) -> dict[int, int] | None:
    """SW_k^c through the twin quotient Q, or None unless Q is a tree, whose
    weighted index the edge-cut formula reads in linear time.

    Classes are the true twins (equal N[v]), then the false twins (equal
    N(v)) among the rest; Q is induced on each class's lowest member. If the
    originals S* of a k-set of copies meet class c in j_c >= 1 vertices,
    d(S*) = d_Q(S*) + sum(j_c - 1), plus 1 when |S*| >= 2 lies in one false
    class. C(N, k) - C(N - w_v, k) k-sets hold a copy of v, and
    C(N, k) - C(N - a_c, k) meet c, where a_c sums the weights w_v over c and
    N = c.total. Summed: SW_k = SW_k^a(Q) + (n - q)·C(N, k) - sum_v C(N - w_v, k)
    + sum_c C(N - a_c, k) + sum_{false c} [C(a_c, k) - sum_{v in c} C(w_v, k)].
    """
    closed: dict = {}
    for v, nbrs in enumerate(g.adj):
        closed.setdefault(tuple(sorted((v, *nbrs))), []).append(v)
    opened: dict = {}
    for v, *twins in closed.values():
        if not twins:
            opened.setdefault(g.adj[v], []).append(v)
    classes = sorted([x for x in closed.values() if len(x) > 1] + list(opened.values()))
    q, total = len(classes), c.total
    if q == g.n:
        return None
    # classes are modules: a lowest member sees each class it touches
    # through that class's lowest member, and pos keeps the tuples sorted
    pos = {x[0]: i for i, x in enumerate(classes)}
    quotient = Graph._trusted(q, [tuple(pos[u] for u in g.adj[x[0]] if u in pos) for x in classes])
    if quotient.m != q - 1:
        return None
    a = WeightFn([c.weight_of(x) for x in classes])
    false = [(a_c, x) for a_c, x in zip(a.values(), classes) if len(x) > 1 and x[1] not in g.adj[x[0]]]
    return {
        k: _edge_cut_index(quotient, a, k)
        + (g.n - q) * comb(total, k)
        - sum(comb(total - w_v, k) for w_v in c.values())
        + sum(comb(total - a_c, k) for a_c in a.values())
        + sum(comb(a_c, k) - sum(comb(c[v], k) for v in x) for a_c, x in false)
        for k in ks
    }


def _exact_multiplicity(c, originals: tuple[int, ...], k: int) -> int:
    """Number of k-subsets of copies whose original set is exactly `originals`
    (inclusion-exclusion over sub-collections)."""
    s = len(originals)
    return sum((-1) ** (s - r) * comb(c.weight_of(sub), k)
               for r in range(s + 1) for sub in combinations(originals, r))


def _grouped_index(dist: list[list[int]], c: WeightFn, k: int) -> int:
    """Every k-subset of copies with original set S* contributes d(S*), so
    group by S* and weigh by its number of copy sets. Needs k >= 2. S* holds
    k copies only if |S*| >= k / max c; at |S*| = k the count is the product
    of the weights (1 for unit weights, where only this size occurs), below
    it inclusion-exclusion."""
    support = c.support()
    w = [c[v] for v in support]
    top = max(w)
    total = 0
    largest = min(k, len(support))
    packed = _pack(dist, largest)
    for size in range(max(2, -(-k // top)), largest + 1):
        for base, roots, values in _subset_distances(packed, support, size):
            if size < k:
                for r, d in zip(roots, values):
                    combo = base + (r,)
                    if c.weight_of(combo) >= k:
                        total += _exact_multiplicity(c, combo, k) * d
            elif top == 1:
                total += sum(values)
            else:  # the roots are a suffix of the support
                total += prod(map(c.__getitem__, base)) * sum(map(mul, w[-len(roots) :], values))
    return total


def steiner_wiener_weighted_naive(g: Graph, weights, k: int) -> int:
    """Copy-materializing oracle: literally enumerate k-subsets of copies.

    Exponential in total weight; kept as the reference the grouped version
    is checked against.
    """
    c = as_weights(weights, g.n)
    _require_connected(g)
    _require_k(k, c.total)
    copies = [v for v in range(g.n) for _ in range(c[v])]
    packed = _pack(all_pairs_distances(g), min(k, g.n))
    memo: dict = {}
    total = 0
    for combo in combinations(copies, k):
        originals = tuple(dict.fromkeys(combo))  # copies are sorted, so combo is too
        if originals not in memo:
            memo[originals] = _set_distance(packed, originals)
        total += memo[originals]
    return total


def steiner_wiener_weighted_tree(t: Graph, weights, k: int) -> int:
    """The weighted index of a tree, by the edge-cut formula."""
    if not is_tree(t):
        raise PreconditionError("graph is not a tree")
    c = as_weights(weights, t.n)
    _require_k(k, c.total)
    return _edge_cut_index(t, c, k)


def _edge_cut_index(t: Graph, c: WeightFn, k: int) -> int:
    """An edge of tree t lies in the minimal subtree of a copy-set exactly
    when both sides hold a copy, so sum per-edge cut counts."""
    parent, order, stack = [-1] * t.n, [], [0]
    while stack:  # depth-first from vertex 0
        u = stack.pop()
        order.append(u)
        for v in t.adj[u]:
            if v != parent[u]:
                parent[v] = u
                stack.append(v)
    side = list(c.values())
    for u in reversed(order[1:]):
        side[parent[u]] += side[u]
    total, sets = c.total, comb(c.total, k)
    # each vertex but the root 0 is the lower end of one edge
    return sum(sets - comb(a, k) - comb(total - a, k) for a in side[1:])
