import random
from fractions import Fraction
from itertools import combinations
from math import comb, inf

import pytest

from swindex import (
    Graph,
    PreconditionError,
    WeightFn,
    avg_steiner_distance,
    bfs_distances,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    steiner_distance,
    steiner_wiener,
    steiner_wiener_weighted,
    steiner_wiener_weighted_naive,
)
from swindex.graph import all_pairs_distances
from swindex.steiner import _grouped_index, _pack, _set_distance

from ensembles import random_connected_graph, random_tree, random_weights
from oracles import steiner_distance_tree


def steiner_brute(g: Graph, terminals) -> int:
    """Superset oracle: smallest connected induced superset, minus one.

    A minimal connecting subgraph is a tree, so its vertex set Y induces a
    connected graph and has d(S) = |Y| - 1; conversely any connected G[Y]
    contains a spanning tree with |Y| - 1 edges.
    """
    ts = set(terminals)
    rest = sorted(set(range(g.n)) - ts)
    for size in range(len(ts), g.n + 1):
        for extra in combinations(rest, size - len(ts)):
            ys = ts | set(extra)
            if _induced_connected(g, ys):
                return size - 1
    raise AssertionError("graph must be connected")


def _induced_connected(g: Graph, ys) -> bool:
    start = next(iter(ys))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in g.adj[u]:
            if v in ys and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(ys)


def steiner_per_subset(dist: list[list[int]], terminals: tuple[int, ...]) -> int:
    """Reference: a fresh Dreyfus–Wagner program for one terminal set, on any
    metric `dist` (a graph's BFS rows or shortest paths under edge weights).

    States are (terminal-subset mask, vertex); each composite subset merges
    complementary sub-subsets at a vertex and then relaxes once through the
    metric closure. Nothing is shared between terminal sets.
    """
    s = len(terminals)
    if s == 1:
        return 0
    if s == 2:
        return dist[terminals[0]][terminals[1]]
    root, base = terminals[-1], terminals[:-1]
    n = len(dist)
    full = (1 << len(base)) - 1
    table: list = [None] * (full + 1)
    for i, t in enumerate(base):
        table[1 << i] = dist[t]
    for mask in range(3, full + 1):
        if table[mask] is not None:
            continue
        low = mask & -mask
        merged = [inf] * n
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                left, right = table[sub], table[mask ^ sub]
                for v in range(n):
                    merged[v] = min(merged[v], left[v] + right[v])
            sub = (sub - 1) & mask
        if mask == full:
            return min(merged[u] + dist[root][u] for u in range(n))
        table[mask] = [min(merged[u] + dist[u][v] for u in range(n)) for v in range(n)]
    raise AssertionError("unreachable")


def _engine_cases():
    """Random connected graphs with n <= 10, plus the fixtures that take
    the tree and k = 2 dispatch."""
    rng = random.Random(31)
    graphs = [random_connected_graph(rng.randint(2, 10), rng, extra=rng.choice((0.1, 0.4)))
              for _ in range(20)]
    graphs += [random_tree(rng.randint(2, 10), rng) for _ in range(6)]
    graphs += [cycle_graph(7), cycle_graph(10), path_graph(9), star_graph(8), complete_graph(6)]
    for g in graphs:
        for k in range(2, min(g.n, 6) + 1):
            yield g, k


def test_engine_matches_per_subset_reference():
    rng = random.Random(37)
    for g, k in _engine_cases():
        dist = [bfs_distances(g, u) for u in range(g.n)]
        combos = list(combinations(range(g.n), k))
        expected = sum(steiner_per_subset(dist, c) for c in combos)
        assert steiner_wiener(g, k) == expected, (g.edges(), k)
        # the enumeration itself, bypassing the tree and k = 2 dispatch
        assert _grouped_index(_pack(dist, k), WeightFn.uniform(g.n), k) == expected, (g.edges(), k)
        for c in combos[:: max(1, len(combos) // 6)]:
            assert steiner_distance(g, c) == steiner_per_subset(dist, c) == steiner_brute(g, c)
        w = random_weights(g.n, rng, lo=0, hi=2)
        if w.total >= k:
            assert steiner_wiener_weighted(g, w, k) == steiner_wiener_weighted_naive(g, w, k)


def test_steiner_distance_examples():
    assert steiner_distance(star_graph(3), (1, 2, 3)) == 3
    assert steiner_distance(cycle_graph(5), (0, 1, 3)) == 3
    assert steiner_distance(path_graph(5), (0, 4)) == 4
    assert steiner_distance(path_graph(5), (2,)) == 0
    # spider with three legs of length 2: tips need all 6 edges
    spider = Graph.from_edges(
        7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
    )
    assert steiner_distance(spider, (2, 4, 6)) == 6
    assert steiner_distance(cycle_graph(3), (0, 1, 2)) == 2


def test_steiner_distance_validates():
    with pytest.raises(PreconditionError):
        steiner_distance(path_graph(3), ())
    with pytest.raises(PreconditionError):
        steiner_distance(path_graph(3), (5,))
    with pytest.raises(PreconditionError):
        steiner_distance(Graph.from_edges(3, [(0, 1)]), (0, 2))


def test_one_or_two_terminals_take_one_search(searches):
    # the search that proves the graph connected answers one or two
    # terminals, with the engine's value on the packed matrix
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 14)
        g = random_connected_graph(n, rng, extra=rng.choice((0.1, 0.4)))
        packed = _pack(all_pairs_distances(g), 2)
        for size in (1, 2):
            ts = tuple(sorted(rng.sample(range(n), min(size, n))))
            searches.clear()
            assert steiner_distance(g, ts) == _set_distance(packed, ts)
            assert len(searches) == 1
    with pytest.raises(PreconditionError, match="disconnected"):
        steiner_distance(Graph.from_edges(3, [(0, 1)]), (1,))


def test_steiner_wiener_examples():
    assert steiner_wiener(path_graph(4), 2) == 10
    assert steiner_wiener(path_graph(4), 3) == 10
    assert steiner_wiener(path_graph(4), 1) == 0
    assert steiner_wiener(cycle_graph(5), 2) == 15
    assert steiner_wiener(path_graph(7), 2) == 56
    # k = n spans everything
    for g in (path_graph(5), cycle_graph(6), star_graph(4)):
        assert steiner_wiener(g, g.n) == g.n - 1
    assert avg_steiner_distance(path_graph(4), 2) == Fraction(5, 3)
    assert avg_steiner_distance(path_graph(4), 3) == Fraction(10, 4)


def test_matches_brute_force_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = random_connected_graph(n, rng)
        k = rng.randint(2, min(n, 5))
        terminals = tuple(sorted(rng.sample(range(n), k)))
        assert steiner_distance(g, terminals) == steiner_brute(g, terminals)


def test_pair_case_is_bfs_distance():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 12)
        g = random_connected_graph(n, rng)
        u, v = rng.sample(range(n), 2)
        assert steiner_distance(g, (u, v)) == bfs_distances(g, u)[v]


def test_tree_fast_path_agrees():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 12)
        t = random_tree(n, rng)
        k = rng.randint(2, min(n, 6))
        terminals = tuple(sorted(rng.sample(range(n), k)))
        assert steiner_distance_tree(t, terminals) == steiner_distance(t, terminals)


def test_tree_fast_path_rejects_non_tree():
    with pytest.raises(PreconditionError):
        steiner_distance_tree(cycle_graph(4), (0, 2))


def test_monotone_under_edge_addition():
    # adding an edge can only shrink Steiner distances
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(3, 8)
        g = random_connected_graph(n, rng, extra=0.2)
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        g2 = Graph.from_edges(n, g.edges() + [rng.choice(non_edges)])
        k = rng.randint(2, min(n, 4))
        terminals = tuple(rng.sample(range(n), k))
        assert steiner_distance(g2, terminals) <= steiner_distance(g, terminals)
        assert steiner_wiener(g2, k) <= steiner_wiener(g, k)


def test_sandwich_between_trivial_extremes():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 8)
        g = random_connected_graph(n, rng)
        k = rng.randint(2, n)
        s = steiner_distance(g, tuple(rng.sample(range(n), k)))
        assert k - 1 <= s <= n - 1


def test_index_sandwich_small_graphs():
    # (k-1) C(n,k) from the per-set floor; the ceiling is attained by paths
    rng = random.Random(29)
    assert avg_steiner_distance(complete_graph(5), 2) == 1
    for _ in range(60):
        n = rng.randint(4, 7)
        g = random_connected_graph(n, rng, extra=rng.choice((0.1, 0.4)))
        for k in (2, 3, 4):
            sw = steiner_wiener(g, k)
            assert (k - 1) * comb(n, k) <= sw
            assert (k + 1) * sw <= (k - 1) * (n + 1) * comb(n, k)
