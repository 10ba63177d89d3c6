"""Reference constructions the tests check the library against.

None of these is used by the library itself: the power and line graphs spell
out the conditions the certificate verifier reads off labelled searches, the
tree Steiner distance checks the general engine on trees, the two spanning-tree
constructors are written out loop by loop as a check on the shared star-forest
grower, straightening by walks re-derives every branch of every move from the
tree itself, the diameter by all searches takes one search per vertex where the
library reads the twin quotient, the move partition lists the vertex sets whose
weights the library's move pricing only counts, the two minimum-degree bounds are
written out in closed form where the library composes them from lemma 2, and the
rest are small distance helpers written the obvious way.
"""

from collections import deque
from fractions import Fraction
from math import comb

from swindex import (
    BranchMove,
    Certificate,
    Graph,
    PreconditionError,
    as_weights,
    bfs_distances,
    is_tree,
    relocate_branches,
)
from swindex.graph import _branch, bfs_nearest, has_triangle, is_connected, norm_edge


def bfs_from_set(g: Graph, sources) -> list:
    """Hop distances to the nearest of several sources (None if unreachable)."""
    return bfs_nearest(g, sources)[0]


def power_graph(g: Graph, p: int, restrict_to=None) -> tuple[Graph, list[int]]:
    """p-th power, optionally restricted to a vertex subset.

    Vertices u, v become adjacent when 1 <= d_G(u, v) <= p (distances in the
    full graph, even when restricting). Returns the relabeled graph together
    with the id map new_id -> old_id.
    """
    if p < 1:
        raise PreconditionError("power must be >= 1")
    if restrict_to is None:
        keep = list(range(g.n))
    else:
        keep = sorted(set(restrict_to))
        for v in keep:
            if not 0 <= v < g.n:
                raise PreconditionError(f"restricted vertex {v} out of range")
    index = {old: new for new, old in enumerate(keep)}
    edges = []
    for old_u in keep:
        dist = bfs_distances(g, old_u)
        for old_v in keep:
            if old_v > old_u:
                d = dist[old_v]
                if d is not None and d <= p:
                    edges.append((index[old_u], index[old_v]))
    return Graph.from_edges(len(keep), edges), keep


def line_graph(g: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """Line graph plus the map line-vertex id -> original edge."""
    edge_list = g.edges()
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(edge_list):
        incident[u].append(i)
        incident[v].append(i)
    ledges = set()
    for ids in incident:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                ledges.add((ids[a], ids[b]))
    return Graph.from_edges(len(edge_list), sorted(ledges)), edge_list


def edge_distance(g: Graph, e1: tuple[int, int], e2: tuple[int, int]) -> int:
    """Min distance between an endpoint of e1 and an endpoint of e2."""
    a, b = norm_edge(*e1)
    x, y = norm_edge(*e2)
    for u, v in ((a, b), (x, y)):
        if not g.has_edge(u, v):
            raise PreconditionError(f"edge ({u},{v}) not in graph")
    best = None
    for s in (a, b):
        dist = bfs_distances(g, s)
        for t in (x, y):
            d = dist[t]
            if d is not None and (best is None or d < best):
                best = d
    if best is None:
        raise PreconditionError("edges lie in different components")
    return best


def diameter_by_all_searches(g: Graph) -> int:
    """Largest hop distance over all pairs, from one search per vertex."""
    if g.n == 0 or not is_connected(g):
        raise PreconditionError("diameter needs a non-empty connected graph")
    return max(d for u in range(g.n) for d in bfs_distances(g, u))


def steiner_distance_tree(t: Graph, terminals) -> int:
    """Steiner distance in a tree: half the cyclic sum of consecutive terminal
    distances in depth-first discovery order."""
    if not is_tree(t):
        raise PreconditionError("graph is not a tree")
    ts = sorted(set(terminals))
    if not ts:
        raise PreconditionError("terminal set is empty")
    if ts[0] < 0 or ts[-1] >= t.n:
        raise PreconditionError("terminal out of range")
    if len(ts) == 1:
        return 0
    tin = [0] * t.n
    seen = [False] * t.n
    stack = [0]
    clock = 0
    while stack:
        u = stack.pop()
        if seen[u]:
            continue
        seen[u] = True
        tin[u] = clock
        clock += 1
        stack.extend(v for v in reversed(t.adj[u]) if not seen[v])
    order = sorted(ts, key=tin.__getitem__)
    rows = {v: bfs_distances(t, v) for v in order}
    total = 0
    for i, v in enumerate(order):
        nxt = order[(i + 1) % len(order)]
        total += rows[v][nxt]
    if total % 2:
        raise AssertionError("odd cyclic distance sum on a tree")
    return total // 2


def _within_three(g: Graph, source: int) -> list:
    return [4 if d is None else d for d in bfs_nearest(g, (source,), 3)[0]]


def _walk_middle_edge(g: Graph, start: int, goal_row, length: int) -> tuple[int, int]:
    path = [start]
    cur = start
    for _ in range(length):
        step = next(v for v in g.adj[cur] if goal_row[v] == goal_row[cur] - 1)
        path.append(step)
        cur = step
    mid = length // 2
    return norm_edge(path[mid], path[mid + 1])


def _certificate(tree, anchors, vertices, connectors, assignment) -> Certificate:
    tally = dict.fromkeys(vertices, 0)
    for a in assignment:
        tally[a] += 1
    weights = tuple(sorted(tally.items()))
    return Certificate(tree, tuple(anchors), tuple(connectors), weights, tuple(assignment))


def packing_spanning_tree_reference(g: Graph, start: int = 0) -> Certificate:
    """Stars around a distance-3 packing, grown by their own loop."""
    if not is_connected(g) or g.n == 0:
        raise PreconditionError("graph must be connected and non-empty")
    if not 0 <= start < g.n:
        raise PreconditionError(f"start vertex {start} out of range")
    anchors = [start]
    tree_edges = {norm_edge(start, x) for x in g.adj[start]}
    in_tree = {start} | set(g.adj[start])
    connectors = []
    dist_set = _within_three(g, start)
    while 3 in dist_set:
        candidate = dist_set.index(3)
        star = {candidate} | set(g.adj[candidate])
        if star & in_tree:
            raise AssertionError("new star overlaps the grown forest")
        tree_edges.update(norm_edge(candidate, x) for x in g.adj[candidate])
        from_cand = _within_three(g, candidate)
        nearest = next(a for a in sorted(anchors) if from_cand[a] == 3)
        to_nearest = _within_three(g, nearest)
        connector = _walk_middle_edge(g, candidate, to_nearest, 3)
        tree_edges.add(connector)
        connectors.append(connector)
        anchors.append(candidate)
        in_tree |= star
        dist_set = list(map(min, dist_set, from_cand))
    uncovered = [v for v in range(g.n) if dist_set[v] > 2]
    if uncovered:
        raise AssertionError(f"vertices beyond distance 2 of the packing: {uncovered}")
    assignment = bfs_nearest(g, anchors)[1]
    for v in range(g.n):
        if v in in_tree:
            continue
        a = assignment[v]
        hook = next(x for x in g.adj[v] if g.has_edge(x, a))
        tree_edges.add(norm_edge(v, hook))
    tree = Graph.from_edges(g.n, sorted(tree_edges))
    if not is_tree(tree):
        raise AssertionError("packing construction did not produce a tree")
    return _certificate(tree, anchors, anchors, connectors, assignment)


def matching_spanning_tree_reference(g: Graph, start_edge=None) -> Certificate:
    """Double stars around a matching at edge-distance >= 3, grown by their
    own loop."""
    if not is_connected(g) or g.n < 2:
        raise PreconditionError("graph must be connected with at least one edge")
    if has_triangle(g):
        raise PreconditionError("graph contains a triangle")
    all_edges = g.edges()
    if start_edge is None:
        first = all_edges[0]
    else:
        first = norm_edge(*start_edge)
        if not g.has_edge(*first):
            raise PreconditionError(f"start edge {first} not in graph")
    matching = [first]
    matched = [first[0], first[1]]
    tree_edges = set()
    for end in first:
        tree_edges.update(norm_edge(end, x) for x in g.adj[end])
    in_tree = set(g.adj[first[0]]) | set(g.adj[first[1]])
    connectors = []
    dist_set = list(map(min, *(_within_three(g, end) for end in first)))
    far = range(g.n)
    while True:
        far = [u for u in far if dist_set[u] >= 3]
        candidate = next(
            (
                (u, v)
                for u in far
                for v in g.adj[u]
                if v > u and min(dist_set[u], dist_set[v]) == 3
            ),
            None,
        )
        if candidate is None:
            break
        star = set(g.adj[candidate[0]]) | set(g.adj[candidate[1]])
        if star & in_tree:
            raise AssertionError("new double star overlaps the grown forest")
        for end in candidate:
            tree_edges.update(norm_edge(end, x) for x in g.adj[end])
        rows = {z: _within_three(g, z) for z in candidate}
        nearest_pair = min((m, z) for z in candidate for m in matched if rows[z][m] == 3)
        to_nearest = _within_three(g, nearest_pair[0])
        connector = _walk_middle_edge(g, nearest_pair[1], to_nearest, 3)
        tree_edges.add(connector)
        connectors.append(connector)
        matching.append(candidate)
        matched.extend(candidate)
        in_tree |= star
        dist_set = list(map(min, dist_set, *rows.values()))
    bad_edges = [e for e in all_edges if min(dist_set[e[0]], dist_set[e[1]]) > 2]
    if bad_edges:
        raise AssertionError(f"edges beyond edge-distance 2 of the matching: {bad_edges}")
    far = [v for v in range(g.n) if dist_set[v] > 3]
    if far:
        raise AssertionError(f"vertices beyond distance 3 of the matched set: {far}")
    layer = [None] * g.n
    queue = deque()
    for v in sorted(in_tree):
        layer[v] = 0
        queue.append(v)
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if layer[v] is None:
                layer[v] = layer[u] + 1
                tree_edges.add(norm_edge(u, v))
                queue.append(v)
    tree = Graph.from_edges(g.n, sorted(tree_edges))
    if not is_tree(tree):
        raise AssertionError("matching construction did not produce a tree")
    tree_dist, assignment = bfs_nearest(tree, matched)
    if tree_dist != dist_set:
        raise AssertionError("attachment failed to preserve distances to the matching")
    return _certificate(tree, matching, matched, connectors, assignment)


def straighten_by_walks(tree: Graph, weights, k: int) -> tuple[Graph, list[BranchMove]]:
    """straighten_to_path with every branch at the pivot walked afresh and
    the pivot found by a scan of all vertices, as the library did before it
    kept rooted subtree weights across moves."""
    if not is_tree(tree):
        raise PreconditionError("input is not a tree")
    c = as_weights(weights, tree.n)
    for v in range(tree.n):
        if c[v] < 1:
            raise PreconditionError("straightening requires weights >= 1")
    if not 1 <= k <= c.total:
        raise PreconditionError(f"k={k} out of range 1..{c.total}")
    t = tree
    trace: list[BranchMove] = []
    while True:
        pivot = next((v for v in range(t.n) if len(t.adj[v]) >= 3), None)
        if pivot is None:
            if not is_tree(t):
                raise AssertionError("straightening did not end in a tree")
            return t, trace
        comps = []
        for nb in t.adj[pivot]:
            branch = _branch(t.adj, pivot, nb)
            comps.append((-c.weight_of(branch), min(branch), nb))
        comps.sort()
        second, lightest = -comps[-2][0], -comps[-1][0]
        if c[pivot] + second <= lightest:
            raise AssertionError("straightening move would not keep the heavier side")
        move = BranchMove(t, pivot, comps[-1][2], frozenset(nb for _, _, nb in comps[:-2]))
        t = relocate_branches(move)
        trace.append(move)


def partition(move: BranchMove) -> tuple[frozenset, frozenset, frozenset]:
    """(U, W, X): the u-side and w-side of the remaining tree around the
    u-w edge, and the vertex set of the moved branches."""
    adj = move.tree.adj
    w_side = frozenset(_branch(adj, move.u, move.w))
    moved = frozenset().union(*(_branch(adj, move.u, a) for a in move.branches))
    return frozenset(range(move.tree.n)) - w_side - moved, w_side, moved


def theorem4_expanded(n: int, delta: int, k: int) -> Fraction:
    """Theorem 4's bound with lemma 2 multiplied out."""
    lead = Fraction(k - 1, k + 1) * Fraction(3 * (n + 1), delta + 1)
    return (lead + Fraction(3 * delta, delta + 1) + 2 * k) * comb(n, k)


def theorem5_expanded(n: int, delta: int, k: int) -> Fraction:
    """Theorem 5's bound (triangle-free) with lemma 2 multiplied out."""
    lead = Fraction(k - 1, k + 1) * Fraction(2 * (n + 1), delta)
    return (lead + Fraction(4 * delta - 2, delta) + 3 * k + 1) * comb(n, k)
