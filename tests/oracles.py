"""Reference constructions the tests check the library against.

None of these is used by the library itself: the power and line graphs spell
out the conditions the certificate verifier reads off labelled searches, the
tree Steiner distance checks the general engine on trees, and the rest are
small distance helpers written the obvious way.
"""

from swindex import Graph, PreconditionError, bfs_distances, is_tree
from swindex.graph import bfs_nearest, norm_edge


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
