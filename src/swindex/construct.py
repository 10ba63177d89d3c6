"""Spanning-tree constructions with machine-checkable certificates.

Both constructors run one grower: a star around each anchor group kept
far from the others (one vertex for packing, an edge's ends for matching),
one edge joining each new star to the forest, then the leftover vertices. It
records enough data (anchors, connectors, weights, nearest-anchor
assignment) for an independent verifier to re-check every structural claim
and the resulting index bound.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .bounds import BoundReport, _report
from .errors import PreconditionError
from .graph import (
    Graph,
    bfs_distances,
    bfs_nearest,
    has_triangle,
    is_connected,
    is_tree,
    norm_edge,
    require_connected,
)
from .steiner import _require_k, steiner_wiener

__all__ = [
    "Certificate",
    "packing_spanning_tree",
    "matching_spanning_tree",
    "verify_certificate",
    "certificate_to_json",
    "certificate_from_json",
]


@dataclass(frozen=True)
class Certificate:
    """Spanning tree built around anchors kept pairwise far apart.

    A packing certificate's anchors are vertex ids; a matching certificate's
    anchors are the matching edges (u, v) in discovery order. `kind` follows
    from that shape alone. weights[i] = (anchor vertex, count) pairs;
    assignment[v] = the anchor vertex v was credited to.
    """

    tree: Graph
    anchors: tuple
    connectors: tuple[tuple[int, int], ...]
    weights: tuple[tuple[int, int], ...]
    assignment: tuple[int, ...]

    @property
    def kind(self) -> str:
        if self.anchors and isinstance(self.anchors[0], tuple):
            return "matching"
        return "packing"

    @staticmethod
    def group(anchor) -> tuple[int, ...]:
        """An anchor's vertices: a packing anchor alone, or both ends of a
        matching edge."""
        return anchor if isinstance(anchor, tuple) else (anchor,)

    def groups(self) -> list[tuple[int, ...]]:
        return [self.group(a) for a in self.anchors]

    def weight_map(self) -> dict:
        return dict(self.weights)

    def anchor_vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for group in self.groups() for v in group}))


def _search(h: Graph, sources, limit: int | None = None) -> tuple[list[int], list]:
    """Distance to the nearest source, exact up to `limit` hops, with limit + 1
    (n, which no distance reaches, without a limit) for anything farther; and
    the lowest id among the nearest sources (None where not reached)."""
    dist, near = bfs_nearest(h, sources, limit)
    cap = h.n if limit is None else limit + 1
    return [cap if d is None else d for d in dist], near


def _walk_middle_edge(g: Graph, start: int, goal_row) -> tuple[int, int]:
    """Follow a shortest path of length 3 from start toward the goal
    (lowest-id neighbor each step) and return its middle edge."""
    first = next(v for v in g.adj[start] if goal_row[v] == 2)
    return norm_edge(first, next(v for v in g.adj[first] if goal_row[v] == 1))


def _grow_forest(g: Graph, first, next_anchor, reach: int, attach) -> tuple[Certificate, list]:
    """The star forest both constructions share, finished into a certificate.

    Anchors come from `first`, then from next_anchor(dist_set) until it
    returns None. An anchor's star, the closed neighborhood of its group,
    must not meet the forest. It joins through the middle edge of a shortest
    path from a group vertex to the lowest earlier anchor vertex at distance 3.
    Every vertex must end within `reach` of the anchor vertices, and
    attach(in_tree, vertices) hangs the rest. Returns the certificate and the
    distances in g to the anchor vertices, capped at 4.
    """
    anchors, vertices, connectors = [], [], []
    tree_edges, in_tree = set(), set()
    # distance to the anchor vertices, capped at 4 (exact up to 3)
    dist_set = [4] * g.n
    anchor = first
    while anchor is not None:
        group = Certificate.group(anchor)
        star = {x for z in group for x in (z, *g.adj[z])}
        if star & in_tree:
            raise AssertionError("new star overlaps the grown forest")
        tree_edges.update(norm_edge(z, x) for z in group for x in g.adj[z])
        row, near = _search(g, group, 3)
        if anchors:
            # the group is at distance >= 3 from every earlier anchor vertex, so
            # row[m] == 3 where some group vertex is at 3 from m, and near[m] is
            # the lowest such vertex: one search finds the lowest (m, z) pair
            nearest = min(m for m in vertices if row[m] == 3)
            connector = _walk_middle_edge(g, near[nearest], _search(g, (nearest,), 3)[0])
            tree_edges.add(connector)
            connectors.append(connector)
        anchors.append(anchor)
        vertices.extend(group)
        in_tree |= star
        dist_set = list(map(min, dist_set, row))
        anchor = next_anchor(dist_set)
    far = [v for v in range(g.n) if dist_set[v] > reach]
    if far:
        raise AssertionError(f"vertices beyond distance {reach} of the anchors: {far}")
    tree_edges.update(attach(in_tree, vertices))
    tree = Graph.from_edges(g.n, tree_edges)
    if not is_tree(tree):
        raise AssertionError("construction did not produce a tree")
    # a tree that keeps every distance credits each vertex within reach hops
    tree_dist, assignment = bfs_nearest(tree, vertices)
    if tree_dist != dist_set:
        raise AssertionError("attachment failed to preserve distances to the anchors")
    tally = dict.fromkeys(vertices, 0)
    for a in assignment:
        tally[a] += 1
    weights = tuple(sorted(tally.items()))
    cert = Certificate(tree, tuple(anchors), tuple(connectors), weights, tuple(assignment))
    return cert, dist_set


def packing_spanning_tree(g: Graph, start: int = 0) -> Certificate:
    """Grow stars around a maximal distance-3 packing of anchors.

    New anchors are taken at distance exactly 3 from the current packing
    (lowest id first). Leftover vertices all sit at distance 2 and attach
    next to their nearest anchor.
    """
    require_connected(g)
    if not 0 <= start < g.n:
        raise PreconditionError(f"start vertex {start} out of range")

    def hook(in_tree, anchors) -> list[tuple[int, int]]:
        near = bfs_nearest(g, anchors)[1]
        return [
            norm_edge(v, next(x for x in g.adj[v] if g.has_edge(x, near[v])))
            for v in range(g.n)
            if v not in in_tree
        ]

    return _grow_forest(g, start, lambda d: d.index(3) if 3 in d else None, 2, hook)[0]


def matching_spanning_tree(g: Graph, start_edge=None) -> Certificate:
    """Triangle-free counterpart: grow double stars around a matching whose
    edges stay pairwise at edge-distance >= 3.

    New matching edges are taken at edge-distance exactly 3 (lowest (u, v)
    first). Leftover vertices attach layer by layer outward from the star
    forest, which preserves every vertex's distance to the matched set.
    """
    require_connected(g)
    if g.n < 2:
        raise PreconditionError("graph needs at least one edge")
    if has_triangle(g):
        raise PreconditionError("graph contains a triangle")
    all_edges = g.edges()
    if start_edge is None:
        first = all_edges[0]
    else:
        first = norm_edge(*start_edge)
        if not g.has_edge(*first):
            raise PreconditionError(f"start edge {first} not in graph")
    far = range(g.n)

    def next_edge(dist_set) -> tuple[int, int] | None:
        # the lowest edge (u, v), u < v, whose nearer end is at distance 3;
        # dist_set only falls, so a vertex that leaves `far` never returns
        nonlocal far
        far = [u for u in far if dist_set[u] >= 3]
        return next(
            (
                (u, v)
                for u in far
                for v in g.adj[u]
                if v > u and min(dist_set[u], dist_set[v]) == 3
            ),
            None,
        )

    def outward(in_tree, _) -> list[tuple[int, int]]:
        # discovery edges of a search from the star forest
        seen = set(in_tree)
        queue = deque(sorted(in_tree))
        edges = []
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if v not in seen:
                    seen.add(v)
                    edges.append(norm_edge(u, v))
                    queue.append(v)
        return edges

    cert, dist_set = _grow_forest(g, first, next_edge, 3, outward)
    bad_edges = [e for e in all_edges if min(dist_set[e[0]], dist_set[e[1]]) > 2]
    if bad_edges:
        raise AssertionError(f"edges beyond edge-distance 2 of the matching: {bad_edges}")
    return cert


def _cross_edges(h: Graph, dist, near, owner) -> list[tuple[int, int, int]]:
    """(dist[u] + 1 + dist[v], i, j) for each edge uv of h whose ends lie
    nearest to different groups i and j; each is the length of a walk from
    group i to group j. Every edge of a shortest path of length L between two
    groups has length <= L, and the nearest group changes along the path only
    across such edges. So the least length is the least distance between two
    groups, and the edges of length <= L connect any two groups within L."""
    group = [None if a is None else owner[a] for a in near]
    return [
        (dist[u] + 1 + dist[v], group[u], group[v])
        for u in range(h.n)
        for v in h.adj[u]
        if u < v and group[u] != group[v]
    ]


def _credited_distances(h: Graph, anchor_of, dist, near) -> list:
    """Distance in h from each vertex to the anchor it is credited to: the
    sources' search's distance where that anchor is the vertex's label, else
    one full search from the anchor."""
    others = {a for v, a in enumerate(anchor_of) if a is not None and near[v] != a}
    rows = {a: bfs_distances(h, a) for a in others}
    return [dist[v] if a not in rows else rows[a][v] for v, a in enumerate(anchor_of)]


def verify_certificate(cert: Certificate, g: Graph, k: int = 2) -> list[BoundReport]:
    """Re-check every structural claim of a certificate against g, plus the
    index bound on the constructed tree. One report per condition; a report
    passes iff its slack is >= 0.

    The verifier is total: a malformed certificate yields FAIL reports, never
    an exception; only a k outside 1..n on a non-empty g raises, before any
    check. The checks after spanning_tree read distances in g and in the
    tree, so they run only when the tree is a spanning tree of g; anchor and
    assignment entries that are not vertices of g count as violations, and
    so does a connector that is not a tree edge.
    """
    n = g.n
    if n:  # no tree spans an empty g: its one report fails at any k
        _require_k(k, n)
    t = cert.tree
    tree_edges = set(t.edges())
    strays = sum(1 for u, v in tree_edges if not (v < n and g.has_edge(u, v)))
    violations = int(t.n != n) + strays + int(not is_tree(t))
    loose = sum(1 for c in cert.connectors if tuple(sorted(c)) not in tree_edges)
    reports = [BoundReport.of("spanning_tree", violations + loose, 0, "eq", {"edges": t.m})]
    if violations:
        return reports
    packing = cert.kind == "packing"
    reach = 2 if packing else 3
    groups = cert.groups()
    vertices = cert.anchor_vertices()
    # group of each anchor vertex in g; a vertex in two groups puts them at
    # distance 0
    owner: dict[int, int] = {}
    shared = []
    for i, group in enumerate(groups):
        for v in group:
            if 0 <= v < n and owner.setdefault(v, i) != i:
                shared.append((owner[v], i))
    if not packing:
        flat = [v for e in groups for v in e]
        is_matching = len(flat) == len(set(flat)) and all(
            len(e) == 2 and all(v in owner for v in e) and g.has_edge(*e) for e in groups
        )
        reports.append(BoundReport.of("edges_form_matching", int(is_matching), 1, "ge"))
    dist_set, near = _search(g, owner)
    crossings = _cross_edges(g, dist_set, near, owner)
    pair_min = 0 if shared else min((c[0] for c in crossings), default=3)
    if packing:
        name, params = "packing_pairwise_distance", {"anchors": len(groups)}
    else:
        name, params = "matching_pairwise_edge_distance", {"edges": len(groups)}
    reports.append(BoundReport.of(name, pair_min, 3, "ge", params))
    if not packing:
        edge_cover = max((min(dist_set[u], dist_set[v]) for u, v in g.edges()), default=0)
        reports.append(BoundReport.of("edge_coverage", edge_cover, 2, "le"))
    reports.append(BoundReport.of("vertex_coverage", max(dist_set), reach, "le"))
    wmap = cert.weight_map()
    delta = g.min_degree()
    lightest = min((wmap.get(v, 0) for v in vertices), default=0)
    floor = delta + 1 if packing else delta
    reports.append(BoundReport.of("anchor_weight", lightest, floor, "ge", {"delta": delta}))
    if not packing:
        pair_weight = min((sum(wmap.get(v, 0) for v in e) for e in groups), default=2 * delta)
        reports.append(BoundReport.of("matched_pair_weight", pair_weight, 2 * delta, "ge"))
    reports.append(BoundReport.of("weight_total", sum(wmap.values()), n, "eq"))
    tally_ok = sorted(wmap.items()) == [(v, cert.assignment.count(v)) for v in vertices]
    anchor_of = [a if a in owner else None for a in cert.assignment[:n]]
    anchor_of += [None] * (n - len(anchor_of))
    tree_set, tree_near = _search(t, owner)
    tree_hops = _credited_distances(t, anchor_of, tree_set, tree_near)
    if packing:
        hops, near_set = _credited_distances(g, anchor_of, dist_set, near), dist_set
    else:
        # matching credits each vertex to a matched vertex realizing its
        # tree set-distance
        hops, near_set = tree_hops, tree_set
    bad_assign = sum(
        1 for v, a in enumerate(anchor_of) if a is None or hops[v] != near_set[v]
    )
    reports.append(
        BoundReport.of("assignment_nearest", bad_assign + (0 if tally_ok else 1), 0, "eq")
    )
    max_hop = max(n if a is None else tree_hops[v] for v, a in enumerate(anchor_of))
    reports.append(BoundReport.of("anchor_paths_in_tree", max_hop, reach, "le"))
    # groups at tree distance <= 3 are adjacent anchors in the cube of the
    # tree, or matching edges at distance <= 4 in its line graph
    index = {i: x for x, i in enumerate(set(owner.values()) | {i for _, i in shared})}
    close = shared + [(i, j) for d, i, j in _cross_edges(t, tree_set, tree_near, owner) if d <= 3]
    links = {norm_edge(index[i], index[j]) for i, j in close}
    joined = is_connected(Graph.from_edges(len(index), links))
    if packing:
        reports.append(BoundReport.of("anchor_power3_connected", int(joined), 1, "ge"))
    else:
        drift = sum(1 for v in range(n) if tree_set[v] != dist_set[v])
        reports.append(BoundReport.of("distance_preservation", drift, 0, "eq"))
        joined = joined and all(tuple(sorted(e)) in tree_edges for e in groups)
        reports.append(BoundReport.of("line_power4_connected", int(joined), 1, "ge"))
    # the triangle-free bound divides by delta, which is 0 only on a single
    # vertex: no edge to match, so edges_form_matching has already failed
    if packing or delta:
        sw = steiner_wiener(t, k)
        bound = "theorem4" if packing else "theorem5"
        name = "sw_within_min_degree_bound" if packing else "sw_within_triangle_free_bound"
        reports.append(_report(bound, sw, {"n": n, "delta": delta, "k": k}, name))
    return reports


def certificate_to_json(cert: Certificate) -> str:
    """Five-field schema: tree_edges, anchors, connectors, weights, assignment.

    Packing anchors are vertex ids; matching anchors are [u, v] pairs. The
    serialization is canonical so equal certificates produce identical bytes.
    """
    payload = {
        "tree_edges": [list(e) for e in cert.tree.edges()],
        "anchors": [
            list(a) if isinstance(a, tuple) else a for a in cert.anchors
        ],
        "connectors": [list(e) for e in cert.connectors],
        "weights": [list(p) for p in cert.weights],
        "assignment": list(cert.assignment),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def certificate_from_json(text: str) -> Certificate:
    """Inverse of certificate_to_json; the certificate kind is inferred from
    the shape of the anchors field. Anything else, too deeply nested or
    non-finite numbers included, raises PreconditionError."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise PreconditionError(f"bad certificate JSON: {exc}") from exc
    try:
        assignment = tuple(int(v) for v in payload["assignment"])
        n = len(assignment)
        tree = Graph.from_edges(
            n, [tuple(e) for e in payload["tree_edges"]]
        )
        connectors = tuple(norm_edge(int(u), int(v)) for u, v in payload["connectors"])
        weights = tuple((int(v), int(w)) for v, w in payload["weights"])
        raw_anchors = payload["anchors"]
        if raw_anchors and isinstance(raw_anchors[0], list):
            anchors = tuple(tuple(int(x) for x in a) for a in raw_anchors)
        else:
            anchors = tuple(int(a) for a in raw_anchors)
        return Certificate(tree, anchors, connectors, weights, assignment)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"malformed certificate: {exc}") from exc
