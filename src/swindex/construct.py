"""Spanning-tree constructions with machine-checkable certificates.

Both constructors grow a forest of local stars around a set of anchors kept
pairwise far apart, connect consecutive stars with single edges, attach the
leftover vertices, and record enough data (anchors, connectors, weights,
nearest-anchor assignment) for an independent verifier to re-check every
structural claim and the resulting index bound.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from math import comb

from .bounds import BOUNDS, BoundReport
from .errors import PreconditionError
from .graph import (
    Graph,
    bfs_distances,
    bfs_from_set,
    has_triangle,
    is_connected,
    is_tree,
    line_graph,
    norm_edge,
    power_graph,
)
from .steiner import steiner_wiener_weighted_tree
from .weights import WeightFn

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

    def weight_map(self) -> dict:
        return dict(self.weights)

    def anchor_vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for group in _anchor_groups(self) for v in group}))


def _anchor_groups(cert: Certificate) -> list[tuple[int, ...]]:
    """Anchors as vertex groups: one vertex per packing anchor, two per edge."""
    if cert.kind == "matching":
        return list(cert.anchors)
    return [(a,) for a in cert.anchors]


def _certificate(tree, anchors, vertices, connectors, assignment) -> Certificate:
    """Package a construction, weighing each anchor vertex by the number of
    vertices credited to it."""
    tally = dict.fromkeys(vertices, 0)
    for a in assignment:
        tally[a] += 1
    weights = tuple(sorted(tally.items()))
    return Certificate(tree, tuple(anchors), tuple(connectors), weights, tuple(assignment))


def _nearest_assignment(g: Graph, anchors) -> list[int]:
    """Per-vertex nearest anchor, ties broken by lowest anchor id."""
    best_d = [None] * g.n
    best_a = [None] * g.n
    for a in sorted(anchors):
        row = bfs_distances(g, a)
        for v in range(g.n):
            d = row[v]
            if d is None:
                continue
            if best_d[v] is None or d < best_d[v]:
                best_d[v] = d
                best_a[v] = a
    return best_a


def _walk_middle_edge(g: Graph, start: int, goal_row, length: int) -> tuple[int, int]:
    """Follow a shortest path of the given length from start toward the goal
    (lowest-id neighbor each step) and return its middle edge."""
    path = [start]
    cur = start
    for _ in range(length):
        step = next(
            v for v in g.adj[cur] if goal_row[v] == goal_row[cur] - 1
        )
        path.append(step)
        cur = step
    mid = length // 2
    return norm_edge(path[mid], path[mid + 1])


def packing_spanning_tree(g: Graph, start: int = 0) -> Certificate:
    """Grow stars around a maximal distance-3 packing of anchors.

    New anchors are taken at distance exactly 3 from the current packing
    (lowest id first); consecutive stars are joined by the middle edge of a
    shortest path to the nearest earlier anchor. Leftover vertices all sit
    at distance 2 and attach next to their assigned anchor.
    """
    if not is_connected(g) or g.n == 0:
        raise PreconditionError("graph must be connected and non-empty")
    if not 0 <= start < g.n:
        raise PreconditionError(f"start vertex {start} out of range")
    anchors = [start]
    tree_edges = {norm_edge(start, x) for x in g.adj[start]}
    in_tree = {start} | set(g.adj[start])
    connectors: list[tuple[int, int]] = []
    while True:
        dist_set = bfs_from_set(g, anchors)
        candidate = next(
            (v for v in range(g.n) if dist_set[v] == 3), None
        )
        if candidate is None:
            break
        star = {candidate} | set(g.adj[candidate])
        if star & in_tree:
            raise AssertionError("new star overlaps the grown forest")
        tree_edges.update(norm_edge(candidate, x) for x in g.adj[candidate])
        from_cand = bfs_distances(g, candidate)
        nearest = next(a for a in sorted(anchors) if from_cand[a] == 3)
        to_nearest = bfs_distances(g, nearest)
        connector = _walk_middle_edge(g, candidate, to_nearest, 3)
        tree_edges.add(connector)
        connectors.append(connector)
        anchors.append(candidate)
        in_tree |= star
    dist_set = bfs_from_set(g, anchors)
    uncovered = [v for v in range(g.n) if dist_set[v] > 2]
    if uncovered:
        raise AssertionError(f"vertices beyond distance 2 of the packing: {uncovered}")
    assignment = _nearest_assignment(g, anchors)
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


def matching_spanning_tree(g: Graph, start_edge=None) -> Certificate:
    """Triangle-free counterpart: grow double stars around a matching whose
    edges stay pairwise at edge-distance >= 3.

    New matching edges are taken at edge-distance exactly 3 (lowest (u, v)
    first). Leftover vertices attach layer by layer outward from the star
    forest, which preserves every vertex's distance to the matched set.
    """
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
    matched: list[int] = [first[0], first[1]]
    tree_edges = set()
    for end in first:
        tree_edges.update(norm_edge(end, x) for x in g.adj[end])
    in_tree = set(g.adj[first[0]]) | set(g.adj[first[1]])
    connectors: list[tuple[int, int]] = []
    while True:
        dist_set = bfs_from_set(g, matched)
        candidate = next(
            (
                (u, v)
                for u, v in all_edges
                if min(dist_set[u], dist_set[v]) == 3
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
        rows = {z: bfs_distances(g, z) for z in candidate}
        nearest_pair = min(
            (m, z)
            for z in candidate
            for m in matched
            if rows[z][m] == 3
        )
        to_nearest = bfs_distances(g, nearest_pair[0])
        connector = _walk_middle_edge(g, nearest_pair[1], to_nearest, 3)
        tree_edges.add(connector)
        connectors.append(connector)
        matching.append(candidate)
        matched.extend(candidate)
        in_tree |= star
    dist_set = bfs_from_set(g, matched)
    bad_edges = [e for e in all_edges if min(dist_set[e[0]], dist_set[e[1]]) > 2]
    if bad_edges:
        raise AssertionError(f"edges beyond edge-distance 2 of the matching: {bad_edges}")
    far = [v for v in range(g.n) if dist_set[v] > 3]
    if far:
        raise AssertionError(f"vertices beyond distance 3 of the matched set: {far}")
    # attach the rest outward from the star forest; discovery edges keep
    # every distance to the matched set intact
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
    tree_dist = bfs_from_set(tree, matched)
    if tree_dist != dist_set:
        raise AssertionError("attachment failed to preserve distances to the matching")
    # assign along tree distances: the tree realizes every set-distance, so
    # each vertex has a matched vertex within 3 tree hops
    assignment = _nearest_assignment(tree, matched)
    return _certificate(tree, matching, matched, connectors, assignment)


def _set_distances(g: Graph, sources) -> list[int]:
    """Hop distance to the nearest source, with n standing for unreachable."""
    return [g.n if d is None else d for d in bfs_from_set(g, sources)]


def verify_certificate(cert: Certificate, g: Graph, k: int = 2) -> list[BoundReport]:
    """Re-check every structural claim of a certificate against g, plus the
    index bound on the constructed tree. One report per condition; a report
    passes iff its slack is >= 0.

    The verifier is total: a malformed certificate yields FAIL reports, never
    an exception (only a k outside 1..n raises). The checks after
    spanning_tree read distances in g and in the tree, so they run only when
    the tree is a spanning tree of g; anchor and assignment entries that are
    not vertices of g count as violations.
    """
    n = g.n
    t = cert.tree
    strays = sum(1 for u, v in t.edges() if not (v < n and g.has_edge(u, v)))
    violations = int(t.n != n) + strays + int(not is_tree(t))
    reports = [BoundReport.of("spanning_tree", violations, 0, "eq", {"edges": t.m})]
    if violations:
        return reports
    packing = cert.kind == "packing"
    reach = 2 if packing else 3
    groups = _anchor_groups(cert)
    vertices = cert.anchor_vertices()
    rows = {v: bfs_distances(g, v) for v in vertices if 0 <= v < n}
    if not packing:
        flat = [v for e in groups for v in e]
        is_matching = len(flat) == len(set(flat)) and all(
            len(e) == 2 and all(v in rows for v in e) and g.has_edge(*e) for e in groups
        )
        reports.append(BoundReport.of("edges_form_matching", int(is_matching), 1, "ge"))
    pair_min = min(
        (
            rows[x][y]
            for i, a in enumerate(groups)
            for b in groups[i + 1 :]
            for x in a
            for y in b
            if x in rows and y in rows
        ),
        default=3,
    )
    if packing:
        name, params = "packing_pairwise_distance", {"anchors": len(groups)}
    else:
        name, params = "matching_pairwise_edge_distance", {"edges": len(groups)}
    reports.append(BoundReport.of(name, pair_min, 3, "ge", params))
    dist_set = _set_distances(g, rows)
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
    anchor_of = [a if a in rows else None for a in cert.assignment[:n]]
    anchor_of += [None] * (n - len(anchor_of))
    tree_rows = {v: bfs_distances(t, v) for v in rows}
    if packing:
        near, near_set = rows, dist_set
    else:
        # matching credits each vertex to a matched vertex realizing its
        # tree set-distance
        near, near_set = tree_rows, _set_distances(t, rows)
    bad_assign = sum(
        1 for v, a in enumerate(anchor_of) if a is None or near[a][v] != near_set[v]
    )
    reports.append(
        BoundReport.of("assignment_nearest", bad_assign + (0 if tally_ok else 1), 0, "eq")
    )
    max_hop = max(n if a is None else tree_rows[a][v] for v, a in enumerate(anchor_of))
    reports.append(BoundReport.of("anchor_paths_in_tree", max_hop, reach, "le"))
    if packing:
        cubed, _ = power_graph(t, 3, rows)
        reports.append(
            BoundReport.of("anchor_power3_connected", int(is_connected(cubed)), 1, "ge")
        )
    else:
        drift = sum(1 for v in range(n) if near_set[v] != dist_set[v])
        reports.append(BoundReport.of("distance_preservation", drift, 0, "eq"))
        lg, edge_ids = line_graph(t)
        index = {e: i for i, e in enumerate(edge_ids)}
        line_vertices = [index.get(tuple(sorted(e))) for e in groups]
        joined = None not in line_vertices and is_connected(power_graph(lg, 4, line_vertices)[0])
        reports.append(BoundReport.of("line_power4_connected", int(joined), 1, "ge"))
    # the triangle-free bound divides by delta, which is 0 only on a single
    # vertex: no edge to match, so edges_form_matching has already failed
    if packing or delta:
        sw = steiner_wiener_weighted_tree(t, WeightFn.uniform(n), k)
        bound = "theorem4" if packing else "theorem5"
        rhs = BOUNDS[bound].rhs(n, delta, k)
        name = "sw_within_min_degree_bound" if packing else "sw_within_triangle_free_bound"
        reports.append(
            BoundReport.of(
                name,
                sw,
                rhs,
                "le",
                {"n": n, "delta": delta, "k": k},
                vacuous=rhs >= (n - 1) * comb(n, k),
            )
        )
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
    the shape of the anchors field."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"bad certificate JSON: {exc}") from exc
    try:
        assignment = tuple(int(v) for v in payload["assignment"])
        n = len(assignment)
        tree = Graph.from_edges(
            n, [tuple(e) for e in payload["tree_edges"]]
        )
        connectors = tuple(norm_edge(*e) for e in payload["connectors"])
        weights = tuple((int(v), int(w)) for v, w in payload["weights"])
        raw_anchors = payload["anchors"]
        if raw_anchors and isinstance(raw_anchors[0], list):
            anchors = tuple(tuple(int(x) for x in a) for a in raw_anchors)
        else:
            anchors = tuple(int(a) for a in raw_anchors)
        return Certificate(tree, anchors, connectors, weights, assignment)
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed certificate: {exc}") from exc
