import dataclasses
import json
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swindex import (
    BOUNDS,
    BoundReport,
    Certificate,
    Graph,
    PreconditionError,
    WeightFn,
    bfs_distances,
    certificate_from_json,
    certificate_to_json,
    complete_graph,
    cycle_graph,
    is_connected,
    is_tree,
    matching_spanning_tree,
    min_degree_extremal,
    packing_spanning_tree,
    path_graph,
    star_graph,
    steiner_distance,
    steiner_wiener_weighted_tree,
    verify_certificate,
)

from ensembles import (
    random_connected_bipartite,
    random_connected_graph,
    random_tree,
    subdivide_all,
)
from oracles import bfs_from_set, line_graph, power_graph, steiner_distance_tree


def test_packing_path7():
    g = path_graph(7)
    cert = packing_spanning_tree(g)
    assert cert.anchors == (0, 3, 6)
    assert cert.connectors == ((1, 2), (4, 5))
    assert cert.weight_map() == {0: 2, 3: 3, 6: 2}
    assert cert.tree.edges() == g.edges()  # the path is its own result
    assert all(r.passed for r in verify_certificate(cert, g, 2))


def test_packing_cycle9():
    g = cycle_graph(9)
    cert = packing_spanning_tree(g)
    assert cert.anchors == (0, 3, 6)
    assert cert.connectors == ((1, 2), (7, 8))
    assert cert.weight_map() == {0: 3, 3: 3, 6: 3}
    assert (4, 5) not in cert.tree.edges()
    assert all(r.passed for r in verify_certificate(cert, g, 2))


def test_packing_dense_single_anchor():
    g = complete_graph(6)
    cert = packing_spanning_tree(g)
    assert cert.anchors == (0,)
    assert cert.connectors == ()
    assert cert.weight_map() == {0: 6}
    assert all(r.passed for r in verify_certificate(cert, g, 2))


def test_packing_start_choice():
    cert = packing_spanning_tree(path_graph(7), start=6)
    assert cert.anchors[0] == 6
    assert all(r.passed for r in verify_certificate(cert, path_graph(7), 2))
    with pytest.raises(PreconditionError):
        packing_spanning_tree(path_graph(3), start=9)


def test_matching_path8():
    g = path_graph(8)
    cert = matching_spanning_tree(g)
    assert cert.anchors == ((0, 1), (4, 5))
    assert cert.connectors == ((2, 3),)
    assert cert.weight_map() == {0: 1, 1: 2, 4: 2, 5: 3}
    assert all(r.passed for r in verify_certificate(cert, g, 2))


def test_matching_cycle6():
    g = cycle_graph(6)
    cert = matching_spanning_tree(g)
    assert cert.anchors == ((0, 1),)
    assert cert.tree.edges() == [(0, 1), (0, 5), (1, 2), (2, 3), (4, 5)]
    assert cert.weight_map() == {0: 3, 1: 3}
    assert all(r.passed for r in verify_certificate(cert, g, 2))


def test_matching_star():
    g = star_graph(5)
    cert = matching_spanning_tree(g)
    assert cert.anchors == ((0, 1),)
    assert cert.weight_map() == {0: 5, 1: 1}
    assert all(r.passed for r in verify_certificate(cert, g, 2))


def test_matching_rejects_triangles():
    with pytest.raises(PreconditionError):
        matching_spanning_tree(complete_graph(4))


def test_matching_start_edge():
    g = path_graph(8)
    cert = matching_spanning_tree(g, start_edge=(3, 4))
    assert cert.anchors[0] == (3, 4)
    assert all(r.passed for r in verify_certificate(cert, g, 2))
    with pytest.raises(PreconditionError):
        matching_spanning_tree(g, start_edge=(0, 7))


def test_tampered_certificate_fails():
    g = cycle_graph(9)
    cert = packing_spanning_tree(g)
    # drop an anchor: coverage and weight checks must notice
    bad = dataclasses.replace(
        cert,
        anchors=cert.anchors[:2],
        weights=cert.weights[:2],
        assignment=tuple(a if a != 6 else 3 for a in cert.assignment),
    )
    reports = {r.name: r for r in verify_certificate(bad, g, 2)}
    assert not reports["vertex_coverage"].passed or not reports["weight_total"].passed

    # swap in a tree using edges the host graph does not have
    bad = dataclasses.replace(cert, tree=star_graph(8))
    reports = {r.name: r for r in verify_certificate(bad, g, 2)}
    assert not reports["spanning_tree"].passed

    # overstate a weight
    bad = dataclasses.replace(cert, weights=((0, 4), (3, 3), (6, 3)))
    reports = {r.name: r for r in verify_certificate(bad, g, 2)}
    assert not reports["weight_total"].passed or not reports["assignment_nearest"].passed

    # connectors that are not tree edges: each one is a spanning_tree
    # violation, and the checks that need the tree still run
    bad = dataclasses.replace(cert, connectors=((0, 99), (5, 5)))
    reports = verify_certificate(bad, g, 2)
    assert str(reports[0]) == "spanning_tree FAIL measured=2 rhs=0 slack=-2"
    assert all(r.passed for r in reports[1:]) and len(reports) == 9


def test_verifier_searches_the_tree_once(searches):
    # a certificate read back from JSON holds a fresh tree: is_tree proves it
    # connected, and the index is read off the dispatcher's edge-cut branch
    # without a second search; the other counted search links the anchor
    # groups. A second verify finds the tree's connectivity held on it.
    g = random_connected_graph(60, random.Random(8), 0.1)
    cert = certificate_from_json(certificate_to_json(packing_spanning_tree(g)))
    searches.clear()
    reports = verify_certificate(cert, g, 3)
    assert len(searches) == 2
    searches.clear()
    assert verify_certificate(cert, g, 3) == reports
    assert len(searches) == 1
    assert all(r.passed for r in reports)
    assert reports[-1].measured == steiner_wiener_weighted_tree(cert.tree, 1, 3)
    with pytest.raises(PreconditionError, match="out of range"):
        verify_certificate(cert, g, 61)


C6 = cycle_graph(6)
C6_PACKING = packing_spanning_tree(C6)
K_CASES = [
    pytest.param(C6_PACKING, C6, id="valid"),
    pytest.param(dataclasses.replace(C6_PACKING, tree=path_graph(5)), C6, id="not_spanning"),
    pytest.param(
        Certificate(path_graph(1), ((0, 0),), (), ((0, 1),), (0,)),
        path_graph(1),
        id="one_vertex_matching",  # delta = 0
    ),
]


@pytest.mark.parametrize("cert, g", K_CASES)
def test_verifier_checks_k_before_any_report(cert, g):
    # k is refused on entry, so no early return (a tree that does not span
    # g, a matching with delta = 0) gets past it
    for k in (0, g.n + 1, 99):
        with pytest.raises(PreconditionError, match="out of range"):
            verify_certificate(cert, g, k)
    assert verify_certificate(cert, g, 1)


def test_verifier_on_an_empty_graph_reports_at_any_k():
    # no k is in range on an empty graph, and no tree spans it: the one
    # spanning_tree report fails instead of k being refused
    empty = certificate_from_json(EMPTY_PAYLOAD)
    for k in (0, 1, 2):
        reports = verify_certificate(empty, Graph.from_edges(0, []), k)
        assert [(r.name, r.passed) for r in reports] == [("spanning_tree", False)]


def test_certificate_json_round_trip():
    g = path_graph(7)
    cert = packing_spanning_tree(g)
    blob = certificate_to_json(cert)
    back = certificate_from_json(blob)
    assert back.kind == "packing"
    assert back == cert
    assert certificate_to_json(back) == blob

    g = path_graph(8)
    cert = matching_spanning_tree(g)
    blob = certificate_to_json(cert)
    back = certificate_from_json(blob)
    assert back.kind == "matching"
    assert back == cert
    assert certificate_to_json(back) == blob

    with pytest.raises(PreconditionError):
        certificate_from_json("{not json")
    with pytest.raises(PreconditionError):
        certificate_from_json('{"anchors": [0]}')


def _first_vertex(anchor, vertex):
    return vertex if isinstance(anchor, int) else (anchor[0], vertex)


EMPTY_PAYLOAD = '{"anchors":[],"assignment":[],"connectors":[],"tree_edges":[],"weights":[]}'

# each defect maps (valid certificate, host graph) to a malformed pair
DEFECTS = {
    "anchor_id_99": lambda c, g: (
        dataclasses.replace(c, anchors=(_first_vertex(c.anchors[0], 99),) + c.anchors[1:]),
        g,
    ),
    "anchor_id_negative": lambda c, g: (
        dataclasses.replace(c, anchors=(_first_vertex(c.anchors[0], -1),) + c.anchors[1:]),
        g,
    ),
    "empty_anchors": lambda c, g: (dataclasses.replace(c, anchors=()), g),
    "tree_missing_edge": lambda c, g: (
        dataclasses.replace(c, tree=Graph.from_edges(g.n, c.tree.edges()[:-1])),
        g,
    ),
    "assignment_short": lambda c, g: (dataclasses.replace(c, assignment=c.assignment[:-1]), g),
    "assignment_id_99": lambda c, g: (
        dataclasses.replace(c, assignment=(99,) + c.assignment[1:]),
        g,
    ),
    "tree_order_low": lambda c, g: (dataclasses.replace(c, tree=path_graph(g.n - 1)), g),
    "tree_order_high": lambda c, g: (
        dataclasses.replace(
            c, tree=Graph.from_edges(g.n + 1, c.tree.edges() + [(g.n - 1, g.n)])
        ),
        g,
    ),
    "connectors_off_tree": lambda c, g: (
        dataclasses.replace(c, connectors=((0, 99), (5, 5))),
        g,
    ),
    "empty_payload_on_empty_graph": lambda c, g: (
        certificate_from_json(EMPTY_PAYLOAD),
        Graph.from_edges(0, []),
    ),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("method", ["packing", "matching"])
def test_verifier_is_total(method, defect):
    if method == "packing":
        g = cycle_graph(9)
        cert = packing_spanning_tree(g)
    else:
        g = path_graph(8)
        cert = matching_spanning_tree(g)
    bad, host = DEFECTS[defect](cert, g)
    reports = verify_certificate(bad, host, 2)
    assert reports and not all(r.passed for r in reports), [str(r) for r in reports]


FUZZ_HOSTS = {
    "packing-cycle9": (packing_spanning_tree, cycle_graph(9)),
    "packing-g42": (packing_spanning_tree, min_degree_extremal(4, 2)),
    "matching-path8": (matching_spanning_tree, path_graph(8)),
    "matching-cycle6": (matching_spanning_tree, cycle_graph(6)),
}
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# huge, negative and non-finite numbers put where a vertex id belongs
BAD_IDS = st.sampled_from([-1, -(10**30), 99, 2**63, 10**30, 1e300, float("inf"), float("nan")])


@st.composite
def mutated_certificates(draw):
    """certificate_to_json output of a real construction, then one to four
    mutations: a dropped key, a field or one entry of it replaced by any JSON
    value, a repeated entry (a repeated anchor when the field is anchors), or
    a bad id in an entry."""
    build, g = FUZZ_HOSTS[draw(st.sampled_from(sorted(FUZZ_HOSTS)))]
    payload = json.loads(certificate_to_json(build(g)))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if not payload:
            break
        key = draw(st.sampled_from(sorted(payload)))
        kind = draw(st.sampled_from(["drop", "replace", "entry", "repeat", "id"]))
        field = payload[key]
        if kind == "drop":
            del payload[key]
        elif kind == "replace" or not isinstance(field, list) or not field:
            payload[key] = draw(JSON_VALUES)
        else:
            i = draw(st.integers(min_value=0, max_value=len(field) - 1))
            if kind == "entry":
                field[i] = draw(JSON_VALUES)
            elif kind == "repeat":
                field.insert(draw(st.integers(min_value=0, max_value=len(field))), field[i])
            elif isinstance(field[i], list) and field[i]:
                j = draw(st.integers(min_value=0, max_value=len(field[i]) - 1))
                field[i][j] = draw(BAD_IDS)
            else:
                field[i] = draw(BAD_IDS)
    text = json.dumps(payload)
    if draw(st.booleans()):
        text = text.replace("Infinity", "1e400")  # the same float, spelled as an overflow
    return text, g


@given(mutated_certificates())
@settings(max_examples=300, deadline=None)
def test_certificate_parser_and_verifier_are_total(case):
    text, g = case
    try:
        cert = certificate_from_json(text)
    except PreconditionError:
        return
    reports = verify_certificate(cert, g, 2)
    assert reports and all(isinstance(r, BoundReport) for r in reports)


@pytest.mark.parametrize(
    "text",
    [
        '{"anchors":[0],"assignment":[1e400],"connectors":[],"tree_edges":[],"weights":[]}',
        '{"anchors":[0],"assignment":[0],"connectors":[],"tree_edges":[],"weights":[[0,Infinity]]}',
        '{"anchors":[-Infinity],"assignment":[0],"connectors":[],"tree_edges":[],"weights":[]}',
        "[" * 100_000,
        '{"anchors":' + "[" * 100_000,
        '{"anchors":[0],"assignment":[0],"connectors":[[[],[]]],"tree_edges":[],"weights":[]}',
    ],
    ids=[
        "overflow-assignment",
        "infinity-weight",
        "infinity-anchor",
        "deep-list",
        "deep-field",
        "list-connector-end",
    ],
)
def test_certificate_parser_refuses_overflow_and_nesting(text):
    with pytest.raises(PreconditionError):
        certificate_from_json(text)


def test_packing_random_graphs():
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(2, 24)
        g = random_connected_graph(n, rng, extra=rng.choice([0.05, 0.2, 0.5]))
        cert = packing_spanning_tree(g)
        reports = verify_certificate(cert, g, 2)
        assert all(r.passed for r in reports), [str(r) for r in reports if not r.passed]


def test_matching_random_triangle_free():
    rng = random.Random(71)
    for i in range(40):
        n = rng.randint(2, 18)
        g = random_connected_bipartite(n, rng, extra=rng.choice([0.1, 0.3]))
        if i % 3 == 0:
            g = subdivide_all(g)
        cert = matching_spanning_tree(g)
        reports = verify_certificate(cert, g, 2)
        assert all(r.passed for r in reports), [str(r) for r in reports if not r.passed]


def test_line_graph_distance_bound():
    # Steiner distance of endpoints is at most the line-graph Steiner
    # distance of the edges, plus one
    rng = random.Random(73)
    for _ in range(60):
        n = rng.randint(2, 12)
        t = random_tree(n, rng)
        edges = t.edges()
        chosen = rng.sample(edges, rng.randint(1, len(edges)))
        endpoints = {v for e in chosen for v in e}
        vertex_set = rng.sample(sorted(endpoints), rng.randint(1, len(endpoints)))
        lg, edge_ids = line_graph(t)
        index = {e: i for i, e in enumerate(edge_ids)}
        d_line = steiner_distance(lg, [index[e] for e in chosen])
        d_tree = steiner_distance_tree(t, vertex_set)
        assert d_tree <= d_line + 1


def verify_certificate_per_anchor(cert, g, k=2):
    """Reference verifier: one full search per anchor vertex, the cube of the
    tree and the 4th power of its line graph. Reads no connectors; otherwise
    the reports must equal verify_certificate's."""
    n = g.n
    t = cert.tree
    strays = sum(1 for u, v in t.edges() if not (v < n and g.has_edge(u, v)))
    violations = int(t.n != n) + strays + int(not is_tree(t))
    reports = [BoundReport.of("spanning_tree", violations, 0, "eq", {"edges": t.m})]
    if violations:
        return reports
    packing = cert.kind == "packing"
    reach = 2 if packing else 3
    groups = [(a,) for a in cert.anchors] if packing else list(cert.anchors)
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

    def set_distances(h, sources):
        return [h.n if d is None else d for d in bfs_from_set(h, sources)]

    dist_set = set_distances(g, rows)
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
        near, near_set = tree_rows, set_distances(t, rows)
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


def _near_vertex(g, v, rng):
    """A vertex at distance 1 or 2 from v."""
    ball = [u for u, d in enumerate(bfs_distances(g, v)) if d in (1, 2)]
    return rng.choice(ball) if ball else v


def _mutate(cert, g, rng):
    """One random defect of the kinds a hand-edited certificate can carry;
    connectors are kept as tree edges, which the reference does not read."""
    n = g.n
    anchors = list(cert.anchors)
    assignment = list(cert.assignment)
    kind = rng.choice(
        ["assign", "assign_anchor", "duplicate", "add_close", "drop", "drop_reassign",
         "overlap", "non_edge", "weights", "retree"]
        if anchors
        else ["assign", "non_edge", "weights", "retree"]
    )
    if kind == "assign":
        for _ in range(rng.randint(1, 3)):
            assignment[rng.randrange(n)] = rng.choice([99, -1, n, rng.randrange(n)])
    elif kind == "assign_anchor":
        # credit vertices to a real anchor vertex that is not their nearest
        vertices = cert.anchor_vertices()
        for _ in range(rng.randint(1, 4)):
            assignment[rng.randrange(n)] = rng.choice(vertices)
    elif kind == "duplicate":
        a = rng.choice(anchors)
        anchors.insert(rng.randint(0, len(anchors)), a if cert.kind == "packing" else a[::-1])
    elif kind in ("add_close", "overlap"):
        v = rng.choice([u for u in cert.anchor_vertices() if 0 <= u < n] or [0])
        if cert.kind == "packing":
            anchors.append(_near_vertex(g, v, rng))
        else:
            end = v if kind == "overlap" else _near_vertex(g, v, rng)
            anchors.append(tuple(sorted((end, rng.choice(g.adj[end])))))
    elif kind in ("drop", "drop_reassign"):
        dropped = anchors.pop(rng.randrange(len(anchors)))
        if kind == "drop_reassign" and anchors:
            lost = {dropped} if cert.kind == "packing" else set(dropped)
            keep = sorted({v for a in anchors for v in ((a,) if cert.kind == "packing" else a)})
            assignment = [rng.choice(keep) if a in lost else a for a in assignment]
    elif kind == "non_edge":
        if cert.kind == "packing":
            anchors.append(rng.choice([n, -1, rng.randrange(n)]))
        else:
            u = rng.randrange(n)
            others = [v for v in range(n) if v != u and not g.has_edge(u, v)] or [n]
            anchors.insert(rng.randint(0, len(anchors)), tuple(sorted((u, rng.choice(others)))))
    elif kind == "weights":
        weights = list(cert.weights)
        i = rng.randrange(len(weights))
        weights[i] = (weights[i][0], weights[i][1] + rng.choice([-1, 1]))
        return dataclasses.replace(cert, weights=tuple(weights))
    else:
        # another spanning tree of g: the BFS tree from a random root
        root = rng.randrange(n)
        dist = bfs_distances(g, root)
        edges = [
            (min(v, p), max(v, p))
            for v in range(n)
            if v != root
            for p in [next(u for u in g.adj[v] if dist[u] == dist[v] - 1)]
        ]
        tree = Graph.from_edges(n, edges)
        kept = tuple(c for c in cert.connectors if tree.has_edge(*c))
        return dataclasses.replace(cert, tree=tree, connectors=kept)
    return dataclasses.replace(cert, anchors=tuple(anchors), assignment=tuple(assignment))


def _differential_cases():
    rng = random.Random(4)
    for i in range(60):
        n = rng.randint(3, 30)
        g = random_connected_graph(n, rng, extra=rng.choice([0.05, 0.1, 0.3]))
        yield g, packing_spanning_tree(g, start=rng.randrange(n))
        h = random_connected_bipartite(rng.randint(3, 20), rng, extra=rng.choice([0.1, 0.3]))
        if i % 3 == 0:
            h = subdivide_all(h)
        yield h, matching_spanning_tree(h, start_edge=rng.choice(h.edges()))
    g = min_degree_extremal(6, 5)
    yield g, packing_spanning_tree(g)


def test_verifier_matches_per_anchor_reference():
    rng = random.Random(5)
    checked = {"packing": 0, "matching": 0}
    failing = 0
    for g, cert in _differential_cases():
        variants = [cert] + [_mutate(cert, g, rng) for _ in range(4)]
        variants.append(_mutate(variants[-1], g, rng))
        for variant in variants:
            k = rng.choice([2, 3])
            got = [str(r) for r in verify_certificate(variant, g, k)]
            assert got == [str(r) for r in verify_certificate_per_anchor(variant, g, k)]
            checked[variant.kind] += 1
            failing += "FAIL" in " ".join(got)
    assert min(checked.values()) >= 300 and failing >= 300
