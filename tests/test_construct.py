import dataclasses
import random

import pytest

from swindex import (
    Graph,
    PreconditionError,
    certificate_from_json,
    certificate_to_json,
    complete_graph,
    cycle_graph,
    line_graph,
    matching_spanning_tree,
    packing_spanning_tree,
    path_graph,
    star_graph,
    steiner_distance,
    steiner_distance_tree,
    verify_certificate,
)

from ensembles import (
    random_connected_bipartite,
    random_connected_graph,
    random_tree,
    subdivide_all,
)


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
