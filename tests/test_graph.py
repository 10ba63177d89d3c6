import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swindex import (
    Graph,
    GraphFormatError,
    PreconditionError,
    all_pairs_distances,
    bfs_distances,
    classic,
    complete_graph,
    cycle_graph,
    diameter,
    format_edge_list,
    has_triangle,
    is_connected,
    is_tree,
    is_two_connected,
    min_degree_extremal,
    parse_edge_list,
    path_graph,
    sequential_sum,
    star_graph,
    triangle_free_extremal,
)
from swindex.graph import bfs_nearest, twin_classes, twin_quotient

from ensembles import random_connected_graph, random_tree
from oracles import bfs_from_set, edge_distance, line_graph, power_graph


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def test_graph_basic_invariants():
    g = path_graph(4)
    assert g.n == 4 and g.m == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.degree(0) == 1 and g.degree(1) == 2
    assert g.min_degree() == 1
    assert g.has_edge(1, 2) and not g.has_edge(0, 2)


def test_vertex_ids_out_of_range():
    # negative ids used to wrap around: -1 read as vertex 8
    g = cycle_graph(9)
    for u, v in ((-1, 0), (0, -1), (9, 0), (0, 9)):
        with pytest.raises(PreconditionError):
            g.has_edge(u, v)
    for v in (-1, 9):
        with pytest.raises(PreconditionError):
            g.degree(v)


def test_graph_rejects_malformed():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


@pytest.mark.parametrize("n, adj", [
    (-1, ()),
    (2, ((1,),)),
    (1, ((), ())),
    (2, ((2,), (0,))),
    (2, ((-1,), ())),
    (1, ((0,),)),
    (3, ((2, 1), (0,), (0,))),
    (2, ((1, 1), (0, 0))),
    (2, ((1,), ())),
    (2, ((), (0,))),
    # a list is refused too: a stored list would leave the graph unhashable
    # and open to change after its facts were memoized
    (2, [(1,), (0,)]),
    (2, ((1,), [0])),
], ids=[
    "negative_n", "short", "long", "out_of_range", "negative_id", "self_loop", "unsorted",
    "duplicate", "asymmetric", "asymmetric_back", "list_adj", "list_row",
])
def test_direct_construction_refuses_malformed(n, adj):
    with pytest.raises(ValueError):
        Graph(n, adj)


def test_bfs_distances():
    g = path_graph(3)
    assert bfs_distances(g, 0) == [0, 1, 2]
    disconnected = Graph.from_edges(3, [(0, 1)])
    assert bfs_distances(disconnected, 0) == [0, 1, None]
    assert bfs_from_set(path_graph(7), [0, 6]) == [0, 1, 2, 3, 2, 1, 0]


def test_connectivity_predicates():
    assert is_connected(path_graph(5))
    assert not is_connected(Graph.from_edges(3, [(0, 1)]))
    assert is_connected(Graph.from_edges(1, []))
    assert is_tree(path_graph(5))
    assert not is_tree(cycle_graph(5))
    assert is_two_connected(cycle_graph(4))
    assert not is_two_connected(path_graph(4))
    assert not is_two_connected(path_graph(2))


@given(st.integers(min_value=0, max_value=10), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_two_connected_matches_definition(n, pyrng):
    # connected with n >= 3, and still connected after removing any vertex;
    # the graphs may be disconnected or have isolated vertices
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, pyrng.sample(pairs, pyrng.randint(0, len(pairs))))

    def without(x):
        keep = [v for v in range(n) if v != x]
        index = {v: i for i, v in enumerate(keep)}
        return Graph.from_edges(n - 1, [(index[u], index[v]) for u, v in g.edges() if x not in (u, v)])

    expected = n >= 3 and is_connected(g) and all(is_connected(without(x)) for x in range(n))
    assert is_two_connected(g) == expected


def test_diameter():
    assert diameter(path_graph(5)) == 4
    assert diameter(cycle_graph(6)) == 3
    assert diameter(complete_graph(4)) == 1


def test_has_triangle():
    assert has_triangle(complete_graph(3))
    assert not has_triangle(cycle_graph(5))
    assert not has_triangle(petersen())  # girth 5
    assert has_triangle(complete_graph(4))


def test_facts_leave_equality_alone():
    # a filled memo is not a field: ==, hash and repr still read n and adj
    filled, bare = cycle_graph(6), cycle_graph(6)
    facts = (is_connected(filled), twin_classes(filled), twin_quotient(filled), has_triangle(filled))
    assert facts == (True, tuple((v,) for v in range(6)), filled, False)
    assert filled == bare and hash(filled) == hash(bare) and repr(filled) == repr(bare)


def test_facts_are_freed_with_their_graph(searches):
    # g's facts are found on g itself, and held by g alone: a memo shared by
    # equal graphs would answer from an earlier one, or keep g alive
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert is_connected(g) and has_triangle(g) and twin_quotient(g).n == 2
    assert len(searches) == 1
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_each_fact_costs_at_most_one_search_per_graph(searches):
    # is_connected searches once; the other facts search not at all, and a
    # repeat call on the same object is answered from its memo
    facts = (is_connected, twin_classes, twin_quotient, has_triangle, is_tree)
    for g in (path_graph(6), cycle_graph(7), Graph.from_edges(4, [(0, 1), (2, 3)]),
              min_degree_extremal(3, 2), Graph.from_edges(1, [])):
        fresh = Graph.from_edges(g.n, g.edges())
        searches.clear()
        answers = [f(fresh) for f in facts]
        assert len(searches) == (g.n > 1)
        assert [f(fresh) for f in facts] == answers and len(searches) == (g.n > 1)


def test_power_graph():
    p4 = path_graph(4)
    cubed, ids = power_graph(p4, 3)
    assert ids == [0, 1, 2, 3]
    assert cubed.edges() == complete_graph(4).edges()
    # restriction relabels but measures distance in the full graph
    restricted, ids = power_graph(path_graph(7), 3, [0, 3, 6])
    assert ids == [0, 3, 6]
    assert restricted.edges() == [(0, 1), (1, 2)]
    same, _ = power_graph(p4, 1)
    assert same.edges() == p4.edges()


def test_line_graph():
    lg, edge_ids = line_graph(path_graph(3))
    assert edge_ids == [(0, 1), (1, 2)]
    assert lg.edges() == [(0, 1)]
    lg, _ = line_graph(cycle_graph(3))
    assert lg.edges() == complete_graph(3).edges()
    lg, _ = line_graph(star_graph(3))
    assert lg.edges() == complete_graph(3).edges()


def test_line_graph_edge_count_identity():
    # |E(L(G))| = sum over vertices of C(deg, 2)
    rng = random.Random(7)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 9), rng)
        lg, edge_ids = line_graph(g)
        assert lg.n == g.m and edge_ids == g.edges()
        expected = sum(g.degree(v) * (g.degree(v) - 1) // 2 for v in range(g.n))
        assert lg.m == expected


def test_edge_distance():
    p5 = path_graph(5)
    assert edge_distance(p5, (0, 1), (3, 4)) == 2
    assert edge_distance(p5, (0, 1), (0, 1)) == 0
    assert edge_distance(p5, (0, 1), (1, 2)) == 0
    assert edge_distance(path_graph(7), (0, 1), (4, 5)) == 3
    with pytest.raises(Exception):
        edge_distance(p5, (0, 2), (3, 4))


def test_parse_format_round_trip():
    g = cycle_graph(5)
    assert parse_edge_list(format_edge_list(g)).adj == g.adj
    text = "3 2\n0 1\n1 2\n"
    assert parse_edge_list(text).edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "3\n",
        "3 2\n0 1\n",  # wrong edge count
        "3 1\n1 0\n",  # must be u < v
        "3 1\n0 3\n",  # out of range
        "3 1\n0 0\n",  # loop
        "3 2\n0 1\n0 1\n",  # duplicate
        "3 1\r\n0 1\r\n",  # CRLF
        "3 1\n0 x\n",
        "3 1\n\u0660 \u0661\n",  # non-ASCII digits
        "\u0663 1\n0 1\n",
        "1000001 0\n",  # above the vertex cap: refused before allocating
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(GraphFormatError):
        parse_edge_list(bad)


@given(st.integers(min_value=2, max_value=40), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_tree_properties(n, pyrng):
    t = random_tree(n, pyrng)
    assert is_tree(t) and t.m == n - 1
    row = bfs_distances(t, 0)
    assert all(d is not None for d in row)


@given(st.integers(min_value=2, max_value=12), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_triangle_inequality(n, pyrng):
    g = random_connected_graph(n, pyrng)
    dist = all_pairs_distances(g)
    for u in range(n):
        for v in range(n):
            for w in range(n):
                assert dist[u][v] <= dist[u][w] + dist[w][v]


@given(st.integers(min_value=3, max_value=12), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_edge_distance_relaxed_triangle(n, pyrng):
    g = random_connected_graph(n, pyrng)
    edges = g.edges()
    if len(edges) < 3:
        return
    for _ in range(30):
        e1, e2, e3 = (pyrng.choice(edges) for _ in range(3))
        assert edge_distance(g, e1, e2) == edge_distance(g, e2, e1)
        # crossing the middle edge costs at most one extra hop on each side
        assert edge_distance(g, e1, e3) <= (
            edge_distance(g, e1, e2) + edge_distance(g, e2, e3) + 2
        )


def test_parse_round_trip_random():
    rng = random.Random(3)
    for _ in range(20):
        g = random_connected_graph(rng.randint(1, 10), rng)
        assert parse_edge_list(format_edge_list(g)).adj == g.adj


@given(st.integers(min_value=0, max_value=24), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_trusted_construction_passes_direct_checks(n, pyrng):
    # parse_edge_list and Graph.from_edges skip Graph's own validation, so
    # what they build must pass it unchanged
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = pyrng.sample(pairs, pyrng.randint(0, len(pairs)))
    text = "".join(f"{u} {v}\n" for u, v in edges)
    built = [
        parse_edge_list(f"{n} {len(edges)}\n{text}"),
        Graph.from_edges(n, [(v, u) if pyrng.random() < 0.5 else (u, v) for u, v in edges]),
    ]
    size = max(n, 3)
    built += [classic(fam, size, size // 2 + 1) for fam in ("path", "cycle", "star", "complete")]
    built.append(classic("complete_bipartite", size, pyrng.randint(1, 5)))
    if n:
        built.append(sequential_sum([built[1], built[0], built[1]]))
    built.append(min_degree_extremal(pyrng.randint(1, 6), pyrng.choice([2, 5, 8])))
    built.append(triangle_free_extremal(pyrng.randint(3, 7), pyrng.choice([2, 4])))
    for g in built:
        assert Graph(g.n, g.adj) == g


@given(
    st.integers(min_value=1, max_value=20),
    st.randoms(use_true_random=False),
    st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
)
@settings(max_examples=80, deadline=None)
def test_bfs_nearest_matches_per_source_search(n, pyrng, limit):
    g = random_connected_graph(n, pyrng, extra=pyrng.choice([0.0, 0.1, 0.4]))
    if pyrng.random() < 0.3:  # two components
        g = Graph.from_edges(n + 3, g.edges() + [(n, n + 1), (n + 1, n + 2)])
    sources = pyrng.sample(range(g.n), pyrng.randint(1, min(g.n, 5)))
    dist, near = bfs_nearest(g, sources + sources[:1], limit)
    rows = {s: bfs_distances(g, s) for s in sources}
    for v in range(g.n):
        found = sorted((rows[s][v], s) for s in sources if rows[s][v] is not None)
        if not found or (limit is not None and found[0][0] > limit):
            assert dist[v] is None and near[v] is None
        else:
            assert (dist[v], near[v]) == found[0]
    assert bfs_from_set(g, sources) == bfs_nearest(g, sources)[0]
    with pytest.raises(PreconditionError):
        bfs_nearest(g, [g.n])
