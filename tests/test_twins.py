"""The twin quotient inside the Steiner dispatcher.

Each true-twin class (equal closed neighbourhoods) and false-twin class
(equal open neighbourhoods) is measured once, on the quotient Q, and
correction terms restore SW_k(G) for any vertex weights. The quotient is
taken only when Q is a tree, which the edge-cut formula measures. These
tests compare the dispatcher with the plain 0/1 enumeration,
`_subset_distances` over the support, and with the copy-enumerating
`steiner_wiener_weighted_naive`, which reads no dispatch.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swindex import (
    Graph,
    WeightFn,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    min_degree_extremal,
    steiner_wiener_weighted_naive,
    triangle_free_extremal,
)
from swindex import steiner
from swindex.graph import all_pairs_distances
from swindex.steiner import _indices, _subset_distances, _twin_indices

from ensembles import random_connected_graph


def plain(g: Graph, c: WeightFn, k: int) -> int:
    """The 0/1-weight index by one enumeration over the support."""
    dist = all_pairs_distances(g)
    return sum(sum(values) for _, _, values in _subset_distances(dist, c.support(), k))


def blow_up(base: Graph, sizes, false) -> Graph:
    """Replace base vertex i by sizes[i] twins: an independent set where
    false[i], else a clique; twins of adjacent base vertices are adjacent."""
    first = [sum(sizes[:i]) for i in range(len(sizes))]
    members = [range(f, f + s) for f, s in zip(first, sizes)]
    edges = [(u, v) for i, j in base.edges() for u in members[i] for v in members[j]]
    edges += [
        (u, v)
        for i, group in enumerate(members)
        if not false[i]
        for u in group
        for v in group
        if u < v
    ]
    return Graph.from_edges(sum(sizes), edges)


@given(
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.0, 0.3, 0.7]),
    st.sampled_from([1, 3]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_quotient_matches_plain_enumeration(b, extra, top, rng):
    base = random_connected_graph(b, rng, extra)
    sizes = [1] * b
    # grow classes while the blow-up stays small enough for the copy oracle
    for _ in range(rng.randint(1, 11 - b)):
        sizes[rng.randrange(b)] += 1
    # a false class needs a neighbour outside it to stay connected
    g = blow_up(base, sizes, [bool(base.adj[i]) and rng.random() < 0.5 for i in range(b)])
    # weights 0..top, a fifth of them 0; the total is capped at 12 copies
    w = [0 if rng.random() < 0.2 else rng.randint(1, top) for _ in range(g.n)]
    while sum(w) > 12:
        w[rng.randrange(g.n)] = 0
    c = WeightFn(w)
    ks = range(2, min(c.total, 6) + 1)
    if not ks:
        return
    got = _indices(g, c, set(ks))
    for k in ks:
        expected = steiner_wiener_weighted_naive(g, c, k)
        assert got[k] == expected, (g.edges(), c, k)
        if top == 1:
            assert expected == plain(g, c, k)


G65 = min_degree_extremal(6, 5)
FIXED = [
    pytest.param(complete_graph(7), None, range(2, 8), id="K7"),
    pytest.param(complete_bipartite(3, 5), None, range(2, 9), id="K3,5"),
    pytest.param(complete_bipartite(1, 6), None, range(2, 8), id="K1,6"),
    pytest.param(complete_bipartite(4, 4), None, range(2, 7), id="K4,4"),
    pytest.param(G65, None, range(2, 5), id="G(6,5)"),
    pytest.param(triangle_free_extremal(7, 4), None, range(2, 5), id="H(7,4)"),
    # zeros inside classes, and whole classes at 0: G's end layers
    pytest.param(complete_bipartite(3, 5), [1, 0, 1, 1, 1, 0, 1, 1], range(2, 7), id="K3,5-zeros"),
    pytest.param(G65, [0] * 6 + [1] * (G65.n - 12) + [0] * 6, range(2, 4), id="G(6,5)-zeros"),
    # weights above 1, in true classes (G's layers) and false ones (K3,5's sides)
    pytest.param(complete_bipartite(3, 5), [2, 0, 3, 1, 3, 0, 2, 1], range(2, 9), id="K3,5-weighted"),
    pytest.param(G65, [1 + v % 3 for v in range(G65.n)], range(2, 5), id="G(6,5)-weighted"),
]


@pytest.mark.parametrize("g, weights, ks", FIXED)
def test_quotient_on_fixed_graphs(g, weights, ks):
    # every Q here is a tree (a vertex, an edge or a path), so the quotient
    # runs no enumeration at all
    c = WeightFn(weights) if weights else WeightFn.uniform(g.n)
    # the 0/1 enumeration where it applies, the copy oracle where it is small
    weighted = max(c.values()) > 1
    refs = [] if weighted else [plain]
    if weighted or g.n <= 8:
        refs.append(steiner_wiener_weighted_naive)
    expected, *others = [{k: ref(g, c, k) for k in ks} for ref in refs]
    assert all(other == expected for other in others)
    with mock.patch.object(steiner, "_subset_distances", side_effect=AssertionError):
        assert _indices(g, c, set(ks)) == expected


def one_twin_pair() -> Graph:
    # C13 plus vertex 13 joined to 1 and 12, a false twin of vertex 0
    return Graph.from_edges(14, cycle_graph(13).edges() + [(1, 13), (12, 13)])


def test_gate_keeps_a_single_twin_pair_on_the_plain_enumeration():
    # Q is C13, no tree: the quotient is declined at every k, and the
    # enumeration measures the graph
    g = one_twin_pair()
    c = WeightFn.uniform(g.n)
    assert _twin_indices(g, c, [2, 5]) is None
    assert _indices(g, c, {2, 5}) == {2: plain(g, c, 2), 5: plain(g, c, 5)}


def quotient_of(g: Graph, k: int) -> tuple[Graph, tuple]:
    """The quotient tree and class weights _twin_indices measures."""
    calls = []
    real = steiner._edge_cut_index

    def spy(q, a, k):
        calls.append((q, a.values()))
        return real(q, a, k)

    with mock.patch.object(steiner, "_edge_cut_index", spy):
        assert _twin_indices(g, WeightFn.uniform(g.n), [k]) is not None
    return calls[0]


@pytest.mark.parametrize("g", [min_degree_extremal(6, 5), triangle_free_extremal(7, 4)])
def test_layers_of_the_extremal_graphs_are_classes(g):
    # G's layers are cliques, H's independent sets: either way Q is a path
    # and its weights are the layer sizes
    q, a = quotient_of(g, 3)
    assert q.m == q.n - 1 and max(map(len, q.adj)) == 2
    assert sum(a) == g.n and max(a) > 1


def test_gate_on_random_graphs_without_twins():
    rng = random.Random(5)
    seen = 0
    for _ in range(20):
        g = random_connected_graph(10, rng, 0.4)
        closed = {tuple(sorted((v, *nb))) for v, nb in enumerate(g.adj)}
        if len(closed) == len(set(g.adj)) == g.n:
            seen += 1
            assert _twin_indices(g, WeightFn.uniform(g.n), [3]) is None
    assert seen >= 10
