import random
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swindex import (
    Graph,
    GraphFormatError,
    PreconditionError,
    WeightFn,
    as_weights,
    format_edge_list,
    graph,
    parse_weight_file,
    path_graph,
    steiner_wiener,
    steiner_wiener_weighted,
    steiner_wiener_weighted_naive,
    steiner_wiener_weighted_tree,
)
from swindex import steiner
from swindex.cli import main
from swindex.graph import all_pairs_distances
from swindex.steiner import _grouped_index, _indices, _pack

from ensembles import random_connected_graph, random_tree, random_weights


def test_weight_fn_basics():
    w = WeightFn.from_pairs(4, [(0, 2), (3, 1)])
    assert w.values() == (2, 0, 0, 1)
    assert w.total == 3
    assert w.support() == (0, 3)
    assert w.weight_of([0, 1, 3]) == 3
    assert as_weights(1, 3) == WeightFn.uniform(3)
    assert as_weights([1, 2, 0], 3).values() == (1, 2, 0)
    with pytest.raises(PreconditionError):
        WeightFn([1, -1])
    with pytest.raises(PreconditionError):
        WeightFn.from_pairs(3, [(0, 1), (0, 2)])
    with pytest.raises(PreconditionError):
        as_weights([1, 2], 3)


def test_parse_weight_file():
    w = parse_weight_file("0 2\n2 1\n", 3)
    assert w.values() == (2, 0, 1)
    for bad in ("0 2\n0 1\n", "5 1\n", "0 -1\n", "0\n", "0 x\n"):
        with pytest.raises(Exception):
            parse_weight_file(bad, 3)
    with pytest.raises(GraphFormatError, match="ASCII"):
        parse_weight_file("0 \u0662\n", 3)


def test_weighted_examples():
    # single edge, weights (2, 1): copy pairs {a,a'} cost 0, {a,b} twice
    edge = path_graph(2)
    assert steiner_wiener_weighted_naive(edge, [2, 1], 2) == 2
    assert steiner_wiener_weighted(edge, [2, 1], 2) == 2
    # weight-0 middle vertex still carries distance
    p3 = path_graph(3)
    assert steiner_wiener_weighted_naive(p3, [1, 0, 1], 2) == 2
    assert steiner_wiener_weighted(p3, [1, 0, 1], 2) == 2
    assert steiner_wiener_weighted_naive(p3, [2, 1, 1], 2) == 7
    assert steiner_wiener_weighted(p3, [2, 1, 1], 2) == 7
    # all copies on one vertex: every subset has a single original
    assert steiner_wiener_weighted(path_graph(2), [3, 0], 2) == 0


def test_unit_weights_reduce_to_unweighted():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_connected_graph(n, rng)
        k = rng.randint(1, n)
        assert steiner_wiener_weighted(g, 1, k) == steiner_wiener(g, k)


def test_grouped_matches_naive():
    rng = random.Random(37)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 7)
        g = random_connected_graph(n, rng)
        w = random_weights(n, rng, lo=0, hi=3)
        if w.total < 2:
            continue
        k = rng.randint(2, min(w.total, 4))
        assert steiner_wiener_weighted(g, w, k) == steiner_wiener_weighted_naive(
            g, w, k
        )
        checked += 1


def test_tree_fast_path_matches_grouped():
    rng = random.Random(41)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 10)
        t = random_tree(n, rng)
        w = random_weights(n, rng, lo=0, hi=3)
        if w.total < 2:
            continue
        k = rng.randint(2, min(w.total, 5))
        # the grouped engine itself: steiner_wiener_weighted sends trees to
        # the edge-cut formula
        assert steiner_wiener_weighted_tree(t, w, k) == _grouped_index(_pack(all_pairs_distances(t), k), w, k)
        assert steiner_wiener_weighted(t, w, k) == steiner_wiener_weighted_tree(t, w, k)
        checked += 1


def test_weighted_validates():
    with pytest.raises(PreconditionError):
        steiner_wiener_weighted(path_graph(3), [1, 1, 1], 4)  # k above total
    with pytest.raises(PreconditionError):
        steiner_wiener_weighted_tree(Graph.from_edges(2, []), [1, 1], 1)


@pytest.mark.parametrize("make", [
    lambda: WeightFn([1.5, 2.9]),
    lambda: steiner_wiener_weighted(path_graph(2), [1.5, 2.9], 2),
    lambda: WeightFn(["3", "1"]),
    lambda: as_weights(2.5, 3),
], ids=["floats", "floats_in_index", "strings", "scalar_float"])
def test_weights_must_be_integers(make):
    # a non-integral weight is refused, never truncated into a wrong index
    with pytest.raises(PreconditionError, match="integers"):
        make()


def test_trees_are_searched_once(monkeypatch, tmp_path, capsys):
    # one search proves a tree connected, and its edge count then proves it
    # a tree: the library calls, each on a fresh graph, and a weighted compute
    # each search once; a repeat call on the same graph searches no more
    calls = []
    real = graph.bfs_nearest

    def counting(g, sources, limit=None):
        calls.append(g)
        return real(g, sources, limit)

    monkeypatch.setattr(graph, "bfs_nearest", counting)
    t = random_tree(40, random.Random(3))
    w = random_weights(40, random.Random(4), lo=1, hi=3)
    (tmp_path / "t.txt").write_text(format_edge_list(t))
    argv = ["compute", "--graph", str(tmp_path / "t.txt"), "--uniform-weight", "2", "--k", "3"]
    for run in (
        lambda g: steiner_wiener(g, 3),
        lambda g: steiner_wiener_weighted(g, w, 3),
        lambda g: steiner_wiener_weighted_tree(g, w, 3),
    ):
        fresh = Graph.from_edges(t.n, t.edges())
        calls.clear()
        run(fresh)
        assert len(calls) == 1
        run(fresh)
        assert len(calls) == 1
    calls.clear()
    main(argv)
    assert len(calls) == 1
    assert capsys.readouterr().out == f"{steiner_wiener_weighted_tree(t, 2, 3)}\n"


@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    st.sampled_from([1, 3]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_dispatch_matches_copies_and_grouping(n, extra, top, rng):
    # every branch of the one dispatcher against the copy-enumerating
    # reference and the grouping; with 0/1 weights every original set holds
    # one copy per member, so inclusion-exclusion never runs
    g = random_connected_graph(n, rng, extra)
    c = random_weights(n, rng, lo=0, hi=top)
    ks = range(2, min(c.total, 5) + 1)
    if not ks:
        return
    dist = all_pairs_distances(g)
    guard = mock.patch.object(steiner, "_exact_multiplicity", side_effect=AssertionError)
    with guard if top == 1 else nullcontext():
        got = _indices(g, c, set(ks))
        grouped = {k: _grouped_index(_pack(dist, k), c, k) for k in ks}
    for k in ks:
        expected = steiner_wiener_weighted_naive(g, c, k)
        assert got[k] == expected == grouped[k], (g.edges(), c, k)
        assert steiner_wiener_weighted(g, c, k) == expected
