import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swindex import (
    BranchMove,
    Graph,
    PreconditionError,
    WeightFn,
    bound_rhs,
    cycle_graph,
    moves_to_json,
    path_graph,
    relocate_branches,
    relocation_sw_delta,
    star_graph,
    steiner_wiener,
    steiner_wiener_weighted_tree,
    straighten_to_path,
    transforms,
)

from ensembles import random_tree, random_weights
from golden import check_traces
from oracles import partition, straighten_by_walks


def caterpillar_with_bundles() -> Graph:
    # spine 0-1-2-3-4-5; vertex 2 carries three branches: a bare leaf 6,
    # a branch {7,9,10}, and a branch {8,11}
    return Graph.from_edges(
        12,
        [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
            (2, 6), (2, 7), (2, 8), (7, 9), (7, 10), (8, 11),
        ],
    )


def test_move_validation():
    p4 = path_graph(4)
    with pytest.raises(PreconditionError):
        BranchMove(cycle_graph(4), 0, 1, frozenset({3}))
    with pytest.raises(PreconditionError):
        BranchMove(p4, 0, 2, frozenset({1}))  # no 0-2 edge
    with pytest.raises(PreconditionError):
        BranchMove(p4, 1, 2, frozenset())
    with pytest.raises(PreconditionError):
        BranchMove(p4, 1, 2, frozenset({2}))  # w itself
    with pytest.raises(PreconditionError):
        BranchMove(p4, 1, 2, frozenset({3}))  # not a neighbor of u


def test_partition_examples():
    t = caterpillar_with_bundles()
    mv = BranchMove(t, 2, 3, frozenset({7, 8}))
    u_side, w_side, moved = partition(mv)
    assert u_side == frozenset({0, 1, 2, 6})
    assert w_side == frozenset({3, 4, 5})
    assert moved == frozenset({7, 8, 9, 10, 11})

    p4 = path_graph(4)
    mv = BranchMove(p4, 1, 2, frozenset({0}))
    u_side, w_side, moved = partition(mv)
    assert (u_side, w_side, moved) == (
        frozenset({1}),
        frozenset({2, 3}),
        frozenset({0}),
    )

    star = star_graph(3)
    mv = BranchMove(star, 0, 3, frozenset({1, 2}))
    u_side, w_side, moved = partition(mv)
    assert (u_side, w_side, moved) == (
        frozenset({0}),
        frozenset({3}),
        frozenset({1, 2}),
    )


def partition_reference(move: BranchMove):
    """The earlier partition: walk from u with its moved branches and w
    banned, walk from w with u banned; the moved set is what is left."""

    def component(start, banned_at_u=frozenset(), banned_at_w=frozenset()):
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in move.tree.adj[x]:
                if x == move.u and y in banned_at_u:
                    continue
                if x == move.w and y in banned_at_w:
                    continue
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(seen)

    u_side = component(move.u, banned_at_u=move.branches | {move.w})
    w_side = component(move.w, banned_at_w={move.u})
    return u_side, w_side, frozenset(range(move.tree.n)) - u_side - w_side


def random_move(t: Graph, rng: random.Random):
    """A uniformly drawn valid move of t, or None when no vertex has degree 2."""
    pivots = [v for v in range(t.n) if t.degree(v) >= 2]
    if not pivots:
        return None
    u = rng.choice(pivots)
    w = rng.choice(t.adj[u])
    rest = [a for a in t.adj[u] if a != w]
    return BranchMove(t, u, w, frozenset(rng.sample(rest, rng.randint(1, len(rest)))))


def test_partition_matches_banned_set_reference():
    rng = random.Random(67)
    checked = 0
    while checked < 150:
        t = random_tree(rng.randint(2, 40), rng)
        mv = random_move(t, rng)
        if mv is None:
            continue
        assert partition(mv) == partition_reference(mv)
        checked += 1


def test_relocate_branches():
    t = caterpillar_with_bundles()
    mv = BranchMove(t, 2, 3, frozenset({7, 8}))
    moved = relocate_branches(mv)
    assert moved.has_edge(3, 7) and moved.has_edge(3, 8)
    assert not moved.has_edge(2, 7) and not moved.has_edge(2, 8)
    assert moved.m == t.m


def test_relocate_matches_edge_rebuild():
    # the relocated tree equals the one rebuilt from its edge list, and
    # passes the checks of direct construction
    rng = random.Random(71)
    for _ in range(120):
        t = random_tree(rng.randint(2, 30), rng)
        mv = random_move(t, rng)
        if mv is None:
            continue
        out = relocate_branches(mv)
        edges = [e for e in t.edges() if not (mv.u in e and set(e) & mv.branches)]
        edges += [(mv.w, a) for a in mv.branches]
        assert out == Graph.from_edges(t.n, edges) == Graph(out.n, out.adj)


def test_gap_examples():
    # moving toward the heavier side is negative
    mv = BranchMove(path_graph(4), 1, 2, frozenset({0}))
    assert relocation_sw_delta(mv, 1, 2) == -1
    # u side {0,1,2,6} outweighs w side {3,4,5} by one; bundle weighs 5
    mv = BranchMove(caterpillar_with_bundles(), 2, 3, frozenset({7, 8}))
    assert relocation_sw_delta(mv, 1, 2) == 5
    # balanced sides cancel exactly
    balanced = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    mv = BranchMove(balanced, 1, 2, frozenset({4}))
    u_side, w_side, _ = partition(mv)
    assert len(u_side) == len(w_side)
    assert relocation_sw_delta(mv, 1, 2) == 0


def test_gap_equals_index_difference():
    rng = random.Random(43)
    checked = 0
    while checked < 80:
        n = rng.randint(3, 10)
        t = random_tree(n, rng)
        u = rng.randrange(n)
        if t.degree(u) < 2:
            continue
        w = rng.choice(t.adj[u])
        rest = [a for a in t.adj[u] if a != w]
        branches = frozenset(rng.sample(rest, rng.randint(1, len(rest))))
        weights = random_weights(n, rng, lo=0, hi=3)
        if weights.total < 2:
            continue
        k = rng.randint(2, min(weights.total, 4))
        mv = BranchMove(t, u, w, branches)
        gap = relocation_sw_delta(mv, weights, k)
        before = steiner_wiener_weighted_tree(t, weights, k)
        after = steiner_wiener_weighted_tree(relocate_branches(mv), weights, k)
        assert gap == after - before
        checked += 1


def test_straighten_path_is_fixed_point():
    p6 = path_graph(6)
    out, trace = straighten_to_path(p6, 1, 2)
    assert trace == [] and out.adj == p6.adj


def test_straighten_star():
    out, trace = straighten_to_path(star_graph(3), 1, 2)
    assert len(trace) == 1
    assert max(out.degree(v) for v in range(4)) == 2


def test_straighten_random_trees():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.randint(2, 12)
        t = random_tree(n, rng)
        weights = random_weights(n, rng, lo=1, hi=3)
        k = rng.randint(2, min(weights.total, 4))
        out, trace = straighten_to_path(t, weights, k)
        assert len(trace) <= t.n
        assert all(out.degree(v) <= 2 for v in range(n))
        # replay the trace: the index never drops
        current = t
        sw = steiner_wiener_weighted_tree(current, weights, k)
        for mv in trace:
            assert mv.tree.adj == current.adj
            current = relocate_branches(mv)
            nxt = steiner_wiener_weighted_tree(current, weights, k)
            assert nxt >= sw
            sw = nxt
        assert current.adj == out.adj


def test_straighten_traces_match_recording():
    # straightenings recorded with the earlier, move-budget implementation
    # of straighten_to_path, on seeded trees it finished: the input tree,
    # weights and k, the moves_to_json trace and the final path's edges
    assert check_traces() == []


def test_straighten_terminates_by_pair_index():
    # each move raises the k = 2 weighted index by at least 1, so the
    # straightening ends; every move's k-index delta is >= 0 and they add up
    rng = random.Random(73)
    for n in [300, 2, 3, 4] + [rng.randint(5, 300) for _ in range(8)]:
        t = random_tree(n, rng)
        weights = random_weights(n, rng, lo=1, hi=3)
        k = rng.randint(2, min(weights.total, 6))
        out, trace = straighten_to_path(t, weights, k)
        assert all(out.degree(v) <= 2 for v in range(n))
        pair_index = steiner_wiener_weighted_tree(t, weights, 2)
        deltas = []
        for mv in trace:
            nxt = relocate_branches(mv)
            after = steiner_wiener_weighted_tree(nxt, weights, 2)
            assert after >= pair_index + 1
            pair_index = after
            deltas.append(relocation_sw_delta(mv, weights, k))
        assert all(d >= 0 for d in deltas)
        assert sum(deltas) == steiner_wiener_weighted_tree(
            out, weights, k
        ) - steiner_wiener_weighted_tree(t, weights, k)
        assert pair_index <= bound_rhs("lemma2", N=weights.total, C=weights.min_weight(), k=2)


def test_straighten_proves_each_tree_once(monkeypatch):
    # one tree proof per move (its host) plus the input check and the final
    # path, however long the trace, and no branch walk: branch weights come
    # from the rooted bookkeeping
    calls = []
    walks = []
    real = transforms.is_tree
    real_branch = transforms._branch
    monkeypatch.setattr(transforms, "is_tree", lambda g: calls.append(g) or real(g))
    monkeypatch.setattr(transforms, "_branch", lambda *a: walks.append(a) or real_branch(*a))
    rng = random.Random(29)
    for n in (2, 4, 60, 200):
        t = random_tree(n, rng)
        weights = random_weights(n, rng, lo=1, hi=4)
        calls.clear()
        out, trace = straighten_to_path(t, weights, 2)
        assert len(calls) == len(trace) + 2
        assert calls[-1] is out
    assert len(trace) > 100
    assert walks == []


@st.composite
def shaped_trees(draw):
    """A relabelled tree on 2..80 vertices: random (vertex i hangs under
    one of 0..i-1), a spider (legs at one centre) or a caterpillar (leaves on
    a spine). The relabelling puts vertex 0, the root of the bookkeeping,
    anywhere, so pivots meet moves that carry their parent's branch."""
    shape = draw(st.sampled_from(["random", "spider", "caterpillar"]))
    if shape == "random":
        n = draw(st.integers(2, 80))
        picks = draw(st.lists(st.integers(0, 10**6), min_size=n - 1, max_size=n - 1))
        edges = [(i, x % i) for i, x in enumerate(picks, start=1)]
    elif shape == "spider":
        edges, n = [], 1
        for length in draw(st.lists(st.integers(1, 8), min_size=3, max_size=9)):
            edges += [(n + j - 1 if j else 0, n + j) for j in range(length)]
            n += length
    else:
        hairs = draw(st.lists(st.integers(0, 4), min_size=2, max_size=14))
        edges, n = [(i, i + 1) for i in range(len(hairs) - 1)], len(hairs)
        for i, h in enumerate(hairs):
            edges += [(i, n + j) for j in range(h)]
            n += h
    label = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(label[a], label[b]) for a, b in edges])


@settings(max_examples=200, deadline=None)
@given(shaped_trees(), st.booleans(), st.integers(2, 5), st.data())
def test_straighten_matches_walks(t, unit, k, data):
    # all-1 weights tie branches, so the lowest id (0 on the parent side)
    # decides; weights 1..3 test the subtree sums
    hi = 1 if unit else 3
    weights = data.draw(st.lists(st.integers(1, hi), min_size=t.n, max_size=t.n))
    k = min(k, t.n)
    out, trace = straighten_to_path(t, weights, k)
    ref_out, ref_trace = straighten_by_walks(t, weights, k)
    assert moves_to_json(trace) == moves_to_json(ref_trace)
    assert out.edges() == ref_out.edges()


@settings(max_examples=200, deadline=None)
@given(shaped_trees(), st.integers(1, 6), st.data())
def test_price_matches_partition_weights(t, k, data):
    # the price counts c(W) and c(X) by walks and takes c(U) as the rest;
    # it equals the closed form over the weights of the oracle's partition
    if t.n < 3:
        return
    u = data.draw(st.sampled_from([v for v in range(t.n) if t.degree(v) >= 2]))
    w = data.draw(st.sampled_from(t.adj[u]))
    rest = [a for a in t.adj[u] if a != w]
    branches = data.draw(st.sets(st.sampled_from(rest), min_size=1))
    weights = WeightFn(data.draw(st.lists(st.integers(0, 3), min_size=t.n, max_size=t.n)))
    mv = BranchMove(t, u, w, frozenset(branches))
    cu, cw, cx = (weights.weight_of(side) for side in partition(mv))
    expected = sum(comb(cx, k - i) * (comb(cu, i) - comb(cw, i)) for i in range(1, k))
    assert relocation_sw_delta(mv, weights, k) == expected


def test_straighten_needs_more_moves_than_vertices():
    t = random_tree(32, random.Random(16))
    out, trace = straighten_to_path(t, 1, 2)
    assert len(trace) == 33
    assert all(out.degree(v) <= 2 for v in range(32))
    assert steiner_wiener_weighted_tree(out, 1, 2) == steiner_wiener(path_graph(32), 2)


def test_valid_move_with_zero_delta():
    # K1,3 with unit weights: the one move keeps {0, 2}, targets {3} and
    # moves {1}; it raises the k = 2 index by 1 but leaves k = 4 unchanged
    out, trace = straighten_to_path(star_graph(3), 1, 4)
    [mv] = trace
    assert (mv.u, mv.w, mv.branches) == (0, 3, frozenset({1}))
    assert relocation_sw_delta(mv, 1, 4) == 0
    assert relocation_sw_delta(mv, 1, 2) == 1


def test_straighten_reaches_path_extreme():
    # unit weights: any 10-vertex tree straightens to the 10-path value
    rng = random.Random(53)
    for _ in range(10):
        t = random_tree(10, rng)
        out, _ = straighten_to_path(t, 1, 3)
        assert steiner_wiener(out, 3) == 660
        assert steiner_wiener(out, 3) >= steiner_wiener(t, 3)


def test_straighten_validates():
    with pytest.raises(PreconditionError):
        straighten_to_path(cycle_graph(4), 1, 2)
    with pytest.raises(PreconditionError):
        straighten_to_path(path_graph(3), [1, 0, 1], 2)  # zero weight
    with pytest.raises(PreconditionError):
        straighten_to_path(path_graph(3), 1, 9)


def test_weighted_sw_bound_values():
    assert bound_rhs("lemma2", N=3, C=1, k=2) == 4
    assert bound_rhs("lemma2", N=4, C=1, k=3) == 10
    assert bound_rhs("lemma2", N=4, C=2, k=2) == 8
    assert bound_rhs("lemma2", N=7, C=1, k=2) == Fraction(56)
    with pytest.raises(PreconditionError):
        bound_rhs("lemma2", N=4, C=0, k=2)
    with pytest.raises(PreconditionError):
        bound_rhs("lemma2", N=4, C=1, k=5)


def test_weighted_sw_bound_dominates_random_trees():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(2, 9)
        t = random_tree(n, rng)
        weights = random_weights(n, rng, lo=1, hi=3)
        k = rng.randint(2, min(weights.total, 4))
        sw = steiner_wiener_weighted_tree(t, weights, k)
        assert sw <= bound_rhs("lemma2", N=weights.total, C=weights.min_weight(), k=k)


def test_moves_to_json():
    _, trace = straighten_to_path(star_graph(3), 1, 2)
    rows = json.loads(moves_to_json(trace))
    assert rows == [{"A": [1], "u": 0, "w": 3}]
    assert moves_to_json([]) == "[]"
