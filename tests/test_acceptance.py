"""Acceptance gate: one test per stated criterion, exact comparisons only.

Each test prints a single `ACCEPTANCE <n> <name>: PASS|FAIL (<seconds>s)`
line and enforces its runtime budget. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import random
import time
from fractions import Fraction
from math import comb

from swindex import (
    BranchMove,
    bound_rhs,
    cycle_graph,
    matching_spanning_tree,
    min_degree_extremal,
    packing_spanning_tree,
    path_graph,
    relocate_branches,
    relocation_sw_delta,
    steiner_distance,
    steiner_wiener,
    steiner_wiener_weighted,
    steiner_wiener_weighted_naive,
    steiner_wiener_weighted_tree,
    tightness_sweep,
    verify_certificate,
)
from swindex.graph import all_pairs_distances, bfs_distances
from swindex.steiner import _grouped_index, _pack

from ensembles import (
    random_connected_bipartite,
    random_connected_graph,
    random_tree,
    random_weights,
    subdivide_all,
)
from oracles import line_graph, partition, steiner_distance_tree


def criterion(num, name, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                dt = time.perf_counter() - t0
                print(f"\nACCEPTANCE {num} {name}: FAIL ({dt:.1f}s)")
                raise
            dt = time.perf_counter() - t0
            print(f"\nACCEPTANCE {num} {name}: PASS ({dt:.1f}s)")
            assert dt < budget_s, f"criterion {num} exceeded its {budget_s}s budget"

        return wrapper

    return deco


@criterion(1, "path equality", 5)
def test_01_path_equality():
    for n in range(1, 13):
        for k in range(1, min(n, 5) + 1):
            expected = Fraction((k - 1) * (n + 1), k + 1) * comb(n, k)
            assert Fraction(steiner_wiener(path_graph(n), k)) == expected, (n, k)


@criterion(2, "cycle equality", 1)
def test_02_cycle_equality():
    for n in range(3, 13):
        expected = Fraction(n, 2) * (n * n // 4)
        assert Fraction(steiner_wiener(cycle_graph(n), 2)) == expected, n


@criterion(3, "universal sandwich", 180)
def test_03_universal_sandwich():
    rng = random.Random(20260816)
    for _ in range(10_000):
        n = rng.randint(3, 7)
        g = random_connected_graph(n, rng, extra=rng.choice([0.1, 0.3, 0.6]))
        for k in (2, 3):
            sw = steiner_wiener(g, k)
            assert (k - 1) * comb(n, k) <= sw, (g.edges(), k)
            assert Fraction(sw) <= bound_rhs("theorem1", n=n, k=k), (g.edges(), k)


@criterion(4, "relocation gap exactness", 60)
def test_04_relocation_gap_exactness():
    rng = random.Random(41004)
    checked = 0
    while checked < 500:
        n = rng.randint(3, 10)
        t = random_tree(n, rng)
        u = rng.randrange(n)
        if t.degree(u) < 2:
            continue
        w = rng.choice(t.adj[u])
        rest = [a for a in t.adj[u] if a != w]
        branches = frozenset(rng.sample(rest, rng.randint(1, len(rest))))
        weights = random_weights(n, rng, lo=1, hi=3)
        move = BranchMove(t, u, w, branches)
        u_side, w_side, moved = partition(move)
        if weights.weight_of(u_side) <= weights.weight_of(w_side):
            continue
        assert weights.weight_of(moved) >= 1
        k = rng.choice((2, 3))
        gap = relocation_sw_delta(move, weights, k)
        before = steiner_wiener_weighted_tree(t, weights, k)
        after = steiner_wiener_weighted_tree(relocate_branches(move), weights, k)
        assert gap == after - before
        assert gap > 0
        checked += 1


@criterion(5, "weighted tree bound", 120)
def test_05_weighted_tree_bound():
    rng = random.Random(52005)
    for _ in range(500):
        n = rng.randint(2, 10)
        t = random_tree(n, rng)
        weights = random_weights(n, rng, lo=1, hi=3)
        k = min(rng.choice((2, 3)), weights.total)
        sw = steiner_wiener_weighted_tree(t, weights, k)
        bound = bound_rhs("lemma2", N=weights.total, C=weights.min_weight(), k=k)
        assert Fraction(sw) <= bound


@criterion(6, "packing certificate", 300)
def test_06_packing_certificate():
    rng = random.Random(63006)
    for _ in range(200):
        n = rng.randint(3, 30)
        g = random_connected_graph(n, rng, extra=rng.choice([0.05, 0.15, 0.4]))
        cert = packing_spanning_tree(g)
        for k in (2, 3):
            reports = verify_certificate(cert, g, k)
            bad = [str(r) for r in reports if not r.passed]
            assert not bad, (g.edges(), k, bad)


@criterion(7, "matching certificate", 300)
def test_07_matching_certificate():
    rng = random.Random(74007)
    built = 0
    while built < 200:
        if built % 4 == 0:
            g = subdivide_all(
                random_connected_bipartite(rng.randint(3, 10), rng, extra=0.15)
            )
            if g.n > 30:
                continue
        else:
            g = random_connected_bipartite(rng.randint(3, 30), rng, extra=0.2)
        cert = matching_spanning_tree(g)
        for k in (2, 3):
            reports = verify_certificate(cert, g, k)
            bad = [str(r) for r in reports if not r.passed]
            assert not bad, (g.edges(), k, bad)
        built += 1


@criterion(8, "line graph distance", 60)
def test_08_line_graph_distance():
    rng = random.Random(85008)
    for _ in range(500):
        n = rng.randint(2, 12)
        t = random_tree(n, rng)
        edges = t.edges()
        chosen = rng.sample(edges, rng.randint(1, min(len(edges), 6)))
        endpoints = sorted({v for e in chosen for v in e})
        vertex_set = rng.sample(endpoints, rng.randint(1, len(endpoints)))
        lg, edge_ids = line_graph(t)
        index = {e: i for i, e in enumerate(edge_ids)}
        d_line = steiner_distance(lg, [index[e] for e in chosen])
        assert steiner_distance_tree(t, vertex_set) <= d_line + 1


@criterion(9, "oracle equivalences", 180)
def test_09_oracle_equivalences():
    rng = random.Random(96009)
    # grouped vs copy-materializing
    checked = 0
    while checked < 120:
        n = rng.randint(2, 7)
        g = random_connected_graph(n, rng)
        w = random_weights(n, rng, lo=0, hi=3)
        if w.total < 2:
            continue
        k = rng.randint(2, min(w.total, 4))
        assert steiner_wiener_weighted(g, w, k) == steiner_wiener_weighted_naive(g, w, k)
        checked += 1
    # tree cut-count vs grouped
    checked = 0
    while checked < 120:
        n = rng.randint(2, 10)
        t = random_tree(n, rng)
        w = random_weights(n, rng, lo=0, hi=3)
        if w.total < 2:
            continue
        k = rng.randint(2, min(w.total, 4))
        assert steiner_wiener_weighted_tree(t, w, k) == _grouped_index(_pack(all_pairs_distances(t), k), w, k)
        checked += 1
    # tree traversal vs general engine; pair case vs plain search
    for _ in range(150):
        n = rng.randint(2, 12)
        t = random_tree(n, rng)
        k = rng.randint(2, min(n, 6))
        terminals = tuple(rng.sample(range(n), k))
        assert steiner_distance_tree(t, terminals) == steiner_distance(t, terminals)
        g = random_connected_graph(rng.randint(2, 12), rng)
        u, v = rng.sample(range(g.n), 2)
        assert steiner_distance(g, (u, v)) == bfs_distances(g, u)[v]


@criterion(10, "layer blowup lower bound", 120)
def test_10_layer_blowup_lower_bound():
    for k in (2, 3):
        for d in range(1, 9):
            if k > d + 1:
                continue
            g = min_degree_extremal(d, 2)
            factor = 1  # layers have (delta+1)/3 = 1 vertex at delta=2
            assert steiner_wiener(g, k) >= factor**k * steiner_wiener(path_graph(d + 1), k), (d, k)


@criterion(11, "tightness trend", 60)
def test_11_tightness_trend():
    rows = tightness_sweep("G", 2, 2, range(2, 9))
    gaps = [abs(r.ratio - 1) for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert Fraction(4, 5) <= rows[-1].ratio <= Fraction(13, 10), rows[-1]
