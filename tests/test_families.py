import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import swindex
from swindex import (
    PreconditionError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diameter,
    empty_graph,
    has_triangle,
    min_degree_extremal,
    path_graph,
    sequential_sum,
    steiner_wiener,
    sweep_csv,
    tightness_sweep,
    triangle_free_extremal,
)
from swindex import graph, steiner
from swindex.errors import UsageError
from swindex.families import LAYERED, classic, star_graph


def test_sequential_sum_examples():
    # join of two independent pairs is the 4-cycle
    g = sequential_sum([empty_graph(2), empty_graph(2)])
    assert g.adj == complete_bipartite(2, 2).adj
    assert g.m == 4 and not has_triangle(g)
    g = sequential_sum([complete_graph(2), complete_graph(2)])
    assert g.adj == complete_graph(4).adj
    # non-consecutive parts stay non-adjacent
    g = sequential_sum([empty_graph(1), empty_graph(1), empty_graph(1)])
    assert g.adj == path_graph(3).adj
    assert sequential_sum([cycle_graph(3)]).adj == cycle_graph(3).adj
    with pytest.raises(PreconditionError):
        sequential_sum([])
    with pytest.raises(PreconditionError):
        sequential_sum([empty_graph(0), empty_graph(2)])


def test_min_degree_family_examples():
    g = min_degree_extremal(4, 5)
    assert g.n == 16
    assert diameter(g) == 4 and g.min_degree() == 5
    # layer blocks: 5, 2, 2, 2, 5
    assert g.degree(0) == 4 + 2  # end-clique vertex sees its clique plus layer 1
    assert min_degree_extremal(1, 2).adj == complete_graph(4).adj
    assert min_degree_extremal(2, 2).n == 5
    for d, delta in ((1, 5), (2, 5), (3, 8)):
        min_degree_extremal(d, delta)  # degenerate small-d shapes still build
    with pytest.raises(PreconditionError):
        min_degree_extremal(3, 4)  # 4 + 1 not divisible by 3
    with pytest.raises(PreconditionError):
        min_degree_extremal(0, 2)


def test_triangle_free_family_examples():
    g = triangle_free_extremal(4, 2)
    assert g.n == 9 and not has_triangle(g)
    assert diameter(g) == 4 and g.min_degree() == 2
    assert triangle_free_extremal(3, 2).n == 8
    assert triangle_free_extremal(3, 4).n == 16  # no interior layers: still triangle-free
    assert not has_triangle(triangle_free_extremal(3, 4))
    g = triangle_free_extremal(5, 4)  # interior layers are independent too
    assert g.n == 20 and not has_triangle(g)
    assert diameter(g) == 5 and g.min_degree() == 4
    with pytest.raises(PreconditionError):
        triangle_free_extremal(4, 3)  # odd delta
    with pytest.raises(PreconditionError):
        triangle_free_extremal(2, 2)


def test_family_assertion_grid():
    # generator invariants hold across a parameter grid
    for delta in (2, 5, 8):
        for d in range(1, 9):
            g = min_degree_extremal(d, delta)
            assert diameter(g) == d
    for delta in (2, 4, 6):
        for d in range(3, 9):
            g = triangle_free_extremal(d, delta)
            assert diameter(g) == d and g.min_degree() == delta


# closed forms of the layered orders: G has d - 1 cliques of (delta + 1)/3
# between two of delta, H has d - 3 independent sets of delta/2 between two
# pairs of delta
CLOSED_ORDERS = {
    "G": (lambda d, delta: (d + 5) * (delta + 1) // 3 - 2, (2, 5, 8, 11), 1),
    "H": (lambda d, delta: 4 * delta + (d - 3) * delta // 2, (2, 4, 6, 8), 3),
}


@pytest.mark.parametrize("family", sorted(CLOSED_ORDERS))
def test_layered_orders_match_closed_forms(family):
    order, deltas, d_floor = CLOSED_ORDERS[family]
    fam = LAYERED[family]
    for delta in deltas:
        for d in range(d_floor, 13):
            assert order(d, delta) == sum(fam.sizes(d, delta)) == fam.build(d, delta).n


# under -O, which strips assert statements, a build whose proof fails still
# raises: with a wrong minimum degree in the row, and with diameter stubbed
OPTIMIZED_BUILD = textwrap.dedent("""
    import dataclasses
    from swindex import families
    from swindex.families import LAYERED, min_degree_extremal

    assert False, "assert statements must be stripped"
    good = LAYERED["G"]
    LAYERED["G"] = dataclasses.replace(good, min_degree=lambda d, delta: delta + 1)
    try:
        min_degree_extremal(4, 2)
    except AssertionError as exc:
        print(exc)
    LAYERED["G"] = good
    families.diameter = lambda g: -1
    try:
        LAYERED["H"].build(4, 2)
    except AssertionError as exc:
        print(exc)
""")


def test_misbuilt_family_raises_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(Path(swindex.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_BUILD],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert done.stdout.splitlines() == [
        "family G misbuilt at d=4, delta=2",
        "family H misbuilt at d=4, delta=2",
    ]


def test_layer_blowup_dominates_path():
    # each path vertex blows up into a layer of >= (delta+1)/3 vertices, so
    # the index dominates the path's by the layer-size power
    for k in (2, 3):
        for d in range(max(2, k - 1), 7):
            g = min_degree_extremal(d, 2)
            lower = 1 ** k * steiner_wiener(path_graph(d + 1), k)
            assert steiner_wiener(g, k) >= lower


def test_sweep_rows_and_trends():
    rows = tightness_sweep("G", 2, 2, range(2, 9))
    assert all(r.has_triangle for r in rows)
    assert [r.d for r in rows] == list(range(2, 9))
    assert [r.n for r in rows] == [d + 3 for d in range(2, 9)]
    assert rows[0].sw == 14 and rows[0].bound_term == Fraction(50, 3)
    assert rows[2].ratio == Fraction(46, 49)
    gaps = [abs(r.ratio - 1) for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))

    rows = tightness_sweep("H", 2, 2, range(3, 8))
    ratios = [r.ratio for r in rows]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert not any(r.has_triangle for r in rows)
    rows = tightness_sweep("H", 4, 2, range(4, 6))
    assert not any(r.has_triangle for r in rows)


def test_sweep_validates():
    with pytest.raises(PreconditionError):
        tightness_sweep("G", 2, 1, range(2, 4))
    with pytest.raises(PreconditionError):
        tightness_sweep("X", 2, 2, range(2, 4))


@pytest.mark.parametrize("call", [
    lambda: empty_graph(-1),
    lambda: path_graph(0),
    lambda: cycle_graph(2),
    lambda: star_graph(-1),
    lambda: complete_graph(0),
    lambda: complete_bipartite(0, 2),
    lambda: classic("wheel", 4),
    lambda: classic("path", None),
    lambda: classic("complete_bipartite", 2),
    lambda: sequential_sum([]),
    lambda: sequential_sum([empty_graph(0)]),
    lambda: min_degree_extremal(None, 2),
    lambda: min_degree_extremal(3, 4),
    lambda: triangle_free_extremal(4, 3),
    lambda: triangle_free_extremal(2, 2),
    lambda: tightness_sweep("X", 2, 2, range(3, 5)),
    lambda: tightness_sweep("H", 2, 2, range(5, 3)),
    lambda: tightness_sweep("G", 4, 2, range(3, 5)),
    lambda: tightness_sweep("H", 2, 2, range(2, 5)),
    lambda: tightness_sweep("G", 2, 1, range(3, 5)),
], ids=[
    "empty", "path", "cycle", "star", "complete", "complete_bipartite", "classic_unknown",
    "classic_size", "classic_size2", "sum_no_parts", "sum_empty_part", "G_no_d", "G_delta",
    "H_delta", "H_d_floor", "sweep_family", "sweep_no_diameter", "sweep_delta", "sweep_d_floor",
    "sweep_k",
])
def test_family_rules_are_usage_errors(call):
    with pytest.raises(UsageError):
        call()


def test_sweep_k_above_n_is_not_a_usage_error():
    with pytest.raises(PreconditionError) as info:
        tightness_sweep("H", 2, 12, range(3, 9))
    assert not isinstance(info.value, UsageError)


def test_sweep_refuses_before_building(searches):
    with pytest.raises(PreconditionError, match="k=12 exceeds n=8 at d=3"):
        tightness_sweep("H", 2, 12, range(3, 9))
    assert searches == []


def test_sweeps_never_enumerate():
    # G and H have a path as twin quotient at every diameter, so a sweep
    # reads each index in linear time: no distance matrix, no subset. The G
    # sweep spans C(128, 4) + C(130, 4), about 2.2e7, 4-subsets.
    with (
        mock.patch.object(steiner, "_subset_distances", side_effect=AssertionError),
        mock.patch.object(steiner, "all_pairs_distances", side_effect=AssertionError),
    ):
        rows = tightness_sweep("G", 5, 4, range(60, 62))
        assert [r.n for r in rows] == [128, 130]
        rows = tightness_sweep("H", 2, 4, range(200, 202))
        assert [r.n for r in rows] == [205, 206]


def test_a_sweep_row_finds_its_twin_classes_once(monkeypatch):
    # the build's diameter proof and the index read one memo on the graph
    calls = []
    real = graph.twin_classes.__wrapped__
    monkeypatch.setattr(graph.twin_classes, "__wrapped__", lambda g: calls.append(g) or real(g))
    for family, delta in (("G", 5), ("H", 2)):
        calls.clear()
        rows = tightness_sweep(family, delta, 3, range(6, 9))
        assert [g.n for g in calls] == [r.n for r in rows]


def test_sweep_csv_format():
    rows = tightness_sweep("G", 2, 2, range(2, 5))
    text = sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "d,n,sw_k,bound_term,ratio"
    assert lines[1] == "2,5,14,50/3,0.840000"
    assert lines[2] == "3,6,27,30,0.900000"
    assert lines[3] == "4,7,46,49,0.938776"
    assert text.endswith("\n")
