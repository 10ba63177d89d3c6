"""The packed-row Steiner kernel.

`steiner._pack` stores each row of a distance matrix as one int of n lanes
of W bits, W the narrowest of 8, 16, 32 and 64 with (size - 1)·D < 2^(W-1);
`_subset_distances` adds rows with one integer add and takes lane-wise
minima through each lane's guard bit. These tests pick every width with
edge-weighted metrics and check each value against the list-based
`steiner_per_subset`, pin the rule at its boundaries, check identities of
the index that need no oracle, and count how often the matrix is packed.
"""

import random
from itertools import combinations
from struct import calcsize
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swindex import PreconditionError, WeightFn, steiner_wiener_weighted_naive
from swindex import steiner
from swindex.graph import Graph, all_pairs_distances, bfs_distances, is_connected
from swindex.steiner import _grouped_index, _pack, _subset_distances

from ensembles import random_connected_graph, random_weights
from test_steiner import steiner_per_subset


def shortest_paths(g: Graph, weight: dict) -> list[list[int]]:
    """The metric of g with integer edge lengths `weight[(u, v)]`, u < v."""
    inf = float("inf")
    d = [[0 if u == v else inf for v in range(g.n)] for u in range(g.n)]
    for (u, v), w in weight.items():
        d[u][v] = d[v][u] = w
    for m in range(g.n):
        for u in range(g.n):
            for v in range(g.n):
                d[u][v] = min(d[u][v], d[u][m] + d[m][v])
    return d


def uniform(n: int, dist: int) -> list[list[int]]:
    """n points at one distance from each other: d(S) = (|S| - 1)·dist."""
    return [[0 if u == v else dist for v in range(n)] for u in range(n)]


def check_kernel(dist, terminals, size) -> str:
    """Compare every value of one kernel run with the reference; return the
    lane format the matrix was packed in."""
    packed = _pack(dist, size)
    for base, roots, values in _subset_distances(packed, terminals, size):
        assert values == [steiner_per_subset(dist, base + (r,)) for r in roots], (base, roots)
    return packed.code


# edge lengths (scale times 1..top) that put (size - 1)·D inside each
# width's range for every n <= 8 and size <= 5
SCALES = [("B", 1, 3), ("H", 100, 9), ("I", 10**6, 9), ("Q", 10**15, 9)]


@pytest.mark.parametrize("code, scale, top", SCALES, ids=[s[0] for s in SCALES])
def test_every_lane_width_matches_the_list_reference(code, scale, top):
    rng = random.Random(f"lanes:{code}")
    for _ in range(12):
        g = random_connected_graph(rng.randint(5, 8), rng, extra=rng.choice((0.0, 0.3, 0.6)))
        dist = shortest_paths(g, {e: scale * rng.randint(1, top) for e in g.edges()})
        for size in range(3, 6):
            terminals = tuple(sorted(rng.sample(range(g.n), rng.randint(size, g.n))))
            assert check_kernel(dist, terminals, size) == code


# (size, D, width picked): (size - 1)·D at 2^(W-1) - 1 keeps W, at 2^(W-1)
# it takes the next width. 2^7 - 1 and 2^31 - 1 are prime, so their largest
# D is checked at size 2 and just under the bound at size 5.
BOUNDARY = [
    (2, 127, "B"), (5, 31, "B"), (5, 32, "H"), (3, 64, "H"),
    (8, 4681, "H"), (9, 4096, "I"),
    (2, 2**31 - 1, "I"), (5, (2**31 - 1) // 4, "I"), (5, 2**29, "Q"),
    (8, (2**63 - 1) // 7, "Q"),
]


@pytest.mark.parametrize("size, d, code", BOUNDARY)
def test_lane_rule_at_its_boundaries(size, d, code):
    dist = uniform(size + 1, d)
    packed = _pack(dist, size)
    assert packed.code == code and calcsize(code) == {"B": 1, "H": 2, "I": 4, "Q": 8}[code]
    for _, roots, values in _subset_distances(packed, tuple(range(size + 1)), size):
        assert values == [(size - 1) * d] * len(roots)


@pytest.mark.parametrize("size, d", [(9, 2**60), (3, 2**62), (2, 2**63)])
def test_no_lane_wide_enough_is_a_precondition_error(size, d):
    with pytest.raises(PreconditionError):
        _pack(uniform(size + 1, d), size)


def test_size_one_packs_every_entry():
    # a single terminal has distance 0, but its matrix must still fit
    assert _pack(uniform(3, 200), 1).code == "H"


def cut_vertices(g: Graph) -> int:
    return sum(
        not is_connected(Graph.from_edges(g.n - 1, [
            (u - (u > v), w - (w > v)) for u, w in g.edges() if v not in (u, w)
        ]))
        for v in range(g.n)
    )


@given(
    st.integers(min_value=3, max_value=9),
    st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_identities_of_the_enumeration(n, extra, rng):
    # trees, twin graphs and complete graphs included: _grouped_index runs
    # the kernel on all of them, where the dispatcher would take a formula
    g = random_connected_graph(n, rng, extra)
    dist = all_pairs_distances(g)
    c = WeightFn.uniform(n)
    assert _grouped_index(dist, c, 1) == 0
    assert _grouped_index(dist, c, n) == n - 1
    assert _grouped_index(dist, c, 2) == sum(
        bfs_distances(g, u)[v] for u, v in combinations(range(n), 2))
    # V - v needs v exactly when v is a cut vertex; k = n - 1 reads every
    # bipartition getter of sizes up to n - 2
    assert _grouped_index(dist, c, n - 1) == n * (n - 2) + cut_vertices(g)


def test_the_matrix_is_packed_once_per_call():
    rng = random.Random(16)
    g = random_connected_graph(10, rng, extra=0.3)
    w = random_weights(g.n, rng, lo=1, hi=3)
    with mock.patch.object(steiner, "_pack", wraps=steiner._pack) as pack:
        steiner_wiener_weighted_naive(g, w, 4)
        assert pack.call_count == 1
        pack.reset_mock()
        # weights up to 3 at k = 4 visit original sets of sizes 2, 3 and 4
        _grouped_index(all_pairs_distances(g), w, 4)
        assert pack.call_count == 1
