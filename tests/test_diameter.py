"""The diameter read off the twin quotient.

`graph.diameter` measures the quotient Q of `graph.twin_classes`: two
searches when Q is a tree, one per vertex of Q otherwise, and the distance
inside a class (1 for true twins, 2 for false ones). These tests compare it
with `diameter_by_all_searches`, one search per vertex of g, on relabelled
graphs whose vertices are blown up into cliques or independent sets, and
count the searches of the two extremal families.
"""

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swindex import (
    Graph,
    PreconditionError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diameter,
    empty_graph,
    min_degree_extremal,
    star_graph,
    triangle_free_extremal,
)

from ensembles import random_connected_graph, random_tree
from oracles import diameter_by_all_searches
from test_twins import blow_up


def relabel(g: Graph, rng: random.Random) -> Graph:
    """g under a random permutation of its vertex ids."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def substitution(rng: random.Random) -> Graph:
    """A random connected graph with each vertex replaced by a clique or an
    independent set of 1 to 3 vertices (an independent set only where the
    vertex has a neighbour, so the result stays connected)."""
    base = random_connected_graph(rng.randint(1, 12), rng, rng.choice([0.0, 0.2, 0.5]))
    sizes = [rng.randint(1, 3) for _ in range(base.n)]
    return blow_up(base, sizes, [bool(nbrs) and rng.random() < 0.5 for nbrs in base.adj])


def layered(rng: random.Random) -> tuple[Graph, int]:
    """G or H at a random (d, delta), d = 1 included for G, with its d."""
    if rng.random() < 0.5:
        d = rng.randint(1, 12)
        return min_degree_extremal(d, rng.choice([2, 5, 8])), d
    d = rng.randint(3, 12)
    return triangle_free_extremal(d, rng.choice([2, 4, 6])), d


KINDS = {
    "substitution": substitution,
    "tree": lambda rng: random_tree(rng.randint(1, 30), rng),
    "cycle": lambda rng: cycle_graph(rng.randint(3, 30)),
    "complete": lambda rng: complete_graph(rng.randint(1, 10)),
    "bipartite": lambda rng: complete_bipartite(rng.randint(1, 6), rng.randint(1, 6)),
    "K1": lambda rng: complete_graph(1),
}


@given(st.sampled_from([*KINDS, "layered"]), st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None)
def test_diameter_matches_all_searches(kind, rng):
    if kind == "layered":
        g, d = layered(rng)
        assert diameter(g) == diameter_by_all_searches(g) == d
    else:
        g = KINDS[kind](rng)
    g = relabel(g, rng)
    assert diameter(g) == diameter_by_all_searches(g)


def lollipop() -> Graph:
    # C7 with a three-edge tail at vertex 0: no twins, so Q is g itself and
    # no tree; vertex 0 has eccentricity 3, the tail's end to C7's far side is 6
    return Graph.from_edges(10, cycle_graph(7).edges() + [(0, 7), (7, 8), (8, 9)])


@pytest.mark.parametrize("build, expected", [
    pytest.param(partial(complete_graph, 1), 0, id="K1"),
    pytest.param(partial(complete_graph, 5), 1, id="K5: one true class"),
    pytest.param(partial(star_graph, 3), 2, id="K1,3: a false class of leaves"),
    pytest.param(partial(complete_bipartite, 3, 4), 2, id="K3,4: two false classes"),
    pytest.param(partial(Graph.from_edges, 5, [(2, 0), (0, 1), (1, 3), (3, 4)]), 4,
                 id="path from its middle"),
    pytest.param(lollipop, 6, id="lollipop"),
    pytest.param(partial(min_degree_extremal, 1, 5), 1, id="G(1,5): the end cliques merge"),
])
def test_diameter_on_fixed_graphs(build, expected):
    # built in the test, so that a wrong diameter fails the family's own
    # assertion here rather than at collection
    g = build()
    assert diameter(g) == diameter_by_all_searches(g) == expected


def test_diameter_refuses_empty_and_disconnected_graphs():
    for g in (empty_graph(0), empty_graph(2), Graph.from_edges(4, [(0, 1), (2, 3)])):
        with pytest.raises(PreconditionError):
            diameter(g)


@pytest.mark.parametrize("build, d, delta", [
    (min_degree_extremal, 100, 11),
    (triangle_free_extremal, 60, 4),
])
def test_extremal_families_take_three_searches(searches, build, d, delta):
    # one to prove g connected and two on its path quotient, where the
    # search from every vertex took g.n more (418 for G(100, 11))
    build(d, delta)
    assert len(searches) == 3
