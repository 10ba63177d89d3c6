"""The shared star-forest grower against the two constructors written out
loop by loop: on seeded graphs from seeded starts, both must give the same
certificate JSON byte for byte."""

import random

from swindex import certificate_to_json, matching_spanning_tree, packing_spanning_tree

from ensembles import (
    random_connected_bipartite,
    random_connected_graph,
    random_tree,
    subdivide_all,
)
from oracles import matching_spanning_tree_reference, packing_spanning_tree_reference


def test_packing_matches_reference_constructor():
    rng = random.Random(83)
    connectors = 0
    for i in range(300):
        n = rng.randint(1, 40)
        if i % 4 == 0:
            g = random_tree(n, rng)
        else:
            g = random_connected_graph(n, rng, extra=rng.choice([0.02, 0.05, 0.15, 0.4]))
        start = rng.randrange(n)
        got = certificate_to_json(packing_spanning_tree(g, start=start))
        assert got == certificate_to_json(packing_spanning_tree_reference(g, start=start)), i
        connectors += got.count("],[")
    assert connectors >= 300  # most certificates join several stars


def test_matching_matches_reference_constructor():
    rng = random.Random(89)
    multi = 0
    for i in range(250):
        if i % 2 == 0:
            n = rng.randint(2, 36)
            g = random_connected_bipartite(n, rng, extra=rng.choice([0.02, 0.08, 0.3]))
        else:
            n = rng.randint(2, 14)
            g = subdivide_all(random_connected_graph(n, rng, extra=rng.choice([0.05, 0.2])))
        start = rng.choice(g.edges())
        cert = matching_spanning_tree(g, start_edge=start)
        got = certificate_to_json(cert)
        assert got == certificate_to_json(matching_spanning_tree_reference(g, start_edge=start)), i
        multi += len(cert.anchors) >= 3
    assert multi >= 60  # many join three or more double stars
