"""Seeded inputs for the three benchmark workloads.

A run is a sequence of rounds. Every round of a workload holds the same job
slots (command, graph shape, size, k), so the cost of a round hardly depends
on the seed; the seed picks the random graphs, trees and weights, the vertex
relabelling of every graph, the sweep parameters and the job order inside
the round. Each job gets fresh files, so no input repeats within a run.
The program sees only the files written here and an argv.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("enumerate", "certify", "trees")

# Each round's slots: (kind, shape, size, k, option). The slot costs form a
# ladder without big gaps, and the number of slots per round (15 or 25)
# puts the median and the 90th percentile of the job times in the middle of
# one slot's samples whose cost does not depend on the seed; jobs whose cost
# does (sweep, straightening) sit away from both.
#
# Shapes: "cycle" and "path" (size n), "G" and "H" (layered families, size
# (d, delta)), "chain" (sequential sum of L independent sets of size s, size
# (s, L)), "random" (random tree plus a share p of the other pairs, size
# (n, p)), "subdivided" (full subdivision of a "random" graph) and "tree"
# (uniform labelled tree, size n).
SLOTS = {
    # The Steiner dynamic program is almost all of the cost: C(n, k)
    # subsets on graphs with at most 24 vertices, so parsing and BFS are tiny.
    "enumerate": [
        ("compute", "cycle", 16, 3, "mu"),
        ("compute", "random", (22, 0.2), 3, "sw"),
        ("compute", "cycle", 20, 3, "sw"),
        ("compute", "random", (24, 0.2), 3, "mu"),
        ("verify", "cycle", 15, 3, None),
        ("compute", "cycle", 12, 4, "mu"),
        ("verify", "random", (20, 0.2), 3, None),
        ("compute", "random", (13, 0.2), 4, "sw"),
        ("sweep", None, None, 3, None),
        ("compute", "G", (11, 2), 4, "mu"),
        ("compute", "cycle", 11, 5, "sw"),
        ("compute", "random", (15, 0.2), 4, "mu"),
        ("verify", "cycle", 12, 4, None),
        ("compute", "random", (12, 0.2), 5, "mu"),
        ("compute", "H", (11, 2), 4, "sw"),
        ("verify", "random", (14, 0.2), 4, None),
        ("verify", "cycle", 13, 4, None),
        ("compute", "cycle", 17, 4, "sw"),
        ("compute", "random", (13, 0.2), 5, "mu"),
        ("compute", "random", (17, 0.2), 4, "mu"),
        ("compute", "cycle", 18, 4, "sw"),
        ("compute", "random", (19, 0.2), 4, "mu"),
        ("compute", "cycle", 19, 4, "sw"),
        ("verify", "random", (16, 0.2), 4, None),
        ("compute", "cycle", 14, 5, "mu"),
    ],
    # BFS, edge-list parsing and Graph validation dominate; the Steiner
    # engine only runs the linear tree cut formula inside the verifier.
    "certify": [
        ("construct", "G", (40, 8), 2, "packing"),
        ("construct", "G", (80, 8), 3, "packing"),
        ("construct", "G", (60, 11), 3, "packing"),
        ("construct", "G", (100, 11), 4, "packing"),
        ("construct", "G", (50, 14), 2, "packing"),
        ("construct", "G", (40, 17), 3, "packing"),
        ("construct", "random", (200, 0.15), 2, "packing"),
        ("construct", "random", (300, 0.2), 3, "packing"),
        ("construct", "random", (350, 0.25), 2, "packing"),
        ("construct", "random", (400, 0.3), 4, "packing"),
        ("construct", "chain", (8, 40), 2, "matching"),
        ("construct", "chain", (12, 30), 3, "matching"),
        ("construct", "chain", (16, 30), 4, "matching"),
        ("construct", "subdivided", (60, 0.06), 2, "matching"),
        ("construct", "subdivided", (100, 0.04), 3, "matching"),
    ],
    # Tree dispatch, weighted grouping and straightening run only here.
    # Straightening on n >= ~80 mostly hits the known move-budget defect;
    # those jobs stay in and count as budget-limited.
    "trees": [
        *(("straighten", "tree", n, 3, (1, 3)) for n in (10, 40, 70, 120, 150, 180, 200)),
        ("compute", "tree", 1000, 2, ("sw", 1, 5)),
        ("compute", "tree", 1500, 3, ("mu", 1, 5)),
        ("compute", "tree", 2000, 4, ("sw", 1, 5)),
        ("compute", "tree", 2500, 3, ("mu", 1, 5)),
        ("compute", "tree", 3000, 2, ("sw", 1, 5)),
        ("compute", "random", (14, 0.2), 3, ("sw", 0, 3)),
        ("compute", "random", (15, 0.2), 3, ("mu", 0, 3)),
        ("compute", "random", (16, 0.2), 3, ("sw", 0, 3)),
        ("compute", "random", (14, 0.2), 4, ("mu", 0, 3)),
        ("compute", "random", (15, 0.2), 4, ("sw", 0, 3)),
        ("compute", "random", (15, 0.2), 4, ("mu", 0, 3)),
        ("compute", "random", (16, 0.2), 4, ("sw", 0, 3)),
        ("verify", "tree", 20, 3, None),
        ("verify", "path", 22, 3, None),
        ("verify", "tree", 24, 3, None),
        ("verify", "tree", 28, 3, None),
        ("verify", "path", 30, 3, None),
        ("verify", "tree", 30, 3, None),
    ],
}

# Sweeps take no input file, so distinct runs of the sweep slot differ by
# argv: (family, delta, d-min, d-max), five diameters with 11..27 vertices.
# At k = 3 every one of them costs less than the median job, so which one a
# round draws does not move the job-time percentiles.
SWEEPS = [("G", 2, a, a + 4) for a in range(8, 21)] + [("H", 2, a, a + 4) for a in range(6, 19)]


@dataclass
class Job:
    """One unit of work: a CLI argv, or the straightening library job when
    argv is None. `params` is what replays and checks read; `shape` and `n`
    are what the generator knows about the input independently of the
    program."""

    id: str
    kind: str
    argv: list | None
    params: dict = field(default_factory=dict)
    shape: str | None = None
    n: int = 0


def prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform labelled tree on n >= 2 vertices by sequence decoding."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_connected(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Random tree plus round(p * #other pairs) further edges drawn uniformly:
    as dense as G(n, p) on average, with an edge count that does not vary by
    seed."""
    tree = {(min(u, v), max(u, v)) for u, v in prufer_tree(n, rng)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    return sorted(tree.union(rng.sample(others, round(p * len(others)))))


def subdivide(n: int, edges) -> tuple[int, list[tuple[int, int]]]:
    out = []
    for i, (u, v) in enumerate(edges):
        out += [(u, n + i), (v, n + i)]
    return n + len(edges), out


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def build_graph(sw, tracer, shape: str, size, rng: random.Random, cache: dict):
    """Vertex count and edge list of one input graph. Family graphs are
    built once per set-up, through the tracer so a traced run times them;
    later rounds reuse them under a fresh relabelling."""
    if (shape, size) in cache:
        return cache[shape, size]
    fam = sw.families
    if shape == "cycle":
        g = tracer.call("families.cycle_graph", fam.cycle_graph, size)
    elif shape == "path":
        g = tracer.call("families.path_graph", fam.path_graph, size)
    elif shape == "G":
        g = tracer.call("families.min_degree_extremal", fam.min_degree_extremal, *size)
    elif shape == "H":
        g = tracer.call("families.triangle_free_extremal", fam.triangle_free_extremal, *size)
    elif shape == "chain":
        s, layers = size
        part = tracer.call("families.empty_graph", fam.empty_graph, s)
        g = tracer.call("families.sequential_sum", fam.sequential_sum, [part] * layers)
    elif shape == "tree":
        return size, prufer_tree(size, rng)
    elif shape == "random":
        return size[0], random_connected(*size, rng)
    elif shape == "subdivided":
        return subdivide(size[0], random_connected(*size, rng))
    else:
        raise ValueError(f"unknown shape {shape!r}")
    cache[shape, size] = g.n, g.edges()
    return cache[shape, size]


def write_graph(path: Path, n: int, edges) -> None:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")


def balanced_weights(n: int, lo: int, hi: int, rng: random.Random) -> list[int]:
    """Every value of lo..hi equally often (as far as n allows), placed at
    random: the total weight and support size, which set the cost of the
    weighted engines, are then the same for every seed."""
    weights = [lo + i % (hi - lo + 1) for i in range(n)]
    rng.shuffle(weights)
    return weights


def write_weights(path: Path, weights) -> None:
    path.write_text("".join(f"{v} {w}\n" for v, w in enumerate(weights)))


def make_round(sw, tracer, workload: str, seed: int, r: int, root: Path, cache: dict) -> list[Job]:
    """Write the inputs of round r and return its jobs in execution order.

    Job ids name the slot, so the same (seed, round, slot) always names the
    same input; that is what the golden digests are keyed on.
    """
    rng = random.Random(f"{workload}:{seed}:{r}")
    folder = root / f"r{r}"
    folder.mkdir(parents=True)
    jobs = []
    for i, (kind, shape, size, k, option) in enumerate(SLOTS[workload]):
        jid = f"r{r}.{i:02d}"
        if kind == "sweep":
            sweeps = SWEEPS[:]
            random.Random(f"sweep:{seed}").shuffle(sweeps)
            family, delta, lo, hi = sweeps[r % len(sweeps)]
            argv = ["sweep", "--family", family, "--delta", str(delta), "--k", str(k),
                    "--d-min", str(lo), "--d-max", str(hi)]
            params = {"family": family, "delta": delta, "k": k, "d_min": lo, "d_max": hi}
            jobs.append(Job(jid, kind, argv, params))
            continue
        n, edges = build_graph(sw, tracer, shape, size, rng, cache)
        graph = folder / f"{i:02d}.graph"
        write_graph(graph, n, relabel(n, edges, rng))
        params = {"graph": str(graph), "k": k}
        argv = [kind, "--graph", str(graph), "--k", str(k)]
        if kind == "compute":
            metric, *wrange = option if isinstance(option, tuple) else (option,)
            params["metric"] = metric
            argv += ["--metric", metric]
            if wrange:
                weights = folder / f"{i:02d}.weights"
                write_weights(weights, balanced_weights(n, *wrange, rng))
                params["weights"] = str(weights)
                argv += ["--weights", str(weights)]
        elif kind == "verify":
            argv.append("--all")
        elif kind == "construct":
            cert = folder / f"{i:02d}.cert.json"
            params.update(method=option, cert=str(cert))
            argv += ["--method", option, "--out", str(cert)]
        elif kind == "straighten":
            weights = folder / f"{i:02d}.weights"
            write_weights(weights, balanced_weights(n, *option, rng))
            params["weights"] = str(weights)
            argv = None
        jobs.append(Job(jid, kind, argv, params, shape, n))
    rng.shuffle(jobs)
    return jobs
