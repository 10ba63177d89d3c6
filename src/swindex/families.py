"""Graph generators: classic families, sequential joins, and the two layered
families whose indices track the minimum-degree and triangle-free bounds.

Layered families are built as sequential sums (disjoint union plus a complete
join between consecutive layers), so their diameters equal the number of
joins and their structure is easy to audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from .errors import PreconditionError
from .graph import Graph, diameter, has_triangle
from .steiner import steiner_wiener

__all__ = [
    "empty_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "complete_bipartite",
    "classic",
    "CLASSIC",
    "LAYERED",
    "sequential_sum",
    "min_degree_extremal",
    "triangle_free_extremal",
    "SweepRow",
    "check_sweep",
    "tightness_sweep",
    "sweep_csv",
]


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise PreconditionError("vertex count must be non-negative")
    return Graph.from_edges(n, [])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise PreconditionError("cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Center 0 joined to the given number of leaves."""
    if leaves < 0:
        raise PreconditionError("leaf count must be non-negative")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("complete graph needs at least one vertex")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """Sides 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise PreconditionError("both sides need at least one vertex")
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def classic(family: str, size: int, size2=None) -> Graph:
    """Build a classic family by name from its one or two sizes; a second
    size is ignored by families that take one."""
    if family not in CLASSIC:
        raise PreconditionError(f"unknown family {family!r}")
    build, arity = CLASSIC[family]
    sizes = (size, size2)[:arity]
    if None in sizes:
        raise PreconditionError(f"family {family} needs --size" + " and --size2" * (arity - 1))
    return build(*sizes)


def sequential_sum(parts) -> Graph:
    """Disjoint union with a complete join between consecutive parts.

    Part i occupies the id block starting at sum of earlier part sizes.
    """
    parts = list(parts)
    if not parts:
        raise PreconditionError("sequential sum needs at least one part")
    if any(p.n == 0 for p in parts):
        raise PreconditionError("sequential sum parts must be non-empty")
    edges, lo = [], 0
    for p, nxt in zip(parts, [*parts[1:], empty_graph(0)]):
        mid = lo + p.n
        edges.extend((u + lo, v + lo) for u, v in p.edges())
        edges.extend((a, b) for a in range(lo, mid) for b in range(mid, mid + nxt.n))
        lo = mid
    return Graph.from_edges(lo, edges)


def min_degree_extremal(d: int, delta: int) -> Graph:
    """Layered graph of diameter d whose index approaches the minimum-degree
    upper bound as d grows.

    Layout: a clique of size delta at each end, d-1 cliques of size
    s = (delta+1)/3 between them; delta+1 must be divisible by 3. Minimum
    degree is exactly delta once an interior clique sits between two other
    interior cliques (d >= 4, or any d >= 2 when delta = 2); smaller
    diameters degenerate toward complete graphs.
    """
    LAYERED["G"].check(d, delta)
    s = (delta + 1) // 3
    end = [complete_graph(delta)]
    g = sequential_sum(end + [complete_graph(s)] * (d - 1) + end)
    assert g.n == LAYERED["G"].order(d, delta)
    assert diameter(g) == d
    if d == 1:
        expected = 2 * delta - 1  # the two end cliques merge into one
    elif d <= 3:
        expected = delta - 1 + s  # end-clique vertices still dominate
    else:
        expected = delta
    assert g.min_degree() == expected
    return g


def triangle_free_extremal(d: int, delta: int) -> Graph:
    """Layered graph of diameter d and minimum degree delta tracking the
    triangle-free upper bound.

    Layout: two independent sets of size delta at each end, d-3 independent
    sets of size delta/2 between them; delta must be even. Consecutive layers
    are completely joined and every layer is independent, so the graph is
    bipartite (layers of even and odd position) and has no triangle.
    """
    LAYERED["H"].check(d, delta)
    side = [empty_graph(delta)] * 2
    g = sequential_sum(side + [empty_graph(delta // 2)] * (d - 3) + side)
    assert g.n == LAYERED["H"].order(d, delta)
    assert diameter(g) == d
    assert g.min_degree() == delta
    assert not has_triangle(g)
    return g


@dataclass(frozen=True)
class Layered:
    """One layered family: its builder with the order of the graph it builds
    from (d, delta), the smallest diameter it builds, its rule on delta with
    the text that states it, and the growth term per k-subset of the bound
    its sweep is measured against."""

    name: str
    build: Callable[[int, int], Graph]
    order: Callable[[int, int], int]
    d_floor: int
    delta_ok: Callable[[int], bool]
    delta_rule: str
    per_set: Callable[[int, int], Fraction]

    def check(self, d: int, delta: int) -> None:
        if d is None or delta is None:
            raise PreconditionError(f"family {self.name} needs --d and --delta")
        if not self.delta_ok(delta):
            raise PreconditionError(f"family {self.name} needs {self.delta_rule}")
        if d < self.d_floor:
            raise PreconditionError(f"family {self.name} needs d >= {self.d_floor}")


CLASSIC = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "star": (star_graph, 1),
    "complete": (complete_graph, 1),
    "complete_bipartite": (complete_bipartite, 2),
}

# G tracks the minimum-degree bound, 3n/(delta+1) per set; H tracks the
# triangle-free bound, 2n/delta per set
LAYERED = {fam.name: fam for fam in (
    Layered("G", min_degree_extremal, lambda d, delta: (d + 5) * (delta + 1) // 3 - 2,
            1, lambda delta: delta >= 2 and delta % 3 == 2,
            "delta >= 2 with delta + 1 divisible by 3",
            lambda n, delta: Fraction(3 * n, delta + 1)),
    Layered("H", triangle_free_extremal, lambda d, delta: 4 * delta + (d - 3) * delta // 2,
            3, lambda delta: delta >= 2 and delta % 2 == 0,
            "an even delta >= 2", lambda n, delta: Fraction(2 * n, delta)),
)}


@dataclass(frozen=True)
class SweepRow:
    """One diameter step of a tightness sweep."""

    d: int
    n: int
    sw: int
    bound_term: Fraction
    ratio: Fraction
    has_triangle: bool


def check_sweep(family: str, delta: int, k: int, d_values) -> Layered:
    """The parameter rules of a sweep, checked before any graph is built:
    the family's own rule at the smallest diameter, at least one diameter,
    and k >= 2. Returns the family's row."""
    if family not in LAYERED:
        raise PreconditionError(f"unknown sweep family {family!r}")
    if not d_values:
        raise PreconditionError("sweep needs at least one diameter")
    LAYERED[family].check(min(d_values), delta)
    if k < 2:
        raise PreconditionError("sweep needs k >= 2")
    return LAYERED[family]


def tightness_sweep(family: str, delta: int, k: int, d_values):
    """Exact index-to-bound ratios across a range of diameters.

    Each family is measured against the growth term of its bound, the part
    (k-1)/(k+1) * per_set(n, delta) * C(n, k) that scales with n. Ratios are
    exact rationals. Every diameter is checked against k before any graph is
    built; G and H have a path as twin quotient, so no sweep enumerates.
    """
    d_values = list(d_values)
    fam = check_sweep(family, delta, k, d_values)
    for d in d_values:
        n = fam.order(d, delta)
        if k > n:
            raise PreconditionError(f"k={k} exceeds n={n} at d={d}")
    rows = []
    for d in d_values:
        g = fam.build(d, delta)
        sw = steiner_wiener(g, k)
        term = Fraction(k - 1, k + 1) * fam.per_set(g.n, delta) * comb(g.n, k)
        rows.append(SweepRow(d, g.n, sw, term, Fraction(sw) / term, has_triangle(g)))
    return rows


def _ratio_str(x: Fraction) -> str:
    """Six-decimal fixed point, computed without floats."""
    scaled = round(x * 1_000_000)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 1_000_000}.{scaled % 1_000_000:06d}"


def sweep_csv(rows) -> str:
    out = ["d,n,sw_k,bound_term,ratio"]
    for r in rows:
        out.append(f"{r.d},{r.n},{r.sw},{r.bound_term},{_ratio_str(r.ratio)}")
    return "\n".join(out) + "\n"
