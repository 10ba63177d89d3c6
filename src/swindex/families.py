"""Graph generators: classic families, sequential joins, and the two layered
families whose indices track the minimum-degree and triangle-free bounds.

Layered families are built as sequential sums (disjoint union plus a complete
join between consecutive layers), so their diameters equal the number of
joins and their structure is easy to audit. Parameters outside a
generator's own rules raise UsageError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .bounds import BOUNDS
from .errors import PreconditionError, UsageError
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
    "sequential_sum",
    "min_degree_extremal",
    "triangle_free_extremal",
    "SweepRow",
    "tightness_sweep",
    "sweep_csv",
]


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise UsageError("vertex count must be non-negative")
    return Graph.from_edges(n, [])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise UsageError("path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise UsageError("cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Center 0 joined to the given number of leaves."""
    if leaves < 0:
        raise UsageError("leaf count must be non-negative")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise UsageError("complete graph needs at least one vertex")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """Sides 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise UsageError("both sides need at least one vertex")
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def classic(family: str, size: int, size2=None) -> Graph:
    """Build a classic family by name from its one or two sizes; a second
    size is ignored by families that take one."""
    if family not in CLASSIC:
        raise UsageError(f"unknown family {family!r}")
    build, arity = CLASSIC[family]
    sizes = (size, size2)[:arity]
    if None in sizes:
        raise UsageError(f"family {family} needs --size" + " and --size2" * (arity - 1))
    return build(*sizes)


def sequential_sum(parts) -> Graph:
    """Disjoint union with a complete join between consecutive parts.

    Part i occupies the id block starting at sum of earlier part sizes.
    """
    parts = list(parts)
    if not parts:
        raise UsageError("sequential sum needs at least one part")
    if any(p.n == 0 for p in parts):
        raise UsageError("sequential sum parts must be non-empty")
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
    return LAYERED["G"].build(d, delta)


def triangle_free_extremal(d: int, delta: int) -> Graph:
    """Layered graph of diameter d and minimum degree delta tracking the
    triangle-free upper bound.

    Layout: two independent sets of size delta at each end, d-3 independent
    sets of size delta/2 between them; delta must be even. Consecutive layers
    are completely joined and every layer is independent, so the graph is
    bipartite (layers of even and odd position) and has no triangle.
    """
    return LAYERED["H"].build(d, delta)


@dataclass(frozen=True)
class Layered:
    """One layered family: the sequential sum of one `part` per entry of
    `sizes(d, delta)`, its smallest diameter, its rule on delta with the text
    that states it, what `build` proves, and the bound row its sweep reads."""

    name: str
    part: Callable[[int], Graph]
    sizes: Callable[[int, int], list[int]]
    d_floor: int
    delta_ok: Callable[[int], bool]
    delta_rule: str
    min_degree: Callable[[int, int], int]
    triangle_free: bool
    bound: str

    def check(self, d: int, delta: int) -> None:
        if d is None or delta is None:
            raise UsageError(f"family {self.name} needs --d and --delta")
        if not self.delta_ok(delta):
            raise UsageError(f"family {self.name} needs {self.delta_rule}")
        if d < self.d_floor:
            raise UsageError(f"family {self.name} needs d >= {self.d_floor}")

    def build(self, d: int, delta: int) -> Graph:
        """The graph at (d, delta), one part built per distinct layer size;
        a failed proof of its diameter, minimum degree or triangle status
        raises AssertionError."""
        self.check(d, delta)
        sizes = self.sizes(d, delta)
        parts = {size: self.part(size) for size in set(sizes)}
        g = sequential_sum(parts[size] for size in sizes)
        proved = (diameter(g), g.min_degree(), not has_triangle(g))
        if proved != (d, self.min_degree(d, delta), self.triangle_free):
            raise AssertionError(f"family {self.name} misbuilt at d={d}, delta={delta}")
        return g


CLASSIC = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "star": (star_graph, 1),
    "complete": (complete_graph, 1),
    "complete_bipartite": (complete_bipartite, 2),
}

# G's end cliques merge at d = 1, and up to d = 3 their vertices have the least degree
LAYERED = {fam.name: fam for fam in (
    Layered("G", complete_graph, lambda d, delta: [delta] + [(delta + 1) // 3] * (d - 1) + [delta],
            1, lambda delta: delta >= 2 and delta % 3 == 2,
            "delta >= 2 with delta + 1 divisible by 3",
            lambda d, delta: delta if d >= 4 else 2 * delta - 1 if d == 1
            else delta - 1 + (delta + 1) // 3, False, "theorem4"),
    Layered("H", empty_graph, lambda d, delta: [delta] * 2 + [delta // 2] * (d - 3) + [delta] * 2,
            3, lambda delta: delta >= 2 and delta % 2 == 0, "an even delta >= 2",
            lambda d, delta: delta, True, "theorem5"),
)}


@dataclass(frozen=True)
class SweepRow:
    """One diameter step of a tightness sweep; `has_triangle` is what `build` proved."""

    d: int
    n: int
    sw: int
    bound_term: Fraction
    ratio: Fraction
    has_triangle: bool


def tightness_sweep(family: str, delta: int, k: int, d_values):
    """Exact index-to-bound ratios across a range of diameters.

    Each graph is measured against the `lead` of its family's bound row, the
    growth term that scales with n; ratios are exact. Every parameter is
    checked before any graph is built: the family, at least one diameter, the
    family's rule at the smallest diameter and k >= 2 raise UsageError, and k
    above the smallest order PreconditionError. G and H have a path as twin
    quotient, so no sweep enumerates.
    """
    d_values = list(d_values)
    if family not in LAYERED:
        raise UsageError(f"unknown sweep family {family!r}")
    if not d_values:
        raise UsageError("sweep needs at least one diameter")
    fam = LAYERED[family]
    d = min(d_values)
    fam.check(d, delta)
    if k < 2:
        raise UsageError("sweep needs k >= 2")
    n = sum(fam.sizes(d, delta))
    if k > n:
        raise PreconditionError(f"k={k} exceeds n={n} at d={d}")
    rows = []
    for d in d_values:
        g = fam.build(d, delta)
        sw = steiner_wiener(g, k)
        term = BOUNDS[fam.bound].lead(g.n, delta, k)
        rows.append(SweepRow(d, g.n, sw, term, Fraction(sw) / term, not fam.triangle_free))
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
