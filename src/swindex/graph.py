"""Simple undirected graphs and the structural helpers everything else uses.

Vertices are dense ints 0..n-1. Adjacency is kept sorted so that every
iteration order in the library is deterministic. Distances use ``None`` as
the unreachable marker, never a sentinel integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

from .errors import GraphFormatError, PreconditionError

__all__ = [
    "Graph",
    "bfs_distances",
    "all_pairs_distances",
    "diameter",
    "is_connected",
    "is_tree",
    "is_two_connected",
    "has_triangle",
    "parse_edge_list",
    "format_edge_list",
]

MAX_VERTICES = 1_000_000
"""Largest vertex count an edge-list header may declare. The parser
allocates one neighbor list per vertex before it reads an edge, so a
one-line file must not be able to ask for an unbounded number."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with canonical (sorted) neighbor tuples."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # from_edges owns the rules: rebuilt from its own edges, adj must come back unchanged
        if len(self.adj) != self.n or Graph.from_edges(self.n, self.edges()).adj != self.adj:
            raise ValueError("adj must be n sorted, symmetric, loop-free neighbor tuples")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from (u, v) pairs; order inside a pair is free."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        lists: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            lists[u].append(v)
            lists[v].append(u)
        return cls._trusted(n, [tuple(sorted(l)) for l in lists])

    @classmethod
    def _trusted(cls, n: int, adj) -> "Graph":
        """Graph from n sorted, symmetric, loop-free neighbor tuples, without
        the checks of direct construction: callers have already validated
        every edge they put in `adj`."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(adj))
        return g

    @property
    def m(self) -> int:
        return sum(map(len, self.adj)) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise PreconditionError(f"vertex {v} out of range")
        return len(self.adj[v])

    def min_degree(self) -> int:
        if self.n == 0:
            raise PreconditionError("minimum degree of the empty graph is undefined")
        return min(len(nbrs) for nbrs in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= u < self.n > v >= 0:
            raise PreconditionError(f"edge ({u},{v}) out of range")
        return v in self.adj[u]


def _fact(compute):
    """Hold compute(g), found from adj alone, in g's own __dict__: freed with
    g, unread by ==, hash and repr. A miss calls the wrapper's __wrapped__."""

    @wraps(compute)
    def fact(g: Graph):
        if compute.__name__ not in g.__dict__:
            g.__dict__[compute.__name__] = fact.__wrapped__(g)
        return g.__dict__[compute.__name__]

    return fact


def norm_edge(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an edge id."""
    return (u, v) if u < v else (v, u)


def bfs_nearest(g: Graph, sources, limit: int | None = None) -> tuple[list, list]:
    """Breadth-first search from several sources, at most `limit` hops deep.

    Returns (dist, near): dist[v] is the hop distance from v to its nearest
    source and near[v] the lowest id among the sources at that distance;
    both are None where v is not reached. Seeding the search in ascending
    source order keeps every layer sorted by label, so the first vertex to
    discover v carries the lowest nearest label.
    """
    dist: list = [None] * g.n
    near: list = [None] * g.n
    frontier = sorted(set(sources))
    for s in frontier:
        if not 0 <= s < g.n:
            raise PreconditionError(f"source {s} out of range")
        dist[s] = 0
        near[s] = s
    adj = g.adj
    depth = 0
    while frontier and (limit is None or depth < limit):
        depth += 1
        reached = []
        for u in frontier:
            label = near[u]
            for v in adj[u]:
                if dist[v] is None:
                    dist[v] = depth
                    near[v] = label
                    reached.append(v)
        frontier = reached
    return dist, near


def bfs_distances(g: Graph, source: int) -> list:
    """Hop distances from source; unreachable vertices get None."""
    return bfs_nearest(g, (source,))[0]


def all_pairs_distances(g: Graph) -> list:
    """Distance matrix as a list of BFS rows (None marks unreachable pairs)."""
    return [bfs_distances(g, u) for u in range(g.n)]


@_fact
def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return None not in bfs_distances(g, 0)


def require_connected(g: Graph, row=None) -> None:
    """Raise PreconditionError unless g is non-empty and connected; `row`,
    the distances from any one vertex if the caller has them, saves a search."""
    if g.n == 0 or not (is_connected(g) if row is None else None not in row):
        raise PreconditionError("graph has no vertices" if g.n == 0 else "graph is disconnected")


@_fact
def twin_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The twin classes of g, each a sorted tuple, sorted by lowest member:
    the true twins (equal N[v]), then the false twins (equal N(v)) among
    the vertices with no true twin. Every vertex is in exactly one class."""
    closed: dict = {}
    for v, nbrs in enumerate(g.adj):
        closed.setdefault(tuple(sorted((v, *nbrs))), []).append(v)
    opened: dict = {}
    for v, *twins in closed.values():
        if not twins:
            opened.setdefault(g.adj[v], []).append(v)
    classes = [x for x in closed.values() if len(x) > 1] + list(opened.values())
    return tuple(sorted(map(tuple, classes)))


@_fact
def twin_quotient(g: Graph) -> Graph:
    """Q, induced on the lowest members of the `twin_classes` of g: classes
    are modules, so a lowest member sees each class it touches."""
    classes = twin_classes(g)
    pos = {x[0]: i for i, x in enumerate(classes)}
    adj = [tuple(pos[u] for u in g.adj[x[0]] if u in pos) for x in classes]
    return Graph._trusted(len(classes), adj)


def diameter(g: Graph) -> int:
    """Largest hop distance over all pairs; requires a connected graph.

    Read off the twin quotient Q. Each class is a module, so members of two
    classes are exactly as far apart as their classes in Q (a path projects
    to a walk in Q, and a path in Q lifts to g). Two members of one class are
    1 apart (true twins) or 2 (false twins: not adjacent, and g connected
    gives them a common neighbour). So diam g = max(inner, diam Q). On a tree
    a vertex farthest from any vertex ends a longest path, so two searches
    give diam Q; otherwise it takes one search per vertex of Q."""
    require_connected(g)
    classes = twin_classes(g)
    q = twin_quotient(g)
    inner = max((1 if x[1] in g.adj[x[0]] else 2 for x in classes if len(x) > 1), default=0)
    if q.m == q.n - 1:
        dist = bfs_distances(q, 0)
        return max(inner, *bfs_distances(q, dist.index(max(dist))))
    return max(inner, *(max(bfs_distances(q, u)) for u in range(q.n)))


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)


def _branch(adj, root: int, nb: int) -> set[int]:
    """Vertices of the branch hanging at root through its neighbor nb: nb
    and everything reachable from it without passing through root."""
    seen = {root, nb}
    stack = [nb]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    seen.remove(root)
    return seen


def is_two_connected(g: Graph) -> bool:
    """n >= 3, and removing any one vertex leaves the others connected."""
    return g.n >= 3 and all(
        nbrs and len(_branch(g.adj, v, nbrs[0])) == g.n - 1 for v, nbrs in enumerate(g.adj)
    )


@_fact
def has_triangle(g: Graph) -> bool:
    """Edge scan, each edge at its higher end against the lower end's neighbor
    set, built as the scan passed it: the first shared neighbor is a triangle."""
    nbr_sets = []
    for u, nbrs in enumerate(g.adj):
        nbr_sets.append(mine := set(nbrs))
        for v in nbrs:
            if v < u and not mine.isdisjoint(nbr_sets[v]):
                return True
    return False


def parse_edge_list(text: str) -> Graph:
    """Parse the `n m` / `u v` edge-list format (u < v per line).

    Strict: LF line endings, no comments or blank interior lines, exactly m
    edge lines, ids in range, no loops or duplicates.
    """
    if not text.isascii():
        raise GraphFormatError("input must be ASCII")
    if "\r" in text:
        raise GraphFormatError("expected LF line endings")
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise GraphFormatError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError("first line must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError("first line must hold two integers") from exc
    if n < 0 or m < 0:
        raise GraphFormatError("n and m must be non-negative")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"n={n} exceeds the limit of {MAX_VERTICES} vertices")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    lists: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id") from exc
        if not 0 <= u < v < n:
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {lineno}: vertex id out of range")
            raise GraphFormatError(f"line {lineno}: edges must be written u < v")
        key = u * n + v
        if key in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        lists[u].append(v)
        lists[v].append(u)
    return Graph._trusted(n, [tuple(sorted(l)) for l in lists])


def format_edge_list(g: Graph) -> str:
    """Canonical serialization; parse(format(g)) == g."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"
