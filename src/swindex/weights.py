"""Per-vertex non-negative integer weights.

A weight c(v) is read as the number of copies of v in the copied vertex set;
vertices with weight 0 stay in the graph (they still carry distance) but
contribute no copies.
"""

from __future__ import annotations

from operator import index

from .errors import GraphFormatError, PreconditionError

__all__ = [
    "WeightFn",
    "as_weights",
    "parse_weight_file",
]


class WeightFn:
    __slots__ = ("_values", "total")

    def __init__(self, values) -> None:
        try:  # index, not int: a float or a string is refused, never truncated
            vals = tuple(map(index, values))
        except TypeError as exc:
            raise PreconditionError(f"weights must be integers: {exc}") from exc
        for i, v in enumerate(vals):
            if v < 0:
                raise PreconditionError(f"weight of vertex {i} is negative")
        self._values = vals
        self.total = sum(vals)

    @classmethod
    def uniform(cls, n: int, weight: int = 1) -> "WeightFn":
        return cls([weight] * n)

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "WeightFn":
        """(vertex, weight) pairs; unlisted vertices default to 0."""
        vals = [0] * n
        seen = set()
        for v, w in pairs:
            if not 0 <= v < n:
                raise PreconditionError(f"weighted vertex {v} out of range")
            if v in seen:
                raise PreconditionError(f"vertex {v} weighted twice")
            seen.add(v)
            vals[v] = w
        return cls(vals)

    def __getitem__(self, v: int) -> int:
        return self._values[v]

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightFn) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"WeightFn({list(self._values)})"

    def values(self) -> tuple[int, ...]:
        return self._values

    def weight_of(self, vertices) -> int:
        """Total weight of a vertex collection."""
        return sum(self._values[v] for v in vertices)

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, w in enumerate(self._values) if w > 0)

    def min_weight(self) -> int:
        if not self._values:
            raise PreconditionError("no vertices")
        return min(self._values)


def as_weights(weights, n: int) -> WeightFn:
    """Coerce a WeightFn, a plain sequence, or a single int (uniform)."""
    if isinstance(weights, int):
        return WeightFn.uniform(n, weights)
    wf = weights if isinstance(weights, WeightFn) else WeightFn(weights)
    if len(wf) != n:
        raise PreconditionError("weight vector length does not match graph")
    return wf


def parse_weight_file(text: str, n: int) -> WeightFn:
    """Parse `v w` lines; unlisted vertices weigh 0; duplicates rejected."""
    if not text.isascii():
        raise GraphFormatError("weight file must be ASCII")
    if "\r" in text:
        raise GraphFormatError("expected LF line endings")
    pairs = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line == "":
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'v w'")
        try:
            v, w = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: non-integer field") from exc
        if not 0 <= v < n:
            raise GraphFormatError(f"line {lineno}: vertex {v} out of range")
        if w < 0:
            raise GraphFormatError(f"line {lineno}: negative weight")
        pairs.append((v, w))
    try:
        return WeightFn.from_pairs(n, pairs)
    except PreconditionError as exc:
        raise GraphFormatError(str(exc)) from exc
