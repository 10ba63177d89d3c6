"""The bound table: exact rational right-hand sides and graph-level checks.

`BOUNDS` maps each stable identifier (eq1, theorem4, ...) to one `Bound`
row: its formula, the parameters it needs, what it measures and when it
applies. `bound_rhs`, `applicable` and `check` read the row, and `_report`
builds every bound report, the certificate verifier's included; no other
code knows the individual bounds. One helper composes theorems 4 and 5 from
the lemma2 row. Every RHS is a Fraction computed with integer arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb
from typing import Callable

from .errors import PreconditionError, UsageError
from .graph import Graph, has_triangle, is_connected, is_tree, is_two_connected
from .steiner import _indices
from .weights import WeightFn

__all__ = [
    "BoundReport",
    "BOUNDS",
    "BOUND_IDS",
    "bound_rhs",
    "check",
    "check_all",
    "applicable",
]

_SLACK = {
    "le": lambda measured, rhs: rhs - measured,
    "ge": lambda measured, rhs: measured - rhs,
    "eq": lambda measured, rhs: -abs(measured - rhs),
}


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one checked condition.

    `slack` is oriented as a margin: the condition holds iff slack >= 0.
    `vacuous` marks upper bounds at or above the trivial ceiling.
    """

    name: str
    params: dict = field(compare=False)
    measured: Fraction
    rhs: Fraction
    slack: Fraction
    passed: bool
    vacuous: bool = False

    @classmethod
    def of(cls, name, measured, rhs, mode="le", params=None, vacuous=False) -> BoundReport:
        """Report on `measured <= rhs` (mode "le"), `>=` ("ge") or `==` ("eq")."""
        measured, rhs = Fraction(measured), Fraction(rhs)
        slack = _SLACK[mode](measured, rhs)
        return cls(name, params or {}, measured, rhs, slack, slack >= 0, vacuous)

    def __str__(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = " vacuous" if self.vacuous else ""
        return (
            f"{self.name} {tag} measured={self.measured} rhs={self.rhs} "
            f"slack={self.slack}{extra}"
        )


@dataclass(frozen=True)
class Bound:
    """One row of the bound table.

    `rhs` takes the parameters named in `needs`, in that order; the names are
    also the `bound` command's flags. A `pairs` bound measures the Wiener
    index (k = 2) whatever k is asked for; an `average` bound divides both
    sides by C(n, k). `requires` lists the structural conditions beyond
    connectivity, each with the reason `applicable` gives when it fails.
    `min_n` is the smallest order n in the formula's domain. `lead`, if set,
    is the part of `rhs` that grows with n: the term a sweep measures.
    """

    rhs: Callable[..., Fraction]
    needs: tuple[str, ...]
    pairs: bool = False
    average: bool = False
    requires: tuple[tuple[Callable[[Graph], bool], str], ...] = ()
    min_n: int = 1
    lead: Callable[..., Fraction] | None = None


def _lemma2(total: int, lightest: int, k: int) -> Fraction:
    """Lemma 2: the largest weighted Steiner k-Wiener index of a tree of
    total weight N and lightest weight C."""
    binom = comb(total, k)
    lead = Fraction(k - 1, k + 1) * Fraction(total + 1, lightest) * binom
    return lead + Fraction(lightest - 1, lightest) * binom


_MIN_DEGREE = (lambda g: g.n >= 2 and g.min_degree() >= 1, "needs minimum degree >= 1")
_TRIANGLE_FREE = (lambda g: not has_triangle(g), "graph contains a triangle")
_TREE = (is_tree, "graph is not a tree")


def _anchor_tree(names, stretch, lightest, extra, *requires) -> dict[str, Bound]:
    """Rows `names` of a theorem and its average corollary: a k-set's Steiner
    tree is at most `stretch` times its anchors' one on an anchor tree of
    total weight n and lightest weight lightest(delta), plus extra(k) edges."""
    row = Bound(
        lambda n, delta, k: stretch * _lemma2(n, lightest(delta), k) + extra(k) * comb(n, k),
        ("n", "delta", "k"),
        requires=(_MIN_DEGREE, *requires),
        lead=lambda n, delta, k: Fraction((k - 1) * stretch * n, (k + 1) * lightest(delta))
        * comb(n, k),
    )
    return dict(zip(names, (row, replace(row, average=True))))


BOUNDS: dict[str, Bound] = {
    # largest Wiener index of a connected graph; paths attain it
    "eq1": Bound(lambda n: Fraction(n + 1, 3) * comb(n, 2), ("n",), pairs=True),
    # largest Wiener index of a 2-connected graph; cycles attain it
    "eq2": Bound(
        lambda n: Fraction(n, 2) * (n * n // 4),
        ("n",),
        pairs=True,
        requires=((is_two_connected, "graph is not 2-connected"),),
        min_n=3,
    ),
    # largest Steiner k-Wiener index of a connected graph
    "theorem1": Bound(lambda n, k: Fraction((k - 1) * (n + 1), k + 1) * comb(n, k), ("n", "k")),
    # Wiener index via the minimum degree
    "theorem3": Bound(
        lambda n, delta: (Fraction(n, delta + 1) + 2) * comb(n, 2),
        ("n", "delta"),
        pairs=True,
        requires=(_MIN_DEGREE,),
    ),
    # largest weighted index of a tree with total weight N, minimum weight C
    "lemma2": Bound(_lemma2, ("N", "C", "k"), requires=(_TREE,)),
    # packing anchors weigh at least delta + 1, matched pairs at least 2 delta
    **_anchor_tree(("theorem4", "corollary1"), 3, lambda delta: delta + 1, lambda k: 2 * k),
    **_anchor_tree(("theorem5", "corollary2"), 4, lambda delta: 2 * delta, lambda k: 3 * k + 1,
                   _TRIANGLE_FREE),
}

BOUND_IDS = tuple(BOUNDS)


def _row(which: str) -> Bound:
    if which not in BOUNDS:
        raise PreconditionError(f"unknown bound '{which}'")
    return BOUNDS[which]


def bound_rhs(which: str, **params) -> Fraction:
    """Evaluate a bound's RHS from explicit parameters (the `bound` command).

    Parameters are named as in `BOUNDS[which].needs`: n, delta, k for graph
    bounds; N (total weight) and C (minimum weight) for the weighted tree
    bound. A missing or out-of-domain value raises UsageError, and an unknown
    bound a plain PreconditionError.
    """
    row = _row(which)
    for name in row.needs:
        if params.get(name) is None:
            raise UsageError(f"bound needs parameter --{name}")
    args = {name: params[name] for name in row.needs}
    low = {"n": row.min_n, "N": 1, "delta": 1, "C": 1, "k": 1}
    high = {"k": args.get("n", args.get("N"))}
    for name, value in args.items():
        if not low[name] <= value <= high.get(name, value):
            top = f" <= {high[name]}" if name in high else ""
            raise UsageError(
                f"bound '{which}' needs {low[name]} <= --{name}{top}, got {value}"
            )
    return _value(row, args)


def _value(row: Bound, args: dict) -> Fraction:
    """The row's RHS at args (keyed by its `needs`), per k-set if average."""
    value = row.rhs(*(args[name] for name in row.needs))
    return value / comb(args["n"], args["k"]) if row.average else value


def _report(which: str, measured: int, params: dict, name: str = "") -> BoundReport:
    """The report on the total index `measured` against bound `which` at
    params, named `name` or `which`; an average row divides both sides by
    C(n, k). Unlike `bound_rhs` it checks no domain: a one-vertex
    certificate reads theorem4 at delta = 0. It is vacuous when the RHS
    reaches (n - 1) * C(n, k'), k' = 2 for a pair row, as no k'-subset of a
    connected graph needs more than n - 1 edges (lemma2 reads N as n)."""
    row = BOUNDS[which]
    n = params["n"] if "n" in params else params["N"]
    scale = comb(n, params["k"]) if row.average else 1
    rhs = _value(row, params)
    ceiling = Fraction((n - 1) * comb(n, 2 if row.pairs else params["k"]), scale)
    return BoundReport.of(
        name or which, Fraction(measured) / scale, rhs, "le", params, vacuous=rhs >= ceiling
    )


def _refusals(g: Graph, k: int, names) -> dict[str, str]:
    """The reason each named bound does not apply to g, "" where it does."""
    if not is_connected(g):
        return dict.fromkeys(names, "graph is disconnected")
    out = {}
    for name in names:
        row = BOUNDS[name]
        if row.pairs:
            reason = "needs n >= 2 (Wiener index over pairs)" if g.n < 2 else ""
        else:
            reason = "" if 1 <= k <= g.n else f"k={k} out of range 1..{g.n}"
        out[name] = reason or next((need[1] for need in row.requires if not need[0](g)), "")
    return out


def applicable(g: Graph, which: str, k: int) -> tuple[bool, str]:
    """Whether a bound's structural precondition holds for g (with reason)."""
    _row(which)
    reason = _refusals(g, k, (which,))[which]
    return not reason, reason


def check(g: Graph, which: str, k: int = 2) -> BoundReport:
    """Measure the bounded quantity on g exactly and compare to the RHS."""
    ((_, report),) = check_all(g, k, (which,))
    if isinstance(report, str):
        raise PreconditionError(f"bound '{which}' not applicable: {report}")
    return report


def check_all(g: Graph, k: int, names=BOUND_IDS) -> list[tuple[str, BoundReport | str]]:
    """`check` each named bound, in BOUND_IDS order: pairs (name, report),
    or (name, reason) for a bound that does not apply. An unknown name
    raises PreconditionError. Connectivity is proved once, and every index
    the applicable bounds read, SW_2 or SW_k, is measured by one engine
    call."""
    for name in names:
        _row(name)
    refusals = _refusals(g, k, [x for x in BOUND_IDS if x in names])
    eff_k = {name: 2 if BOUNDS[name].pairs else k for name, why in refusals.items() if not why}
    measured = _indices(g, WeightFn.uniform(g.n), set(eff_k.values()))
    # lemma2 reads g as a unit-weight tree: total weight n, minimum weight 1
    known = {"n": g.n, "N": g.n, "C": 1, "k": k}
    out = []
    for name, reason in refusals.items():
        if reason:
            out.append((name, reason))
            continue
        params = {p: g.min_degree() if p == "delta" else known[p] for p in BOUNDS[name].needs}
        out.append((name, _report(name, measured[eff_k[name]], params)))
    return out
