import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from swindex import (
    BOUND_IDS,
    BOUNDS,
    Graph,
    PreconditionError,
    applicable,
    bound_rhs,
    check,
    check_all,
    complete_graph,
    cycle_graph,
    path_graph,
    steiner_wiener,
)
from swindex.cli import main
from swindex.errors import UsageError
from swindex.graph import require_connected
from swindex.steiner import _require_k

from ensembles import random_connected_bipartite, random_connected_graph, random_tree
from oracles import theorem4_expanded, theorem5_expanded


def test_evaluator_values():
    assert bound_rhs("eq1", n=7) == 56
    assert bound_rhs("eq1", n=4) == 10
    assert bound_rhs("eq2", n=5) == 15
    assert bound_rhs("eq2", n=6) == 27
    assert bound_rhs("theorem1", n=10, k=3) == 660
    assert bound_rhs("theorem1", n=4, k=2) == 10
    assert bound_rhs("theorem3", n=7, delta=1) == Fraction(231, 2)
    assert bound_rhs("theorem3", n=16, delta=5) == 560
    assert bound_rhs("theorem4", n=16, delta=5, k=2) == 1120
    assert bound_rhs("theorem4", n=7, delta=1, k=2) == Fraction(399, 2)
    assert bound_rhs("theorem5", n=9, delta=2, k=2) == 480
    assert bound_rhs("theorem5", n=6, delta=2, k=3) == 330
    assert bound_rhs("corollary1", n=16, delta=5, k=2) == Fraction(1120, comb(16, 2))
    assert bound_rhs("corollary2", n=9, delta=2, k=2) == Fraction(480, comb(9, 2))


def test_theorems_compose_lemma2():
    # the rows read lemma 2 on the anchor tree; they equal the expanded
    # closed forms everywhere, delta = 0 included for theorem 4 (a one-vertex
    # certificate reads it there)
    t4, t5 = BOUNDS["theorem4"].rhs, BOUNDS["theorem5"].rhs
    for n in range(1, 60):
        for k in range(1, n + 1):
            for delta in range(n + 2):
                assert t4(n, delta, k) == theorem4_expanded(n, delta, k), (n, delta, k)
                if delta:
                    assert t5(n, delta, k) == theorem5_expanded(n, delta, k), (n, delta, k)


def test_bound_rhs_dispatch():
    assert bound_rhs("eq1", n=7) == 56
    assert bound_rhs("eq2", n=5) == 15
    assert bound_rhs("theorem1", n=10, k=3) == 660
    assert bound_rhs("theorem3", n=7, delta=1) == Fraction(231, 2)
    assert bound_rhs("lemma2", N=3, C=1, k=2) == 4
    assert bound_rhs("theorem4", n=16, delta=5, k=2) == 1120
    assert bound_rhs("theorem5", n=9, delta=2, k=2) == 480
    assert bound_rhs("corollary1", n=16, delta=5, k=2) == Fraction(
        1120, comb(16, 2)
    )
    with pytest.raises(PreconditionError):
        bound_rhs("theorem4", n=16, k=2)  # delta missing
    with pytest.raises(PreconditionError):
        bound_rhs("nosuch", n=3)


VALID = {"n": 9, "delta": 2, "k": 3, "N": 9, "C": 1}
# one value per parameter outside its domain: k > n, and k > N for lemma2
OUT_OF_DOMAIN = {"delta": 0, "k": 10, "N": 2, "C": 0}


def _flags(params: dict) -> list[str]:
    return [tok for name, value in params.items() for tok in (f"--{name}", str(value))]


@pytest.mark.parametrize(
    "which, name", [(which, name) for which in BOUND_IDS for name in BOUNDS[which].needs]
)
def test_table_domain_checks(which, name):
    row = BOUNDS[which]
    assert bound_rhs(which, **VALID) > 0
    missing = {key: VALID[key] for key in row.needs if key != name}
    with pytest.raises(UsageError, match=f"--{name}"):
        bound_rhs(which, **missing)
    assert main(["bound", "--which", which, *_flags(missing)]) == 2
    # n = 0 everywhere, n = 2 for the 2-connected bound
    bad = dict(VALID, **{name: OUT_OF_DOMAIN.get(name, row.min_n - 1)})
    with pytest.raises(UsageError):
        bound_rhs(which, **bad)
    assert main(["bound", "--which", which, *_flags(bad)]) == 2


def test_unknown_bounds_are_not_usage_errors():
    with pytest.raises(PreconditionError, match="unknown bound") as info:
        bound_rhs("theorem9", n=3)
    assert not isinstance(info.value, UsageError)
    with pytest.raises(PreconditionError, match="unknown bound") as info:
        check_all(path_graph(4), 2, ["theorem9"])
    assert not isinstance(info.value, UsageError)


def test_applicability():
    p4 = path_graph(4)
    ok, reason = applicable(p4, "eq2", 2)
    assert not ok and "2-connected" in reason
    ok, _ = applicable(cycle_graph(5), "eq2", 2)
    assert ok
    ok, reason = applicable(complete_graph(4), "theorem5", 2)
    assert not ok and "triangle" in reason
    ok, reason = applicable(cycle_graph(4), "lemma2", 2)
    assert not ok and "tree" in reason
    ok, reason = applicable(p4, "theorem1", 9)
    assert not ok
    two = Graph.from_edges(3, [(0, 1)])
    for name in BOUND_IDS:
        ok, reason = applicable(two, name, 2)
        assert not ok and "disconnected" in reason


def test_refusal_notes_read_as_the_rules_raise():
    # verify prints these notes on exit 0; they must not drift from the
    # texts require_connected and _require_k raise for compute
    two_components = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(PreconditionError) as raised:
        require_connected(two_components)
    assert applicable(two_components, "eq1", 2) == (False, str(raised.value))
    with pytest.raises(PreconditionError) as raised:
        _require_k(8, 7)
    ok, reason = applicable(path_graph(7), "theorem1", 8)
    assert not ok and reason and str(raised.value).startswith(reason)


def test_check_all_proves_connectivity_once(searches):
    # one search proves connectivity, after which lemma2's tree check reads
    # the edge count and the connectivity held on the graph; eq2's
    # 2-connectivity test walks branches, and a tree's SW_2 and SW_3 come
    # from the edge-cut formula
    tree = random_tree(30, random.Random(97))
    reports = check_all(tree, 3)
    assert len(searches) <= 1
    assert [name for name, _ in reports] == list(BOUND_IDS)
    searches.clear()
    # the cycle adds one all-pairs matrix, 12 rows, for both SW_2 and SW_4
    check_all(cycle_graph(12), 4)
    assert len(searches) <= 13


def test_check_all_refuses_unknown_names():
    for names in (["theorem9"], ["eq1", "theorem9"], ("nosuch",)):
        with pytest.raises(PreconditionError, match="unknown bound"):
            check_all(path_graph(4), 2, names)
    # the name is refused before the graph is looked at
    with pytest.raises(PreconditionError, match="unknown bound 'theorem9'"):
        check_all(Graph.from_edges(3, [(0, 1)]), 2, ["theorem9"])
    with pytest.raises(PreconditionError, match="unknown bound"):
        check(path_graph(4), "theorem9", 2)


def test_applicable_agrees_with_check_all():
    rng = random.Random(101)
    graphs = [Graph.from_edges(1, []), Graph.from_edges(3, [(0, 1)]), complete_graph(4)]
    graphs += [random_connected_graph(rng.randint(2, 9), rng, extra=0.3) for _ in range(20)]
    for g in graphs:
        for k in (1, 3, 10):
            for name, report in check_all(g, k):
                reason = report if isinstance(report, str) else ""
                assert applicable(g, name, k) == (not reason, reason)


def test_check_tight_cases():
    rep = check(path_graph(7), "eq1", 2)
    assert rep.passed and rep.slack == 0
    rep = check(path_graph(7), "theorem1", 2)
    assert rep.passed and rep.slack == 0
    rep = check(cycle_graph(5), "eq2", 2)
    assert rep.passed and rep.slack == 0
    rep = check(path_graph(7), "lemma2", 3)
    assert rep.passed and rep.slack == 0  # unit-weight path meets the tree bound
    with pytest.raises(PreconditionError):
        check(complete_graph(4), "theorem5", 2)


def test_corollaries_scale_theorems():
    g = cycle_graph(6)
    for k in (2, 3):
        t4 = check(g, "theorem4", k)
        c1 = check(g, "corollary1", k)
        assert c1.rhs == t4.rhs / comb(g.n, k)
        assert c1.measured == t4.measured / comb(g.n, k)
        assert c1.passed == t4.passed


def test_corollaries_are_average_theorem_rows():
    for theorem, corollary in (("theorem4", "corollary1"), ("theorem5", "corollary2")):
        assert BOUNDS[corollary] == replace(BOUNDS[theorem], average=True)
        for n in range(2, 12):
            for k in range(1, n + 1):
                for delta in range(1, n):
                    params = {"n": n, "delta": delta, "k": k}
                    assert bound_rhs(corollary, **params) == bound_rhs(
                        theorem, **params
                    ) / comb(n, k)


def test_bound_ids_keep_their_order():
    assert BOUND_IDS == (
        "eq1",
        "eq2",
        "theorem1",
        "theorem3",
        "lemma2",
        "theorem4",
        "corollary1",
        "theorem5",
        "corollary2",
    )
    assert [name for name in BOUND_IDS if BOUNDS[name].lead] == [
        "theorem4",
        "corollary1",
        "theorem5",
        "corollary2",
    ]


# the abstract's two growth terms, (k-1)/(k+1) * 3n/(delta+1) * C(n, k) and
# (k-1)/(k+1) * 2n/delta * C(n, k)
ABSTRACT_TERMS = {
    "theorem4": lambda n, delta, k: Fraction((k - 1) * 3 * n, (k + 1) * (delta + 1)) * comb(n, k),
    "theorem5": lambda n, delta, k: Fraction((k - 1) * 2 * n, (k + 1) * delta) * comb(n, k),
}


@pytest.mark.parametrize("which", sorted(ABSTRACT_TERMS))
def test_lead_is_the_abstracts_term(which):
    lead = BOUNDS[which].lead
    for n in range(1, 40):
        for k in range(1, n + 1):
            for delta in range(1, n + 2):
                assert lead(n, delta, k) == ABSTRACT_TERMS[which](n, delta, k), (n, delta, k)


@pytest.mark.parametrize("which", sorted(ABSTRACT_TERMS))
def test_lead_is_the_whole_growth_term(which):
    # what the RHS holds beyond `lead` is a constant per k-set: it does not
    # change with n
    row = BOUNDS[which]

    def rest(n, delta, k):
        return (row.rhs(n, delta, k) - row.lead(n, delta, k)) / comb(n, k)

    for n in range(1, 30):
        for k in range(1, n + 1):
            for delta in range(1, n + 2):
                assert rest(n, delta, k) == rest(n + 1, delta, k), (n, delta, k)


def test_report_string_shape():
    rep = check(path_graph(4), "eq1", 2)
    text = str(rep)
    assert text.startswith("eq1 PASS measured=10 rhs=10 slack=0")
    rep = check(path_graph(4), "theorem4", 2)
    assert "vacuous" in str(rep)  # small n, bound above the trivial ceiling


def test_all_bounds_hold_on_random_graphs():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(3, 8)
        g = random_connected_graph(n, rng)
        k = rng.randint(2, min(n, 4))
        for name in BOUND_IDS:
            ok, _ = applicable(g, name, k)
            if ok:
                assert check(g, name, k).passed, (name, g.edges(), k)


def test_wiener_path_hits_eq1_only_at_paths():
    # equality case of the order-only bound is the path
    for n in range(2, 9):
        assert Fraction(steiner_wiener(path_graph(n), 2)) == bound_rhs("eq1", n=n)
        if n >= 4:
            assert Fraction(steiner_wiener(cycle_graph(n), 2)) < bound_rhs("eq1", n=n)


def test_pair_bound_is_k2_special_case():
    for n in range(2, 30):
        assert bound_rhs("theorem1", n=n, k=2) == bound_rhs("eq1", n=n)


def test_triangle_free_bound_on_random_bipartite():
    rng = random.Random(67)
    for _ in range(30):
        n = rng.randint(3, 8)
        g = random_connected_bipartite(n, rng)
        k = rng.randint(2, min(n, 4))
        assert check(g, "theorem5", k).passed
        assert check(g, "corollary2", k).passed
