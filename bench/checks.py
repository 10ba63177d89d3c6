"""Output checks that hold for any seed. They run after a round, outside
the timed region, and read only the job's output and its input files.

Each check returns None when the output agrees, else a one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path


def cycle_index(n: int, k: int) -> int:
    """Steiner k-Wiener index of C_n by enumeration: a terminal set spans
    the cycle minus its largest gap between consecutive terminals."""
    total = 0
    for combo in combinations(range(n), k):
        gaps = [b - a for a, b in zip(combo, combo[1:])] + [n - combo[-1] + combo[0]]
        total += n - max(gaps)
    return total


def path_index(n: int, k: int) -> int:
    """Steiner k-Wiener index of P_n: a set spans from its smallest to its
    largest vertex, and C(j-i-1, k-2) sets have extremes i < j."""
    return sum((j - i) * comb(j - i - 1, k - 2) for i in range(n) for j in range(i + 1, n))


def cycle_wiener(n: int) -> int:
    return sum(min(j - i, n - j + i) for i in range(n) for j in range(i + 1, n))


def _reports(text: str) -> dict:
    """The key=value fields of each bound report line, keyed by bound name."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[1] in ("PASS", "FAIL"):
            out[parts[0]] = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
    return out


def _tight(reports: dict, name: str, expected: int) -> str | None:
    if name not in reports:
        return f"{name} missing"
    fields = reports[name]
    measured, rhs = Fraction(fields["measured"]), Fraction(fields["rhs"])
    if not measured == rhs == expected:
        return f"{name} measured={measured} rhs={rhs}, closed form {expected}"
    return None


def _load(sw, params):
    g = sw.graph.parse_edge_list(Path(params["graph"]).read_text())
    w = None
    if "weights" in params:
        w = sw.weights.parse_weight_file(Path(params["weights"]).read_text(), g.n)
    return g, w


def check(sw, job, out: str) -> str | None:
    p = job.params
    if job.kind == "compute" and job.shape == "cycle" and "weights" not in p:
        value = cycle_index(job.n, p["k"])
        if p["metric"] == "mu":
            value = Fraction(value, comb(job.n, p["k"]))
        return None if out == f"{value}\n" else f"cycle index {out.strip()} != {value}"
    if job.kind == "verify" and job.shape == "cycle":
        return _tight(_reports(out), "eq2", cycle_wiener(job.n))
    if job.kind == "verify" and job.shape == "path":
        return _tight(_reports(out), "theorem1", path_index(job.n, p["k"]))
    if job.kind == "compute" and "weights" in p and job.shape != "tree":
        g, w = _load(sw, p)
        value = sw.steiner.steiner_wiener_weighted_naive(g, w, p["k"])
        if p["metric"] == "mu":
            value = Fraction(value, comb(w.total, p["k"]))
        return None if out == f"{value}\n" else f"weighted {out.strip()} != naive {value}"
    if job.kind == "straighten":
        return _check_straighten(sw, p, out)
    if job.kind == "construct":
        g, _ = _load(sw, p)
        text = Path(p["cert"]).read_text()
        cert = sw.construct.certificate_from_json(text)
        if sw.construct.certificate_to_json(cert) + "\n" != text:
            return "certificate does not round-trip through its JSON form"
        failed = [r.name for r in sw.construct.verify_certificate(cert, g, k=p["k"]) if not r.passed]
        if failed:
            return f"certificate re-verification failed: {' '.join(failed)}"
        return None if out.endswith("result PASS\n") else "construct did not print result PASS"
    return None


def check_limited(sw, job) -> str | None:
    """A straightening that ran out of its move budget: the input must be a
    tree that is not already a path, since a path needs no move at all."""
    tree, _ = _load(sw, job.params)
    if not sw.graph.is_tree(tree):
        return "straightening input is not a tree"
    if max((tree.degree(v) for v in range(tree.n)), default=0) <= 2:
        return "move budget exceeded on a tree that is already a path"
    return None


def _check_straighten(sw, params, out: str) -> str | None:
    """The moves must price out exactly: the closed-form deltas are all >= 0
    and add up to index(path) - index(tree), both by the tree formula."""
    tree, w = _load(sw, params)
    moves_line, deltas_line, path_line = out.splitlines()
    moves = json.loads(moves_line.split(" ", 1)[1])
    deltas = [int(x) for x in deltas_line.split()[1:]]
    edges = [tuple(map(int, e.split("-"))) for e in path_line.split()[1:]]
    path = sw.graph.Graph.from_edges(tree.n, edges)
    if not sw.graph.is_tree(path) or max((path.degree(v) for v in range(path.n)), default=0) > 2:
        return "straightening did not end in a path"
    if len(deltas) != len(moves):
        return f"{len(moves)} moves but {len(deltas)} deltas"
    if any(d < 0 for d in deltas):
        return "a relocation decreased the index"
    k = params["k"]
    gain = (sw.steiner.steiner_wiener_weighted_tree(path, w, k)
            - sw.steiner.steiner_wiener_weighted_tree(tree, w, k))
    return None if sum(deltas) == gain else f"sum of deltas {sum(deltas)} != index gain {gain}"
