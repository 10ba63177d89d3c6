"""Command line front end.

Exact values (integers, fractions like ``5/3``) go to stdout; notes and
error messages go to stderr. Exit codes: 0 success, 4 a checked bound or
certificate condition that fails; a refusal's code follows from its type
alone, in `main`: 2 for a file that cannot be read or written (OSError),
malformed input (GraphFormatError) and parameters outside a family's or a
bound's rules (UsageError), 3 for any other PreconditionError.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from math import comb
from pathlib import Path

from .bounds import BOUND_IDS, bound_rhs, check_all
from .construct import (
    certificate_to_json,
    matching_spanning_tree,
    packing_spanning_tree,
    verify_certificate,
)
from .errors import GraphFormatError, PreconditionError, UsageError
from .families import CLASSIC, LAYERED, classic, sweep_csv, tightness_sweep
from .graph import Graph, format_edge_list, parse_edge_list
from .steiner import _require_k, steiner_wiener_weighted
from .weights import WeightFn, parse_weight_file


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _family_graph(args) -> Graph:
    if args.family in LAYERED:
        return LAYERED[args.family].build(args.d, args.delta)
    return classic(args.family, args.size, args.size2)


def _add_graph_source(sub, require: bool = True) -> None:
    group = sub.add_mutually_exclusive_group(required=require)
    group.add_argument("--graph", metavar="FILE", help="edge-list file ('n m' header)")
    group.add_argument(
        "--family",
        choices=(*CLASSIC, *LAYERED),
        help="generate the graph instead of reading a file",
    )
    sub.add_argument("--size", type=int, help="size for classic families")
    sub.add_argument("--size2", type=int, help="second size (complete_bipartite)")
    sub.add_argument("--d", type=int, help="diameter for layered families")
    sub.add_argument("--delta", type=int, help="degree parameter for layered families")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swindex",
        description="exact subset-distance indices, tree constructions, and bound checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compute", help="index or average distance of a graph")
    _add_graph_source(p)
    p.add_argument("--k", type=int, default=2, help="subset size (default 2)")
    p.add_argument(
        "--metric",
        choices=("sw", "mu"),
        default="sw",
        help="sw: subset-distance total; mu: its average (default sw)",
    )
    wgroup = p.add_mutually_exclusive_group()
    wgroup.add_argument("--weights", metavar="FILE", help="per-vertex weight file ('v w' lines)")
    wgroup.add_argument("--uniform-weight", type=int, help="same weight on every vertex")
    p.set_defaults(func=cmd_compute)

    p = subs.add_parser("bound", help="evaluate a bound's right-hand side")
    p.add_argument("--which", required=True, choices=BOUND_IDS)
    p.add_argument("--n", type=int, help="vertex count")
    p.add_argument("--delta", type=int, help="minimum degree")
    p.add_argument("--k", type=int, help="subset size")
    p.add_argument("--N", type=int, help="total weight (weighted tree bound)")
    p.add_argument("--C", type=int, help="minimum weight (weighted tree bound)")
    p.set_defaults(func=cmd_bound)

    p = subs.add_parser("construct", help="build a spanning tree with a certificate")
    p.add_argument("--graph", metavar="FILE", required=True)
    p.add_argument("--method", required=True, choices=("packing", "matching"))
    p.add_argument("--start", type=int, default=0, help="first anchor (packing)")
    p.add_argument(
        "--start-edge", type=int, nargs=2, metavar=("U", "V"), help="first edge (matching)"
    )
    p.add_argument("--k", type=int, default=2, help="subset size for the index check")
    p.add_argument("--out", metavar="FILE", help="write the certificate JSON here")
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("generate", help="emit a family graph as an edge list")
    _add_graph_source(p, require=False)
    p.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("verify", help="check stated bounds against a graph")
    p.add_argument("--graph", metavar="FILE", required=True)
    p.add_argument("--k", type=int, default=2, help="subset size (default 2)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="check every applicable bound")
    group.add_argument("--which", choices=BOUND_IDS, help="check one bound")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("sweep", help="index-to-bound ratios across diameters")
    p.add_argument("--family", required=True, choices=tuple(LAYERED))
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--d-min", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    return parser


def cmd_compute(args) -> int:
    g = parse_edge_list(Path(args.graph).read_text()) if args.graph else _family_graph(args)
    weights = WeightFn.uniform(g.n)
    if args.weights is not None:
        weights = parse_weight_file(Path(args.weights).read_text(), g.n)
    elif args.uniform_weight is not None:
        if args.uniform_weight < 0:
            raise GraphFormatError("uniform weight must be non-negative")
        weights = WeightFn.uniform(g.n, args.uniform_weight)
    sw = steiner_wiener_weighted(g, weights, args.k)
    print(sw if args.metric == "sw" else Fraction(sw, comb(weights.total, args.k)))
    return 0


def cmd_bound(args) -> int:
    print(bound_rhs(args.which, n=args.n, delta=args.delta, k=args.k, N=args.N, C=args.C))
    return 0


def cmd_construct(args) -> int:
    g = parse_edge_list(Path(args.graph).read_text())
    _require_k(args.k, g.n)
    if args.method == "packing":
        cert = packing_spanning_tree(g, start=args.start)
    else:
        start_edge = tuple(args.start_edge) if args.start_edge else None
        cert = matching_spanning_tree(g, start_edge=start_edge)
    if args.out:
        Path(args.out).write_text(certificate_to_json(cert) + "\n")
    print("anchors", *("-".join(map(str, group)) for group in cert.groups()))
    reports = verify_certificate(cert, g, k=args.k)
    for rep in reports:
        print(rep)
    if all(rep.passed for rep in reports):
        print("result PASS")
        return 0
    print("result FAIL")
    return 4


def cmd_generate(args) -> int:
    if not args.family:
        raise UsageError("generate needs --family")
    text = format_edge_list(_family_graph(args))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    g = parse_edge_list(Path(args.graph).read_text())
    failed = False
    for name, rep in check_all(g, args.k, [args.which] if args.which else BOUND_IDS):
        if isinstance(rep, str):
            print(f"skip {name}: {rep}", file=sys.stderr)
            continue
        print(rep)
        failed |= not rep.passed
    return 4 if failed else 0


def cmd_sweep(args) -> int:
    rows = tightness_sweep(args.family, args.delta, args.k, range(args.d_min, args.d_max + 1))
    text = sweep_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for row in rows:
        if row.has_triangle:
            print(f"note: d={row.d} contains triangles", file=sys.stderr)
    return 0


# main's parser, built once per process: parse_args leaves it unchanged,
# and build_parser still hands every other caller a parser of its own
_parser = cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.func(args)
    except (OSError, GraphFormatError, UsageError) as exc:
        _err(str(exc))
        return 2
    except PreconditionError as exc:
        _err(str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
