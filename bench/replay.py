"""Spans around calls into swindex, and the replay of each job as the
sequence of public calls the CLI makes.

The replay re-creates the CLI's stdout from those calls; the traced run
compares it with the stdout of the CLI job, so the spans decompose the same
work the untraced job did. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter


def first_line(exc: BaseException) -> str:
    text = str(exc).strip()
    return f"{type(exc).__name__}: {text.splitlines()[0] if text else ''}"


@dataclass
class Span:
    id: int
    parent: int | None
    job: str
    name: str
    start: float
    end: float = 0.0
    work: int | None = None
    error: str | None = None


class Tracer:
    """Records one span per call when enabled; otherwise only calls. Calls
    outside a job (input generation) carry the job id "setup"."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._job = "setup"
        self._parent: int | None = None

    def call(self, name: str, fn, *args, work: int | None = None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = Span(len(self.spans), self._parent, self._job, name, 0.0, work=work)
        self.spans.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span.error = first_line(exc)
            raise
        finally:
            span.end = perf_counter()

    def note(self, work: int) -> None:
        """Attach a work count known only after the last call returned."""
        if self.enabled:
            self.spans[-1].work = work

    @contextmanager
    def job(self, job_id: str):
        span = Span(len(self.spans), None, job_id, "job", perf_counter())
        self.spans.append(span)
        self._job, self._parent = job_id, span.id
        try:
            yield
        finally:
            span.end = perf_counter()
            self._job, self._parent = "setup", None

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def sweep_term(family: str, n: int, delta: int, k: int) -> Fraction:
    """Growth term of the bound a sweep row is divided by: the leading part
    of the minimum-degree bound for G, of the triangle-free bound for H."""
    per_set = Fraction(3 * n, delta + 1) if family == "G" else Fraction(2 * n, delta)
    return Fraction(k - 1, k + 1) * per_set * comb(n, k)


def _parse(sw, tr, params):
    text = Path(params["graph"]).read_text()
    return tr.call("graph.parse_edge_list", sw.graph.parse_edge_list, text,
                   work=text.count("\n") - 1)


def _weights(sw, tr, params, n):
    text = Path(params["weights"]).read_text()
    return tr.call("weights.parse_weight_file", sw.weights.parse_weight_file, text, n)


def straighten_job(sw, params, tr) -> str:
    """The library job: straighten a weighted tree into a path, price every
    move in closed form, and print the trace, the prices and the path."""
    k = params["k"]
    tree = _parse(sw, tr, params)
    w = _weights(sw, tr, params, tree.n)
    path, trace = tr.call("transforms.straighten_to_path", sw.transforms.straighten_to_path,
                          tree, w, k)
    tr.note(len(trace))
    deltas = [tr.call("transforms.relocation_sw_delta", sw.transforms.relocation_sw_delta,
                      mv, w, k) for mv in trace]
    moves = tr.call("transforms.moves_to_json", sw.transforms.moves_to_json, trace)
    edges = " ".join(f"{u}-{v}" for u, v in path.edges())
    return f"moves {moves}\ndeltas {' '.join(map(str, deltas))}\npath {edges}\n"


def replay(sw, job, tr) -> tuple[str, str | None]:
    """Stdout the CLI would print for job, and the certificate JSON it would
    write (construct only), rebuilt from public library calls."""
    p = job.params
    if job.kind == "straighten":
        return straighten_job(sw, p, tr), None
    if job.kind == "sweep":
        fam = sw.families
        build = fam.min_degree_extremal if p["family"] == "G" else fam.triangle_free_extremal
        rows = []
        for d in range(p["d_min"], p["d_max"] + 1):
            g = tr.call(f"families.{build.__name__}", build, d, p["delta"])
            total = tr.call("steiner.steiner_wiener", sw.steiner.steiner_wiener, g, p["k"],
                            work=comb(g.n, p["k"]))
            tri = tr.call("graph.has_triangle", sw.graph.has_triangle, g)
            term = sweep_term(p["family"], g.n, p["delta"], p["k"])
            rows.append(fam.SweepRow(d, g.n, total, term, Fraction(total) / term, tri))
        return tr.call("families.sweep_csv", fam.sweep_csv, rows), None
    g = _parse(sw, tr, p)
    k = p["k"]
    if job.kind == "compute":
        if "weights" not in p:
            fn = sw.steiner.steiner_wiener if p["metric"] == "sw" else sw.steiner.avg_steiner_distance
            return f"{tr.call(f'steiner.{fn.__name__}', fn, g, k, work=comb(g.n, k))}\n", None
        w = _weights(sw, tr, p, g.n)
        if tr.call("graph.is_tree", sw.graph.is_tree, g):
            fn = sw.steiner.steiner_wiener_weighted_tree
        else:
            fn = sw.steiner.steiner_wiener_weighted
        value = tr.call(f"steiner.{fn.__name__}", fn, g, w, k)
        if p["metric"] == "mu":
            value = Fraction(value, comb(w.total, k))
        return f"{value}\n", None
    if job.kind == "verify":
        lines = []
        for name in sw.bounds.BOUND_IDS:
            ok, _ = tr.call("bounds.applicable", sw.bounds.applicable, g, name, k)
            if ok:
                lines.append(f"{tr.call('bounds.check', sw.bounds.check, g, name, k)}\n")
        return "".join(lines), None
    if job.kind == "construct":
        con = sw.construct
        if p["method"] == "packing":
            cert = tr.call("construct.packing_spanning_tree", con.packing_spanning_tree, g, start=0)
            anchors = " ".join(str(a) for a in cert.anchors)
        else:
            cert = tr.call("construct.matching_spanning_tree", con.matching_spanning_tree, g,
                           start_edge=None)
            anchors = " ".join(f"{u}-{v}" for u, v in cert.anchors)
        tr.note(len(cert.anchors))
        reports = tr.call("construct.verify_certificate", con.verify_certificate, cert, g, k=k)
        blob = tr.call("construct.certificate_to_json", con.certificate_to_json, cert)
        verdict = "PASS" if all(rep.passed for rep in reports) else "FAIL"
        lines = [f"anchors {anchors}\n", *(f"{rep}\n" for rep in reports), f"result {verdict}\n"]
        return "".join(lines), blob + "\n"
    raise ValueError(f"unknown job kind {job.kind!r}")
