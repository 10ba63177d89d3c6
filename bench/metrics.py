"""End-to-end metrics from the untraced run and per-layer metrics from the
spans of the traced run. Every metric is (value, unit, samples)."""

from __future__ import annotations

import resource
from collections import defaultdict
from statistics import median, quantiles

LAYERS = ("graph", "steiner", "bounds", "construct", "transforms", "families")
BUILDERS = ("cycle_graph", "path_graph", "min_degree_extremal", "triangle_free_extremal",
            "empty_graph", "sequential_sum")
BUDGET = "exceeded its move budget"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(setup_times, rounds) -> dict:
    """rounds: (wall seconds, outcomes) per round. Job times cover every
    attempted job, failed ones included: a user waited for them too.
    Throughput counts only jobs that succeeded; it is the median over rounds,
    which all hold the same job slots, so a burst of load from outside the
    process moves it less than a run-long mean."""
    outcomes = [o for _, batch in rounds for o in batch]
    times = [o.seconds * 1000 for o in outcomes]
    ok = sum(1 for o in outcomes if o.ok)
    return {
        "setup_s": (median(setup_times), "s", len(setup_times)),
        "jobs_per_s": (median(sum(o.ok for o in batch) / wall for wall, batch in rounds), "1/s",
                       len(rounds)),
        "job_p50_ms": (median(times), "ms", len(times)),
        "job_p90_ms": (quantiles(times, n=10, method="inclusive")[8], "ms", len(times)),
        "ok_ratio": (ok / len(outcomes), "ratio", len(outcomes)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }


def per_layer(spans, outcomes) -> dict:
    calls = defaultdict(list)
    in_job = defaultdict(float)
    for s in spans:
        if s.name == "job":
            continue
        calls[s.name].append(s)
        if s.job != "setup":
            in_job[s.name.split(".")[0]] += s.end - s.start
    job_time = sum(s.end - s.start for s in spans if s.name == "job")
    untraced = sum(o.seconds for o in outcomes)

    def pick(*names):
        return [s for name in names for s in calls[name]]

    def p50_ms(group):
        return (1000 * median(s.end - s.start for s in group) if group else 0.0, "ms", len(group))

    def per_s(group):
        busy = sum(s.end - s.start for s in group)
        return (sum(s.work for s in group) / busy if busy else 0.0, "1/s", len(group))

    index = pick("steiner.steiner_wiener", "steiner.avg_steiner_distance")
    checks = pick("bounds.check")
    checking_jobs = {s.job for s in checks}
    built = pick("construct.packing_spanning_tree", "construct.matching_spanning_tree")
    straighten = pick("transforms.straighten_to_path")
    metrics = {
        "steiner.subsets_per_s": per_s(index),
        "steiner.sw_ms": p50_ms(index),
        "steiner.weighted_ms": p50_ms(pick("steiner.steiner_wiener_weighted")),
        "steiner.tree_ms": p50_ms(pick("steiner.steiner_wiener_weighted_tree")),
        "bounds.check_ms": p50_ms(checks),
        "bounds.checks_per_job": (len(checks) / len(checking_jobs) if checking_jobs else 0.0,
                                  "count", len(checking_jobs)),
        "graph.parse_ms": p50_ms(pick("graph.parse_edge_list")),
        "graph.parse_edges_per_s": per_s(pick("graph.parse_edge_list")),
        "construct.packing_ms": p50_ms(pick("construct.packing_spanning_tree")),
        "construct.matching_ms": p50_ms(pick("construct.matching_spanning_tree")),
        "construct.verify_ms": p50_ms(pick("construct.verify_certificate")),
        "construct.anchors": (sum(s.work for s in built if s.error is None), "count", len(built)),
        "transforms.straighten_ms": p50_ms(straighten),
        "transforms.moves": (sum(s.work for s in straighten if s.error is None), "count",
                             len(straighten)),
        "transforms.budget_failures": (sum(1 for s in straighten if s.error and BUDGET in s.error),
                                       "count", len(straighten)),
        "families.build_ms": p50_ms(pick(*(f"families.{b}" for b in BUILDERS))),
    }
    for layer in LAYERS:
        metrics[f"{layer}.busy_share"] = (in_job[layer] / job_time, "ratio", len(outcomes))
    metrics["cli.self_share"] = ((untraced - sum(in_job.values())) / untraced, "ratio",
                                 len(outcomes))
    metrics["trace.overhead_pct"] = (100 * (job_time - untraced) / untraced, "%", len(outcomes))
    return metrics
