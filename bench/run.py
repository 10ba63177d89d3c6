"""Seeded in-process benchmark of the swindex command line.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0

Set-up imports swindex from the checkout's src/ and writes the first round
of inputs (repeated SETUP_REPS times; the median is setup_s). Rounds of
jobs then run back to back, one client in one thread, each job a call of
swindex.cli.main(argv) with stdout and stderr captured, until the summed
round time reaches --seconds. After each round, outside the timed region,
every output is checked (golden digests on the default seed, closed forms
and oracles on any seed). With --trace 1 each job also runs as a traced
replay of its public library calls, which gives the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics. A readable summary and the provenance go to stderr; the full
record and the spans go under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

from checks import check, check_limited
from metrics import BUDGET, end_to_end, per_layer
from replay import Tracer, first_line, replay, straighten_job
from workloads import WORKLOADS, Job, make_round

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1
SETUP_REPS = 15
# Rounds stored per workload: about 1.5 times what a 25 s run completes on a
# 2-core Xeon VM, so every job of a default-seed run there has a digest.
GOLDEN_ROUNDS = {"enumerate": 15, "certify": 60, "trees": 40}
UNTRACED = Tracer(False)


@dataclass
class Outcome:
    job: Job
    seconds: float
    code: int | None = None
    stdout: str = ""
    error: str | None = None
    problem: str | None = None
    mismatch: bool = False
    digest_checked: bool = False
    limited: bool = False

    @property
    def ok(self) -> bool:
        return self.problem is None and not self.limited

    def digest(self) -> str:
        if self.error is not None:
            return "error:" + self.error.split(":")[0]
        return f"{hashlib.sha256(self.stdout.encode()).hexdigest()[:16]}:{self.code}"


def import_fresh():
    """Import swindex and its CLI anew, as a new process would."""
    for name in [m for m in sys.modules if m == "swindex" or m.startswith("swindex.")]:
        del sys.modules[name]
    sw = importlib.import_module("swindex")
    importlib.import_module("swindex.cli")
    if not Path(sw.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"swindex was imported from {sw.__file__}, not from {SRC}")
    return sw


def execute(sw, job) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if job.argv is None:
                text, code = straighten_job(sw, job.params, UNTRACED), 0
            else:
                text, code = None, sw.cli.main(job.argv)
    except Exception as exc:  # no job may abort the run
        return Outcome(job, perf_counter() - start, error=first_line(exc))
    seconds = perf_counter() - start
    return Outcome(job, seconds, code, out.getvalue() if text is None else text)


def execute_traced(sw, job, tracer: Tracer, outcome: Outcome) -> None:
    """Replay job under the tracer and compare with the untraced outcome."""
    error = blob = None
    with tracer.job(job.id):
        try:
            text, blob = replay(sw, job, tracer)
        except Exception as exc:
            error = first_line(exc)
    if outcome.error is not None or error is not None:
        if (error or "").split(":")[0] != (outcome.error or "").split(":")[0]:
            outcome.problem, outcome.mismatch = f"replay raised {error}, CLI {outcome.error}", True
    elif text != outcome.stdout or (blob is not None and blob != Path(job.params["cert"]).read_text()):
        outcome.problem, outcome.mismatch = "replay output differs from the CLI", True


def judge(sw, outcome: Outcome, golden: dict) -> None:
    """Turn an outcome into a failure reason; mismatches also make the run
    incorrect. A job that raised in the golden run and succeeds now is not a
    mismatch: the independent checks judge its output.

    A straightening that stops with the library's move-budget error is the
    known defect of transforms.straighten_to_path, not a failure of the
    job: it is counted as budget-limited (it lowers ok_ratio and
    jobs_per_s, and transforms.budget_failures counts it exactly), so that
    the failed count reads only what went wrong unexpectedly."""
    if outcome.problem is None and outcome.error is not None:
        if outcome.job.kind == "straighten" and BUDGET in outcome.error:
            outcome.limited = True
            reason = check_limited(sw, outcome.job)
            if reason is not None:
                outcome.problem, outcome.mismatch = reason, True
        else:
            outcome.problem = outcome.error
    elif outcome.problem is None and outcome.code != 0:
        outcome.problem = f"exit code {outcome.code}"
    expected = golden.get(outcome.job.id)
    if expected is not None:
        outcome.digest_checked = True
        if expected != outcome.digest() and not expected.startswith("error:"):
            outcome.problem, outcome.mismatch = f"digest differs from golden ({expected[:12]})", True
    if outcome.error is None and not outcome.mismatch:
        try:
            reason = check(sw, outcome.job, outcome.stdout)
        except Exception as exc:
            reason = f"check raised {first_line(exc)}"
        if reason is not None:
            outcome.problem, outcome.mismatch = reason, True


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = head
        if head.startswith("ref: "):
            ref = head[5:]
            loose = ROOT / ".git" / ref
            if loose.is_file():
                commit = loose.read_text().strip()
            else:
                packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
                commit = next((l.split()[0] for l in packed if l.endswith(" " + ref)), commit)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def run(args) -> dict:
    workload, seed = args.workload, args.seed
    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden = golden_all.get(workload, {}) if seed == DEFAULT_SEED and not args.write_golden else {}
    out_dir = ROOT / ".bench_out"
    inputs = out_dir / f"inputs-{workload}-{seed}-{os.getpid()}"
    tracing = bool(args.trace)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            shutil.rmtree(inputs, ignore_errors=True)
            start = perf_counter()
            sw = import_fresh()
            tracer, families = Tracer(tracing), {}
            jobs = make_round(sw, tracer, workload, seed, 0, inputs, families)
            setup_times.append(perf_counter() - start)
        rounds, wall, r = [], 0.0, 0
        while True:
            start = perf_counter()
            batch = []
            for job in jobs:
                batch.append(execute(sw, job))
                if tracing:
                    execute_traced(sw, job, tracer, batch[-1])
            rounds.append((perf_counter() - start, batch))
            wall += rounds[-1][0]
            for outcome in batch:
                judge(sw, outcome, golden)
            shutil.rmtree(inputs / f"r{r}")
            r += 1
            if (r >= GOLDEN_ROUNDS[workload]) if args.write_golden else (wall >= args.seconds):
                break
            jobs = make_round(sw, tracer, workload, seed, r, inputs, families)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    outcomes = [o for _, batch in rounds for o in batch]
    if args.write_golden:
        if any(o.mismatch for o in outcomes):
            raise RuntimeError("outputs failed their checks; golden.json left unchanged")
        golden_all[workload] = {o.job.id: o.digest() for o in outcomes}
        golden_all["seed"] = DEFAULT_SEED
        GOLDEN.write_text(json.dumps(golden_all, indent=0, sort_keys=True) + "\n")
    if tracing:
        metrics = per_layer(tracer.spans, outcomes)
        tracer.dump(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    else:
        metrics = end_to_end(setup_times, rounds)
    failures = Counter(o.problem for o in outcomes if o.problem is not None)
    return {
        "workload": workload,
        "trace": args.trace,
        "provenance": provenance(seed),
        "rounds": r,
        "correct": not any(o.mismatch for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "budget_limited": sum(o.limited for o in outcomes),
        "digest_checked": sum(o.digest_checked for o in outcomes),
        "failures": dict(failures.most_common()),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }


def summarize(record: dict) -> None:
    err = sys.stderr
    print(f"workload {record['workload']} trace={record['trace']} rounds={record['rounds']}", file=err)
    for key, value in record["provenance"].items():
        print(f"  {key}: {value}", file=err)
    for name, m in record["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:6s} (n={m['samples']})", file=err)
    print(f"  attempted {record['attempted']}, failed {record['failed']}, "
          f"budget-limited {record['budget_limited']}, "
          f"digest-checked {record['digest_checked']}, correct {record['correct']}", file=err)
    for reason, count in record["failures"].items():
        print(f"  failure x{count}: {reason}", file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0, help="summed round time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help=f"run the stored rounds of seed {DEFAULT_SEED} and rewrite golden.json")
    args = ap.parse_args(argv)
    if not (SRC / "swindex" / "__init__.py").is_file():
        print(f"error: no swindex package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    record = run(args)
    path = ROOT / ".bench_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    summarize(record)
    result = {key: record[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
