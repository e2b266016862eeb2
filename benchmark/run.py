#!/usr/bin/env python3
"""Layered benchmark of milnorbook: one workload, one seed, one run.

    python3 benchmark/run.py --workload plumbing-large --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed`` under ``.bench_work/``, times
the package's set-up in fresh processes, runs the jobs through
``milnorbook.cli.main`` in a child process (see ``worker.py``), checks every
report against ``reference.py``, and prints a summary followed by one JSON
line: the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced pass with ``--trace 1``.  Exits non-zero without a result when the
package source is missing or a child fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reference import (  # noqa: E402
    check_contact_job,
    check_graph_job,
    check_known_failure,
    check_malformed_job,
)
from tracing import LAYERS  # noqa: E402
from worker import REFERENCE_CALIBRATION_S  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

SETUP_PROBES = 9  # fresh processes timed for setup_s, after one warm-up
CHILD_TIMEOUT = 150  # seconds; a run must end within 180

# Per-layer metrics reported with --trace 1: (name, unit).
LAYER_SELF = [f"{layer}.self_s" for layer in LAYERS]
FUNCTION_SELF = [f"{name}.self_s" for name in (
    "cli.build_parser", "graphs.load_graph", "graphs.is_negative_definite",
    "graphs.automorphism_group", "divisors.minimal_divisor",
    "divisors.oracle_minimal_divisor", "divisors.check_theorem_conditions",
    "openbooks.ubiquitous_open_book", "suites.iter_suite",
    "varieties.sample_points", "polynomials.evaluate", "contact.eval_forms",
    "contact.level_tangent_basis", "contact.check_spsh",
    "contact.rescaled_reeb_identity", "contact.lambda_cone_check",
    "contact.find_adaptation_constant", "contact.openbook_criterion_check")]
CALLS = [f"{name}.calls" for name in (
    "graphs.automorphism_group", "graphs.is_negative_definite",
    "graphs.intersection_matrix", "polynomials.evaluate")]
COUNTS = ["divisors.least_divisor_mass", "graphs.aut_order_sum",
          "divisors.oracle_box_rows", "suites.classes",
          "varieties.points_accepted", "contact.linalg_calls"]
PER_LAYER = ([(name, "s") for name in LAYER_SELF + FUNCTION_SELF]
             + [(name, "count") for name in CALLS + COUNTS]
             + [("varieties.sample_us_per_point", "us"),
                ("contact.linalg_calls_per_point", "calls/point"),
                ("trace_overhead_ratio", "ratio")])
END_TO_END = [("wall_s", "s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child(argv, timeout):
    done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise HarnessError(f"worker {argv[0]} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return done.stdout


def measure_setup(workload: str) -> list[float]:
    """Set-up seconds in fresh processes; the first warms caches, unreported."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        probe = json.loads(_child(["setup", "--workload", workload], timeout=60))
        samples.append(probe["setup_s"] * REFERENCE_CALIBRATION_S / probe["speed"])
    return samples[1:]


def _checked(check, job, outcome) -> str | None:
    try:
        return check(job, outcome)
    except (KeyError, TypeError, ValueError) as exc:  # unreadable report
        return f"report does not parse: {type(exc).__name__}: {exc}"


def check_job(job: dict, outcome: dict) -> str | None:
    if "contact" in job:
        return _checked(check_contact_job, job, outcome)
    if job.get("malformed"):
        return _checked(check_malformed_job, job, outcome)
    return _checked(check_graph_job, job, outcome)


def _quantile(values, fraction):
    """Nearest rank: at least ``(1 - fraction) * n`` values lie above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def tally(jobs, result):
    """Failures over every job of every pass.

    A job fails in each pass when its first-pass report is wrong, and in
    any later pass whose report differs from the first.  A failure is
    known only on a known-defect job whose first-pass outcome is exactly
    the recorded one, and only in the passes that repeat it; every other
    failure, a changed failure of a known-defect job included, is
    unexpected and turns ``correct`` false.  A correct answer passes.
    Returns ``(failed, unexpected, failures)``, the last a list of
    ``(job, reason, known)``.
    """
    changed = {int(k): v for k, v in result["changed"].items()}
    passes = len(result["passes"])
    failed = unexpected = 0
    failures = []
    for index, (job, outcome) in enumerate(zip(jobs, result["outcomes"])):
        wrong = check_job(job, outcome)
        drifted = len(changed.get(index, []))
        if not (wrong or drifted):
            continue
        bad = passes if wrong else drifted
        known = 0  # failed passes that repeat the recorded failure
        if wrong and "known_defect" in job:
            mismatch = _checked(check_known_failure, job, outcome)
            if mismatch is None:
                known = passes - drifted
            else:
                wrong += f" (not the recorded failure: {mismatch})"
        reasons = [wrong] if wrong else []
        if drifted:
            reasons.append("report differs between passes")
        failed += bad
        unexpected += bad - known
        failures.append((job, "; ".join(reasons), known == bad))
    return failed, unexpected, failures


def job_latencies(result, traced=False) -> list[float]:
    """Each job's median latency over the passes of one kind, in seconds
    of the reference host.

    The host's speed drifts by up to a factor of two, for seconds to
    minutes at a time.  Each latency is scaled by how much slower than its
    reference time a calibration loop ran next to the job, and the per-job
    median over passes run seconds apart discards what scaling misses.
    """
    passes = [[t * REFERENCE_CALIBRATION_S / speed
               for t, speed in zip(p["latencies"], p["speeds"])]
              for p in result["passes"] if p["traced"] == traced]
    return [statistics.median(times) for times in zip(*passes)]


def end_to_end(result, setup_samples) -> dict:
    latencies = job_latencies(result)
    return {
        "wall_s": sum(latencies),
        "job_p50_ms": 1000 * statistics.median(latencies),
        "job_p90_ms": 1000 * _quantile(latencies, 0.9),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup_samples),
    }


def per_layer(result) -> dict:
    """Times: median over traced passes.  Counts: the first traced pass
    (every pass runs the same jobs, so they repeat exactly).  The suite
    enumeration runs in set-up, so ``suites.*`` come from there."""
    trace = result["trace"]

    def sources(name):
        return [trace["setup"]] if name.split(".")[0] == "suites" else trace["passes"]

    def self_time(summary, name):
        if name in LAYERS:
            return sum(v for k, v in summary["self_s"].items() if k.startswith(name + "."))
        if name == "polynomials.evaluate":  # a leaf: its summed time
            return summary["total_s"].get(name, 0.0)
        return summary["self_s"].get(name, 0.0)

    metrics = {}
    for metric in LAYER_SELF + FUNCTION_SELF:
        name = metric.removesuffix(".self_s")
        metrics[metric] = statistics.median(self_time(s, name) for s in sources(name))
    for metric in CALLS:
        name = metric.removesuffix(".calls")
        metrics[metric] = sources(name)[0]["calls"].get(name, 0)
    for metric in COUNTS:
        metrics[metric] = sources(metric)[0]["counts"].get(metric, 0)
    first = trace["passes"][0]
    metrics["contact.linalg_calls"] = sum(
        v for k, v in first["calls"].items() if k.startswith("numpy.linalg."))
    points = metrics["varieties.points_accepted"]
    sampling = statistics.median(p["total_s"].get("varieties.sample_points", 0.0)
                                 for p in trace["passes"])
    metrics["varieties.sample_us_per_point"] = 1e6 * sampling / points if points else 0.0
    metrics["contact.linalg_calls_per_point"] = (
        metrics["contact.linalg_calls"] / points if points else 0.0)
    metrics["trace_overhead_ratio"] = (sum(job_latencies(result, traced=True))
                                       / sum(job_latencies(result)))
    return metrics


def run_benchmark(workload: str, seed: int, seconds: float, trace: int,
                  select=None) -> dict:
    """One run; ``select`` may trim or alter the job list (self-test only)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "milnorbook", "__init__.py")):
        raise HarnessError("no milnorbook source under src/ in this checkout")
    os.chdir(ROOT)
    base = os.path.join(".bench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(base, exist_ok=True)
    try:
        jobs = make_jobs(workload, seed, base)
        if select is not None:
            jobs = select(jobs)
        argv_path = os.path.join(base, "argv.json")
        with open(argv_path, "w", encoding="utf-8") as handle:
            json.dump([job["argv"] for job in jobs], handle)
        setup_samples = [] if trace else measure_setup(workload)
        out_path = os.path.join(base, "result.json")
        outcomes_path = os.path.join(base, "outcomes.jsonl")
        trace_path = os.path.join(".bench_work", f"trace-{workload}.json")
        _child(["run", "--workload", workload, "--jobs", argv_path,
                "--seconds", str(seconds), "--trace", str(trace),
                "--out", out_path, "--outcomes", outcomes_path,
                "--trace-file", trace_path],
               timeout=CHILD_TIMEOUT)
        with open(out_path, encoding="utf-8") as handle:
            result = json.load(handle)
        with open(outcomes_path, encoding="utf-8") as handle:
            result["outcomes"] = [json.loads(line) for line in handle]
    finally:
        shutil.rmtree(base, ignore_errors=True)
    failed, unexpected, failures = tally(jobs, result)
    metrics = per_layer(result) if trace else end_to_end(result, setup_samples)
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "workload": workload, "seed": seed, "jobs": jobs, "result": result,
        "setup_samples": setup_samples, "failures": failures,
        "report": {
            "correct": unexpected == 0,
            "attempted": len(jobs) * len(result["passes"]),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        },
    }


def summary_lines(run) -> list[str]:
    report, result = run["report"], run["result"]
    jobs, passes = run["jobs"], result["passes"]
    untraced = sum(not p["traced"] for p in passes)
    lines = [f"workload {run['workload']} seed {run['seed']}: {len(jobs)} jobs per "
             f"pass, {len(passes)} passes ({untraced} untraced), closed loop, "
             f"1 client"]
    per_job = f"{len(jobs)} jobs, each the median of {untraced} passes"
    samples = {"wall_s": f"sum over {per_job}",
               "job_p50_ms": per_job, "job_p90_ms": per_job,
               "peak_rss_mb": "1 child process",
               "setup_s": f"median of {len(run['setup_samples'])} processes"}
    for name, metric in report["metrics"].items():
        note = f"  ({samples[name]})" if name in samples else ""
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:40s} {shown} {metric['unit']}{note}")
    ratio = report["failed"] / report["attempted"]
    known = sum("known_defect" in job for job in jobs)
    raw = [f"{sum(p['latencies']):.3f}" for p in passes if not p["traced"]]
    lines.append(f"  {'raw wall per untraced pass':40s} {' '.join(raw)} s  "
                 f"(not scaled by host speed)")
    lines.append(f"  {'failed_ratio':40s} {ratio:.6g} ratio  ({report['failed']} of "
                 f"{report['attempted']} jobs; {known} known-defect inputs per pass)")
    for job, reason, known in run["failures"]:
        label = f"known defect ({job['known_defect']['why']})" if known else "UNEXPECTED"
        lines.append(f"  failed job {job['id']} {' '.join(job['argv'][:2])}: "
                     f"{reason} -- {label}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        run = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for line in summary_lines(run):
        print(line)
    print(f"  run took {time.perf_counter() - started:.1f} s")
    print(json.dumps(run["report"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
