"""Child process that imports milnorbook from the checkout and runs jobs.

    python3 benchmark/worker.py setup --workload W
    python3 benchmark/worker.py run --workload W --jobs ARGV.json \\
        --seconds S --trace 0|1 --out RESULT.json --outcomes OUTCOMES.jsonl \\
        [--trace-file TRACE.json]

``setup`` times the import of the package after NumPy's (and, for ``plumbing-suite``, one
full enumeration of the verification suite, which the sweep script pays on
every run) and prints it as JSON.  ``run`` sets up the same way, then runs
the job list as a closed loop -- one client, each ``main(argv)`` call after
the previous one returns -- in passes until another would end after
``--seconds``, and at least three; with ``--trace 1`` every second pass is
traced, the others set the overhead baseline.  Only the ``main`` call is timed;
capturing and comparing outputs happens outside the timed interval.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import numpy

# Per-job medians need three passes to outvote one slowed by the host;
# with --trace 1 they run untraced, traced, untraced.
MIN_PASSES = 3

# Host speed is sampled between jobs at least this often (seconds).
CALIBRATE_EVERY = 0.05

# About the fastest calibrate() ran on the host the README baseline was
# measured on; reported times are in seconds of that host at that speed.
REFERENCE_CALIBRATION_S = 1.5e-3

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

_MATRIX = numpy.ones((3, 3))
_VECTOR = numpy.ones(3, dtype=complex)
# Bound now, so the traced run's numpy.linalg counters never see the loop.
_SVD = numpy.linalg.svd


def calibrate() -> float:
    """Seconds a fixed loop of interpreted Python and small NumPy calls
    takes now, best of two.

    The host's speed drifts by up to a factor of two for seconds to
    minutes at a time, and this loop slows with it.  Times are reported
    scaled by ``REFERENCE_CALIBRATION_S`` over the loop time measured next
    to them (see ``run.py``).
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(10000):
            total += i * i
        for _ in range(100):
            _SVD(_MATRIX, compute_uv=False)
            numpy.abs(_MATRIX @ _VECTOR).max()
        best = min(best, time.perf_counter() - start)
    return best


def set_up(workload: str, tracer=None) -> float:
    """Import the package from the checkout; returns the seconds it took.

    NumPy is imported with this module, before the clock starts: its
    import is not the package's work, takes most of the import time, and
    varies between runs by more than the package's own import takes.
    """
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import milnorbook.cli  # noqa: F401

    if not os.path.abspath(sys.modules["milnorbook"].__file__).startswith(SRC + os.sep):
        raise SystemExit(f"milnorbook was not imported from {SRC}")
    if workload == "plumbing-suite":
        if tracer is not None:
            tracer.install()
            tracer.job = "setup"
        from milnorbook.suites import SuiteSpec, iter_suite

        sum(1 for _ in iter_suite(SuiteSpec()))
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - start


def run_pass(argvs, record, tracer=None):
    """One closed-loop pass; hands each job's outcome to ``record`` and
    returns per-job latencies and the calibration time around each job."""
    from milnorbook import cli

    latencies = []
    speeds = [calibrate()]  # loop times, sampled between jobs
    before = []  # index into speeds of the sample taken before each job
    sampled_at = time.perf_counter()
    for job, argv in enumerate(argvs):
        if time.perf_counter() - sampled_at >= CALIBRATE_EVERY:
            speeds.append(calibrate())
            sampled_at = time.perf_counter()
        before.append(len(speeds) - 1)
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        if tracer is not None:
            tracer.job = job
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors exit 1
                code = exc.code
            except Exception as exc:  # an exception out of main is a failure
                error = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
        record(job, {"exit": code, "stdout": out.getvalue(),
                     "stderr": err.getvalue(), "error": error})
    speeds.append(calibrate())
    # Each job takes the mean of the samples either side of it.
    return latencies, [(speeds[i] + speeds[i + 1]) / 2 for i in before]


def _digest(outcome) -> str:
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()


def run(args) -> dict:
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    setup_speed = calibrate()
    set_up(args.workload, tracer)
    setup_speed = (setup_speed + calibrate()) / 2
    setup_trace = tracer.snapshot() if tracer else None
    with open(args.jobs, encoding="utf-8") as handle:
        argvs = json.load(handle)

    passes, traced_snapshots = [], []
    # The first pass's outcomes go to disk as they come and later passes
    # are compared by digest, so held reports do not inflate peak RSS.
    digests, changed = [], {}

    def one_pass(record):
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        latencies, speeds = run_pass(argvs, record, tracer if traced else None)
        if traced:
            tracer.uninstall()
            traced_snapshots.append(tracer.snapshot())
        passes.append({"traced": traced, "latencies": latencies, "speeds": speeds})

    def record_again(job, outcome):
        if _digest(outcome) != digests[job]:
            changed.setdefault(job, []).append(len(passes))

    begin = time.perf_counter()
    with open(args.outcomes, "w", encoding="utf-8") as handle:
        def record_first(job, outcome):
            handle.write(json.dumps(outcome) + "\n")
            digests.append(_digest(outcome))

        one_pass(record_first)
    while True:
        elapsed = time.perf_counter() - begin
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds:
            break
        one_pass(record_again)
    result = {
        "passes": passes,
        "changed": changed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        from tracing import summarize

        scales = [{"setup": REFERENCE_CALIBRATION_S / setup_speed}] + [
            {job: REFERENCE_CALIBRATION_S / speed for job, speed in enumerate(p["speeds"])}
            for p in passes if p["traced"]
        ]
        result["trace"] = {
            "setup": _jsonable(summarize(setup_trace, scales[0])),
            "passes": [_jsonable(summarize(snapshot, scale))
                       for snapshot, scale in zip(traced_snapshots, scales[1:])],
        }
        if args.trace_file:
            _write_trace(args.trace_file, setup_trace, traced_snapshots[0],
                         {**scales[0], **scales[1]})
    return result


def _jsonable(summary: dict) -> dict:
    return {key: dict(value) for key, value in summary.items()}


def _write_trace(path, setup, first, scale):
    """Raw spans of the set-up and the first traced pass, names interned,
    with each job's host-speed factor."""
    names = {}
    spans = []
    leaves = {}
    for snapshot in (setup, first):
        offset = len(spans)
        for name, start, end, parent, job in snapshot["spans"]:
            index = names.setdefault(name, len(names))
            spans.append([index, start, end, parent + offset if parent >= 0 else -1, job])
        for name, stat in snapshot["leaves"].items():
            leaves[name] = stat
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"names": list(names), "spans": spans, "leaves": leaves,
                   "scale": scale}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--jobs")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--outcomes")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        speed = calibrate()
        setup_s = set_up(args.workload)
        speed = (speed + calibrate()) / 2
        print(json.dumps({"setup_s": setup_s, "speed": speed}))
        return 0
    result = run(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
