"""Fast self-test of the benchmark harness on a few cheap jobs per workload.

    python3 -m pytest benchmark/tests -q
"""

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def cheap(jobs):
    """A handful of the smallest jobs, including a known-defect input if
    the workload has a cheap one."""
    def cost(job):
        argv = job["argv"]
        if argv[0] == "contact":
            size = "--mesh" if argv[1] in ("adapt", "criterion") else "--samples"
            return int(argv[argv.index(size) + 1])
        return job["graph"].r + sum(job["graph"].genus)

    plain = [job for job in jobs if "known_defect" not in job]
    return sorted(plain, key=cost)[:4] + [job for job in jobs if job.get("malformed")][:1]


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_emitted(workload, trace):
    outcome = run.run_benchmark(workload, seed=3, seconds=0.1, trace=trace,
                                select=cheap)
    report = outcome["report"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(report["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert report["metrics"][metric["name"]]["unit"] == metric["unit"]
    passes = report["attempted"] // len(outcome["jobs"])
    assert passes >= 3
    assert report["correct"] is True
    assert all(known for _, _, known in outcome["failures"])
    assert report["failed"] % passes == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_answer_counts_as_failure(workload):
    def corrupt(jobs):
        jobs = [job for job in cheap(jobs) if "known_defect" not in job]
        target = jobs[0]
        if "contact" in target:
            target["contact"] = dict(target["contact"], samples=-1, mesh=-1)
        elif target["expect"].get("divisor"):
            wrong = list(target["expect"]["divisor"])
            wrong[0] += 1
            target["expect"] = dict(target["expect"], divisor=wrong)
        else:
            target["expect"] = dict(target["expect"], exit=target["expect"]["exit"] + 1)
        return jobs

    outcome = run.run_benchmark(workload, seed=3, seconds=0.1, trace=0, select=corrupt)
    report = outcome["report"]
    passes = report["attempted"] // len(outcome["jobs"])
    assert report["correct"] is False
    assert report["failed"] == passes
    assert [job["id"] for job, _, _ in outcome["failures"]] == [outcome["jobs"][0]["id"]]


def divisor_report(job, divisor):
    """A ``divisor --format structured`` report of ``divisor`` on the job's graph."""
    g = job["graph"]
    products = g.apply(divisor)
    result = {"divisor": divisor, "aut_invariant": True,
              "multiplicities": [-p for p in products],
              "slack": [c - p for c, p in zip(g.constraints(), products)],
              "zero_divisor": False, "multiplicities_positive": True,
              "satisfies_inequality": True}
    if "--oracle" in job["argv"]:
        result["oracle"] = {"bound": job["bound"], "agrees": True}
    return json.dumps({"command": "divisor", "config": {"file": job["argv"][1]},
                       "result": result})


def outcome(exit=None, stdout="", stderr="", error=None):
    return {"exit": exit, "stdout": stdout, "stderr": stderr, "error": error}


def tally(job, first, changed_passes=()):
    """``(failed, unexpected)`` of one job over three passes."""
    result = {"passes": [{}] * 3, "outcomes": [first],
              "changed": {"0": list(changed_passes)} if changed_passes else {}}
    failed, unexpected, _ = run.tally([job], result)
    return failed, unexpected


@pytest.fixture
def workdir():
    path = os.path.join(run.ROOT, ".bench_work", f"self-test-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def known_defect_jobs(workload, workdir):
    jobs = make_jobs(workload, 3, workdir)
    return {job["known_defect"]["why"].split()[0]: job
            for job in jobs if "known_defect" in job}


def test_known_defects_count_only_their_recorded_failure(workdir):
    """The seed's failure on a known-defect input is known; the correct
    answer passes; any other outcome is unexpected."""
    huge = known_defect_jobs("plumbing-large", workdir)["genus-10^6"]
    capped = outcome(3, stderr="internal invariant failure: descent cap")
    assert tally(huge, capped) == (3, 0)
    assert tally(huge, capped, changed_passes=[2]) == (3, 1)
    assert tally(huge, outcome(0, divisor_report(huge, [2 * 10**6]))) == (0, 0)
    assert tally(huge, outcome(0, divisor_report(huge, [10**6]))) == (3, 3)
    assert tally(huge, outcome(3, stderr="numerical finding: x")) == (3, 3)

    suite = known_defect_jobs("plumbing-suite", workdir)
    rejected = outcome(1, stderr="input error: malformed vertex")
    pairs = suite["2-element"]
    assert tally(pairs, outcome(error="ValueError: not enough values")) == (3, 0)
    assert tally(pairs, rejected) == (0, 0)
    assert tally(pairs, outcome(error="KeyError: 'euler'")) == (3, 3)
    assert tally(pairs, outcome(0, "{}")) == (3, 3)

    coerced = suite["non-integer"]
    read_as = coerced["known_defect"]["seen"]["job"]
    least = read_as["expect"]["divisor"]
    assert tally(coerced, outcome(0, divisor_report(read_as, least))) == (3, 0)
    assert tally(coerced, rejected) == (0, 0)
    assert tally(coerced, outcome(0, divisor_report(read_as, [x + 1 for x in least]))) == (3, 3)
    assert tally(coerced, outcome(error="ValueError: could not convert")) == (3, 3)
