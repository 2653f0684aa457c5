"""Tests of the benchmark's own checks; no splitmodel job is started.

    python3 -m pytest perfbench
"""

import hashlib
import json
import time

import run
import traced

CENSUS_ARGS = run.jobs_of("census-exhaustive")[0].args(run.PINNED_SEED)
SCHUBERT_ARGS = run.jobs_of("lattice-sampled")[0].args(run.PINNED_SEED)


def census_report(strata=((0, 0, 90), (0, 2, 40), (2, 2, 120)),
                  examined=5290, failures=0):
    return {"config": {"command": "census"}, "failures": failures,
            "census": {"params": {"examined": examined},
                       "strata": [{"h": h, "l": l, "count": c}
                                  for h, l, c in strata]}}


def schubert_report(passed=70, z_points=70, problems=()):
    return {"config": {"command": "schubert"}, "failures": 0,
            "phi": {"passed": passed, "z_points": z_points},
            "tau": {"problems": list(problems),
                    "cells": [{"cell": 1, "count": 100}]}}


def encode(report):
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def golden_for(args, report):
    return {" ".join(args): hashlib.sha256(encode(report)).hexdigest()}


def fake_spawn(outputs, err=f"{run.RSS_MARKER} 20480\n"):
    """Stand-in for run.spawn that returns the given (code, bytes) in turn."""
    queue = list(outputs)

    def spawn(argv, scratch):
        code, out = queue.pop(0)
        return run.Proc(code, out, err, 1.0, time.monotonic())
    return spawn


def test_good_report_has_no_problems():
    report = census_report()
    golden = golden_for(CENSUS_ARGS, report)
    assert run.report_problems(CENSUS_ARGS, 0, encode(report), golden) == []


def test_digest_mismatch_is_a_problem():
    golden = golden_for(CENSUS_ARGS, census_report())
    other = encode(census_report()) + b" "
    assert run.report_problems(CENSUS_ARGS, 0, other, golden)


def test_nonzero_exit_is_a_problem():
    assert run.report_problems(CENSUS_ARGS, 1, encode(census_report()), {})


def test_reported_failures_are_a_problem():
    report = census_report(failures=1)
    assert run.report_problems(CENSUS_ARGS, 0, encode(report), {})


def test_broken_invariants_are_problems():
    wrong_strata = census_report(strata=((0, 0, 91), (0, 2, 40), (2, 2, 120)))
    wrong_count = census_report(examined=5289)
    for report in (wrong_strata, wrong_count):
        assert run.report_problems(CENSUS_ARGS, 0, encode(report), {})
    for report in (schubert_report(passed=69), schubert_report(problems=[1])):
        assert run.report_problems(SCHUBERT_ARGS, 0, encode(report), {})


def test_failed_job_fails_its_pass(monkeypatch, tmp_path):
    jobs = run.jobs_of("census-exhaustive")
    report = census_report()
    golden = golden_for(CENSUS_ARGS, report)
    good, bad = (0, encode(report)), (1, encode(report))
    monkeypatch.setattr(run, "spawn", fake_spawn([good, bad]))
    ok = run.run_pass(jobs, 7, 0, tmp_path, golden, {})
    failed = run.run_pass(jobs, 7, 0, tmp_path, golden, {})
    assert ok["problems"] == [] and ok["items"] == 5290 and ok["rss_mb"] == 20
    assert failed["problems"]


def test_job_without_peak_rss_fails_its_pass(monkeypatch, tmp_path):
    jobs = run.jobs_of("census-exhaustive")
    monkeypatch.setattr(run, "spawn", fake_spawn([(0, encode(census_report()))],
                                                 err=""))
    assert run.run_pass(jobs, 7, 0, tmp_path, {}, {})["problems"]


def test_rerun_with_other_bytes_fails(monkeypatch, tmp_path):
    jobs = run.jobs_of("lattice-sampled")
    first, second = schubert_report(), schubert_report(passed=71, z_points=71)
    monkeypatch.setattr(run, "spawn", fake_spawn([(0, encode(first)),
                                                  (0, encode(second))]))
    seen = {}
    assert run.run_pass(jobs, 7, 1, tmp_path, {}, seen)["problems"] == []
    assert run.run_pass(jobs, 7, 1, tmp_path, {}, seen)["problems"]


def test_pass_seeds():
    assert run.pass_seed(5, 0) == run.PINNED_SEED
    assert run.pass_seed(5, 1) != run.pass_seed(6, 1)
    census, = run.jobs_of("census-exhaustive")
    assert census.args(1) == census.args(2)


def test_bypassed_layer_with_calls_is_a_problem():
    metrics = {name: 0 for name in run.BYPASSED["census-exhaustive"]}
    metrics["trace.unattributed_s"] = 0.5
    stats = [{"self_s": {"a": 1.0}, "root_s": 1.0}]
    assert run.trace_problems("census-exhaustive", metrics, stats) == []
    metrics["lattices.calls"] = 3
    assert run.trace_problems("census-exhaustive", metrics, stats)


def test_self_times_add_up():
    tracer = traced.Tracer()

    def leaf():
        time.sleep(0.002)

    def steps():
        for _ in range(3):
            leaf()
            yield

    def outer():
        time.sleep(0.002)
        for _ in steps():
            leaf()

    leaf = tracer.wrap("m.leaf", leaf)
    steps = tracer.wrap("n.steps", steps)
    outer = tracer.wrap("m.outer", outer)
    outer()
    stats = tracer.to_json_dict()
    # m stays open inside outer, so only outer enters it; n's four steps
    # (three items and the end) each enter n
    assert stats["entries"] == {"m": 1, "n": 4}
    assert abs(sum(stats["self_s"].values()) - stats["root_s"]) < 1e-9
    assert all(v >= 0 for v in stats["self_s"].values())
    assert stats["self_s"]["m.leaf"] > 0.01
