"""Differential fuzz driver tests: classification, codecs, campaigns."""

import json
import os
import subprocess
import sys

import pytest

from repro.fuzz import (
    FuzzCase,
    case_key,
    classify,
    plan_campaign,
    run_case,
    run_fuzz_campaign,
    shrink_case,
    write_reproducer,
)
from repro.workloads.litmus_gen import classics

SUMMARY = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "bench_summary.py"
)


def test_classify_matrix():
    assert classify(True, True, True) == "agree_clean"
    assert classify(False, False, True) == "agree_violation"
    assert classify(False, True, True) == "online_only"
    assert classify(True, False, True) == "missed_violation"
    assert classify(True, True, False) == "undecided"
    assert classify(False, False, False) == "undecided"


def test_case_json_round_trip():
    cases = [
        FuzzCase(model="TSO", seed=7),
        FuzzCase(model="SC", seed=1, litmus="st0.1,ld1;st1.9,ld0", name="SB"),
        FuzzCase(
            model="RMO",
            seed=3,
            nodes=3,
            ops=25,
            fault="wb-reorder",
            fault_cycle=5000,
        ),
    ]
    for case in cases:
        data = json.loads(json.dumps(case.to_json()))
        assert FuzzCase.from_json(data) == case


def test_fatal_outcomes():
    litmus = classics()[0].encode()
    clean = run_case(FuzzCase(model="TSO", seed=1, litmus=litmus))
    assert clean.outcome == "agree_clean" and not clean.fatal


@pytest.mark.parametrize("model", ["SC", "TSO", "PSO", "RMO"])
def test_classics_agree_on_every_model(model):
    for spec in classics()[:4]:
        case = FuzzCase(
            model=model, seed=2, litmus=spec.encode(), name=spec.name
        )
        result = run_case(case)
        assert not result.fatal, (spec.name, model, result.detail)


def test_plan_campaign_shape_and_determinism():
    a = plan_campaign(litmus_count=12, fault_runs=3, random_runs=2, seed=5)
    b = plan_campaign(litmus_count=12, fault_runs=3, random_runs=2, seed=5)
    assert a == b
    litmus = [c for c in a if c.litmus is not None]
    faults = [c for c in a if c.fault is not None]
    randoms = [c for c in a if c.litmus is None and c.fault is None]
    assert len(litmus) == 12 * 4  # every spec runs once per model
    assert len(faults) == 3
    assert len(randoms) == 2


@pytest.fixture(scope="module")
def small_campaign(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("campaign")
    cases = plan_campaign(litmus_count=6, fault_runs=1, random_runs=1, seed=5)
    report = run_fuzz_campaign(
        cases, jobs=1, corpus_dir=str(tmp_path), reproducer_dir=str(tmp_path)
    )
    return cases, report


def test_small_campaign_runs_clean(small_campaign):
    cases, report = small_campaign
    assert report.summary["cases"] == len(cases)
    assert report.summary["missed_violation"] == 0
    # online_only is legitimate for the fault-injected case (DVMC
    # detecting the landed fault); it is fatal only without a fault.
    assert not report.new_mismatches
    # The --stats-out JSON (read by bench_summary.py --fuzz) keeps its
    # shape: summary and outcome keys, hub counter and histogram names.
    outcomes = [
        "agree_clean",
        "agree_violation",
        "online_only",
        "missed_violation",
        "undecided",
    ]
    assert list(report.summary) == (
        ["cases"] + outcomes + ["mismatches", "mismatches_known", "shrink_steps"]
    )
    assert list(report.outcomes) == outcomes
    assert sum(report.outcomes.values()) == len(cases)
    hub = report.hub_snapshot
    assert sorted(hub) == ["counters", "gauges", "histograms"]
    assert list(hub["counters"]) == sorted(
        ["fuzz.cases", "fuzz.mismatches", "fuzz.mismatches.known",
         "fuzz.shrink.steps"]
        + [f"fuzz.outcome.{name}" for name in outcomes]
    )
    assert hub["counters"]["fuzz.cases"] == len(cases)
    assert hub["gauges"] == {}
    assert list(hub["histograms"]) == [
        "fuzz.oracle.branches",
        "fuzz.trace.events",
    ]
    assert hub["histograms"]["fuzz.trace.events"]["count"] == len(cases)


def test_fuzz_summary_renders_stats_file(small_campaign, tmp_path):
    _, report = small_campaign
    stats = tmp_path / "fuzz_stats.json"
    # Written exactly as ``repro.cli fuzz --stats-out`` writes it.
    stats.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True))
    done = subprocess.run(
        [sys.executable, SUMMARY, "--fuzz", str(stats)],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = done.stdout.splitlines()
    rows = [line for line in lines if line.startswith("| `")]
    keys = ["cases"] + list(report.outcomes)
    assert rows == [f"| `{key}` | {report.summary[key]:,} |" for key in keys]
    assert (
        f"**Mismatches**: {len(report.mismatches)} total, "
        f"{len(report.new_mismatches)} new "
        f"(corpus holds {report.corpus_size:,} known reproducers); "
        f"campaign took {report.elapsed_seconds} s"
    ) in lines


def test_reproducer_file_name_is_stable(tmp_path):
    case = FuzzCase(model="TSO", seed=9, litmus="st0.1,ld1;st1.9,ld0")
    p1 = write_reproducer(case, "detail", str(tmp_path))
    p2 = write_reproducer(case, "detail", str(tmp_path))
    assert p1 == p2
    data = json.load(open(p1))
    assert FuzzCase.from_json(data["case"]) == case
    assert case_key(FuzzCase.from_json(data["case"])) == case_key(case)


def test_shrink_returns_original_when_no_mismatch():
    case = FuzzCase(model="TSO", seed=1, litmus=classics()[0].encode())
    shrunk, steps = shrink_case(case)
    assert shrunk == case  # nothing to shrink: the case does not mismatch
    assert steps >= 1
