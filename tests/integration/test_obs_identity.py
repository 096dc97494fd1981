"""Observability must never change results: obs on == obs off, bit for bit.

The acceptance property of the observability plane: enabling
``REPRO_OBS`` / ``REPRO_OBS_TRACE`` yields the same violations, the
same stats counters, and the same cycle count as an unobserved run.
RunMetrics identity is checked on every point of the {Base, DVMC} x
{oltp, jbb} mix.
"""

import pytest

from repro.config import SystemConfig
from repro.parallel import (
    RunMetrics,
    RunSpec,
    execute_run_spec,
    last_run_obs,
    run_points,
)
from repro.system.builder import build_system
from repro.verify.trace import Trace, load_jsonl, record_program
from repro.workloads.suite import make_program

SPEC = RunSpec(SystemConfig.protected().with_seed(3), "oltp", 80)
MIX = [
    pytest.param(RunSpec(config.with_seed(3), workload, 80), id=f"{name}-{workload}")
    for name, config in (
        ("base", SystemConfig.unprotected()),
        ("dvmc", SystemConfig.protected()),
    )
    for workload in ("oltp", "jbb")
]


def run_reports(config, workload="oltp", ops=80):
    system = build_system(config, workload=workload, ops=ops)
    result = system.run()
    reports = [
        (r.checker, r.cycle, r.node, r.kind, r.detail)
        for r in result.violations
    ]
    return system, result, reports


class TestObsIdentity:
    @pytest.mark.parametrize("spec", MIX)
    def test_metrics_bit_identical_when_observed(self, monkeypatch, spec):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        base = execute_run_spec(spec)
        monkeypatch.setenv("REPRO_OBS", "1")
        observed = execute_run_spec(spec)
        # Full deterministic payload: cycles, completion, violations,
        # events and every stats counter (RunMetrics equality covers
        # all of them; the obs field is excluded by design).
        assert base == observed
        assert base.counters == observed.counters
        assert base.obs is None
        assert observed.obs is not None

    def test_violation_reports_identical(self, monkeypatch):
        config = SystemConfig.protected().with_seed(5)
        monkeypatch.delenv("REPRO_OBS", raising=False)
        _, plain_result, plain_reports = run_reports(config)
        monkeypatch.setenv("REPRO_OBS", "1")
        system, obs_result, obs_reports = run_reports(config)
        assert plain_reports == obs_reports
        assert plain_result.cycles == obs_result.cycles
        assert system.obs.enabled

    def test_trace_recording_is_transparent(self, monkeypatch, tmp_path):
        # Past 4096 events: a bounded tail of the trace is rejected by
        # the offline oracle (a load whose writer was cut off reads as
        # ``no-writer``), so the file must hold every event.
        spec = RunSpec(SPEC.config, "oltp", 500)
        monkeypatch.delenv("REPRO_OBS", raising=False)
        monkeypatch.delenv("REPRO_OBS_TRACE", raising=False)
        base = execute_run_spec(spec)

        trace_file = tmp_path / "deep" / "trace.jsonl"
        monkeypatch.setenv("REPRO_OBS_TRACE", str(trace_file))
        config = spec.config
        reference = Trace()
        programs = [
            record_program(
                n,
                make_program(
                    "oltp", n, config.num_nodes, config.model, config.seed,
                    spec.ops,
                ),
                reference,
            )
            for n in range(config.num_nodes)
        ]
        system = build_system(config, programs=programs)
        result = system.run()
        traced = RunMetrics(
            cycles=result.cycles,
            completed=result.completed,
            violations=len(result.violations),
            events_processed=system.scheduler.events_processed,
            counters=system.stats.counters(),
        )
        assert traced == base
        assert len(reference.events) > 4096
        assert load_jsonl(str(trace_file)).events == reference.events

    def test_snapshot_layers_cover_every_subsystem(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        observed = execute_run_spec(SPEC)
        layers = observed.obs["layers"]
        assert layers["scheduler"]["events_processed"] > 0
        assert layers["scheduler"]["pending"] >= 0
        assert layers["networks"]["data"]["messages_sent"] > 0
        assert layers["caches"]["l1.0"]["accesses"] > 0
        assert layers["dvmc"]["violations"] == observed.violations
        assert layers["dvmc"]["cc"]["informs_processed"] > 0
        assert layers["wakeups"]["waits_parked"] >= 0
        counters = observed.obs["counters"]
        assert counters["run.events_processed"] == observed.events_processed

    def test_pool_obs_reports_batch_metrics(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        run_points([SPEC, SPEC], jobs=1)
        batch = last_run_obs()
        assert batch["jobs"] == 1
        assert batch["specs"] == 2
        assert batch["task_s_total"] > 0
