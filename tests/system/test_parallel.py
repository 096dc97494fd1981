"""Parallel run orchestrator: ordering, determinism, error surfacing."""

import dataclasses

import pytest

from repro.common.errors import ConfigError
from repro.config import SystemConfig
from repro.faults.campaign import run_campaign
from repro.faults.injector import FaultKind
from repro.parallel import (
    ParallelRunError,
    RunMetrics,
    RunSpec,
    execute_run_spec,
    resolve_jobs,
    run_points,
)
from repro.system.experiments import measure, replica_specs


def _double(spec):
    """Trivial picklable worker used by ordering/error tests."""
    return spec * 2


def _boom(spec):
    raise ValueError(f"boom on {spec}")


class TestResolveJobs:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_auto(self):
        assert resolve_jobs(0) >= 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ConfigError):
            resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            resolve_jobs(-2)


class TestRunPoints:
    def test_serial_path_preserves_order(self):
        assert run_points([3, 1, 2], jobs=1, worker=_double) == [6, 2, 4]

    def test_parallel_results_keyed_by_spec(self):
        specs = list(range(7))
        assert run_points(specs, jobs=2, worker=_double) == [
            s * 2 for s in specs
        ]

    def test_worker_exception_is_structured(self):
        with pytest.raises(ParallelRunError) as excinfo:
            run_points([1, 2], jobs=2, worker=_boom)
        assert excinfo.value.index in (0, 1)
        assert "boom" in excinfo.value.reason

    def test_serial_worker_exception_is_plain(self):
        # jobs=1 is the in-process path: no pool wrapping.
        with pytest.raises(ValueError):
            run_points([1], jobs=1, worker=_boom)

    def test_run_spec_round_trip(self):
        spec = RunSpec(SystemConfig.unprotected(num_nodes=2), "jbb", 40)
        metrics = execute_run_spec(spec)
        assert isinstance(metrics, RunMetrics)
        assert metrics.completed
        assert metrics.cycles > 0
        assert metrics.events_processed > 0
        assert metrics.counter_sum("l1.") > 0


class TestMeasureDeterminism:
    @pytest.mark.parametrize(
        "config, workload",
        [
            pytest.param(config, workload, id=f"{name}-{workload}")
            for name, config in (
                ("base", SystemConfig.unprotected(num_nodes=2)),
                ("dvmc", SystemConfig.protected(num_nodes=2)),
            )
            for workload in ("oltp", "jbb")
        ],
    )
    def test_parallel_equals_serial(self, config, workload):
        """jobs=2 and jobs=1 produce identical RunMetrics spec by spec
        (guards the orchestrator's ordering guarantee) on every point of
        the {Base, DVMC} x {oltp, jbb} mix."""
        specs = replica_specs(config, workload, ops=40, seeds=2)
        assert run_points(specs, jobs=2, cache=False) == run_points(
            specs, jobs=1, cache=False
        )

    def test_env_jobs_equals_serial(self, monkeypatch):
        config = SystemConfig.unprotected(num_nodes=2)
        serial = measure(config, "oltp", ops=40, seeds=2, jobs=1)
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = measure(config, "oltp", ops=40, seeds=2)
        assert dataclasses.asdict(serial) == dataclasses.asdict(parallel)


class TestCampaignDeterminism:
    def test_parallel_campaign_equals_serial(self):
        config = SystemConfig.protected(num_nodes=2)
        kwargs = dict(
            workload="jbb",
            ops=40,
            kinds=(FaultKind.MSG_DROP, FaultKind.MEM_DATA_FLIP),
            trials_per_kind=1,
            seed=5,
        )
        serial = run_campaign(config, jobs=1, **kwargs)
        parallel = run_campaign(config, jobs=2, **kwargs)
        assert [dataclasses.asdict(r) for r in serial] == [
            dataclasses.asdict(r) for r in parallel
        ]
