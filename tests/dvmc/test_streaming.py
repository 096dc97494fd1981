"""Streaming verification plane: OpLog substrate and eager/batch identity."""

import dataclasses

import pytest

from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.common.types import MembarMask, OpType
from repro.config import SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.consistency.tables import table_for
from repro.dvmc.framework import ViolationLog
from repro.dvmc.reordering import _PLANS, AllowableReorderingChecker
from repro.dvmc.streaming import INITIAL_RECORDS, LOG_RECORDS, RECORD_WIDTH, OpLog
from repro.parallel import RunSpec, execute_run_spec


class TestOpLog:
    def test_buffer_grows_geometrically_up_to_capacity(self):
        log = OpLog()
        capacity = LOG_RECORDS * RECORD_WIDTH
        assert log.capacity == capacity
        assert len(log) == 0 and not log.full
        assert len(log.buf) == log.allocated == INITIAL_RECORDS * RECORD_WIDTH
        log.buf[RECORD_WIDTH] = 7
        log.length = 2 * RECORD_WIDTH  # two records appended by an owner
        sizes = [log.allocated]
        while log.allocated < capacity:
            log.grow()
            assert len(log.buf) == log.allocated <= capacity
            sizes.append(log.allocated)
        assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == capacity
        # Growth keeps the written records and the log's fill meaning.
        assert len(log) == 2 and not log.full
        assert log.stats() == {
            "records": 2,
            "capacity_records": LOG_RECORDS,
            "fill": 2 / LOG_RECORDS,
        }
        assert log.buf[RECORD_WIDTH] == 7

    @pytest.mark.parametrize("records", [3, INITIAL_RECORDS + 5])
    def test_growth_never_passes_capacity(self, records):
        log = OpLog(records=records)
        assert log.allocated == min(records, INITIAL_RECORDS) * RECORD_WIDTH
        while log.allocated < log.capacity:
            log.grow()
        assert log.allocated == log.capacity == len(log.buf)

    def test_custom_capacity_and_clear(self):
        log = OpLog(records=2)
        log.length = RECORD_WIDTH  # one record appended by an owner
        assert len(log) == 1
        assert not log.full
        log.length = 2 * RECORD_WIDTH
        assert log.full
        log.clear()
        assert len(log) == 0 and not log.full


class TestARCheckerLogModes:
    """The AR checker must report identically with and without a log."""

    def _checker(self, attach):
        sched = Scheduler()
        violations = ViolationLog()
        table = table_for(ConsistencyModel.TSO)
        checker = AllowableReorderingChecker(
            node=0,
            scheduler=sched,
            stats=StatsRegistry(),
            config=SystemConfig.protected(),
            table=lambda: table,
            violations=violations,
        )
        if attach:
            checker.attach_log(OpLog(records=4))  # tiny: forces mid-run drains
        return sched, checker, violations

    def _drive(self, sched, checker):
        """Stores performed out of program order under TSO (a violation)."""
        for cycle, (op, seq) in enumerate(
            [
                (OpType.STORE, 1),
                (OpType.LOAD, 2),
                (OpType.STORE, 3),
                (OpType.LOAD, 4),
                (OpType.STORE, 5),
            ]
        ):
            sched.now = cycle
            checker.committed(op, seq, cycle)
        # Perform youngest-first: under TSO store->store order this
        # must flag reordering violations in both modes.
        for op, seq in [
            (OpType.STORE, 5),
            (OpType.LOAD, 4),
            (OpType.STORE, 3),
            (OpType.LOAD, 2),
            (OpType.STORE, 1),
        ]:
            sched.now += 1
            checker.performed(op, seq, MembarMask.NONE)
        checker.check_outstanding()

    def test_log_and_eager_agree(self):
        sched_e, eager, violations_e = self._checker(attach=False)
        self._drive(sched_e, eager)
        sched_b, batch, violations_b = self._checker(attach=True)
        self._drive(sched_b, batch)
        def key(r):
            return (r.cycle, r.checker, r.node, r.kind, r.detail)

        assert sorted(map(key, violations_e.reports)) == sorted(
            map(key, violations_b.reports)
        )

    def test_outstanding_count_drains_log(self):
        _sched, checker, _violations = self._checker(attach=True)
        checker.committed(OpType.STORE, seq=1, cycle=0)
        assert checker.outstanding_count == 1

    @pytest.mark.parametrize("records", [4, INITIAL_RECORDS * 2 + 3])
    def test_drains_exactly_when_capacity_is_exceeded(self, records):
        """Growth is invisible to drain timing: the first drain happens
        when record ``capacity + 1`` arrives, never before."""
        _sched, checker, _violations = self._checker(attach=False)
        log = checker.attach_log(OpLog(records=records))
        checker.attach_obs()
        for seq in range(records):
            checker.committed(OpType.STORE, seq, cycle=seq)
        assert checker.obs_snapshot()["drains"] == 0
        assert len(log) == records and log.full
        assert log.allocated == log.capacity
        checker.committed(OpType.STORE, records, cycle=records)
        snap = checker.obs_snapshot()
        assert snap["drains"] == 1
        assert snap["drained_records"] == records
        assert snap["log_capacity_records"] == records
        assert len(log) == 1 and snap["outstanding"] == records


class TestSharedPlans:
    """Compiled AR plans are shared process-wide, per (table, op, mask)."""

    def _checker(self, table):
        return AllowableReorderingChecker(
            node=0,
            scheduler=Scheduler(),
            stats=StatsRegistry(),
            config=SystemConfig.protected(),
            table=lambda: table[0],
            violations=ViolationLog(),
        )

    def test_checkers_on_one_table_share_plan_objects(self):
        tso = [table_for(ConsistencyModel.TSO)]
        a, b = self._checker(tso), self._checker(tso)
        a.performed(OpType.STORE, 1, MembarMask.NONE)
        assert a.obs_snapshot()["compiled_plans"] == 1
        assert b.obs_snapshot()["compiled_plans"] == 0
        b.performed(OpType.STORE, 1, MembarMask.NONE)
        b.performed(OpType.LOAD, 2, MembarMask.NONE)
        key = (tso[0], OpType.STORE, MembarMask.NONE)
        assert a._plans[key] is b._plans[key] is _PLANS[key]
        assert a.obs_snapshot()["compiled_plans"] == 1
        assert b.obs_snapshot()["compiled_plans"] == 2

    def test_model_switch_checks_against_new_tables_plans(self):
        """PSTATE.MM switch mid-run: a store->store inversion is legal
        under PSO but a violation under TSO, on both sides of the
        switch and in both checker modes."""
        for attach in (False, True):
            table = [table_for(ConsistencyModel.PSO)]
            checker = self._checker(table)
            log = ViolationLog()
            checker.violations = log
            if attach:
                checker.attach_log(OpLog(records=4))
            checker.performed(OpType.STORE, 2, MembarMask.NONE)
            checker.performed(OpType.STORE, 1, MembarMask.NONE)
            checker.drain_log()
            assert log.reports == []
            table[0] = table_for(ConsistencyModel.TSO)
            checker.performed(OpType.STORE, 4, MembarMask.NONE)
            checker.performed(OpType.STORE, 3, MembarMask.NONE)
            checker.drain_log()
            assert [r.kind for r in log.reports] == ["illegal-reordering"]
            for tbl in (ConsistencyModel.PSO, ConsistencyModel.TSO):
                key = (table_for(tbl), OpType.STORE, MembarMask.NONE)
                assert checker._plans[key] is _PLANS[key]
            assert checker.obs_snapshot()["compiled_plans"] == 2


def _run_metrics(monkeypatch, eager: bool, workload: str):
    if eager:
        monkeypatch.setenv("REPRO_EAGER_CHECK", "1")
    else:
        monkeypatch.delenv("REPRO_EAGER_CHECK", raising=False)
    spec = RunSpec(
        SystemConfig.protected().with_seed(11), workload, ops=40
    )
    return execute_run_spec(spec)


class TestEagerBatchIdentity:
    """REPRO_EAGER_CHECK=1 and the default streaming plane must agree
    bit-for-bit: cycles, violation count, events, and every counter."""

    @pytest.mark.parametrize("workload", ["oltp", "barnes"])
    def test_full_run_identical(self, monkeypatch, workload):
        batch = _run_metrics(monkeypatch, eager=False, workload=workload)
        eager = _run_metrics(monkeypatch, eager=True, workload=workload)
        assert dataclasses.asdict(batch) == dataclasses.asdict(eager)

    def test_eager_env_disables_log(self, monkeypatch):
        from repro.system.builder import build_system

        monkeypatch.setenv("REPRO_EAGER_CHECK", "1")
        system = build_system(SystemConfig.protected().with_seed(1))
        assert all(ar._log is None for ar in system.dvmc.ar_checkers)
        monkeypatch.delenv("REPRO_EAGER_CHECK", raising=False)
        system = build_system(SystemConfig.protected().with_seed(1))
        assert all(ar._log is not None for ar in system.dvmc.ar_checkers)
