"""``REPRO_OBS_TRACE``: the whole run's memory operations as JSON Lines.

The builder wraps each core's program with ``record_program`` into a
plain :class:`~repro.verify.trace.Trace` and ``System.run`` writes it
with the shared codec, so the file is what the offline oracle reads.
"""

import pytest

from repro import obs
from repro.config import ProtocolKind, SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.oracle import verify_file
from repro.parallel import RunSpec, execute_run_spec
from repro.system.builder import build_system
from repro.verify.trace import load_jsonl

CONFIG = SystemConfig.protected().with_nodes(4).with_seed(3)


def traced_system(monkeypatch, path, ops=60):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.setenv("REPRO_OBS_TRACE", str(path))
    system = build_system(CONFIG, workload="oltp", ops=ops)
    system.run()
    return system


class TestTracePath:
    def test_empty_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_TRACE", raising=False)
        assert obs.trace_path() == ""

    def test_surrounding_whitespace_is_stripped(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_TRACE", "  out/t.jsonl \n")
        assert obs.trace_path() == "out/t.jsonl"


class TestTraceFile:
    def test_off_by_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_OBS_TRACE", raising=False)
        monkeypatch.chdir(tmp_path)
        system = build_system(CONFIG, workload="oltp", ops=40)
        system.run()
        assert system.obs_trace is None
        assert list(tmp_path.iterdir()) == []

    def test_written_without_the_metrics_hub(self, monkeypatch, tmp_path):
        path = tmp_path / "t.jsonl"
        system = traced_system(monkeypatch, path)
        assert not system.obs.enabled
        assert path.exists()

    def test_creates_missing_parent_directories(self, monkeypatch, tmp_path):
        path = tmp_path / "a" / "b" / "t.jsonl"
        traced_system(monkeypatch, path)
        assert path.exists()

    def test_file_holds_the_recorded_trace(self, monkeypatch, tmp_path):
        path = tmp_path / "t.jsonl"
        system = traced_system(monkeypatch, path)
        assert len(system.obs_trace.events) > 0
        assert load_jsonl(str(path)).events == system.obs_trace.events

    def test_every_core_in_program_order(self, monkeypatch, tmp_path):
        path = tmp_path / "t.jsonl"
        traced_system(monkeypatch, path)
        per_core = {}
        for event in load_jsonl(str(path)).events:
            per_core.setdefault(event.core, []).append(event.index)
        assert sorted(per_core) == list(range(CONFIG.num_nodes))
        for indices in per_core.values():
            assert indices == sorted(set(indices))

    def test_every_loaded_value_has_a_writer(self, monkeypatch, tmp_path):
        # A tail of the trace fails exactly here: a load whose store was
        # cut off reads as ``no-writer`` to the oracle.
        path = tmp_path / "t.jsonl"
        traced_system(monkeypatch, path, ops=200)
        events = load_jsonl(str(path)).events
        written = {
            (e.addr, e.value) for e in events if e.kind in ("store", "atomic")
        }
        for event in events:
            if event.kind == "load" and event.value != 0:
                assert (event.addr, event.value) in written

    def test_same_run_writes_identical_files(self, monkeypatch, tmp_path):
        first, second = tmp_path / "1.jsonl", tmp_path / "2.jsonl"
        traced_system(monkeypatch, first)
        traced_system(monkeypatch, second)
        assert first.read_bytes() == second.read_bytes()

    def test_clean_run_is_oracle_admissible(self, monkeypatch, tmp_path):
        path = tmp_path / "t.jsonl"
        traced_system(monkeypatch, path)
        verdict = verify_file(str(path), ConsistencyModel.TSO)
        assert verdict.decided
        assert verdict.admissible


@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_tracing_leaves_run_metrics_unchanged(monkeypatch, tmp_path, protocol):
    spec = RunSpec(SystemConfig.protected(protocol=protocol).with_seed(4), "jbb", 60)
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.delenv("REPRO_OBS_TRACE", raising=False)
    base = execute_run_spec(spec)
    monkeypatch.setenv("REPRO_OBS_TRACE", str(tmp_path / "t.jsonl"))
    traced = execute_run_spec(spec)
    assert traced == base
    assert traced.counters == base.counters
    # A trace alone builds no hub, so nothing is snapshotted.
    assert traced.obs is None
    assert (tmp_path / "t.jsonl").exists()
