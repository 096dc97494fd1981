"""Golden RunMetrics digests: the simulator's observable behaviour, pinned.

Every protocol x consistency model x workload point runs on a 4-node
``SystemConfig.protected()`` machine, and one ``run_trial`` is made per
``FaultKind``.  Each point stores a sha256 of its canonical-JSON
RunMetrics payload (cycles, completed, violations, events_processed and
every stat counter), with cycles, events and violations also kept in
the clear so a failure says what moved.  Fault trials additionally pin
the sorted ``(checker, node, kind, cycle)`` violation list.

A refactor that claims to leave the simulation unchanged must pass this
test without touching the fixture.  The fixture is regenerated only by
running this module as a script, from the repository root::

    PYTHONPATH=src python tests/integration/test_golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.config import ProtocolKind, SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.faults import campaign
from repro.faults.injector import ALL_FAULT_KINDS
from repro.system.builder import build_system
from repro.workloads import WORKLOAD_NAMES

FIXTURE = Path(__file__).resolve().parent.parent / "golden" / "runmetrics.json"

NODES = 4
OPS = 30
MAX_CYCLES = 5_000_000

#: Fault trials: one per kind on the same machine and program.
TRIAL_WORKLOAD = "oltp"
TRIAL_OPS = 150
TRIAL_INJECT_CYCLE = 3000
TRIAL_SEED = 5


def _canonical_digest(system, completed: bool) -> dict:
    """RunMetrics payload of a finished run, hashed and partly in clear."""
    payload = {
        "cycles": system.scheduler.now,
        "completed": completed,
        "violations": len(system.dvmc.violations),
        "events_processed": system.scheduler.events_processed,
        "counters": system.stats.counters(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {
        "cycles": payload["cycles"],
        "events_processed": payload["events_processed"],
        "violations": payload["violations"],
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }


def _point_ids():
    return [
        f"{protocol.value}-{model.value}-{workload}"
        for protocol in ProtocolKind
        for model in ConsistencyModel
        for workload in WORKLOAD_NAMES
    ]


def run_point(point_id: str) -> dict:
    protocol_name, model_name, workload = point_id.split("-")
    config = SystemConfig.protected(
        model=ConsistencyModel(model_name),
        protocol=ProtocolKind(protocol_name),
        num_nodes=NODES,
    )
    system = build_system(config, workload=workload, ops=OPS)
    result = system.run(max_cycles=MAX_CYCLES)
    return _canonical_digest(system, result.completed)


@contextmanager
def _capture_built_systems(sink: list):
    """Record every System that ``campaign.run_trial`` builds."""
    original = campaign.build_system

    def capturing(*args, **kwargs):
        system = original(*args, **kwargs)
        sink.append(system)
        return system

    campaign.build_system = capturing
    try:
        yield
    finally:
        campaign.build_system = original


def run_fault_trial(kind_value: str) -> dict:
    kind = next(k for k in ALL_FAULT_KINDS if k.value == kind_value)
    config = SystemConfig.protected(num_nodes=NODES)
    built: list = []
    with _capture_built_systems(built):
        trial = campaign.run_trial(
            config,
            TRIAL_WORKLOAD,
            TRIAL_OPS,
            kind,
            TRIAL_INJECT_CYCLE,
            seed=TRIAL_SEED,
        )
    (system,) = built
    entry = _canonical_digest(system, trial.completed)
    entry["landed"] = trial.landed
    entry["detector"] = trial.detector
    entry["detection_cycle"] = trial.detection_cycle
    entry["violation_list"] = sorted(
        [r.checker, r.node, r.kind, r.cycle]
        for r in system.dvmc.violations.reports
    )
    return entry


def generate() -> dict:
    return {
        "nodes": NODES,
        "ops": OPS,
        "points": {pid: run_point(pid) for pid in _point_ids()},
        "fault_trials": {
            kind.value: run_fault_trial(kind.value) for kind in ALL_FAULT_KINDS
        },
    }


def _load_fixture() -> dict:
    with FIXTURE.open() as fh:
        return json.load(fh)


def test_fixture_covers_every_point():
    golden = _load_fixture()
    assert golden["nodes"] == NODES and golden["ops"] == OPS
    assert sorted(golden["points"]) == sorted(_point_ids())
    assert sorted(golden["fault_trials"]) == sorted(
        kind.value for kind in ALL_FAULT_KINDS
    )


@pytest.mark.parametrize("point_id", _point_ids())
def test_run_metrics_digest(point_id):
    expected = _load_fixture()["points"][point_id]
    assert run_point(point_id) == expected


@pytest.mark.parametrize("kind_value", [k.value for k in ALL_FAULT_KINDS])
def test_fault_trial_digest(kind_value):
    expected = _load_fixture()["fault_trials"][kind_value]
    assert run_fault_trial(kind_value) == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    data = generate()
    with FIXTURE.open("w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE} ({len(data['points'])} points, "
          f"{len(data['fault_trials'])} fault trials)", file=sys.stderr)
