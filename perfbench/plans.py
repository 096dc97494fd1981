"""The benchmark's three workloads: what runs, and how each run is checked.

A *plan* is the fixed list of items one pass runs back to back in this
process: simulation points (``commercial``, ``sync``) or differential
fuzz cases (``differential``).  Plans depend only on the benchmark seed,
and the simulator receives only the programs generated from it.

Every item yields an :class:`Outcome`: its deterministic simulated
statistics (hashed into the pass digest), the counts the per-layer
ledger needs, and whether it failed.  A point fails when it does not
complete or reports a violation (no fault is ever injected into a
point); a case fails when its differential outcome is fatal
(``missed_violation``, or ``online_only`` without a fault).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import repro.fuzz as fuzz
from repro.config import ProtocolKind, SystemConfig
from repro.consistency.models import ConsistencyModel as M
from repro.parallel import RunMetrics, RunSpec
from repro.system.builder import RunResult, build_system
from repro.workloads import make_program
from repro.workloads.litmus_gen import LitmusSpec

DIR, SNOOP = ProtocolKind.DIRECTORY, ProtocolKind.SNOOPING

#: (profile, protocol, model, ops per core).  Every row runs twice, Base
#: and DVMC, on the same programs.  In ``commercial`` each profile meets
#: two models and each protocol all three, so no model rides on one
#: profile.  ``sync`` sizes slash and barnes apart so that barnes (~300
#: events per op) does not swamp the total.
POINT_ROWS: Dict[str, Tuple[Tuple[str, ProtocolKind, M, int], ...]] = {
    "commercial": (
        ("apache", DIR, M.SC, 250),
        ("apache", SNOOP, M.TSO, 250),
        ("oltp", DIR, M.RMO, 250),
        ("oltp", SNOOP, M.SC, 250),
        ("jbb", DIR, M.TSO, 250),
        ("jbb", SNOOP, M.RMO, 250),
    ),
    "sync": (
        ("slash", DIR, M.TSO, 100),
        ("slash", SNOOP, M.PSO, 100),
        ("barnes", DIR, M.PSO, 30),
        ("barnes", SNOOP, M.TSO, 30),
    ),
}

#: Program seeds per row: each point set runs again on independent
#: programs, so one run averages over more inputs.
SUBSEEDS = {"commercial": 4, "sync": 2}

#: ``differential``: litmus specs (each run under all four models),
#: fault-free random cases and fault-injected random cases.
FUZZ_PLAN = dict(litmus_count=200, random_runs=40, fault_runs=60)


@dataclass(frozen=True)
class Point:
    """One simulation point: a public :class:`RunSpec` plus the seed
    its programs are generated from."""

    spec: RunSpec
    seed: int
    dvmc: bool

    @property
    def ops(self) -> int:
        return self.spec.ops * self.spec.config.num_nodes

    @property
    def pair(self) -> Tuple:
        cfg = self.spec.config
        return (self.spec.workload, cfg.protocol.value, cfg.model.name, self.seed)


@dataclass
class Outcome:
    """What one point or case produced."""

    ops: int
    cycles: int
    completed: bool
    payload: Dict  # deterministic: hashed into the digest
    counts: Dict[str, float]  # per-layer ledger inputs
    build_s: float = 0.0
    wall_s: float = 0.0  # host time in the simulator, build included
    failure: Optional[str] = None
    pair: Optional[Tuple] = None
    dvmc: bool = True


def plan(workload: str, seed: int) -> List:
    """The items of one pass, in run order."""
    if workload == "differential":
        return fuzz.plan_campaign(seed=seed, **FUZZ_PLAN)
    items = []
    for sub in range(SUBSEEDS[workload]):
        for profile, protocol, model, ops in POINT_ROWS[workload]:
            for dvmc in (False, True):
                make = SystemConfig.protected if dvmc else SystemConfig.unprotected
                spec = RunSpec(make(model=model, protocol=protocol), profile, ops)
                items.append(Point(spec, seed * 1000 + sub, dvmc))
    return items


def requested_ops(item) -> int:
    """The fixed op count an item is normalised by: ops per core times
    cores for a point; the ops of the program threads for a case."""
    if isinstance(item, Point):
        return item.ops
    if item.litmus is not None:
        return sum(len(t) for t in LitmusSpec.decode(item.litmus).threads)
    return item.nodes * item.ops


def _system_counts(system, metrics: RunMetrics) -> Dict[str, float]:
    """Ledger inputs read from the machine's ``obs_snapshot()`` views."""
    wake = system.wake_hub.obs_snapshot()
    return {
        "parks": wake["waits_parked"],
        "wakes": wake["wakes"],
        "spurious": wake["spurious_wakeups"],
        "replays": sum(
            uo.obs_snapshot()["replays"] for uo in system.dvmc.uo_checkers
        ),
        "max_link_bytes": metrics.counter_max("net."),
    }


def _run_metrics(system, result) -> RunMetrics:
    return RunMetrics(
        cycles=result.cycles,
        completed=result.completed,
        violations=len(result.violations),
        events_processed=system.scheduler.events_processed,
        counters=system.stats.counters(),
    )


class Stopwatch:
    """Times the simulator's own calls, and traces them when given a
    profiler; the benchmark's bookkeeping around them stays outside."""

    def __init__(self, profile=None):
        self.profile = profile
        self.elapsed = 0.0

    def __enter__(self):
        if self.profile is not None:
            self.profile.enable()
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.elapsed += time.perf_counter() - self._start
        if self.profile is not None:
            self.profile.disable()


def run_point(point: Point, watch: Stopwatch) -> Outcome:
    cfg = point.spec.config
    programs = [
        make_program(
            point.spec.workload, n, cfg.num_nodes, cfg.model, point.seed,
            point.spec.ops,
        )
        for n in range(cfg.num_nodes)
    ]
    with watch:
        system = build_system(cfg, programs=programs)
    build_s = watch.elapsed
    with watch:
        result = system.run(
            max_cycles=point.spec.max_cycles, allow_incomplete=True
        )
    metrics = _run_metrics(system, result)
    counts = _system_counts(system, metrics)
    failure = None
    if not metrics.completed:
        failure = "did not complete"
    elif metrics.violations:
        failure = f"{metrics.violations} violation(s) with no fault injected"
    return Outcome(
        ops=point.ops,
        cycles=metrics.cycles,
        completed=metrics.completed,
        payload={"metrics": vars(metrics), "counts": counts},
        counts=counts,
        build_s=build_s,
        failure=failure,
        pair=point.pair,
        dvmc=point.dvmc,
    )


@contextlib.contextmanager
def capture_builds(sink: List):
    """Record every machine ``fuzz.run_case`` builds, with its build time.

    ``run_case`` returns only the verdict; the ledger and the digest
    also need the counters of the machine it ran.
    """
    original = fuzz.build_system

    def build(*args, **kwargs):
        start = time.perf_counter()
        system = original(*args, **kwargs)
        sink.append((system, time.perf_counter() - start))
        return system

    fuzz.build_system = build
    try:
        yield
    finally:
        fuzz.build_system = original


def run_case(case: fuzz.FuzzCase, watch: Stopwatch, built: List) -> Outcome:
    """One differential case through ``fuzz.run_case`` (machine, then
    oracle); must run inside :func:`capture_builds` over ``built``."""
    built.clear()
    with watch:
        verdict = fuzz.run_case(case)
    if len(built) != 1:
        raise RuntimeError(f"expected one machine per case, saw {len(built)}")
    system, build_s = built.pop()
    metrics = _run_metrics(system, RunResult(system))
    counts = _system_counts(system, metrics)
    counts["undecided"] = int(verdict.outcome == "undecided")
    if case.fault is not None:
        # The case's FaultInjector registers its flush as a finalizer of
        # the machine; its records say whether the fault landed.
        records = [
            record
            for fin in system.finalizers
            for record in getattr(getattr(fin, "__self__", None), "records", ())
        ]
        counts["faulted"] = 1
        counts["landed"] = int(any(r.landed for r in records))
    failure = None
    if verdict.fatal:
        failure = f"{verdict.outcome}: {case.describe()}"
    return Outcome(
        ops=requested_ops(case),
        cycles=metrics.cycles,
        completed=metrics.completed,
        payload={
            "metrics": vars(metrics),
            "counts": counts,
            "verdict": {
                k: v for k, v in vars(verdict).items() if k != "case"
            },
        },
        counts=counts,
        build_s=build_s,
        failure=failure,
    )


def run_item(item, built: List, profile=None) -> Outcome:
    """Run one item; a crash is a failed item, not a benchmark abort."""
    watch = Stopwatch(profile)
    try:
        if isinstance(item, Point):
            outcome = run_point(item, watch)
        else:
            outcome = run_case(item, watch, built)
    except Exception:  # noqa: BLE001 - counted as a failure and reported
        outcome = Outcome(
            ops=requested_ops(item),
            cycles=0,
            completed=False,
            payload={"crash": type(item).__name__},
            counts={},
            failure="crashed: " + traceback.format_exc(limit=3),
        )
    outcome.wall_s = watch.elapsed
    return outcome


def digest(outcomes: List[Outcome]) -> str:
    """sha256 over every item's simulated statistics, in plan order."""
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(json.dumps(outcome.payload, sort_keys=True).encode())
    return h.hexdigest()
