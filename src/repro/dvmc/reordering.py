"""Allowable Reordering checker (paper Section 4.2).

Every instruction gets a sequence number at decode (its program-order
rank).  When an operation performs, the checker verifies that no
*younger* operation of a constrained type performed earlier, using one
``max{OP}`` counter per operation type — plus one counter per Membar
mask bit, so a Membar only constrains the access kinds its mask names.

Lost operations are detected by comparing committed against performed
operations at Membar points; because real Membars can be arbitrarily
rare, artificial membar checks are injected periodically (paper: about
one per 100k cycles, negligible cost, no effect on correctness).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict

from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.common.types import MembarMask, OpType, ViolationReport
from repro.config import SystemConfig
from repro.consistency.ordering_table import OrderingTable
from repro.obs.spans import K_AR

_MASK_BITS = (
    MembarMask.LOADLOAD,
    MembarMask.LOADSTORE,
    MembarMask.STORELOAD,
    MembarMask.STORESTORE,
)

#: Integer op codes carried by flight-recorder AR instants.
_OP_CODE = {op: i for i, op in enumerate(OpType)}


#: Process-wide memo of compiled check plans, keyed by
#: ``(table, op type, mask)``.  Ordering tables are long-lived
#: ``table_for`` singletons and :func:`_compile_plan` is pure, so every
#: checker on every machine shares one plan object per key.
_PLANS: Dict[tuple, tuple] = {}


def _compile_plan(table: OrderingTable, op_type: OpType, mask: MembarMask) -> tuple:
    """Fold the ordering-table lookups for (op_type, mask) into a
    flat comparison list, preserving the original check order."""
    first_mask = mask if op_type is OpType.MEMBAR else MembarMask.ALL
    access_targets = (
        op_type.access_types() if op_type is OpType.ATOMIC else (op_type,)
    )
    checks = []
    for target in access_targets:
        for second in table.op_types:
            if second is OpType.MEMBAR:
                # Per-bit counters: only membars whose mask shares a
                # bit with this cell constrain `target`.
                cell = table.cell(target, OpType.MEMBAR)
                for bit in _MASK_BITS:
                    if cell & bit & first_mask:
                        checks.append((target, OpType.MEMBAR, bit))
            elif table.ordered(target, second, first_mask=first_mask):
                checks.append((target, second, None))
    bar_bits = (
        [bit for bit in _MASK_BITS if mask & bit]
        if op_type is OpType.MEMBAR
        else []
    )
    return (tuple(checks), tuple(access_targets), tuple(bar_bits))


class AllowableReorderingChecker:
    """Per-core AR checker.

    ``table`` is provided through a zero-argument callable so that
    SPARC v9's runtime consistency-model switching (PSTATE.MM) is
    honoured: the checker always consults the table active *now*.
    """

    def __init__(
        self,
        node: int,
        scheduler: Scheduler,
        stats: StatsRegistry,
        config: SystemConfig,
        table: Callable[[], OrderingTable],
        violations: Callable[[ViolationReport], None],
    ):
        self.node = node
        self.scheduler = scheduler
        self.stats = stats
        self.config = config
        self.table = table
        self.violations = violations
        self._max: Dict[OpType, int] = {t: -1 for t in OpType}
        self._membar_bit_max: Dict[MembarMask, int] = {b: -1 for b in _MASK_BITS}
        #: Precompiled per-(table, op type, mask) check plans: the
        #: table/mask algebra in :meth:`performed` is a pure function
        #: of its arguments, so it is folded into a flat list of
        #: counter comparisons (shared through :data:`_PLANS`) the
        #: first time each combination is seen.  The per-checker view
        #: keeps the hot lookup local and backs ``compiled_plans``.
        self._plans: Dict[tuple, tuple] = {}
        #: committed-but-not-yet-performed operations, insertion ordered.
        self._outstanding: "OrderedDict[int, tuple]" = OrderedDict()
        self._stat_violations = f"ar.{node}.violations"
        self._stat_injected = f"ar.{node}.injected_membars"
        self._interval = config.dvmc.membar_injection_interval
        #: Set by the system builder; used by the progress watchdog.
        self.core = None
        #: Flight recorder (None unless REPRO_OBS_SPANS; see obs.spans).
        self.spans = None
        self._span_track = 0
        scheduler.post(self._interval, self._injected_membar_check)

    def attach_spans(self, spans) -> None:
        """Attach the flight recorder; AR verdicts share one track."""
        self.spans = spans
        self._span_track = spans.track("checker.ar")

    def obs_snapshot(self) -> dict:
        """Observable interface: checker state."""
        return {
            "outstanding": len(self._outstanding),
            "compiled_plans": len(self._plans),
            "injected_membars": self.stats.counter(self._stat_injected),
            "violations": self.stats.counter(self._stat_violations),
        }

    # -- event feed -----------------------------------------------------------
    def committed(self, op_type: OpType, seq: int, cycle: int) -> None:
        """An operation committed; it must eventually perform."""
        if op_type.is_memory_access():
            self._outstanding[seq] = (op_type, cycle)

    def performed(
        self, op_type: OpType, seq: int, mask: MembarMask, tid: int = 0
    ) -> None:
        """An operation performed; check it against the ordering table.

        ``tid`` is the op's flight-recorder trace id (0 when untraced).
        """
        cycle = self.scheduler.now
        self._outstanding.pop(seq, None)
        if tid:
            # The AR verdict point: this op's reorder window closed.
            self.spans.instant(
                tid, self._span_track, K_AR, cycle,
                _OP_CODE[op_type], seq, self.node,
            )
        table = self.table()
        key = (table, op_type, mask)
        plan = self._plans.get(key)
        if plan is None:
            plan = _PLANS.get(key)
            if plan is None:
                plan = _PLANS[key] = _compile_plan(table, op_type, mask)
            self._plans[key] = plan
        checks, targets, bar_bits = plan
        # ``bit is None`` entries compare against the per-type max;
        # membar entries compare against the per-mask-bit max.
        bit_max = self._membar_bit_max
        type_max = self._max
        for target, second, bit in checks:
            if bit is None:
                if type_max[second] > seq:
                    self._violate(target, second, seq, cycle)
            elif bit_max[bit] > seq:
                self._violate(target, OpType.MEMBAR, seq, cycle)
        # Update the max counters.
        for target in targets:
            if seq > type_max[target]:
                type_max[target] = seq
        for bit in bar_bits:
            if seq > bit_max[bit]:
                bit_max[bit] = seq

    # -- lost-operation detection ------------------------------------------------
    def check_outstanding(self) -> None:
        """Membar-point check: committed operations older than the
        injection interval should long since have performed."""
        now = self.scheduler.now
        stale = [
            (seq, op_type, cycle)
            for seq, (op_type, cycle) in self._outstanding.items()
            if now - cycle > self._interval
        ]
        for seq, op_type, cycle in stale:
            self._outstanding.pop(seq, None)
            self.stats.incr(self._stat_violations)
            detail = (
                f"{op_type.value} seq {seq} committed at cycle {cycle} "
                f"never performed"
            )
            s = self.spans
            if s is not None:
                s.violation("AR", self.node, now, seq=seq, detail=detail)
            self.violations(
                ViolationReport(
                    "AR",
                    now,
                    self.node,
                    "lost-operation",
                    detail,
                )
            )

    def _injected_membar_check(self) -> None:
        self.stats.incr(self._stat_injected)
        self.check_outstanding()
        self._watchdog()
        # Re-arm only while something else can still happen: other
        # queued events, unperformed operations to watch, or a core
        # that has not finished its workload.  An unconditional
        # reschedule keeps a bare ``Scheduler.run()`` from ever
        # draining the queue once the machine is otherwise done.
        if (
            self.scheduler.pending()
            or self._outstanding
            or (self.core is not None and not self.core.quiescent)
        ):
            self.scheduler.post(self._interval, self._injected_membar_check)

    def _watchdog(self) -> None:
        """Catch operations lost before commit (e.g. a dropped data
        response leaves a load stuck in execute forever): a core with
        unfinished work but no progress for several membar-injection
        intervals has lost an operation."""
        core = self.core
        if core is None or core.quiescent:
            return
        stalled = self.scheduler.now - core.last_progress_cycle
        if stalled > 3 * self._interval:
            self.stats.incr(self._stat_violations)
            detail = f"core {self.node} made no progress for {stalled} cycles"
            s = self.spans
            if s is not None:
                s.violation("AR", self.node, self.scheduler.now, detail=detail)
            self.violations(
                ViolationReport(
                    "AR",
                    self.scheduler.now,
                    self.node,
                    "lost-operation",
                    detail,
                )
            )

    # -- internals -----------------------------------------------------------
    def _violate(
        self, first: OpType, second: OpType, seq: int, cycle: int
    ) -> None:
        self.stats.incr(self._stat_violations)
        detail = (
            f"{first.value} seq {seq} performed after a younger "
            f"{second.value} it is ordered before"
        )
        s = self.spans
        if s is not None:
            s.violation("AR", self.node, cycle, seq=seq, detail=detail)
        self.violations(
            ViolationReport(
                "AR",
                cycle,
                self.node,
                "illegal-reordering",
                detail,
            )
        )

    @property
    def outstanding_count(self) -> int:
        return len(self._outstanding)
