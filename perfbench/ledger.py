"""Per-layer ledger: fold a cProfile of one pass into the machine's layers.

Each function's self time and call count go to the layer that owns its
source file (``FILE_LAYERS``).  ``coherence/directory.py`` and
``coherence/snooping.py`` hold both sides of each protocol, so there
the owning class decides: the memory-side classes (``HOME_CLASSES``)
are ``home``, the rest ``cache_ctrl``.  Built-in functions and
generated code (dataclass methods) have no source file of their own;
they are charged to the layers of their callers, in proportion to the
time each caller spent in them.  Everything else -- the standard
library, the benchmark itself, ``common/stats.py``,
``consistency/*``, ``obs/*`` -- is ``other``, so the layer self times
sum to the traced total.

The counter metrics are exact and come from each item's ``RunMetrics``
counters and component ``obs_snapshot()`` views (see ``plans.py``).
"""

from __future__ import annotations

import ast
import math
import os
from collections import defaultdict
from typing import Dict, List

LAYERS = (
    "kernel",
    "waitsets",
    "core",
    "write_buffer",
    "cache_ctrl",
    "home",
    "memory",
    "interconnect",
    "uo",
    "ar",
    "cc",
    "safetynet",
    "builder",
    "oracle",
    "faults",
    "workloads",
    "other",
)

#: Source path under ``src/repro/`` (a file, or a directory ending in
#: ``/``) -> layer.  Longest match wins.
FILE_LAYERS = {
    "common/events.py": "kernel",
    "common/waitsets.py": "waitsets",
    "processor/core.py": "core",
    "processor/operations.py": "core",
    "processor/write_buffer.py": "write_buffer",
    "coherence/": "cache_ctrl",
    "memory/": "memory",
    "interconnect/": "interconnect",
    "dvmc/uniprocessor.py": "uo",
    "dvmc/reordering.py": "ar",
    "dvmc/streaming.py": "ar",
    "dvmc/coherence_checker.py": "cc",
    "dvmc/interval_index.py": "cc",
    "common/crc.py": "cc",
    "recovery/": "safetynet",
    "system/builder.py": "builder",
    "config.py": "builder",
    "oracle/": "oracle",
    "verify/trace.py": "oracle",
    "faults/": "faults",
    "workloads/": "workloads",
    "fuzz.py": "workloads",
}

#: Memory-side classes of the two protocol files.
HOME_CLASSES = frozenset(
    {"DirectoryMemoryController", "_DirEntry", "SnoopingMemoryController"}
)
SPLIT_FILES = ("coherence/directory.py", "coherence/snooping.py")


class LayerMap:
    """Resolves a profile entry's (file, line) to its owning layer."""

    def __init__(self, package_dir: str):
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self._files: Dict[str, str] = {}
        self._home_ranges: Dict[str, List] = {}

    def layer_of(self, filename: str, line: int) -> str:
        """The owning layer; ``other`` for code outside the package."""
        if filename not in self._files:
            self._files[filename] = self._resolve(filename)
        layer = self._files[filename]
        if filename in self._home_ranges and any(
            lo <= line <= hi for lo, hi in self._home_ranges[filename]
        ):
            return "home"
        return layer

    def _resolve(self, filename: str) -> str:
        path = os.path.realpath(filename)
        if not path.startswith(self.package_dir):
            return "other"
        rel = path[len(self.package_dir):].replace(os.sep, "/")
        if rel in SPLIT_FILES:
            with open(path) as fh:
                tree = ast.parse(fh.read())
            self._home_ranges[filename] = [
                (node.lineno, node.end_lineno)
                for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name in HOME_CLASSES
            ]
        best = max((k for k in FILE_LAYERS if rel.startswith(k)), key=len, default=None)
        return FILE_LAYERS[best] if best else "other"


def _sourceless(key) -> bool:
    filename = key[0]
    return filename == "~" or filename.startswith("<")


def fold(stats: Dict, layers: LayerMap) -> Dict[str, Dict[str, float]]:
    """Fold ``pstats.Stats(...).stats`` into {layer: {self_s, calls}}."""
    shares: Dict = {}

    def share(key, stack=()) -> Dict[str, float]:
        """Fraction of ``key``'s self time owned by each layer."""
        if key in shares:
            return shares[key]
        if not _sourceless(key):
            return {layers.layer_of(key[0], key[1]): 1.0}
        callers = stats[key][4] if key in stats else {}
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0 or key in stack:
            return {"other": 1.0}
        out: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for layer, frac in share(caller, stack + (key,)).items():
                out[layer] += frac * weight / total
        shares[key] = dict(out)
        return shares[key]

    ledger = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    for key, (_cc, nc, tt, _ct, _callers) in stats.items():
        for layer, frac in share(key).items():
            ledger[layer]["self_s"] += tt * frac
            ledger[layer]["calls"] += nc * frac
    return ledger


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(outcomes, ops: int) -> Dict[str, float]:
    """Exact per-layer counts, summed over every item of a pass.

    A ratio whose denominator is zero on this workload (no faults, no
    Base/DVMC pairs, no replays) reads 0.
    """
    total = defaultdict(float)
    for o in outcomes:
        c = o.payload.get("metrics", {}).get("counters", {})
        total["events"] += o.payload.get("metrics", {}).get("events_processed", 0)
        for key, value in c.items():
            parts = key.split(".")
            head, tail = parts[0], parts[-1]
            if head == "core" and tail in ("retired", "load_squashes", "wb_full_stalls"):
                total[f"core.{tail}"] += value
            elif key.startswith("core.") and key.endswith(".ops.load"):
                total["core.loads"] += value
            elif head == "wb" and tail == "inserts":
                total["wb.inserts"] += value
            elif head == "l1" and tail in ("accesses", "misses", "replay_accesses", "replay_misses"):
                total[f"l1.{tail}"] += value
            elif head in ("dir", "snoopmem") and tail in ("gets", "getm", "putm"):
                total["home.requests"] += value
            elif head == "net":
                total["net.bytes"] += value
            elif head == "ar" and tail == "injected_membars":
                total["ar.injected_membars"] += value
            elif head == "dvcc" and tail == "informs_sent":
                total["cc.informs"] += value
            elif key == "sn.log_entries":
                total["sn.log_entries"] += value
        for name, value in o.counts.items():
            total[name] += value
        total["cases"] += "undecided" in o.counts
    return {
        "kernel.events_per_op": _ratio(total["events"], ops),
        "waitsets.parks_per_op": _ratio(total["parks"], ops),
        "waitsets.spurious_wake_frac": _ratio(
            total["spurious"], total["spurious"] + total["wakes"]
        ),
        "core.retired_per_op": _ratio(total["core.retired"], ops),
        "core.load_squash_frac": _ratio(total["core.load_squashes"], total["core.loads"]),
        "write_buffer.inserts_per_op": _ratio(total["wb.inserts"], ops),
        "core.wb_full_stalls_per_op": _ratio(total["core.wb_full_stalls"], ops),
        "l1.miss_frac": _ratio(total["l1.misses"], total["l1.accesses"]),
        "home.requests_per_op": _ratio(total["home.requests"], ops),
        "net.bytes_per_op": _ratio(total["net.bytes"], ops),
        "net.dvmc_max_link_ratio": paired_geomean(
            outcomes, lambda o: _ratio(o.counts["max_link_bytes"], o.cycles)
        ),
        "uo.replays_per_op": _ratio(total["replays"], ops),
        "uo.replay_miss_frac": _ratio(total["l1.replay_misses"], total["l1.replay_accesses"]),
        "ar.injected_membars_per_op": _ratio(total["ar.injected_membars"], ops),
        "cc.informs_per_op": _ratio(total["cc.informs"], ops),
        "sn.log_entries_per_op": _ratio(total["sn.log_entries"], ops),
        "oracle.undecided_frac": _ratio(total["undecided"], total["cases"]),
        "faults.landed_frac": _ratio(total["landed"], total["faulted"]),
    }


def paired_geomean(outcomes, value) -> float:
    """Geometric mean over Base/DVMC pairs of DVMC ÷ Base ``value``;
    0 when the workload has no pairs."""
    sides: Dict = defaultdict(dict)
    for o in outcomes:
        if o.pair is not None:
            sides[o.pair][o.dvmc] = value(o)
    ratios = [s[True] / s[False] for s in sides.values() if s.get(False) and True in s]
    if not ratios:
        return 0.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))
