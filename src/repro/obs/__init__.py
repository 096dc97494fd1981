"""Observability plane: metrics, exporters, event traces, spans.

Everything here is *off by default* and guaranteed not to change
simulation results: a run with ``REPRO_OBS=1`` produces bit-identical
violations and statistics to the same run without it (asserted by
``tests/integration/test_obs_identity.py`` and by the performance
benchmark's extra obs pass).

Layout:

* :mod:`repro.obs.hub` — :class:`MetricsHub`, the counter / gauge /
  histogram registry; :data:`NULL_HUB` is the shared disabled-mode hub
  whose instruments are no-ops.
* :mod:`repro.obs.export` — run snapshots, Prometheus-style text
  exporter (imported on demand; no cost on the simulation path).
* :mod:`repro.obs.manifest` — per-run provenance manifest (config
  hash, seed, git sha, python/platform).
* :mod:`repro.obs.spans` — transaction flight recorder
  (``REPRO_OBS_SPANS=1``): ints-only causal spans following each
  memory operation across core, write buffer, caches, interconnect,
  directory/snooping homes, SafetyNet and the DVMC checkers.
* :mod:`repro.obs.chrome_trace` — Chrome/Perfetto ``trace_event``
  JSON exporter for recorded spans (open in ``chrome://tracing``).
* :mod:`repro.obs.forensics` — violation post-mortems: walks the
  recorder backwards from a violating operation and extracts the
  minimal causal slice (``repro.cli explain``).

Enablement: ``REPRO_OBS=1`` in the environment (worker processes
inherit it) or ``--obs`` on the CLI, which sets the variable before
any system is built.  It decides only whether a system gets a real
:class:`MetricsHub` and whether its run is snapshotted; the simulator
keeps no counters of its own for it.

``REPRO_OBS_TRACE=path`` records every core's memory operations,
whatever ``REPRO_OBS`` says, into a plain
:class:`~repro.verify.trace.Trace` (the recorder the differential fuzz
rig uses) and writes the whole trace to ``path`` as JSON Lines when
``System.run`` returns; ``repro.cli oracle path`` checks it.
"""

from __future__ import annotations

import os

from repro.obs.hub import (
    Counter,
    Gauge,
    MetricsHub,
    NULL_HUB,
    NULL_INSTRUMENT,
    NullHub,
    ObsHistogram,
)

#: Environment variable enabling the metrics hub and run snapshots.
OBS_ENV = "REPRO_OBS"
#: Environment variable naming the JSONL event-trace output path.
TRACE_ENV = "REPRO_OBS_TRACE"
#: Environment variable enabling the transaction flight recorder.
SPANS_ENV = "REPRO_OBS_SPANS"
#: Ring capacity (closed spans kept) for the flight recorder.
SPANS_CAP_ENV = "REPRO_OBS_SPANS_CAP"
#: Sampling stride for the flight recorder (trace every Nth operation).
SPANS_SAMPLE_ENV = "REPRO_OBS_SPANS_SAMPLE"
#: Chrome trace_event JSON output path for the flight recorder.
SPANS_OUT_ENV = "REPRO_OBS_SPANS_OUT"

_FALSEY = ("", "0", "false", "no", "off")


def enabled() -> bool:
    """Whether the observability plane is on (``REPRO_OBS``)."""
    return os.environ.get(OBS_ENV, "").strip().lower() not in _FALSEY


def trace_path() -> str:
    """The event-trace output path, or "" when tracing is off."""
    return os.environ.get(TRACE_ENV, "").strip()


def spans_enabled() -> bool:
    """Whether the transaction flight recorder is on (``REPRO_OBS_SPANS``)."""
    return os.environ.get(SPANS_ENV, "").strip().lower() not in _FALSEY


def spans_out_path() -> str:
    """The Chrome-trace output path for recorded spans, or ""."""
    return os.environ.get(SPANS_OUT_ENV, "").strip()


def new_span_recorder():
    """A :class:`~repro.obs.spans.SpanRecorder` when enabled, else None."""
    if not spans_enabled():
        return None
    from repro.obs.spans import SpanRecorder

    return SpanRecorder.from_env()


def new_hub() -> "MetricsHub | NullHub":
    """A hub for one system: real when enabled, the null hub otherwise."""
    return MetricsHub() if enabled() else NULL_HUB


__all__ = [
    "Counter",
    "Gauge",
    "MetricsHub",
    "NULL_HUB",
    "NULL_INSTRUMENT",
    "NullHub",
    "OBS_ENV",
    "ObsHistogram",
    "SPANS_CAP_ENV",
    "SPANS_ENV",
    "SPANS_OUT_ENV",
    "SPANS_SAMPLE_ENV",
    "TRACE_ENV",
    "enabled",
    "new_hub",
    "new_span_recorder",
    "spans_enabled",
    "spans_out_path",
    "trace_path",
]
