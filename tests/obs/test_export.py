"""Exporters: Prometheus text rendering."""

from repro.config import SystemConfig
from repro.obs.export import (
    sanitize_metric_name,
    snapshot_system,
    to_prometheus,
    write_prometheus,
)
from repro.system.builder import build_system


def sample_snapshot():
    return {
        "counters": {"run.events": 100},
        "gauges": {"run.cycles": 15000},
        "histograms": {"fuzz.trace.events": {"count": 2, "sum": 3.0}},
        "layers": {
            "scheduler": {"pending": 3, "note": "strings are skipped"},
            "caches": {"l1.0": {"hit_rate": 0.5}},
        },
    }


class TestSanitize:
    def test_dotted_names_become_legal(self):
        assert sanitize_metric_name("run.events") == "run_events"
        assert sanitize_metric_name("l1.0/hits") == "l1_0_hits"

    def test_leading_digit_is_prefixed(self):
        assert sanitize_metric_name("0bad")[0].isdigit() is False


class TestToPrometheus:
    def test_counters_become_total_series(self):
        text = to_prometheus(sample_snapshot())
        assert "# TYPE repro_run_events_total counter" in text
        assert "repro_run_events_total 100" in text

    def test_numeric_leaves_become_gauges(self):
        text = to_prometheus(sample_snapshot())
        assert "repro_gauges_run_cycles 15000" in text
        assert "repro_histograms_fuzz_trace_events_sum 3.0" in text
        assert "repro_layers_caches_l1_0_hit_rate 0.5" in text

    def test_strings_are_not_exported(self):
        assert "strings are skipped" not in to_prometheus(sample_snapshot())

    def test_every_line_is_exposition_format(self):
        for line in to_prometheus(sample_snapshot()).strip().splitlines():
            assert line.startswith("# TYPE ") or len(line.split(" ")) == 2

    def test_write_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "nested" / "metrics.prom"
        write_prometheus(str(path), sample_snapshot())
        assert "repro_run_events_total 100" in path.read_text()

    def test_empty_snapshot_renders_no_series(self):
        assert to_prometheus({}).strip() == ""


class TestSystemSnapshot:
    def test_run_counters_and_layers_are_exported(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        system = build_system(
            SystemConfig.protected().with_seed(2), workload="oltp", ops=40
        )
        system.run()
        events = system.scheduler.events_processed
        snap = snapshot_system(system)
        assert snap["counters"]["run.events_processed"] == events
        text = to_prometheus(snap)
        assert f"repro_run_events_processed_total {events}\n" in text
        assert f"repro_layers_scheduler_events_processed {events}\n" in text
