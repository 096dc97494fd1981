"""The JSONL trace codec round trip."""

from repro.verify.trace import (
    TraceEvent,
    dump_jsonl,
    event_from_dict,
    event_to_dict,
    load_jsonl,
)


class TestJsonlCodec:
    def test_event_dict_round_trip(self):
        ev = TraceEvent(2, 5, "atomic", 0x40, 7, old_value=3)
        assert event_from_dict(event_to_dict(ev)) == ev

    def test_file_round_trip_is_exact(self, tmp_path):
        events = [
            TraceEvent(0, 0, "load", 0x10, 1),
            TraceEvent(1, 0, "store", 0x14, 2),
            TraceEvent(0, 1, "atomic", 0x10, 3, old_value=1),
        ]
        path = tmp_path / "trace.jsonl"
        assert dump_jsonl(events, str(path)) == 3
        assert load_jsonl(str(path)).events == events
