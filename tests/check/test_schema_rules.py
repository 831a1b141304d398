"""Schema rules: EventType ↔ codec dispatch/formatter lockstep."""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

from repro.check.framework import run_check
from repro.check.schema import (
    BinaryTagCoverageRule,
    DispatchCoverageRule,
    FormatterCoverageRule,
    RoundTripRule,
)
from repro.core import binfmt, codec, events

SRC = Path(__file__).resolve().parents[2] / "src"


def _fake_codec(**overrides) -> SimpleNamespace:
    base = {
        "_DISPATCH": dict(codec._DISPATCH),
        "_FORMATTERS": dict(codec._FORMATTERS),
        "format_event": codec.format_event,
        "parse_line": codec.parse_line,
    }
    base.update(overrides)
    return SimpleNamespace(**base)


class TestDispatchCoverage:
    def test_shipped_codec_is_clean(self):
        rule = DispatchCoverageRule(codec=codec, events=events)
        assert list(rule.check_project([])) == []

    def test_missing_entry_fires(self):
        table = dict(codec._DISPATCH)
        del table[events.EventType.PAUSE.value]
        rule = DispatchCoverageRule(
            codec=_fake_codec(_DISPATCH=table), events=events
        )
        violations = list(rule.check_project([]))
        assert len(violations) == 1
        assert violations[0].rule_id == "SCHEMA001"
        assert "PAUSE" in violations[0].message
        assert "_DISPATCH" in violations[0].message

    def test_stale_entry_fires(self):
        table = dict(codec._DISPATCH)
        table["BOGUS"] = table[events.EventType.MARKER.value]
        rule = DispatchCoverageRule(
            codec=_fake_codec(_DISPATCH=table), events=events
        )
        violations = list(rule.check_project([]))
        assert [v.rule_id for v in violations] == ["SCHEMA001"]
        assert "BOGUS" in violations[0].message


class TestFormatterCoverage:
    def test_shipped_codec_is_clean(self):
        rule = FormatterCoverageRule(codec=codec, events=events)
        assert list(rule.check_project([])) == []

    def test_missing_formatter_fires(self):
        table = dict(codec._FORMATTERS)
        del table[events.PauseEvent]
        rule = FormatterCoverageRule(
            codec=_fake_codec(_FORMATTERS=table), events=events
        )
        violations = list(rule.check_project([]))
        assert [v.rule_id for v in violations] == ["SCHEMA002"]
        assert "PauseEvent" in violations[0].message


class TestRoundTrip:
    def test_shipped_codec_round_trips(self):
        rule = RoundTripRule(codec=codec, events=events)
        assert list(rule.check_project([])) == []

    def test_broken_formatter_fires(self):
        def broken_format(event):
            raise TypeError("no formatter")

        rule = RoundTripRule(
            codec=_fake_codec(format_event=broken_format), events=events
        )
        violations = list(rule.check_project([]))
        assert violations
        assert all(v.rule_id == "SCHEMA003" for v in violations)

    def test_lossy_parser_fires(self):
        def lossy_parse(line, line_number=None):
            return events.marker("wrong")

        rule = RoundTripRule(
            codec=_fake_codec(parse_line=lossy_parse), events=events
        )
        violations = list(rule.check_project([]))
        assert violations
        assert all("round-trip" in v.message for v in violations)


def _fake_binfmt(**overrides) -> SimpleNamespace:
    base = {
        "_TAG_BY_TYPE": dict(binfmt._TAG_BY_TYPE),
        "_DECODERS": dict(binfmt._DECODERS),
        "encode_event": binfmt.encode_event,
        "decode_event": binfmt.decode_event,
    }
    base.update(overrides)
    return SimpleNamespace(**base)


class TestBinaryTagCoverage:
    def test_shipped_binfmt_is_clean(self):
        rule = BinaryTagCoverageRule(
            codec=codec, events=events, binfmt=binfmt
        )
        assert list(rule.check_project([])) == []

    def test_missing_tag_fires(self):
        tags = dict(binfmt._TAG_BY_TYPE)
        del tags[events.EventType.PAUSE]
        rule = BinaryTagCoverageRule(
            codec=codec, events=events, binfmt=_fake_binfmt(_TAG_BY_TYPE=tags)
        )
        violations = list(rule.check_project([]))
        assert [v.rule_id for v in violations] == ["SCHEMA004"]
        assert "PAUSE" in violations[0].message
        assert "_TAG_BY_TYPE" in violations[0].message

    def test_duplicate_tag_fires(self):
        tags = dict(binfmt._TAG_BY_TYPE)
        tags[events.EventType.PAUSE] = tags[events.EventType.MARKER]
        rule = BinaryTagCoverageRule(
            codec=codec, events=events, binfmt=_fake_binfmt(_TAG_BY_TYPE=tags)
        )
        violations = list(rule.check_project([]))
        assert any("unique" in v.message for v in violations)

    def test_missing_decoder_fires(self):
        decoders = dict(binfmt._DECODERS)
        del decoders[binfmt._TAG_BY_TYPE[events.EventType.SPEED]]
        rule = BinaryTagCoverageRule(
            codec=codec,
            events=events,
            binfmt=_fake_binfmt(_DECODERS=decoders),
        )
        violations = list(rule.check_project([]))
        assert any("_DECODERS" in v.message for v in violations)
        assert any("SPEED" in v.message for v in violations)

    def test_binary_csv_divergence_fires(self):
        def skewed_decode(record, offset=0):
            event = binfmt.decode_event(record, offset)
            if isinstance(event, events.MarkerEvent):
                return events.marker(event.label + "-skewed")
            return event

        rule = BinaryTagCoverageRule(
            codec=codec,
            events=events,
            binfmt=_fake_binfmt(decode_event=skewed_decode),
        )
        violations = list(rule.check_project([]))
        assert any(
            "decodes differently" in v.message and "MARKER" in v.message
            for v in violations
        )

    def test_runs_when_binfmt_or_codec_in_scan(self):
        rule = BinaryTagCoverageRule()
        assert not rule._should_run([])
        fake_module = SimpleNamespace(scope_path="core/binfmt.py")
        assert rule._should_run([fake_module])


class TestAgainstRealTree:
    """End-to-end: the shipped tree passes; a deleted entry fails."""

    def test_shipped_tree_is_schema_clean(self):
        result = run_check([SRC], rules=[DispatchCoverageRule()])
        assert result.violations == []

    def test_deleting_dispatch_entry_fails_repro_check(self, monkeypatch):
        monkeypatch.delitem(codec._DISPATCH, events.EventType.PAUSE.value)
        result = run_check([SRC], rules=[DispatchCoverageRule()])
        assert any(
            violation.rule_id == "SCHEMA001" and "PAUSE" in violation.message
            for violation in result.violations
        )
        # The finding is anchored at the dispatch-table assignment in
        # the real codec module.
        violation = result.violations[0]
        assert violation.path.endswith("codec.py")
        assert violation.line > 1

    def test_deleting_wire_tag_fails_repro_check(self, monkeypatch):
        monkeypatch.delitem(binfmt._TAG_BY_TYPE, events.EventType.MARKER)
        result = run_check([SRC], rules=[BinaryTagCoverageRule()])
        assert any(
            violation.rule_id == "SCHEMA004"
            and "MARKER" in violation.message
            for violation in result.violations
        )
        # Anchored at the wire-tag table in the real binfmt module.
        violation = result.violations[0]
        assert violation.path.endswith("binfmt.py")
        assert violation.line > 1

    def test_new_event_type_without_codec_support_fails(self):
        class FakeMember:
            """An EventType-shaped member the codec knows nothing about."""

            name = "COMPACTION"
            value = "COMPACTION"
            is_vertex_event = False
            is_edge_event = False

        fake_events = SimpleNamespace(
            EventType=list(events.EventType) + [FakeMember()],
            Event=events.Event,
            GraphEvent=events.GraphEvent,
            MarkerEvent=events.MarkerEvent,
            SpeedEvent=events.SpeedEvent,
            PauseEvent=events.PauseEvent,
            EdgeId=events.EdgeId,
        )
        dispatch = DispatchCoverageRule(codec=_fake_codec(), events=fake_events)
        round_trip = RoundTripRule(codec=_fake_codec(), events=fake_events)
        dispatch_violations = list(dispatch.check_project([]))
        round_trip_violations = list(round_trip.check_project([]))
        assert any("COMPACTION" in v.message for v in dispatch_violations)
        assert any("COMPACTION" in v.message for v in round_trip_violations)
