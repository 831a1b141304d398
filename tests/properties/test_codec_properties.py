"""Property-based tests (hypothesis): codec round trips and equivalence.

``format`` composed with ``parse`` must be the identity over all nine
event types — including payloads and marker labels containing commas,
backslashes and newlines, which exercise every escape path — and the
bulk codec must agree with the legacy per-line parser on any stream the
legacy serializer can produce.
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.core.events import (
    EdgeId,
    EventType,
    GraphEvent,
    _legacy_format_event,
    _legacy_parse_line,
    add_edge,
    add_vertex,
    marker,
    pause,
    remove_edge,
    remove_vertex,
    speed,
    update_edge,
    update_vertex,
)
from repro.errors import StreamFormatError

# Ids cover negative vertices (edge separators must stay sign-aware).
vertex_ids = st.integers(min_value=-10_000, max_value=10_000)

# Payloads weighted towards the characters with escape handling.
nasty_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(list(",\\\n\r")),
        st.characters(min_codepoint=32, max_codepoint=0x2FF),
    ),
    max_size=40,
)

# Marker labels: arbitrary except bare newlines cannot survive a
# line-oriented container... they can, actually, via escaping — so only
# the line format's own separators are exercised too.
labels = nasty_text


@st.composite
def any_events(draw):
    choice = draw(st.integers(0, 8))
    if choice == 0:
        return add_vertex(draw(vertex_ids), draw(nasty_text))
    if choice == 1:
        return remove_vertex(draw(vertex_ids))
    if choice == 2:
        return update_vertex(draw(vertex_ids), draw(nasty_text))
    if choice == 3:
        return add_edge(draw(vertex_ids), draw(vertex_ids), draw(nasty_text))
    if choice == 4:
        return remove_edge(draw(vertex_ids), draw(vertex_ids))
    if choice == 5:
        return update_edge(draw(vertex_ids), draw(vertex_ids), draw(nasty_text))
    if choice == 6:
        return marker(draw(labels))
    if choice == 7:
        return speed(draw(st.floats(min_value=0.01, max_value=100)))
    return pause(draw(st.floats(min_value=0, max_value=60)))


def _approx_equal(a, b):
    if type(a) is not type(b):
        return False
    if hasattr(a, "factor"):
        return math.isclose(a.factor, b.factor, rel_tol=1e-4)
    if hasattr(a, "seconds"):
        return math.isclose(a.seconds, b.seconds, rel_tol=1e-4, abs_tol=1e-6)
    return a == b


class TestCodecRoundTrip:
    @given(any_events())
    def test_single_event_round_trip(self, event):
        assert _approx_equal(codec.parse_line(codec.format_event(event)), event)

    @given(st.lists(any_events(), max_size=40))
    @settings(max_examples=50)
    def test_bulk_round_trip(self, events):
        # split("\n") rather than splitlines(): payloads may contain
        # unicode line separators that are not stream line breaks.
        text = codec.format_events(events)
        lines = text.split("\n")[:-1] if text else []
        reparsed = codec.parse_lines(lines, skip_comments=False)
        assert len(reparsed) == len(events)
        assert all(_approx_equal(p, e) for p, e in zip(reparsed, events))


# Raw lines near the format: any command, integer or edge-shaped entity
# text with optional padding (the slow path's spaced spelling), and an
# escape-heavy payload.  Most parse; the rest must raise a typed error.
entity_texts = st.one_of(
    vertex_ids.map(str),
    st.tuples(vertex_ids, vertex_ids).map(lambda t: f"{t[0]}-{t[1]}"),
    st.text(alphabet="0123456789- x", max_size=8),
)
raw_lines = st.builds(
    lambda command, pad, entity, payload: (
        f"{command}{pad},{pad}{entity}{pad},{payload}"
    ),
    st.sampled_from([member.value for member in EventType]),
    st.sampled_from(["", " "]),
    entity_texts,
    st.text(
        alphabet=st.one_of(
            st.sampled_from(list(",\\")),
            st.characters(min_codepoint=32, max_codepoint=0x2FF),
        ),
        max_size=40,
    ),
)


def _assert_valid_graph_event(event):
    """What ``GraphEvent.__post_init__`` would have checked: the handlers
    that build events with ``object.__new__`` must produce the same
    value, with an ``int`` vertex id or an ``EdgeId`` of two ints."""
    if type(event) is not GraphEvent:
        return
    assert GraphEvent(event.event_type, event.entity, event.payload) == event
    if event.event_type.is_vertex_event:
        assert type(event.entity) is int
    else:
        assert event.event_type.is_edge_event
        assert type(event.entity) is EdgeId
        assert type(event.entity.source) is int
        assert type(event.entity.target) is int


class TestParsedEventsAreValid:
    @given(st.lists(any_events(), max_size=40))
    @settings(max_examples=50)
    def test_formatted_streams_parse_to_valid_events(self, events):
        for event in codec.parse_lines(codec.format_lines(events)):
            _assert_valid_graph_event(event)

    @given(raw_lines)
    @settings(max_examples=200)
    def test_accepted_raw_lines_parse_to_valid_events(self, line):
        try:
            parsed = codec.parse_lines([line])
        except StreamFormatError:
            return
        assert len(parsed) == 1
        _assert_valid_graph_event(parsed[0])


#: The canonical graph-line grammar of the verbatim replay path, as
#: bytes (what the reader matches) and as text (what Hypothesis draws).
CANONICAL_LINE = re.compile(codec._GRAPH_LINE)
canonical_lines = st.from_regex(codec._GRAPH_LINE.decode("ascii"), fullmatch=True)


class TestCanonicalLineGrammar:
    """Verbatim replay forwards a graph line's stored bytes only when it
    matches the canonical grammar, which is sound only if every such
    line is a fixed point of parse → format."""

    @given(canonical_lines)
    @settings(max_examples=300)
    def test_matching_lines_are_fixed_points(self, line):
        assert CANONICAL_LINE.fullmatch(line.encode("utf-8")) is not None
        assert codec.format_event(codec.parse_line(line)) == line

    @given(raw_lines)
    @settings(max_examples=300)
    def test_near_format_lines_that_match_are_fixed_points(self, line):
        if CANONICAL_LINE.fullmatch(line.encode("utf-8")) is None:
            return
        assert codec.format_event(codec.parse_line(line)) == line

    @given(any_events())
    @settings(max_examples=200)
    def test_formatted_graph_lines_match(self, event):
        # Streams the generator writes take the zero-copy path.
        if type(event) is GraphEvent:
            line = codec.format_event(event).encode("utf-8")
            assert CANONICAL_LINE.fullmatch(line) is not None


class TestLegacyEquivalence:
    @given(any_events())
    def test_codec_parses_legacy_output(self, event):
        # Markers whose labels contain escaped commas hit a legacy
        # parser bug (labels truncated at the escape); the codec fixes
        # it, so equivalence is asserted against the original event.
        line = _legacy_format_event(event)
        assert _approx_equal(codec.parse_line(line), event)

    @given(any_events())
    def test_legacy_parses_codec_output_for_graph_events(self, event):
        line = codec.format_event(event)
        if "MARKER" in line.split(",", 1)[0]:
            return  # legacy marker parsing is buggy for escaped commas
        assert _approx_equal(_legacy_parse_line(line), event)

    @given(st.lists(any_events(), max_size=40))
    @settings(max_examples=50)
    def test_bulk_matches_legacy_per_line(self, events):
        # Marker labels containing commas are excluded: the legacy
        # parser truncates them (the bug the codec fixes), so the two
        # implementations intentionally disagree there.
        events = [
            e
            for e in events
            if not (hasattr(e, "label") and "," in e.label)
        ]
        lines = [_legacy_format_event(e) for e in events]
        expected = [_legacy_parse_line(line) for line in lines]
        assert codec.parse_lines(lines, skip_comments=False) == expected


# ---------------------------------------------------------------------------
# Escape-heavy byte identity across formats (fuzzer dictionary)
# ---------------------------------------------------------------------------

from repro.fuzz.mutators import ADVERSARIAL_FLOATS, ESCAPE_DICTIONARY
from repro.fuzz.workload import Workload, bytes_to_events, events_to_bytes

# Texts biased towards the fuzzer's escape dictionary: separators,
# ambiguous backslash runs, fake event prefixes, multi-byte UTF-8.
escape_text = st.one_of(st.sampled_from(ESCAPE_DICTIONARY), nasty_text)


def _round_trip_csv_binary_csv(events):
    """CSV -> parse -> GTB1 -> parse -> CSV, asserting byte identity."""
    csv_first = events_to_bytes(events, "csv")
    parsed = bytes_to_events(Workload(fmt="csv", data=csv_first))
    assert parsed == events
    binary = events_to_bytes(parsed, "binary")
    reparsed = bytes_to_events(Workload(fmt="binary", data=binary))
    assert reparsed == events
    assert events_to_bytes(reparsed, "csv") == csv_first


class TestEscapeDictionaryByteIdentity:
    """The CSV<->GTB1 round trip is exact — byte-identical, not merely
    value-approximate — for every string in the fuzzer's escape
    dictionary used as a marker label or payload."""

    @pytest.mark.parametrize("label", ESCAPE_DICTIONARY)
    def test_marker_label_survives_csv_binary_csv(self, label):
        _round_trip_csv_binary_csv(
            [add_vertex(1), marker(label), marker(label * 3), add_vertex(2)]
        )

    @pytest.mark.parametrize("text", ESCAPE_DICTIONARY)
    def test_payload_survives_csv_binary_csv(self, text):
        _round_trip_csv_binary_csv(
            [add_vertex(1, text), add_edge(1, 2, text), update_vertex(1, text)]
        )

    @pytest.mark.parametrize("value", ADVERSARIAL_FLOATS)
    def test_control_floats_survive_csv_binary_csv(self, value):
        _round_trip_csv_binary_csv(
            [speed(max(value, 1e-12)), pause(min(abs(value), 1e9))]
        )

    @given(
        st.lists(
            st.one_of(
                escape_text.map(marker),
                st.tuples(vertex_ids, escape_text).map(
                    lambda t: add_vertex(*t)
                ),
                st.tuples(vertex_ids, vertex_ids, escape_text).map(
                    lambda t: add_edge(*t)
                ),
                st.sampled_from(ADVERSARIAL_FLOATS).map(
                    lambda v: pause(abs(v))
                ),
            ),
            max_size=25,
        )
    )
    @settings(max_examples=60)
    def test_mixed_escape_streams_are_byte_identical(self, events):
        _round_trip_csv_binary_csv(events)
