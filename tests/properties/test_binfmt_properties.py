"""Property-based tests (hypothesis): CSV ↔ binary codec equivalence.

The binary codec must round-trip every event type exactly (its float
fields are IEEE doubles on the wire, so unlike CSV's ``%g`` formatting
there is no tolerance), agree with the CSV codec on everything the CSV
codec can represent exactly, and survive file-level conversion in both
directions.  The strategies deliberately cover escaped-comma marker
labels, signed edge ids and empty payloads.
"""

import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import binfmt, codec
from repro.core.events import (
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

# Signed ids: edge separators and entity extraction must stay sign-aware.
vertex_ids = st.integers(min_value=-10_000, max_value=10_000)

# Payloads weighted towards CSV's escape characters; includes the empty
# payload (min_size defaults to 0).
nasty_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(list(",\\\n\r")),
        st.characters(min_codepoint=32, max_codepoint=0x2FF),
    ),
    max_size=40,
)


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
        return marker(draw(nasty_text))
    if choice == 7:
        return speed(draw(st.floats(min_value=0.01, max_value=100)))
    return pause(draw(st.floats(min_value=0, max_value=60)))


graph_events = st.one_of(
    st.builds(add_vertex, vertex_ids, nasty_text),
    st.builds(remove_vertex, vertex_ids),
    st.builds(update_vertex, vertex_ids, nasty_text),
    st.builds(add_edge, vertex_ids, vertex_ids, nasty_text),
    st.builds(remove_edge, vertex_ids, vertex_ids),
    st.builds(update_edge, vertex_ids, vertex_ids, nasty_text),
)


def _approx_equal(a, b):
    """CSV-tolerant comparison: ``%g`` floats carry ~6 significant digits."""
    if type(a) is not type(b):
        return False
    if hasattr(a, "factor"):
        return math.isclose(a.factor, b.factor, rel_tol=1e-4)
    if hasattr(a, "seconds"):
        return math.isclose(a.seconds, b.seconds, rel_tol=1e-4, abs_tol=1e-6)
    return a == b


class TestBinaryRoundTrip:
    @given(any_events())
    def test_single_event_exact(self, event):
        # Exact equality: the binary wire carries IEEE doubles.
        assert binfmt.decode_event(binfmt.encode_event(event)) == event

    @given(st.lists(graph_events, min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_graph_frame_round_trip(self, events):
        frame = binfmt.encode_graph_frame(events)
        assert binfmt.decode_frame_events(frame) == events

    @given(st.lists(graph_events, min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_frame_record_spans_cover_each_record(self, events):
        frame = binfmt.encode_graph_frame(events)
        spans = list(binfmt.iter_frame_record_spans(frame))
        assert len(spans) == len(events)
        decoded = [
            binfmt.decode_event(frame[start:end]) for start, end in spans
        ]
        assert decoded == events


class TestCsvBinaryEquivalence:
    @given(any_events())
    def test_decoders_agree(self, event):
        # Both paths must reconstruct the same event; the CSV side is
        # the lossy one, so the tolerance covers its float formatting.
        via_binary = binfmt.decode_event(binfmt.encode_event(event))
        via_csv = codec.parse_line(codec.format_event(event))
        assert _approx_equal(via_binary, via_csv)


class TestFileConversion:
    @given(st.lists(any_events(), max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_csv_to_binary_to_csv_is_identity(self, events):
        # Byte-identical CSV round trip: the starting CSV is produced
        # by the codec itself, so its (lossy) float formatting is the
        # fixed point.
        with tempfile.TemporaryDirectory() as tmp:
            origin = Path(tmp) / "origin.csv"
            middle = Path(tmp) / "middle.gtb"
            final = Path(tmp) / "final.csv"
            codec.write_stream_file(origin, events)
            assert binfmt.convert_stream(origin, middle, "binary") == len(
                events
            )
            assert binfmt.convert_stream(middle, final, "csv") == len(events)
            a = origin.read_bytes().rstrip(b"\n")
            b = final.read_bytes().rstrip(b"\n")
            assert a == b

    @given(st.lists(any_events(), max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_binary_file_parses_exactly(self, events):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stream.gtb"
            assert binfmt.write_binary_stream(path, events) == len(events)
            assert codec.detect_stream_format(path) == "binary"
            assert codec.parse_stream_file(path) == events
