"""Schema-consistency rules (``SCHEMA0xx``): event model ↔ codec lockstep.

The batched codec keeps a hand-maintained per-command dispatch table
(``_DISPATCH``) and a formatter table; nothing in the language ties
them to :class:`~repro.core.events.EventType`, so a new event type (or
a deleted dispatch entry) would silently fall back to the slow parser
— or fail at replay time.  These rules verify the tables against the
enum by introspecting the *imported* modules (the tables are built
programmatically, so textual AST matching cannot see their contents):

* ``SCHEMA001`` — every ``EventType`` member has a parse entry in the
  dispatch table, and the table carries no stale entries.
* ``SCHEMA002`` — every concrete :class:`~repro.core.events.Event`
  subclass has a formatter registered in ``_FORMATTERS``.
* ``SCHEMA003`` — a sample event of every ``EventType`` member
  round-trips through ``format_event`` → ``parse_line`` unchanged.
* ``SCHEMA004`` — the binary codec's hand-maintained wire-tag table
  (``binfmt._TAG_BY_TYPE``) covers every ``EventType`` member with a
  unique tag and a registered decoder, and a sample of every member
  decodes identically through the binary and CSV paths.

The rules anchor their findings at the dispatch-table assignments in
``core/codec.py`` (or ``core/binfmt.py`` for the binary rule) when
that file is part of the scanned tree.  For testing, alternative
``codec``/``events``/``binfmt`` module objects may be injected via the
constructor.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.check.framework import CheckedModule, ProjectRule, Violation

__all__ = [
    "BinaryTagCoverageRule",
    "DispatchCoverageRule",
    "FormatterCoverageRule",
    "RoundTripRule",
    "SCHEMA_RULES",
]

_CODEC_SCOPE_PATH = "core/codec.py"
_BINFMT_SCOPE_PATH = "core/binfmt.py"


class _SchemaRule(ProjectRule):
    """Shared plumbing: module resolution and violation anchoring."""

    def __init__(self, codec=None, events=None):
        self._codec = codec
        self._events = events

    def _resolve_modules(self):
        codec, events = self._codec, self._events
        if codec is None:
            from repro.core import codec as codec  # noqa: PLW0127
        if events is None:
            from repro.core import events as events  # noqa: PLW0127
        return codec, events

    def _should_run(self, modules: Sequence[CheckedModule]) -> bool:
        """Run when the codec is part of the scan or explicitly injected.

        Scanning an unrelated tree (a fixture directory, a single
        generator file) must not drag repro's own codec into the
        report.
        """
        if self._codec is not None:
            return True
        return any(
            module.scope_path == _CODEC_SCOPE_PATH for module in modules
        )

    _scope_path = _CODEC_SCOPE_PATH

    def _anchor(
        self, modules: Sequence[CheckedModule], symbol: str
    ) -> tuple[str, int]:
        """(path, line) of ``symbol``'s assignment in the scanned module."""
        for module in modules:
            if module.scope_path != self._scope_path:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                if any(
                    isinstance(target, ast.Name) and target.id == symbol
                    for target in targets
                ):
                    return str(module.path), node.lineno
            return str(module.path), 1
        return f"repro/{self._scope_path}", 1

    def _make_violation(
        self,
        modules: Sequence[CheckedModule],
        symbol: str,
        message: str,
    ) -> Violation:
        path, line = self._anchor(modules, symbol)
        return Violation(
            rule_id=self.rule_id, message=message, path=path, line=line
        )


class DispatchCoverageRule(_SchemaRule):
    """``SCHEMA001``: EventType and the codec dispatch table move in
    lockstep — no missing and no stale entries."""

    rule_id = "SCHEMA001"
    title = "every EventType member has an entry in the dispatch table"

    def check_project(
        self, modules: Sequence[CheckedModule]
    ) -> Iterator[Violation]:
        if not self._should_run(modules):
            return
        codec, events = self._resolve_modules()
        expected = {member.value for member in events.EventType}
        table = getattr(codec, "_DISPATCH", None)
        if table is None:
            yield self._make_violation(
                modules, "_DISPATCH", "codec has no _DISPATCH dispatch table"
            )
            return
        for missing in sorted(expected - set(table)):
            yield self._make_violation(
                modules,
                "_DISPATCH",
                f"EventType.{missing} has no parse entry in "
                "codec._DISPATCH; streams with this command fall "
                "off the fast path (or fail to parse)",
            )
        for stale in sorted(set(table) - expected):
            yield self._make_violation(
                modules,
                "_DISPATCH",
                f"codec._DISPATCH entry {stale!r} does not "
                "correspond to any EventType member",
            )


class FormatterCoverageRule(_SchemaRule):
    """``SCHEMA002``: every concrete Event subclass can be formatted."""

    rule_id = "SCHEMA002"
    title = "every concrete Event subclass has a registered formatter"

    def check_project(
        self, modules: Sequence[CheckedModule]
    ) -> Iterator[Violation]:
        if not self._should_run(modules):
            return
        codec, events = self._resolve_modules()
        formatters = getattr(codec, "_FORMATTERS", None)
        if formatters is None:
            yield self._make_violation(
                modules, "_FORMATTERS", "codec has no _FORMATTERS table"
            )
            return
        base = events.Event
        concrete = [
            value
            for value in vars(events).values()
            if isinstance(value, type)
            and issubclass(value, base)
            and value is not base
        ]
        for event_class in sorted(concrete, key=lambda cls: cls.__name__):
            if event_class not in formatters:
                yield self._make_violation(
                    modules,
                    "_FORMATTERS",
                    f"{event_class.__name__} has no formatter in "
                    "codec._FORMATTERS; format_events falls back to "
                    "per-event isinstance dispatch (or fails)",
                )


def _sample_event(events, member):
    """A representative event for ``member``, or None when unknown.

    An unknown member is itself a schema violation: whoever adds an
    ``EventType`` must teach the codec (and this table) about it.
    """
    if member.is_vertex_event:
        return events.GraphEvent(member, 7, "state,with\\escapes")
    if member.is_edge_event:
        return events.GraphEvent(member, events.EdgeId(3, 4), "s")
    name = member.name
    if name == "MARKER":
        return events.MarkerEvent("phase,one")
    if name == "SPEED":
        return events.SpeedEvent(2.5)
    if name == "PAUSE":
        return events.PauseEvent(0.25)
    return None


class RoundTripRule(_SchemaRule):
    """``SCHEMA003``: format → parse is the identity for every member."""

    rule_id = "SCHEMA003"
    title = "every EventType member round-trips through the codec"

    def check_project(
        self, modules: Sequence[CheckedModule]
    ) -> Iterator[Violation]:
        if not self._should_run(modules):
            return
        codec, events = self._resolve_modules()
        for member in events.EventType:
            sample = _sample_event(events, member)
            if sample is None:
                yield self._make_violation(
                    modules,
                    "_DISPATCH",
                    f"EventType.{member.name} has no codec support: add "
                    "parse/format handling (and a sample in the schema "
                    "checker) for the new event type",
                )
                continue
            try:
                line = codec.format_event(sample)
            except Exception as exc:
                yield self._make_violation(
                    modules,
                    "_FORMATTERS",
                    f"formatting a sample EventType.{member.name} event "
                    f"failed: {exc}",
                )
                continue
            try:
                parsed = codec.parse_line(line)
            except Exception as exc:
                yield self._make_violation(
                    modules,
                    "_DISPATCH",
                    f"parsing the formatted sample for "
                    f"EventType.{member.name} failed: {exc}",
                )
                continue
            if parsed != sample:
                yield self._make_violation(
                    modules,
                    "_DISPATCH",
                    f"EventType.{member.name} does not round-trip: "
                    f"{sample!r} -> {line!r} -> {parsed!r}",
                )


class BinaryTagCoverageRule(_SchemaRule):
    """``SCHEMA004``: the binary wire-tag table moves in lockstep with
    ``EventType`` and the CSV codec.

    ``binfmt._TAG_BY_TYPE`` is a hand-maintained literal (the tags are
    wire format, so they must never shift when the enum is reordered);
    this rule is what makes forgetting an entry a check failure rather
    than a replay-time crash.  Beyond coverage it verifies tag
    uniqueness, decoder registration, and that a sample of every
    member decodes to the same event through ``encode_event`` →
    ``decode_event`` as through ``format_event`` → ``parse_line``.
    """

    rule_id = "SCHEMA004"
    title = "every EventType member has a unique binary wire tag"
    _scope_path = _BINFMT_SCOPE_PATH

    def __init__(self, codec=None, events=None, binfmt=None):
        super().__init__(codec=codec, events=events)
        self._binfmt = binfmt

    def _resolve_binfmt(self):
        if self._binfmt is not None:
            return self._binfmt
        from repro.core import binfmt

        return binfmt

    def _should_run(self, modules: Sequence[CheckedModule]) -> bool:
        if self._binfmt is not None:
            return True
        return any(
            module.scope_path in (_BINFMT_SCOPE_PATH, _CODEC_SCOPE_PATH)
            for module in modules
        )

    def check_project(
        self, modules: Sequence[CheckedModule]
    ) -> Iterator[Violation]:
        if not self._should_run(modules):
            return
        codec, events = self._resolve_modules()
        binfmt = self._resolve_binfmt()
        tags = getattr(binfmt, "_TAG_BY_TYPE", None)
        if tags is None:
            yield self._make_violation(
                modules,
                "_TAG_BY_TYPE",
                "binfmt has no _TAG_BY_TYPE wire-tag table",
            )
            return
        for missing in sorted(
            member.name for member in events.EventType if member not in tags
        ):
            yield self._make_violation(
                modules,
                "_TAG_BY_TYPE",
                f"EventType.{missing} has no wire tag in "
                "binfmt._TAG_BY_TYPE; binary streams cannot carry this "
                "event type",
            )
        for stale in sorted(
            getattr(member, "name", repr(member))
            for member in tags
            if member not in set(events.EventType)
        ):
            yield self._make_violation(
                modules,
                "_TAG_BY_TYPE",
                f"binfmt._TAG_BY_TYPE entry {stale} does not correspond "
                "to any EventType member",
            )
        if len(set(tags.values())) != len(tags):
            seen: dict[int, str] = {}
            for member, tag in tags.items():
                if tag in seen:
                    yield self._make_violation(
                        modules,
                        "_TAG_BY_TYPE",
                        f"wire tag {tag} is assigned to both "
                        f"{seen[tag]} and {member.name}; tags must be "
                        "unique (decode would be ambiguous)",
                    )
                else:
                    seen[tag] = member.name
        decoders = getattr(binfmt, "_DECODERS", {})
        for member, tag in sorted(tags.items(), key=lambda item: item[1]):
            if member not in set(events.EventType):
                continue
            if tag not in decoders:
                yield self._make_violation(
                    modules,
                    "_DECODERS",
                    f"wire tag {tag} (EventType.{member.name}) has no "
                    "decoder in binfmt._DECODERS",
                )
                continue
            sample = _sample_event(events, member)
            if sample is None:
                # SCHEMA003 already reports the missing sample.
                continue
            try:
                via_binary = binfmt.decode_event(binfmt.encode_event(sample))
            except Exception as exc:
                yield self._make_violation(
                    modules,
                    "_TAG_BY_TYPE",
                    f"EventType.{member.name} does not round-trip "
                    f"through the binary codec: {exc}",
                )
                continue
            via_csv = codec.parse_line(codec.format_event(sample))
            if via_binary != via_csv:
                yield self._make_violation(
                    modules,
                    "_TAG_BY_TYPE",
                    f"EventType.{member.name} decodes differently "
                    f"through binary and CSV: {via_binary!r} != "
                    f"{via_csv!r}",
                )


SCHEMA_RULES: tuple[type[ProjectRule], ...] = (
    DispatchCoverageRule,
    FormatterCoverageRule,
    RoundTripRule,
    BinaryTagCoverageRule,
)
