"""Resource-lifecycle rules (``RES``/``EXC``/``HOT``) on the CFG engine.

These rules are flow-sensitive: they run the
:mod:`repro.check.dataflow` solver over per-function
:mod:`repro.check.cfg` graphs, tracking which acquired resources are
still *held* at each program point.

* ``RES001`` — a resource acquired without ``with`` (files, sockets,
  mmaps, ``Popen``, explicit ``lock.acquire()``; bound directly or by
  either arm of a conditional expression) must reach a release
  (``close``/``wait``/``release``...) on **every** path to the
  function's exit, including the exception edges, unless ownership is
  transferred first.  ``SharedMemory(create=True, ...)`` is tracked as
  two obligations at once: the owner must both ``close`` its mapping
  and ``unlink`` the name, or the segment outlives the process in
  ``/dev/shm``.
* ``RES002`` — a ``Thread``/``Process`` spawned in a function must be
  joined on every path, or transferred out (returned, stored on an
  object, registered for cleanup).
* ``EXC001`` — a broad ``except`` whose body neither re-raises,
  returns, nor calls anything (no release, no logging, no accounting)
  swallows the failure while acquired resources are still held.
* ``HOT001`` — blocking calls (``time.sleep``, unbounded
  ``recv``/``accept``, ``Queue.get``/``put`` or ``join``/``wait``
  without a timeout) inside a function marked ``# hot-path`` or
  reachable from one through the module's call graph.

**Ownership transfer** kills tracking: returning or yielding the
resource, storing it into an attribute, subscript or container, or
passing it as a *call argument* (the callee may adopt or close it — a
deliberate under-approximation that keeps false positives out of the
leak report; method calls *on* the resource, ``f.read()``, do not
transfer).  Guard patterns are understood through branch refinement:
on the ``false`` edge of ``if f:`` / ``if f is not None:`` the
resource is provably absent, so ``finally: if f is not None:
f.close()`` is recognised as a release on every path.

The ``# hot-path`` marker goes on the ``def`` line (or the line
directly above it); hotness propagates to everything the function
calls within its module.  Intentional blocking (the replayer's pacing
sleeps) is suppressed in place with
``# repro-check: disable=HOT001 -- <why>``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.check.cfg import (
    CFG,
    CFGEdge,
    CFGNode,
    _walk_executed,
    build_cfg,
    iter_function_defs,
)
from repro.check.dataflow import Analysis, DataflowResult, solve
from repro.check.framework import CheckedModule, Rule, Violation, dotted_name

__all__ = [
    "ResourceLeakRule",
    "UnjoinedSpawnRule",
    "SwallowedExceptionRule",
    "BlockingHotPathRule",
    "LIFECYCLE_RULES",
    "HOT_PATH_MARKER",
]

#: Comment marking a function as a latency-critical loop for HOT001.
HOT_PATH_MARKER = "# hot-path"

#: Acquiring call (matched on the last dotted component) -> resource
#: kind and the methods that release it.  ``RES001`` facts.
_RESOURCE_ACQUIRERS: dict[str, tuple[str, frozenset[str]]] = {
    "open": ("file", frozenset({"close"})),
    "fdopen": ("file", frozenset({"close"})),
    "makefile": ("file", frozenset({"close", "detach"})),
    "NamedTemporaryFile": ("file", frozenset({"close"})),
    "TemporaryFile": ("file", frozenset({"close"})),
    "socket": ("socket", frozenset({"close", "detach"})),
    "create_connection": ("socket", frozenset({"close", "detach"})),
    "mmap": ("mmap", frozenset({"close"})),
    "Popen": (
        "process",
        frozenset({"wait", "communicate", "terminate", "kill"}),
    ),
}

#: Acquirers whose resource needs EVERY listed release to die (one
#: fact is emitted per release set, so each must be reached on all
#: paths).  A ``SharedMemory`` segment created here (``create=True``)
#: is owned: the owner must drop its mapping with ``close`` AND remove
#: the name with ``unlink`` — missing either leaks a ``/dev/shm``
#: entry.  A plain attachment only maps an existing segment and owes
#: just the ``close``.
_MULTI_RELEASE_ACQUIRERS: dict[
    str, tuple[str, tuple[frozenset[str], ...]]
] = {
    "SharedMemory": (
        "shared_memory",
        (frozenset({"close"}), frozenset({"unlink"})),
    ),
}


def _multi_acquirer_for(
    call: ast.Call,
) -> tuple[str, tuple[frozenset[str], ...]] | None:
    name = dotted_name(call.func)
    if name is None:
        return None
    spec = _MULTI_RELEASE_ACQUIRERS.get(name.rsplit(".", 1)[-1])
    if spec is None:
        return None
    kind, release_sets = spec
    for keyword in call.keywords:
        if keyword.arg == "create":
            value = keyword.value
            if not (
                isinstance(value, ast.Constant) and value.value is False
            ):
                # create=True (or a dynamic value — assume owning).
                return kind, release_sets
            break
    # Attaching to an existing segment: only the mapping is owed.
    return kind, (release_sets[0],)


#: Spawning call -> kind for ``RES002`` facts; released by ``join``.
_SPAWN_CALLS: dict[str, str] = {
    "Thread": "thread",
    "Timer": "thread",
    "Process": "process",
}
_SPAWN_RELEASES = frozenset({"join"})


def _acquirer_for(call: ast.Call) -> tuple[str, frozenset[str]] | None:
    name = dotted_name(call.func)
    if name is None:
        return None
    last = name.rsplit(".", 1)[-1]
    spec = _RESOURCE_ACQUIRERS.get(last)
    if spec is not None:
        return spec
    if last.endswith("_mmap"):
        # Project idiom: helpers like ``_open_stream_mmap`` hand back a
        # live mmap (or None) the caller must close.
        return _RESOURCE_ACQUIRERS["mmap"]
    return None


def _spawner_for(call: ast.Call) -> str | None:
    name = dotted_name(call.func)
    if name is None:
        return None
    return _SPAWN_CALLS.get(name.rsplit(".", 1)[-1])


@dataclass(frozen=True, slots=True)
class Acquisition:
    """One tracked acquisition site within a function."""

    fact: int
    var: str
    kind: str
    releases: frozenset[str]
    line: int
    column: int
    family: str  # "resource" (RES001) or "spawn" (RES002)


class _NodeEvents:
    """Per-CFG-node gen/kill summary, precomputed once."""

    __slots__ = ("gens", "released", "transferred", "rebound")

    def __init__(self) -> None:
        self.gens: list[int] = []
        self.released: set[tuple[str, str]] = set()  # (var, method)
        self.transferred: set[str] = set()
        self.rebound: set[str] = set()


class _Aliases:
    """Union-find over simple ``a = b`` name copies."""

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def find(self, name: str) -> str:
        parent = self._parent
        while parent.get(name, name) != name:
            name = parent[name]
        return name

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


def _escaping_names(expr: ast.expr) -> Iterator[str]:
    """Names whose *object* escapes through this value expression.

    ``return handle`` and ``return (a, handle)`` hand the resource to
    the caller; ``return handle.read()`` hands over only the call's
    result, so the resource itself does not escape.
    """
    if isinstance(expr, ast.Name):
        yield expr.id
    elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        for element in expr.elts:
            yield from _escaping_names(element)
    elif isinstance(expr, ast.Dict):
        for part in list(expr.keys) + list(expr.values):
            if part is not None:
                yield from _escaping_names(part)
    elif isinstance(expr, ast.Starred):
        yield from _escaping_names(expr.value)
    elif isinstance(expr, ast.IfExp):
        yield from _escaping_names(expr.body)
        yield from _escaping_names(expr.orelse)
    elif isinstance(expr, ast.NamedExpr):
        yield from _escaping_names(expr.value)


def _assign_targets(stmt: ast.stmt) -> list[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return stmt.targets
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        return [stmt.target]
    return []


def _assigned_calls(value: ast.expr | None) -> Iterator[ast.Call]:
    """The calls whose result an assignment may bind: the value itself,
    or each arm of a conditional expression."""
    if isinstance(value, ast.IfExp):
        yield from _assigned_calls(value.body)
        yield from _assigned_calls(value.orelse)
    elif isinstance(value, ast.Call):
        yield value


class _LifecycleAnalysis(Analysis[frozenset[int]]):
    """Forward may-hold analysis: which acquisitions are still live.

    The state is the set of acquisition facts that *may* be held; a
    fact surviving to the exit (or raise-exit) node on some path is a
    leak on that path.  Exception edges carry the kills but not the
    gens of their source statement — a statement that raised never
    completed its acquisition, while a release attempt is credited
    even if it raised (``close`` frees the fd even on error).
    """

    direction = "forward"

    def __init__(self, func_node: ast.AST, cfg: CFG):
        self.cfg = cfg
        self.acquisitions: list[Acquisition] = []
        self.aliases = _Aliases()
        self.events: dict[int, _NodeEvents] = {}
        self._by_var: dict[str, list[Acquisition]] = {}
        self._collect(cfg)

    # -- lattice -----------------------------------------------------------

    def bottom(self) -> frozenset[int]:
        return frozenset()

    def join(self, a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
        return a | b

    # -- event collection --------------------------------------------------

    def _canon(self, name: str) -> str:
        return self.aliases.find(name)

    def _collect(self, cfg: CFG) -> None:
        # Alias pass first so acquisition vars canonicalise stably.
        for node in cfg.nodes:
            stmt = node.stmt
            if isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Name
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.aliases.union(target.id, stmt.value.id)
        for node in cfg.nodes:
            if node.stmt is None or node.kind in ("handler",):
                continue
            events = self._events_for(node)
            if events is not None:
                self.events[node.index] = events

    def _events_for(self, node: CFGNode) -> _NodeEvents | None:
        stmt = node.stmt
        events = _NodeEvents()
        walk_root: ast.AST = stmt
        if node.kind == "test":
            walk_root = (
                stmt.test
                if isinstance(stmt, (ast.If, ast.While))
                else stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor))
                else stmt
            )
        if node.kind == "try":
            return None  # body statements have their own nodes
        if node.kind == "with":
            assert isinstance(stmt, (ast.With, ast.AsyncWith))
            for item in stmt.items:
                # ``with f:`` / ``with closing(f):`` manage the release.
                if isinstance(item.context_expr, ast.Name):
                    events.transferred.add(self._canon(item.context_expr.id))
                self._scan_expr(item.context_expr, events)
                for name in self._target_names(item.optional_vars):
                    events.rebound.add(self._canon(name))
            return events

        # Rebinds / stores / returns at statement level.
        if isinstance(stmt, (ast.For, ast.AsyncFor)) and node.kind == "test":
            for name in self._target_names(stmt.target):
                events.rebound.add(self._canon(name))
            self._scan_expr(stmt.iter, events)
            return events
        if node.kind == "test":
            self._scan_expr(walk_root, events)
            return events

        for target in _assign_targets(stmt):
            for name in self._target_names(target):
                events.rebound.add(self._canon(name))
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                value = getattr(stmt, "value", None)
                if value is not None:
                    for used in _escaping_names(value):
                        events.transferred.add(self._canon(used))
        if isinstance(stmt, (ast.Return, ast.Delete)):
            value_nodes = (
                [stmt.value] if isinstance(stmt, ast.Return) else stmt.targets
            )
            for value in value_nodes:
                if value is not None:
                    for used in _escaping_names(value):
                        events.transferred.add(self._canon(used))

        self._scan_stmt(stmt, events)

        # Acquisitions: simple-name binding of an acquiring call, or an
        # explicit ``<target>.acquire()`` lock statement.
        self._scan_acquisitions(stmt, events, node)
        return events

    @staticmethod
    def _target_names(target: ast.expr | None) -> Iterator[str]:
        if target is None:
            return
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                yield sub.id

    @staticmethod
    def _names_in(expr: ast.AST) -> Iterator[str]:
        for sub in _walk_executed(expr):
            if isinstance(sub, ast.Name):
                yield sub.id

    def _scan_stmt(self, stmt: ast.stmt, events: _NodeEvents) -> None:
        for sub in _walk_executed(stmt):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)) and sub.value:
                for used in _escaping_names(sub.value):
                    events.transferred.add(self._canon(used))
            if isinstance(sub, ast.Call):
                self._scan_call(sub, events)

    def _scan_expr(self, expr: ast.AST, events: _NodeEvents) -> None:
        for sub in _walk_executed(expr):
            if isinstance(sub, ast.Call):
                self._scan_call(sub, events)

    def _scan_call(self, call: ast.Call, events: _NodeEvents) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            receiver = dotted_name(func.value)
            if receiver is not None:
                var = (
                    self._canon(receiver) if "." not in receiver else receiver
                )
                events.released.add((var, func.attr))
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for used in self._names_in(arg):
                events.transferred.add(self._canon(used))

    def _scan_acquisitions(
        self, stmt: ast.stmt, events: _NodeEvents, node: CFGNode
    ) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = _assign_targets(stmt)
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                var = self._canon(targets[0].id)
                # The first acquiring arm of ``a() if c else b()`` is
                # tracked: either may be what the name ends up holding.
                for value in _assigned_calls(stmt.value):
                    if self._scan_acquiring_call(value, var, events, node):
                        return
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "acquire"
            ):
                receiver = dotted_name(call.func.value)
                if receiver is not None:
                    var = (
                        self._canon(receiver)
                        if "." not in receiver
                        else receiver
                    )
                    self._add_fact(
                        events,
                        node,
                        var,
                        "lock",
                        frozenset({"release"}),
                        "resource",
                        call,
                    )

    def _scan_acquiring_call(
        self, value: ast.Call, var: str, events: _NodeEvents, node: CFGNode
    ) -> bool:
        """Record the fact(s) ``var = value`` acquires; False when the
        call acquires nothing."""
        multi = _multi_acquirer_for(value)
        if multi is not None:
            kind, release_sets = multi
            for releases in release_sets:
                self._add_fact(
                    events, node, var, kind, releases, "resource", value
                )
            return True
        spec = _acquirer_for(value)
        if spec is not None:
            kind, releases = spec
            self._add_fact(events, node, var, kind, releases, "resource", value)
            return True
        spawn_kind = _spawner_for(value)
        if spawn_kind is not None:
            self._add_fact(
                events, node, var, spawn_kind, _SPAWN_RELEASES, "spawn", value
            )
            return True
        return False

    def _add_fact(
        self,
        events: _NodeEvents,
        node: CFGNode,
        var: str,
        kind: str,
        releases: frozenset[str],
        family: str,
        site: ast.AST,
    ) -> None:
        fact = Acquisition(
            fact=len(self.acquisitions),
            var=var,
            kind=kind,
            releases=releases,
            line=getattr(site, "lineno", node.line),
            column=getattr(site, "col_offset", 0),
            family=family,
        )
        self.acquisitions.append(fact)
        self._by_var.setdefault(var, []).append(fact)
        events.gens.append(fact.fact)

    # -- transfer ----------------------------------------------------------

    def _apply_kills(
        self, events: _NodeEvents, state: frozenset[int]
    ) -> frozenset[int]:
        if not state:
            return state
        dead = set()
        for fact_id in state:
            fact = self.acquisitions[fact_id]
            if fact.var in events.rebound or fact.var in events.transferred:
                dead.add(fact_id)
                continue
            for var, method in events.released:
                if var == fact.var and method in fact.releases:
                    dead.add(fact_id)
                    break
        return state - dead if dead else state

    def transfer(
        self, node: CFGNode, state: frozenset[int]
    ) -> frozenset[int]:
        events = self.events.get(node.index)
        if events is None:
            return state
        state = self._apply_kills(events, state)
        if events.gens:
            state = state | frozenset(events.gens)
        return state

    def flow(
        self,
        cfg: CFG,
        edge: CFGEdge,
        node: CFGNode,
        state: frozenset[int],
    ) -> frozenset[int]:
        events = self.events.get(node.index)
        if events is not None:
            state = self._apply_kills(events, state)
            if edge.kind == "exception":
                # If ``t.start()`` itself raised, no thread was launched
                # — there is nothing to join on this path.
                started = {
                    var for var, method in events.released if method == "start"
                }
                if started and state:
                    state = frozenset(
                        fact_id
                        for fact_id in state
                        if not (
                            self.acquisitions[fact_id].family == "spawn"
                            and self.acquisitions[fact_id].var in started
                        )
                    )
            else:
                if events.gens:
                    state = state | frozenset(events.gens)
        if edge.kind in ("true", "false"):
            state = self._refine_branch(node, edge.kind, state)
        return state

    def _refine_branch(
        self, node: CFGNode, branch: str, state: frozenset[int]
    ) -> frozenset[int]:
        """On the branch edge where a tested name is provably None/falsy,
        its facts cannot be held."""
        stmt = node.stmt
        test = (
            stmt.test if isinstance(stmt, (ast.If, ast.While)) else None
        )
        if test is None or not state:
            return state
        var, none_branch = self._none_branch(test)
        if var is None or branch != none_branch:
            return state
        canon = self._canon(var)
        return frozenset(
            fact_id
            for fact_id in state
            if self.acquisitions[fact_id].var != canon
        )

    @staticmethod
    def _none_branch(test: ast.expr) -> tuple[str | None, str]:
        """``(tested_var, branch_on_which_it_is_None)`` or ``(None, "")``."""
        if isinstance(test, ast.Name):
            return test.id, "false"
        if (
            isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Name)
        ):
            return test.operand.id, "true"
        if (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and len(test.ops) == 1
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            if isinstance(test.ops[0], ast.Is):
                return test.left.id, "true"
            if isinstance(test.ops[0], ast.IsNot):
                return test.left.id, "false"
        return None, ""


@dataclass(slots=True)
class _FunctionFacts:
    """Solved lifecycle analysis of one function."""

    qualname: str
    node: ast.AST
    cfg: CFG
    analysis: _LifecycleAnalysis
    result: DataflowResult[frozenset[int]]

    def leaks(self) -> Iterator[tuple[Acquisition, str]]:
        """``(acquisition, path_kind)`` for facts that survive to an
        exit; ``path_kind`` is ``"exception"`` when the leak happens
        only when an exception escapes, else ``"return"``."""
        at_exit = self.result[self.cfg.exit]
        at_raise = self.result[self.cfg.raise_exit]
        for fact_id in sorted(at_exit | at_raise):
            kind = "return" if fact_id in at_exit else "exception"
            yield self.analysis.acquisitions[fact_id], kind


def _module_facts(module: CheckedModule) -> list[_FunctionFacts]:
    """Build-and-solve once per module; shared by the RES/EXC rules."""
    cached = getattr(module, "_lifecycle_facts", None)
    if cached is not None:
        return cached
    facts: list[_FunctionFacts] = []
    for qualname, func, __ in iter_function_defs(module.tree):
        cfg = build_cfg(func, qualname)
        analysis = _LifecycleAnalysis(func, cfg)
        if not analysis.acquisitions:
            continue
        facts.append(
            _FunctionFacts(qualname, func, cfg, analysis, solve(cfg, analysis))
        )
    module._lifecycle_facts = facts  # type: ignore[attr-defined]
    return facts


class ResourceLeakRule(Rule):
    """``RES001``: every acquisition must reach a release on all paths."""

    rule_id = "RES001"
    title = "resources acquired without 'with' must be released on all paths"
    severity = "error"

    family = "resource"

    def check_module(self, module: CheckedModule) -> Iterator[Violation]:
        for facts in _module_facts(module):
            for acq, path_kind in facts.leaks():
                if acq.family != self.family:
                    continue
                yield Violation(
                    rule_id=self.rule_id,
                    message=self._message(facts, acq, path_kind),
                    path=str(module.path),
                    line=acq.line,
                    column=acq.column,
                    severity=self.severity,
                )

    @staticmethod
    def _message(facts: _FunctionFacts, acq: Acquisition, path: str) -> str:
        where = (
            "when an exception escapes"
            if path == "exception"
            else "on a return path"
        )
        releases = "/".join(sorted(acq.releases))
        return (
            f"{acq.kind} '{acq.var}' acquired in '{facts.qualname}' may "
            f"leak {where}: no {releases} on every path; use 'with', add "
            "a try/finally release, or transfer ownership "
            "(return/store/pass it on)"
        )


class UnjoinedSpawnRule(ResourceLeakRule):
    """``RES002``: spawned threads/processes need a dominating join."""

    rule_id = "RES002"
    title = "spawned threads/processes must be joined or handed off"
    severity = "error"

    family = "spawn"

    def check_module(self, module: CheckedModule) -> Iterator[Violation]:
        yield from super().check_module(module)
        # ``Thread(...).start()`` never bound to a name can never be
        # joined; flag it directly.
        for sub in ast.walk(module.tree):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "start"
                and isinstance(sub.func.value, ast.Call)
                and _spawner_for(sub.func.value) is not None
            ):
                yield self.violation(
                    module,
                    sub,
                    "thread/process is started without being bound to a "
                    "name, so it can never be joined; keep a reference "
                    "and join it (or hand it to an owner with a stop path)",
                )

    @staticmethod
    def _message(facts: _FunctionFacts, acq: Acquisition, path: str) -> str:
        where = (
            "when an exception escapes"
            if path == "exception"
            else "on a return path"
        )
        return (
            f"{acq.kind} '{acq.var}' spawned in '{facts.qualname}' is not "
            f"joined {where}: join it, return/store it for its owner to "
            "join, or register a cleanup"
        )


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in types:
        name = node.attr if isinstance(node, ast.Attribute) else (
            node.id if isinstance(node, ast.Name) else None
        )
        if name in ("Exception", "BaseException"):
            return True
    return False


def _swallows(handler: ast.ExceptHandler) -> bool:
    """No re-raise, no return, no call: the failure vanishes silently."""
    for stmt in handler.body:
        for sub in _walk_executed(stmt):
            if isinstance(sub, (ast.Raise, ast.Return, ast.Call)):
                return False
    return True


class SwallowedExceptionRule(Rule):
    """``EXC001``: broad silent ``except`` while resources are held."""

    rule_id = "EXC001"
    title = "broad except must not silently swallow with resources held"
    severity = "warning"

    def check_module(self, module: CheckedModule) -> Iterator[Violation]:
        for facts in _module_facts(module):
            for sub in ast.walk(facts.node):
                if not isinstance(sub, ast.ExceptHandler):
                    continue
                if not _is_broad_handler(sub) or not _swallows(sub):
                    continue
                state = facts.result.at(sub)
                if not state:
                    continue
                held = sorted(
                    {
                        facts.analysis.acquisitions[fact_id].var
                        for fact_id in state
                    }
                )
                yield self.violation(
                    module,
                    sub,
                    f"except block in '{facts.qualname}' swallows the "
                    f"exception while {', '.join(repr(v) for v in held)} "
                    "is still held; release/account for the failure, "
                    "narrow the exception type, or re-raise",
                )


# -- HOT001 ------------------------------------------------------------------

#: ``.get``/``.put`` receivers that look like queues (never dicts).
_QUEUEISH = ("queue", "_q")

_SOCKET_BLOCKING_METHODS = frozenset({"accept", "recv", "recv_into", "recvfrom"})


def _has_timeout(call: ast.Call) -> bool:
    if any(kw.arg == "timeout" for kw in call.keywords):
        return True
    return False


def _queueish(receiver: str | None) -> bool:
    if receiver is None:
        return False
    lowered = receiver.lower()
    last = lowered.rsplit(".", 1)[-1]
    return any(part in lowered for part in _QUEUEISH) or last == "q"


def _blocking_reason(call: ast.Call, bound_imports: dict[str, str]) -> str | None:
    """Why this call can block unboundedly, or ``None``."""
    name = dotted_name(call.func)
    if name is not None:
        last = name.rsplit(".", 1)[-1]
        if name == "time.sleep" or (
            last == "sleep" and bound_imports.get("sleep") == "time.sleep"
        ):
            return "time.sleep() stalls the loop"
        if name == "input":
            return "input() blocks on the terminal"
        if name == "select.select" and len(call.args) == 3:
            return "select.select() without a timeout blocks indefinitely"
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    method = func.attr
    receiver = dotted_name(func.value)
    if method in _SOCKET_BLOCKING_METHODS:
        return (
            f"socket .{method}() can block indefinitely; set a timeout "
            "and poll a stop flag"
        )
    if method in ("get", "put") and _queueish(receiver):
        if _has_timeout(call):
            return None
        if method == "get" and call.args:
            first = call.args[0]
            if isinstance(first, ast.Constant) and first.value is False:
                return None  # Queue.get(False) is non-blocking
            if len(call.args) >= 2:
                return None  # Queue.get(block, timeout)
        return f"queue .{method}() without a timeout blocks indefinitely"
    if method in ("join", "wait") and not call.args and not _has_timeout(call):
        return f".{method}() without a timeout blocks indefinitely"
    return None


class BlockingHotPathRule(Rule):
    """``HOT001``: no unbounded blocking calls on the hot path."""

    rule_id = "HOT001"
    title = "no blocking calls in '# hot-path' functions or their callees"
    severity = "warning"

    def check_module(self, module: CheckedModule) -> Iterator[Violation]:
        functions = list(iter_function_defs(module.tree))
        by_name: dict[str, list[tuple[str, ast.AST, str | None]]] = {}
        for record in functions:
            by_name.setdefault(record[1].name, []).append(record)

        hot: dict[str, str] = {}  # qualname -> root qualname
        worklist: list[tuple[str, ast.AST, str]] = []
        for qualname, func, __ in functions:
            if self._is_annotated(module, func):
                hot[qualname] = qualname
                worklist.append((qualname, func, qualname))
        while worklist:
            qualname, func, root = worklist.pop()
            for callee_q, callee_f in self._callees(func, by_name):
                if callee_q not in hot:
                    hot[callee_q] = root
                    worklist.append((callee_q, callee_f, root))

        if not hot:
            return
        from repro.check.framework import from_imports

        bound = from_imports(module.tree)
        for qualname, func, __ in functions:
            root = hot.get(qualname)
            if root is None:
                continue
            for call in self._own_calls(func):
                reason = _blocking_reason(call, bound)
                if reason is None:
                    continue
                via = "" if root == qualname else f" (hot via '{root}')"
                yield self.violation(
                    module,
                    call,
                    f"blocking call on hot path '{qualname}'{via}: "
                    f"{reason}; bound it with a timeout or justify with "
                    "'# repro-check: disable=HOT001 -- <why>'",
                )

    @staticmethod
    def _is_annotated(module: CheckedModule, func: ast.AST) -> bool:
        line = getattr(func, "lineno", 0)
        return HOT_PATH_MARKER in module.line_text(line) or (
            HOT_PATH_MARKER in module.line_text(line - 1)
        )

    @staticmethod
    def _own_calls(func: ast.AST) -> Iterator[ast.Call]:
        """Calls in the function's own body, not in nested defs."""
        for stmt in func.body:  # type: ignore[attr-defined]
            for sub in _walk_executed(stmt):
                if isinstance(sub, ast.Call):
                    yield sub

    def _callees(
        self,
        func: ast.AST,
        by_name: dict[str, list[tuple[str, ast.AST, str | None]]],
    ) -> Iterator[tuple[str, ast.AST]]:
        for call in self._own_calls(func):
            target = call.func
            name: str | None = None
            if isinstance(target, ast.Name):
                name = target.id
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls")
            ):
                name = target.attr
            if name is None:
                continue
            for qualname, callee, __ in by_name.get(name, ()):
                yield qualname, callee


LIFECYCLE_RULES: tuple[type[Rule], ...] = (
    ResourceLeakRule,
    UnjoinedSpawnRule,
    SwallowedExceptionRule,
    BlockingHotPathRule,
)
