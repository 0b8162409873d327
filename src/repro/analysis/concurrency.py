"""Concurrency rules: guarded-by inference, lock order, plan immutability.

All three are :class:`~repro.analysis.rules.ProjectRule`s built on the
shared :class:`~repro.analysis.symbols.ProjectModel` (symbol table, type
resolution, call graph, thread entry points) plus the CFG /
reaching-definitions machinery where flow-sensitivity matters (lock
aliases, frozen-array tracking).

guarded-by
    Learns, per lock-owning class, which instance attributes are
    written under a ``with self._lock:`` block outside ``__init__`` —
    those are *guarded* — then flags every lock-free access to them.
    Accesses in functions reachable from a thread entry point
    (``threading.Thread(target=…)``, HTTP handler methods, callbacks
    handed to thread-spawning components) are errors; lock-free
    accesses elsewhere are warnings (still unsafe: they race with the
    threads that do take the lock).

lock-order
    Builds the lock-acquisition graph — an edge ``A -> B`` whenever
    ``B`` is acquired (directly or transitively through calls) while
    ``A`` is held — and flags cycles as deadlock risk, plus direct
    re-acquisition of a non-reentrant ``Lock`` already held.

plan-immutability
    Compiled plans are immutable snapshots: no statement may rebind or
    element-write a ``MADEPlan`` attribute outside ``__init__``, and
    every ndarray stored into a plan/cache slot must be frozen
    (``setflags(write=False)`` or a freezer helper like ``_frozen``)
    on every path that reaches the store.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import Definition, ReachingDefinitions
from repro.analysis.engine import ParsedFile
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import ProjectRule
from repro.analysis.symbols import (
    ClassInfo,
    FunctionInfo,
    LockId,
    ProjectModel,
    build_project_model,
    dotted_name,
    expr_key,
    own_nodes,
)

_INIT_METHODS = {"__init__", "__post_init__", "__new__"}


# ---------------------------------------------------------------------------
# Shared lock-aware function walker
# ---------------------------------------------------------------------------


@dataclass
class HeldLock:
    lock: LockId
    base_key: str  # receiver expression owning the lock ("self", "model")
    node: ast.AST


@dataclass
class AttrAccess:
    """One read/write of ``<base>.<attr>`` with the matching lockset."""

    owner: ClassInfo
    attr: str
    is_write: bool
    locks: frozenset[LockId]  # held locks whose receiver matches the base
    fn: FunctionInfo
    node: ast.Attribute
    pf: ParsedFile


@dataclass
class Acquisition:
    lock: LockId
    base_key: str
    held_before: list[HeldLock]
    fn: FunctionInfo
    node: ast.AST


@dataclass
class CallSite:
    call: ast.Call
    held: list[HeldLock]
    fn: FunctionInfo


@dataclass
class FunctionSummary:
    fn: FunctionInfo
    accesses: list[AttrAccess] = field(default_factory=list)
    acquisitions: list[Acquisition] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)


class _LockWalker:
    """Lexically tracks held locks through one function body."""

    def __init__(self, model: ProjectModel, fn: FunctionInfo):
        self.model = model
        self.fn = fn
        self.summary = FunctionSummary(fn)
        self.held: list[HeldLock] = []
        self._rd: ReachingDefinitions | None = None

    # -- lock resolution ------------------------------------------------
    def _reaching(self) -> ReachingDefinitions:
        if self._rd is None:
            self._rd = ReachingDefinitions(build_cfg(self.fn.node))
        return self._rd

    def _lock_from_attribute(self, expr: ast.Attribute) -> tuple[LockId, str] | None:
        base = expr.value
        cls_name = self.model.resolve_type(base, self.fn)
        for cls in self.model.classes_by_name.get(cls_name or "", []):
            for ancestor in self.model._ancestors(cls):
                kind = ancestor.lock_attrs.get(expr.attr)
                if kind is not None:
                    key = expr_key(base) or "<?>"
                    return LockId(ancestor.name, expr.attr, kind), key
        return None

    def resolve_lock(self, expr: ast.AST, at: ast.AST) -> tuple[LockId, str] | None:
        if isinstance(expr, ast.Attribute):
            return self._lock_from_attribute(expr)
        if isinstance(expr, ast.Name):
            kind = self.model.module_locks.get((self.fn.pf.rel, expr.id))
            if kind is not None:
                return LockId(f"<module:{self.fn.pf.rel}>", expr.id, kind), "<module>"
            # `lock = self._lock` aliases, via reaching definitions.
            try:
                defs = self._reaching().defs_of(at, expr.id)
            except KeyError:
                return None
            resolved: set[tuple[LockId, str]] = set()
            for definition in defs:
                if isinstance(definition.value, ast.Attribute):
                    hit = self._lock_from_attribute(definition.value)
                    if hit is None:
                        return None
                    resolved.add(hit)
                else:
                    return None
            if len(resolved) == 1:
                return next(iter(resolved))
        return None

    # -- traversal ------------------------------------------------------
    def walk(self) -> FunctionSummary:
        self._visit_body(self.fn.node.body)
        return self.summary

    def _visit_body(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # separate scope: a nested def does not run under our locks
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            pushed = 0
            for item in stmt.items:
                hit = self.resolve_lock(item.context_expr, stmt)
                self._scan_exprs([item.context_expr])
                if hit is not None:
                    lock, base_key = hit
                    self.summary.acquisitions.append(
                        Acquisition(lock, base_key, list(self.held), self.fn, stmt)
                    )
                    self.held.append(HeldLock(lock, base_key, stmt))
                    pushed += 1
            self._visit_body(stmt.body)
            for _ in range(pushed):
                self.held.pop()
            return
        if isinstance(stmt, ast.If):
            self._scan_exprs([stmt.test])
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.While,)):
            self._scan_exprs([stmt.test])
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_exprs([stmt.iter, stmt.target])
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self._visit_body(stmt.body)
            for handler in stmt.handlers:
                self._visit_body(handler.body)
            self._visit_body(stmt.orelse)
            self._visit_body(stmt.finalbody)
            return
        if isinstance(stmt, ast.Match):
            self._scan_exprs([stmt.subject])
            for case in stmt.cases:
                self._visit_body(case.body)
            return
        # Simple statement: scan every expression it contains.
        self._scan_exprs([stmt])

    def _scan_exprs(self, roots: Iterable[ast.AST]) -> None:
        for root in roots:
            for node in ast.walk(root):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                if isinstance(node, ast.Call):
                    self.summary.calls.append(CallSite(node, list(self.held), self.fn))
                elif isinstance(node, ast.Attribute):
                    self._record_access(node)

    def _record_access(self, node: ast.Attribute) -> None:
        cls_name = self.model.resolve_type(node.value, self.fn)
        candidates = self.model.classes_by_name.get(cls_name or "", [])
        if len(candidates) != 1:
            return
        owner = candidates[0]
        # Canonicalize to the ancestor that declares the attribute.
        for ancestor in self.model._ancestors(owner):
            if node.attr in ancestor.instance_attrs:
                owner = ancestor
                break
        base_key = expr_key(node.value)
        locks = frozenset(
            held.lock for held in self.held if held.base_key == base_key
        )
        self.summary.accesses.append(
            AttrAccess(
                owner=owner,
                attr=node.attr,
                is_write=isinstance(node.ctx, (ast.Store, ast.Del)),
                locks=locks,
                fn=self.fn,
                node=node,
                pf=self.fn.pf,
            )
        )


def summarize_functions(model: ProjectModel) -> dict[FunctionInfo, FunctionSummary]:
    return {fn: _LockWalker(model, fn).walk() for fn in model.functions}


# ---------------------------------------------------------------------------
# guarded-by
# ---------------------------------------------------------------------------


class GuardedByRule(ProjectRule):
    """Infer lock-guarded attributes; flag lock-free accesses to them.

    An attribute of a lock-owning class is *guarded* when at least one
    write outside ``__init__`` holds one of the class's locks; the guard
    is the intersection of the locksets of all such writes.  Sync
    primitives (events, queues, the locks themselves) and methods /
    properties are never candidates.
    """

    id = "guarded-by"
    severity = Severity.ERROR
    category = "concurrency"
    description = "lock-free access to an attribute otherwise guarded by a lock"

    def check_project(self, files: Sequence[ParsedFile]) -> Iterable[Finding]:
        model = build_project_model(files)
        summaries = summarize_functions(model)

        by_attr: dict[tuple[int, str], list[AttrAccess]] = {}
        owners: dict[int, ClassInfo] = {}
        for summary in summaries.values():
            for access in summary.accesses:
                owners[id(access.owner)] = access.owner
                by_attr.setdefault((id(access.owner), access.attr), []).append(access)

        findings: list[Finding] = []
        for (owner_id, attr), accesses in sorted(
            by_attr.items(), key=lambda kv: (owners[kv[0][0]].name, kv[0][1])
        ):
            owner = owners[owner_id]
            if not owner.lock_attrs:
                continue
            if attr in owner.lock_attrs or attr in owner.sync_attrs:
                continue
            if self._is_callable_member(model, owner, attr):
                continue
            runtime = [a for a in accesses if not self._in_init(a, owner)]
            locked_writes = [a for a in runtime if a.is_write and a.locks]
            if not locked_writes:
                continue
            guard: frozenset[LockId] = frozenset.intersection(
                *(a.locks for a in locked_writes)
            )
            if not guard:
                continue  # writes disagree on the guard; ambiguous, stay silent
            guarded = [a for a in runtime if a.locks & guard]
            for access in runtime:
                if access.locks & guard:
                    continue
                reachable = access.fn in model.reachable
                guard_name = ", ".join(sorted(str(lock) for lock in guard))
                action = "write" if access.is_write else "read"
                where = (
                    "on a thread path (entry: "
                    + self._entry_hint(model, access.fn)
                    + ")"
                    if reachable
                    else "off the traced thread paths, but still racy against them"
                )
                findings.append(
                    Finding(
                        rule=self.id,
                        severity=Severity.ERROR if reachable else Severity.WARNING,
                        path=access.pf.rel,
                        line=access.node.lineno,
                        col=access.node.col_offset,
                        message=(
                            f"{owner.name}.{attr} is guarded by {guard_name} "
                            f"({len(guarded)}/{len(runtime)} accesses hold it) but this "
                            f"{action} in {access.fn.name}() is lock-free, {where}"
                        ),
                    )
                )
        return findings

    @staticmethod
    def _in_init(access: AttrAccess, owner: ClassInfo) -> bool:
        # Construction-time wiring: any __init__ (of the owner or of a
        # component assembling it) runs before the object is shared.
        fn = access.fn
        while fn.parent is not None:
            fn = fn.parent
        return fn.owner is not None and fn.name in _INIT_METHODS

    @staticmethod
    def _is_callable_member(model: ProjectModel, owner: ClassInfo, attr: str) -> bool:
        for ancestor in model._ancestors(owner):
            if attr in ancestor.methods or attr in ancestor.properties:
                return True
        return False

    def _entry_hint(self, model: ProjectModel, fn: FunctionInfo) -> str:
        reason = model.entry_reason(fn)
        if reason is not None:
            return reason
        # Walk back one hop through the call graph for a named entry.
        for entry, why in model.entry_points.items():
            if fn in model.edges.get(entry, ()):  # direct caller is an entry
                return f"{entry.name}: {why}"
        return "thread entry point"


# ---------------------------------------------------------------------------
# lock-order
# ---------------------------------------------------------------------------


class LockOrderRule(ProjectRule):
    """Flag cycles in the lock-acquisition graph and Lock re-entry.

    ``A -> B`` is recorded when ``B`` is acquired while ``A`` is held —
    directly (nested ``with``) or transitively (a call made under ``A``
    reaches code that acquires ``B``).  Any cycle means two threads can
    deadlock by acquiring the locks in opposite orders; re-acquiring a
    non-reentrant ``Lock`` already held is an immediate self-deadlock.
    """

    id = "lock-order"
    severity = Severity.ERROR
    category = "concurrency"
    description = "lock-acquisition cycle (deadlock risk) or Lock re-entry"

    def check_project(self, files: Sequence[ParsedFile]) -> Iterable[Finding]:
        model = build_project_model(files)
        summaries = summarize_functions(model)
        findings: list[Finding] = []

        # Transitive "locks this function may acquire" fixpoint.
        acquires: dict[FunctionInfo, frozenset[LockId]] = {
            fn: frozenset(a.lock for a in summary.acquisitions)
            for fn, summary in summaries.items()
        }
        changed = True
        while changed:
            changed = False
            for fn in model.functions:
                merged = acquires[fn]
                for callee in model.edges.get(fn, ()):
                    merged |= acquires.get(callee, frozenset())
                if merged != acquires[fn]:
                    acquires[fn] = merged
                    changed = True

        # Edges with a representative site each.
        edges: dict[tuple[LockId, LockId], tuple[FunctionInfo, ast.AST]] = {}
        for fn, summary in summaries.items():
            for acq in summary.acquisitions:
                for held in acq.held_before:
                    if held.lock == acq.lock:
                        if acq.lock.kind == "Lock" and held.base_key == acq.base_key:
                            findings.append(
                                self._finding(
                                    fn,
                                    acq.node,
                                    f"non-reentrant {acq.lock} acquired again while "
                                    f"already held in {fn.name}() — self-deadlock",
                                )
                            )
                        continue
                    edges.setdefault((held.lock, acq.lock), (fn, acq.node))
            for site in summary.calls:
                if not site.held:
                    continue
                for callee in model.callees(site.call, fn):
                    for lock in acquires.get(callee, frozenset()):
                        for held in site.held:
                            if held.lock == lock:
                                if lock.kind == "Lock":
                                    findings.append(
                                        self._finding(
                                            fn,
                                            site.call,
                                            f"call to {callee.name}() while holding "
                                            f"{lock} may re-acquire it "
                                            "(non-reentrant Lock) — self-deadlock risk",
                                        )
                                    )
                                continue
                            edges.setdefault((held.lock, lock), (fn, site.call))

        findings.extend(self._cycle_findings(edges))
        return findings

    def _finding(self, fn: FunctionInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=fn.pf.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def _cycle_findings(
        self, edges: dict[tuple[LockId, LockId], tuple[FunctionInfo, ast.AST]]
    ) -> list[Finding]:
        graph: dict[LockId, set[LockId]] = {}
        for (src, dst) in edges:
            graph.setdefault(src, set()).add(dst)
            graph.setdefault(dst, set())
        findings = []
        for component in _strongly_connected(graph):
            if len(component) < 2:
                continue
            ordered = sorted(component, key=str)
            cycle_edges = [
                (a, b) for (a, b) in edges if a in component and b in component
            ]
            sites = "; ".join(
                f"{b} acquired under {a} in {edges[(a, b)][0].name}() at "
                f"{edges[(a, b)][0].pf.rel}:{getattr(edges[(a, b)][1], 'lineno', '?')}"
                for a, b in sorted(cycle_edges, key=lambda e: (str(e[0]), str(e[1])))
            )
            fn, node = edges[cycle_edges[0]]
            findings.append(
                self._finding(
                    fn,
                    node,
                    "lock-order cycle between "
                    + ", ".join(str(lock) for lock in ordered)
                    + f" — threads acquiring in opposite orders deadlock ({sites})",
                )
            )
        return findings


def _strongly_connected(graph: dict[LockId, set[LockId]]) -> list[set[LockId]]:
    """Tarjan's SCC algorithm (iterative)."""
    index: dict[LockId, int] = {}
    low: dict[LockId, int] = {}
    on_stack: set[LockId] = set()
    stack: list[LockId] = []
    components: list[set[LockId]] = []
    counter = [0]

    def strongconnect(root: LockId) -> None:
        work = [(root, iter(graph.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: set[LockId] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)

    for node in graph:
        if node not in index:
            strongconnect(node)
    return components


# ---------------------------------------------------------------------------
# plan-immutability
# ---------------------------------------------------------------------------

# numpy constructors whose result is a fresh, writable ndarray.
_NP_PRODUCERS = {
    "array", "asarray", "ascontiguousarray", "asfortranarray",
    "zeros", "ones", "empty", "full",
    "zeros_like", "ones_like", "empty_like", "full_like",
    "arange", "linspace", "concatenate", "stack", "vstack", "hstack",
    "clip", "where", "argsort",
}
_METHOD_PRODUCERS = {"copy", "astype"}


def _is_array_producer(expr: ast.AST | None) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    if isinstance(func, ast.Attribute):
        if func.attr in _METHOD_PRODUCERS:
            return True
        name = dotted_name(func)
        if name is not None:
            head, _, tail = name.rpartition(".")
            return tail in _NP_PRODUCERS and head.split(".")[0] in ("np", "numpy")
    return False


class PlanImmutabilityRule(ProjectRule):
    """Compiled plans are frozen snapshots; enforce it statically.

    Two sub-checks: (a) no rebinding / element-writing of a plan
    attribute outside the plan's own ``__init__`` — anywhere in the
    project, through any expression whose static type is a plan class;
    (b) inside plan/cache classes and their compiler functions, every
    ndarray stored into an attribute, appended to an attribute list,
    filed into an attribute-derived dict, or passed to the plan
    constructor must be frozen on every reaching path.
    """

    id = "plan-immutability"
    severity = Severity.ERROR
    category = "concurrency"
    description = "write into (or unfrozen array stored in) a compiled-plan object"

    # Attribute rebinds are forbidden on plans; caches may bump counters
    # but every array they store must still be frozen.
    frozen_classes: tuple[str, ...] = ("MADEPlan",)
    freeze_classes: tuple[str, ...] = ("MADEPlan", "RangeMassCache", "PrefixCache")

    def __init__(
        self,
        frozen_classes: tuple[str, ...] | None = None,
        freeze_classes: tuple[str, ...] | None = None,
    ):
        if frozen_classes is not None:
            self.frozen_classes = frozen_classes
        if freeze_classes is not None:
            self.freeze_classes = freeze_classes

    def check_project(self, files: Sequence[ParsedFile]) -> Iterable[Finding]:
        model = build_project_model(files)
        self._freezers = self._find_freezers(model)
        findings: list[Finding] = []
        for fn in model.functions:
            findings.extend(self._check_rebinds(model, fn))
            findings.extend(self._check_freeze_discipline(model, fn))
        return findings

    # -- (a) plan attributes are write-once -----------------------------
    def _check_rebinds(self, model: ProjectModel, fn: FunctionInfo) -> list[Finding]:
        findings = []
        in_plan_init = (
            fn.owner is not None
            and fn.owner.name in self.frozen_classes
            and fn.name in _INIT_METHODS
        )
        if in_plan_init:
            return []
        for node in own_nodes(fn.node):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                attr_node, through_element = self._plan_attr_target(target)
                if attr_node is None:
                    continue
                cls_name = model.resolve_type(attr_node.value, fn)
                if cls_name in self.frozen_classes:
                    what = (
                        "element write through plan attribute"
                        if through_element
                        else "plan attribute rebound"
                    )
                    findings.append(
                        self._finding(
                            fn,
                            node,
                            f"{what} {cls_name}.{attr_node.attr} outside __init__ — "
                            "compiled plans are immutable snapshots shared across "
                            "threads; build a new plan instead",
                        )
                    )
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "out" and isinstance(kw.value, ast.Attribute):
                        cls_name = model.resolve_type(kw.value.value, fn)
                        if cls_name in self.frozen_classes:
                            findings.append(
                                self._finding(
                                    fn,
                                    node,
                                    f"out= writes into plan attribute "
                                    f"{cls_name}.{kw.value.attr} — compiled plans are "
                                    "immutable snapshots",
                                )
                            )
        return findings

    @staticmethod
    def _plan_attr_target(target: ast.AST) -> tuple[ast.Attribute | None, bool]:
        if isinstance(target, ast.Attribute):
            return target, False
        if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Attribute):
            return target.value, True
        return None, False

    # -- (b) arrays stored in plans must be frozen -----------------------
    def _find_freezers(self, model: ProjectModel) -> set[str]:
        """Functions that return a value they froze (``_frozen`` shape)."""
        freezers: set[str] = set()
        for fn in model.functions:
            frozen_names: set[str] = set()
            returns_frozen = False
            for node in own_nodes(fn.node):
                if (
                    isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "setflags"
                    and isinstance(node.value.func.value, ast.Name)
                    and any(
                        kw.arg == "write"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                        for kw in node.value.keywords
                    )
                ):
                    frozen_names.add(node.value.func.value.id)
                if (
                    isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in frozen_names
                ):
                    returns_frozen = True
            if returns_frozen:
                freezers.add(fn.name)
        return freezers

    def _is_frozen_expr(self, expr: ast.AST) -> bool:
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, (ast.Name, ast.Attribute))
            and (dotted_name(expr.func) or "").split(".")[-1] in self._freezers
        )

    def _check_freeze_discipline(
        self, model: ProjectModel, fn: FunctionInfo
    ) -> list[Finding]:
        in_plan_class = fn.owner is not None and fn.owner.name in self.freeze_classes
        returns_plan = (
            fn.node.returns is not None
            and model._ann_to_type_name(fn.node.returns) in self.freeze_classes
        )
        constructor_calls = [
            node
            for node in own_nodes(fn.node)
            if isinstance(node, ast.Call)
            and (dotted_name(node.func) or "").split(".")[-1] in self.freeze_classes
            and (dotted_name(node.func) or "").split(".")[-1]
            in model.classes_by_name
        ]
        if not (in_plan_class or returns_plan or constructor_calls):
            return []

        findings: list[Finding] = []
        rd: ReachingDefinitions | None = None

        def reaching(at: ast.AST, name: str) -> frozenset[Definition] | None:
            nonlocal rd
            if rd is None:
                rd = ReachingDefinitions(build_cfg(fn.node))
            try:
                return rd.defs_of(at, name)
            except KeyError:
                return None

        def value_verdict(expr: ast.AST, at: ast.AST) -> str | None:
            """None = fine/unknown; otherwise a description of the leak."""
            if self._is_frozen_expr(expr):
                return None
            if _is_array_producer(expr):
                return "a freshly-built writable array"
            if isinstance(expr, ast.Name):
                defs = reaching(at, expr.id)
                if not defs:
                    return None
                for definition in defs:
                    if definition.kind == "freeze":
                        continue
                    if _is_array_producer(definition.value) and not (
                        definition.value is not None
                        and self._is_frozen_expr(definition.value)
                    ):
                        line = getattr(definition.node, "lineno", "?")
                        return f"a writable array built at line {line}"
                return None
            return None

        own = list(own_nodes(fn.node))
        if in_plan_class or returns_plan:
            for node in own:
                # self.X = <array expr>, allowing a later explicit
                # `self.X.setflags(write=False)` in the same function.
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and in_plan_class
                    ):
                        verdict = value_verdict(node.value, node)
                        if verdict is not None and not self._frozen_later(
                            own, node, f"self.{target.attr}"
                        ):
                            findings.append(
                                self._finding(
                                    fn,
                                    node,
                                    f"{fn.owner.name}.{target.attr} stores {verdict} "
                                    "without freezing it — call .setflags(write=False) "
                                    "or wrap it in a freezer helper",
                                )
                            )
                # <self-derived container>.append(v) / [k] = v
                stored = self._container_store(model, fn, node, reaching)
                if stored is not None:
                    value, container_desc = stored
                    verdict = value_verdict(value, node)
                    if verdict is not None:
                        findings.append(
                            self._finding(
                                fn,
                                node,
                                f"{container_desc} stores {verdict} without freezing "
                                "it — shared plan/cache arrays must be read-only",
                            )
                        )
        for call in constructor_calls:
            cls_name = (dotted_name(call.func) or "").split(".")[-1]
            for arg in (*call.args, *(kw.value for kw in call.keywords)):
                verdict = value_verdict(arg, self._enclosing_stmt(fn, call) or call)
                if verdict is not None:
                    findings.append(
                        self._finding(
                            fn,
                            call,
                            f"{cls_name}(...) receives {verdict} — freeze arrays "
                            "before constructing an immutable plan",
                        )
                    )
        return findings

    @staticmethod
    def _frozen_later(own: list[ast.AST], after: ast.AST, target_key: str) -> bool:
        after_line = getattr(after, "lineno", 0)
        for node in own:
            if getattr(node, "lineno", 0) <= after_line:
                continue
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "setflags"
                and expr_key(node.value.func.value) == target_key
                and any(
                    kw.arg == "write"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in node.value.keywords
                )
            ):
                return True
        return False

    def _container_store(self, model, fn, node, reaching):
        """(stored value, container description) for plan-container stores."""
        # self.X.append(v) — or alias.append(v) where alias derives from self.
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "append"
            and node.value.args
        ):
            base = node.value.func.value
            if self._derives_from_self(base, node, reaching):
                return node.value.args[0], f"{expr_key(base) or 'plan container'}.append"
        # container[key] = v
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Subscript)
        ):
            base = node.targets[0].value
            if self._derives_from_self(base, node, reaching):
                return node.value, f"{expr_key(base) or 'plan container'}[...]"
        return None

    def _derives_from_self(self, base: ast.AST, at: ast.AST, reaching) -> bool:
        key = expr_key(base)
        if key is not None and key.startswith("self."):
            return True
        if isinstance(base, ast.Name):
            defs = reaching(at, base.id) or frozenset()
            for definition in defs:
                value = definition.value
                if value is None:
                    continue
                value_key = None
                if isinstance(value, ast.Attribute):
                    value_key = expr_key(value)
                elif isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
                    value_key = expr_key(value.func.value)
                elif isinstance(value, ast.Subscript):
                    value_key = expr_key(value.value)
                if value_key is not None and value_key.startswith("self."):
                    return True
        return False

    @staticmethod
    def _enclosing_stmt(fn: FunctionInfo, call: ast.Call) -> ast.AST | None:
        for node in own_nodes(fn.node):
            if isinstance(node, ast.stmt):
                for sub in ast.walk(node):
                    if sub is call:
                        return node
        return None

    def _finding(self, fn: FunctionInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=fn.pf.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
