"""Shared AST-visit/dataflow core for the interprocedural lint passes.

Two layers live here:

* :class:`DataflowWalker` — the generic scoped statement/expression
  traversal (an abstract-value environment threaded through assignments,
  function/class scopes, loops, and comprehensions).  The unit-inference
  pass (:class:`repro.lint.units_pass.UnitInference`) subclasses it and
  overrides the value hooks; future passes get the traversal for free.

* :class:`ModuleFlow` — a lightweight module-level call graph with
  per-function *effect* inference, built once per file and cached on the
  :class:`~repro.lint.engine.SourceFile`.  Effects are conservative
  name-and-shape heuristics, not types:

  - ``blocking`` — the function directly performs work that stalls the
    calling thread: ``time.sleep``, sync file I/O (``open``,
    ``Path.write_text``/``read_text``, ``os.fsync``), ``subprocess``,
    pool/queue/future ``.get``/``.join``/``.wait``/``.result``, or a
    journaled (flushed + fsynced) log write such as
    ``self.request_log.record(...)``.
  - ``fsync`` / ``replace`` — the function calls ``os.fsync`` /
    ``os.replace`` (the atoms of the durable-write pattern).
  - ``touches-loop`` — the function drives an asyncio event loop
    (``get_event_loop``, ``run_until_complete``, ...), which does not
    survive a ``fork()``.
  - ``uses-lock`` — the function enters a ``with <...lock...>:`` block.

  :meth:`ModuleFlow.effects` closes these transitively over the local
  call graph (``self.method(...)``, bare local/nested functions), so a
  blocking call three helpers deep is still attributed to the ``async
  def`` that reaches it.  Function *references* (e.g. the callable
  handed to ``loop.run_in_executor`` or ``asyncio.to_thread``) create no
  call edge — which is exactly why hopping to an executor is the
  sanctioned fix for NM401.

The module also hosts the class-level lock-discipline analysis behind
NM402 (:func:`analyze_lock_discipline`): per class, every mutation of a
``self.<attr>`` is classified as under-lock (lexically inside ``with
self._lock:``, or inside a private helper that is only ever called from
under the lock) or lock-free; an attribute mutated both ways is the
exact shape of the historical ``CircuitBreaker`` half-open bug.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DataflowWalker",
    "FunctionInfo",
    "LockViolation",
    "ModuleFlow",
    "SpawnSite",
    "WriteOpen",
    "analyze_lock_discipline",
]


# ---------------------------------------------------------------------------
# The generic scoped walker (subclassed by units_pass.UnitInference)
# ---------------------------------------------------------------------------


class DataflowWalker:
    """Scoped AST traversal threading an abstract-value environment.

    ``env`` maps local names to pass-specific abstract values (``None``
    meaning unknown).  Subclasses override the three hooks:

    * :meth:`eval_expr` — infer the abstract value of one expression
      (call ``super().eval_expr`` for the generic child walk);
    * :meth:`bind` — record a binding of ``target`` to a value;
    * :meth:`on_aug_assign` — handle ``+=``-style statements.

    The traversal itself — statement dispatch, function/class/loop/
    comprehension scoping, and the generic fallbacks that keep the
    walker total over any parseable module — lives here and is shared
    by every pass.
    """

    # -- entry point ---------------------------------------------------------

    def walk_module(self, tree: ast.Module) -> None:
        self.exec_body(tree.body, {})

    # -- hooks ---------------------------------------------------------------

    def eval_expr(self, node: ast.expr, env: Dict[str, object]) -> object:
        """Infer ``node``'s abstract value; default walks children."""
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            inner = dict(env)
            for comp in node.generators:
                self.eval_expr(comp.iter, inner)
                for name in self.bound_names(comp.target):
                    inner.pop(name, None)
                for cond in comp.ifs:
                    self.eval_expr(cond, inner)
            if isinstance(node, ast.DictComp):
                self.eval_expr(node.key, inner)
                self.eval_expr(node.value, inner)
            else:
                self.eval_expr(node.elt, inner)
            return None
        if isinstance(node, ast.Lambda):
            self.eval_expr(node.body, dict(env))
            return None
        if isinstance(node, ast.NamedExpr):
            value = self.eval_expr(node.value, env)
            self.bind(node.target, value, node, env)
            return value
        # Generic fallback (Subscript, Tuple, List, Dict, JoinedStr, ...):
        # walk children for events, infer no value.
        for _, item in ast.iter_fields(node):
            if isinstance(item, ast.expr):
                self.eval_expr(item, env)
            elif isinstance(item, list):
                for child in item:
                    if isinstance(child, ast.expr):
                        self.eval_expr(child, env)
                    elif isinstance(child, ast.AST):
                        self.exec_fragment(child, env)
            elif isinstance(item, ast.AST):
                self.exec_fragment(item, env)
        return None

    def bind(self, target: ast.expr, value: object, stmt: ast.AST,
             env: Dict[str, object]) -> None:
        """Record ``target = value``; default tracks plain names only."""
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for name in self.bound_names(target):
                env[name] = None

    def on_aug_assign(self, stmt: ast.AugAssign,
                      env: Dict[str, object]) -> None:
        self.eval_expr(stmt.value, env)

    # -- statements ----------------------------------------------------------

    def exec_body(self, body: Iterable[ast.stmt],
                  env: Dict[str, object]) -> None:
        for stmt in body:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: ast.stmt, env: Dict[str, object]) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval_expr(stmt.value, env)
            for target in stmt.targets:
                self.bind(target, value, stmt, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval_expr(stmt.value, env)
                self.bind(stmt.target, value, stmt, env)
        elif isinstance(stmt, ast.AugAssign):
            self.on_aug_assign(stmt, env)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for default in list(stmt.args.defaults) + [
                d for d in stmt.args.kw_defaults if d is not None
            ]:
                self.eval_expr(default, env)
            for decorator in stmt.decorator_list:
                self.eval_expr(decorator, env)
            self.exec_body(stmt.body, dict(env))
        elif isinstance(stmt, ast.ClassDef):
            for base in stmt.bases:
                self.eval_expr(base, env)
            self.exec_body(stmt.body, dict(env))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval_expr(stmt.iter, env)
            for name in self.bound_names(stmt.target):
                env.pop(name, None)
            self.exec_body(stmt.body, env)
            self.exec_body(stmt.orelse, env)
        else:
            # Generic statement: infer every embedded expression, execute
            # every embedded body.  Covers If/While/With/Try/Return/Expr/
            # Raise/Assert/Match/... without enumerating them.
            for _, item in ast.iter_fields(stmt):
                if isinstance(item, ast.expr):
                    self.eval_expr(item, env)
                elif isinstance(item, list):
                    if item and isinstance(item[0], ast.stmt):
                        self.exec_body(item, env)
                    else:
                        for child in item:
                            if isinstance(child, ast.expr):
                                self.eval_expr(child, env)
                            elif isinstance(child, ast.stmt):
                                self.exec_stmt(child, env)
                            elif isinstance(child, ast.AST):
                                self.exec_fragment(child, env)
                elif isinstance(item, ast.AST):
                    self.exec_fragment(item, env)

    def exec_fragment(self, node: ast.AST, env: Dict[str, object]) -> None:
        """Handle odd AST containers (withitem, excepthandler, ...)."""
        for _, item in ast.iter_fields(node):
            if isinstance(item, ast.expr):
                self.eval_expr(item, env)
            elif isinstance(item, list):
                for child in item:
                    if isinstance(child, ast.stmt):
                        self.exec_stmt(child, env)
                    elif isinstance(child, ast.expr):
                        self.eval_expr(child, env)
                    elif isinstance(child, ast.AST):
                        self.exec_fragment(child, env)
            elif isinstance(item, ast.AST):
                self.exec_fragment(item, env)

    # -- helpers -------------------------------------------------------------

    def bound_names(self, target: ast.expr) -> List[str]:
        return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]


# ---------------------------------------------------------------------------
# Effect vocabulary and call-shape heuristics
# ---------------------------------------------------------------------------

EFFECT_BLOCKING = "blocking"
EFFECT_FSYNC = "fsync"
EFFECT_REPLACE = "replace"
EFFECT_TOUCHES_LOOP = "touches-loop"
EFFECT_USES_LOCK = "uses-lock"

#: ``module.attr`` calls that block the calling thread outright.
_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"): "time.sleep()",
    ("os", "fsync"): "os.fsync()",
    ("os", "fdatasync"): "os.fdatasync()",
    ("os", "system"): "os.system()",
    ("os", "popen"): "os.popen()",
    ("os", "wait"): "os.wait()",
    ("socket", "create_connection"): "socket.create_connection()",
}

#: ``pathlib.Path`` methods that are sync file I/O whoever the receiver is.
_PATH_IO_METHODS = {
    "write_text", "write_bytes", "read_text", "read_bytes",
}

#: ``.get``/``.join``/``.wait``/``.result`` block when the receiver looks
#: like a pool, queue, process, thread, or future.
_SYNC_WAIT_METHODS = frozenset({"get", "join", "wait", "result"})
_SYNC_WAIT_RECEIVERS = frozenset({
    "pool", "queue", "proc", "process", "thread", "future", "worker",
})

#: A ``.record``/``.write``/``.flush`` on a journal-shaped receiver is a
#: durable (flushed + fsynced) write: blocking even though the callee
#: lives in another module the local call graph cannot see.
_DURABLE_LOG_METHODS = frozenset({"record", "write", "flush"})
_DURABLE_LOG_RECEIVERS = frozenset({"log", "journal", "lease", "manifest"})

#: asyncio APIs that capture or drive an event loop (fork-hostile).
_LOOP_API_NAMES = frozenset({
    "get_event_loop", "get_running_loop", "new_event_loop",
    "run_until_complete", "run_coroutine_threadsafe",
})

#: Name fragments marking a with-item as a lock.
_LOCK_TOKENS = ("lock", "mutex")

#: Identifier tokens that mark a fork-spawn argument as a concurrency
#: primitive that must not cross ``fork()``.
_FORK_HAZARD_TOKENS = frozenset({
    "lock", "rlock", "mutex", "thread", "loop", "executor",
    "semaphore", "condition", "barrier",
})

#: Methods whose dunder-free receiver they mutate in place (for NM402).
_MUTATING_METHODS = frozenset({
    "append", "add", "update", "extend", "insert", "pop", "popitem",
    "remove", "discard", "clear", "setdefault",
})

#: Methods where lock-free ``self`` mutation is by construction safe:
#: the object is not shared yet (or is being torn down by its owner).
_LOCK_EXEMPT_METHODS = frozenset({
    "__init__", "__new__", "__post_init__", "__del__",
})

#: open() modes that truncate/create (need fsync *and* os.replace) vs
#: append (fsync alone matches the journal pattern).
_TRUNCATE_MODES = ("w", "x", "+")

#: Path/name fragments that mark a file as durable state: the journals,
#: leases, manifests, and checkpoint/log files that crash recovery
#: depends on.
_DURABLE_FILE_TOKENS = (
    "journal", "lease", "manifest", "heartbeat", "checkpoint", "log",
)


def dotted_path(func: ast.expr) -> Tuple[str, ...]:
    """``a.b.c(...)`` -> ``("a", "b", "c")``; best effort, ``()`` if odd."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        parts.append("?")  # chained call / subscript receiver
    else:
        return ()
    return tuple(reversed(parts))


def _identifier_tokens(node: ast.AST) -> List[str]:
    """Lower-cased ``_``-split tokens of every identifier in ``node``."""
    tokens: List[str] = []
    for child in ast.walk(node):
        name = None
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        elif isinstance(child, ast.arg):
            name = child.arg
        if name:
            tokens.extend(part for part in name.lower().split("_") if part)
    return tokens


def _string_fragments(node: ast.AST) -> List[str]:
    return [
        child.value.lower()
        for child in ast.walk(node)
        if isinstance(child, ast.Constant) and isinstance(child.value, str)
    ]


# ---------------------------------------------------------------------------
# Per-function facts
# ---------------------------------------------------------------------------


@dataclass
class WriteOpen:
    """One file-write site (``open(..., "w")`` / ``Path.write_text``)."""

    node: ast.AST
    kind: str        # "open" | "write_text" | "write_bytes"
    mode: str        # the open() mode string ("" for write_text/bytes)
    durable: bool    # path/name context mentions a durable-file token
    what: str        # human description of the written file


@dataclass
class SpawnSite:
    """One ``Process(target=...)`` fork spawn."""

    node: ast.AST
    target_name: str
    target_qualname: Optional[str]           # resolved local target
    hazardous_args: Tuple[str, ...] = ()     # lock/thread/loop-ish names


@dataclass
class FunctionInfo:
    """One function (or method, or nested def) and its direct facts."""

    qualname: str
    name: str
    node: ast.AST
    is_async: bool
    class_name: Optional[str]
    parent: Optional[str]  # enclosing function qualname, if nested
    direct_effects: set = field(default_factory=set)
    #: direct blocking call sites: ``(call node, description)``.
    blocking_sites: List[Tuple[ast.AST, str]] = field(default_factory=list)
    #: resolved local call edges: ``(call node, callee qualname)``.
    calls: List[Tuple[ast.AST, str]] = field(default_factory=list)
    write_opens: List[WriteOpen] = field(default_factory=list)
    spawns: List[SpawnSite] = field(default_factory=list)


# ---------------------------------------------------------------------------
# NM402 lock-discipline analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LockViolation:
    """One lock-free mutation of an attribute that is elsewhere locked."""

    node: ast.AST
    class_name: str
    attr: str
    lock_name: str
    method: str
    locked_methods: Tuple[str, ...]


def _lock_name_of(node: ast.expr) -> Optional[str]:
    """The lock a with-item enters, if its name says it is one."""
    target = node
    if isinstance(target, ast.Call):  # with self._lock.acquire_timeout(...)
        target = target.func
        if isinstance(target, ast.Attribute):
            target = target.value
    if isinstance(target, ast.Attribute) and any(
        token in target.attr.lower() for token in _LOCK_TOKENS
    ):
        return target.attr
    if isinstance(target, ast.Name) and any(
        token in target.id.lower() for token in _LOCK_TOKENS
    ):
        return target.id
    return None


def _self_attr_root(node: ast.expr) -> Optional[str]:
    """The attribute directly on ``self`` under subscripts/attributes."""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return node.attr
            node = node.value
        else:
            return None


@dataclass
class _MethodFacts:
    name: str
    #: ``(attr, node, under_lock)`` for every ``self.<attr>`` mutation.
    mutations: List[Tuple[str, ast.AST, bool]] = field(default_factory=list)
    #: ``callee method name -> [under_lock at each call site]``.
    self_calls: Dict[str, List[bool]] = field(default_factory=dict)
    lock_names: List[str] = field(default_factory=list)


def _scan_method(method: ast.AST) -> _MethodFacts:
    facts = _MethodFacts(name=method.name)

    def visit(node: ast.AST, under: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = under
            for item in node.items:
                lock = _lock_name_of(item.context_expr)
                if lock is not None:
                    inner = True
                    facts.lock_names.append(lock)
                visit(item.context_expr, under)
                if item.optional_vars is not None:
                    visit(item.optional_vars, under)
            for stmt in node.body:
                visit(stmt, inner)
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                attr = _self_attr_root(target)
                if attr is not None and not any(
                    token in attr.lower() for token in _LOCK_TOKENS
                ):
                    facts.mutations.append((attr, node, under))
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if isinstance(func.value, ast.Name) \
                        and func.value.id == "self":
                    facts.self_calls.setdefault(func.attr, []).append(under)
                elif func.attr in _MUTATING_METHODS:
                    attr = _self_attr_root(func.value)
                    if attr is not None:
                        facts.mutations.append((attr, node, under))
        for child in ast.iter_child_nodes(node):
            visit(child, under)

    for stmt in method.body:
        visit(stmt, False)
    return facts


def analyze_lock_discipline(tree: ast.Module) -> List[LockViolation]:
    """Find attributes mutated both under a class lock and lock-free.

    Per class: mutation sites of ``self.<attr>`` are *under-lock* when
    lexically inside ``with self._lock:`` (any with-item whose name
    contains ``lock``/``mutex``), or inside a private helper method whose
    every intra-class call site is under the lock (the sanctioned
    ``_foo_locked`` helper pattern).  ``__init__``-family methods are
    exempt lock-free — the object is not shared yet.  An attribute with
    mutations in both classes of site is reported at each lock-free one.
    """
    violations: List[LockViolation] = []
    for classdef in ast.walk(tree):
        if not isinstance(classdef, ast.ClassDef):
            continue
        methods = [
            item for item in classdef.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        scans = [_scan_method(method) for method in methods]
        lock_names = sorted({
            name for scan in scans for name in scan.lock_names
        })
        if not lock_names:
            continue  # no lock discipline to be inconsistent about
        # Private helpers whose every intra-class call site holds the lock.
        call_sites: Dict[str, List[bool]] = {}
        for scan in scans:
            for callee, unders in scan.self_calls.items():
                call_sites.setdefault(callee, []).extend(unders)
        locked_helpers = {
            name for name, unders in call_sites.items()
            if name.startswith("_") and unders and all(unders)
        }
        # attr -> (locked sites, free sites)
        by_attr: Dict[str, Tuple[list, list]] = {}
        for scan in scans:
            helper_locked = scan.name in locked_helpers
            for attr, node, under in scan.mutations:
                locked, free = by_attr.setdefault(attr, ([], []))
                if under or helper_locked:
                    locked.append((scan.name, node))
                elif scan.name not in _LOCK_EXEMPT_METHODS:
                    free.append((scan.name, node))
        for attr, (locked, free) in sorted(by_attr.items()):
            if not locked or not free:
                continue
            locked_methods = tuple(sorted({name for name, _ in locked}))
            for method_name, node in free:
                violations.append(LockViolation(
                    node=node,
                    class_name=classdef.name,
                    attr=attr,
                    lock_name=lock_names[0],
                    method=method_name,
                    locked_methods=locked_methods,
                ))
    return violations


# ---------------------------------------------------------------------------
# The module-level call graph + effect inference
# ---------------------------------------------------------------------------


class _FunctionCollector:
    """Index every def in a module with a dotted qualname."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        #: enclosing-function qualname (or None) -> {bare name: qualname}
        self.children: Dict[Optional[str], Dict[str, str]] = {}
        #: (class name, method name) -> qualname
        self.methods: Dict[Tuple[str, str], str] = {}

    def collect(self, tree: ast.Module) -> None:
        self._walk(tree.body, class_name=None, parent=None, prefix="")

    def _walk(self, body: Sequence[ast.stmt], class_name: Optional[str],
              parent: Optional[str], prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + stmt.name
                if qualname in self.functions:  # redefinition: keep first
                    continue
                info = FunctionInfo(
                    qualname=qualname,
                    name=stmt.name,
                    node=stmt,
                    is_async=isinstance(stmt, ast.AsyncFunctionDef),
                    class_name=class_name,
                    parent=parent,
                )
                self.functions[qualname] = info
                self.children.setdefault(parent, {})[stmt.name] = qualname
                if class_name is not None and parent is None:
                    self.methods.setdefault(
                        (class_name, stmt.name), qualname
                    )
                self._walk(
                    stmt.body, class_name=None, parent=qualname,
                    prefix=qualname + ".",
                )
            elif isinstance(stmt, ast.ClassDef):
                self._walk(
                    stmt.body, class_name=stmt.name, parent=parent,
                    prefix=prefix + stmt.name + ".",
                )
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef)):
                        self._walk(
                            [child], class_name=class_name, parent=parent,
                            prefix=prefix,
                        )


def _blocking_description(call: ast.Call) -> Optional[str]:
    """Why this call blocks the calling thread, or ``None``."""
    path = dotted_path(call.func)
    if not path:
        return None
    if path == ("open",):
        return "sync file I/O (open())"
    if len(path) >= 2:
        tail = path[-2:]
        if tail in _BLOCKING_MODULE_CALLS:
            return _BLOCKING_MODULE_CALLS[tail]
        if path[0] == "subprocess" or (
            len(path) >= 2 and path[-2] == "subprocess"
        ):
            return f"subprocess.{path[-1]}()"
    method = path[-1]
    if method in _PATH_IO_METHODS:
        return f"sync file I/O (.{method}())"
    if isinstance(call.func, ast.Attribute):
        receiver_tokens = set(_identifier_tokens(call.func.value))
        if method in _SYNC_WAIT_METHODS \
                and receiver_tokens & _SYNC_WAIT_RECEIVERS:
            return f"worker-pool/queue .{method}()"
        if method in _DURABLE_LOG_METHODS \
                and receiver_tokens & _DURABLE_LOG_RECEIVERS:
            return f"journaled (fsynced) .{method}() write"
    return None


def _write_open_of(call: ast.Call) -> Optional[Tuple[str, str, ast.expr]]:
    """``(kind, mode, path expr)`` if this call writes a file."""
    path = dotted_path(call.func)
    if path == ("open",) and call.args:
        mode = ""
        if len(call.args) >= 2:
            mode_node = call.args[1]
            if isinstance(mode_node, ast.Constant) \
                    and isinstance(mode_node.value, str):
                mode = mode_node.value
            else:
                return None  # dynamic mode: assume the caller knows
        for keyword in call.keywords:
            if keyword.arg == "mode":
                if isinstance(keyword.value, ast.Constant) \
                        and isinstance(keyword.value.value, str):
                    mode = keyword.value.value
                else:
                    return None
        if any(flag in mode for flag in ("w", "a", "x", "+")):
            return ("open", mode, call.args[0])
        return None
    if path and path[-1] in ("write_text", "write_bytes") \
            and isinstance(call.func, ast.Attribute):
        return (path[-1], "", call.func.value)
    return None


def _durable_context(info: FunctionInfo, path_expr: ast.expr) -> bool:
    context = [info.name.lower()]
    if info.class_name:
        context.append(info.class_name.lower())
    context.extend(_identifier_tokens(path_expr))
    context.extend(_string_fragments(path_expr))
    blob = " ".join(context)
    return any(token in blob for token in _DURABLE_FILE_TOKENS)


def _spawn_site(call: ast.Call) -> Optional[Tuple[str, List[ast.expr]]]:
    """``(target name, arg exprs)`` if this is ``Process(target=...)``."""
    path = dotted_path(call.func)
    if not path or path[-1] != "Process":
        return None
    target_name = None
    arg_exprs: List[ast.expr] = []
    for keyword in call.keywords:
        if keyword.arg == "target":
            target = keyword.value
            if isinstance(target, ast.Name):
                target_name = target.id
            elif isinstance(target, ast.Attribute):
                target_name = target.attr
        elif keyword.arg in ("args", "kwargs"):
            arg_exprs.append(keyword.value)
    if target_name is None:
        return None
    return target_name, arg_exprs


class _EffectScanner:
    """Extract one function's direct effects, edges, writes, and spawns."""

    def __init__(self, info: FunctionInfo, flow: "ModuleFlow") -> None:
        self.info = info
        self.flow = flow

    def scan(self) -> None:
        for stmt in self.info.node.body:
            self._visit(stmt)

    def _visit(self, node: ast.AST) -> None:
        # Nested defs are separate FunctionInfos; lambdas are opaque
        # (their bodies run later, usually on an executor or a worker).
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            if any(
                _lock_name_of(item.context_expr) is not None
                for item in node.items
            ):
                self.info.direct_effects.add(EFFECT_USES_LOCK)
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            # An awaited call yields a coroutine/future: by definition
            # it does not block the loop, whatever its name looks like
            # (``await queue.get()`` is the asyncio.Queue protocol).
            self._visit_call(node.value, awaited=True)
            for child in ast.iter_child_nodes(node.value):
                self._visit(child)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit_call(self, call: ast.Call, awaited: bool = False) -> None:
        info = self.info
        path = dotted_path(call.func)
        description = None if awaited else _blocking_description(call)
        if description is not None:
            info.direct_effects.add(EFFECT_BLOCKING)
            info.blocking_sites.append((call, description))
        if path[-2:] in (("os", "fsync"), ("os", "fdatasync")):
            info.direct_effects.add(EFFECT_FSYNC)
        if path[-2:] in (("os", "replace"), ("os", "rename")):
            info.direct_effects.add(EFFECT_REPLACE)
        if path and path[-1] in _LOOP_API_NAMES:
            info.direct_effects.add(EFFECT_TOUCHES_LOOP)
        write = _write_open_of(call)
        if write is not None:
            kind, mode, path_expr = write
            info.write_opens.append(WriteOpen(
                node=call,
                kind=kind,
                mode=mode,
                durable=_durable_context(info, path_expr),
                what=ast.unparse(path_expr) if hasattr(ast, "unparse")
                else "<path>",
            ))
        spawn = _spawn_site(call)
        if spawn is not None:
            target_name, arg_exprs = spawn
            hazards = []
            for expr in arg_exprs:
                for child in ast.walk(expr):
                    name = None
                    if isinstance(child, ast.Name):
                        name = child.id
                    elif isinstance(child, ast.Attribute):
                        name = child.attr
                    if name and set(
                        part for part in name.lower().split("_") if part
                    ) & _FORK_HAZARD_TOKENS:
                        hazards.append(name)
            info.spawns.append(SpawnSite(
                node=call,
                target_name=target_name,
                target_qualname=self.flow.resolve(info, target_name),
                hazardous_args=tuple(dict.fromkeys(hazards)),
            ))
        callee = self._resolve_call(call)
        if callee is not None:
            info.calls.append((call, callee))

    def _resolve_call(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            return self.flow.resolve(self.info, func.id)
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in ("self", "cls"):
            return self.flow.resolve_method(self.info, func.attr)
        return None


class ModuleFlow:
    """The per-module call graph, effect closure, and NM402 lock report."""

    def __init__(self, tree: ast.Module) -> None:
        collector = _FunctionCollector()
        collector.collect(tree)
        self.functions = collector.functions
        self._children = collector.children
        self._methods = collector.methods
        self._effects_memo: Dict[str, frozenset] = {}
        for info in self.functions.values():
            _EffectScanner(info, self).scan()
        self.lock_violations = analyze_lock_discipline(tree)

    # -- name resolution -----------------------------------------------------

    def resolve(self, caller: FunctionInfo, name: str) -> Optional[str]:
        """A bare name: sibling nested def, else module-level function."""
        scope: Optional[str] = caller.qualname
        while True:
            found = self._children.get(scope, {}).get(name)
            if found is not None and found != caller.qualname:
                return found
            if scope is None:
                return None
            scope = self.functions[scope].parent if scope in self.functions \
                else None

    def resolve_method(self, caller: FunctionInfo,
                       name: str) -> Optional[str]:
        """``self.name(...)`` inside a method of the same class."""
        class_name = caller.class_name
        if class_name is None and caller.parent is not None:
            enclosing = self.functions.get(caller.parent)
            class_name = enclosing.class_name if enclosing else None
        if class_name is None:
            return None
        return self._methods.get((class_name, name))

    # -- effect closure ------------------------------------------------------

    def effects(self, qualname: str) -> frozenset:
        """Direct + transitive effects over the local call graph."""
        memo = self._effects_memo
        if qualname in memo:
            return memo[qualname]
        seen: set = set()
        effects: set = set()
        stack = [qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.functions.get(current)
            if info is None:
                continue
            effects |= info.direct_effects
            for _, callee in info.calls:
                stack.append(callee)
        result = frozenset(effects)
        memo[qualname] = result
        return result

    def blocking_chain(self, qualname: str) -> Tuple[List[str], str]:
        """Shortest call chain from ``qualname`` to a direct blocking site.

        Returns ``(chain of function names, blocking description)``;
        the chain starts at ``qualname`` itself.  Falls back to a bare
        chain if the effect came from an unreachable memo state.
        """
        start = self.functions.get(qualname)
        if start is None:
            return ([qualname], "a blocking call")
        queue: List[Tuple[str, List[str]]] = [(qualname, [start.name])]
        seen = {qualname}
        while queue:
            current, names = queue.pop(0)
            info = self.functions.get(current)
            if info is None:
                continue
            if info.blocking_sites:
                return (names, info.blocking_sites[0][1])
            for _, callee in info.calls:
                if callee not in seen:
                    seen.add(callee)
                    callee_info = self.functions.get(callee)
                    callee_name = (
                        callee_info.name if callee_info else callee
                    )
                    queue.append((callee, names + [callee_name]))
        return ([start.name], "a blocking call")
