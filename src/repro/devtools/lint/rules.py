"""The reprolint rule set: one class per invariant, one stable code each.

Scopes follow the layering the repo established in PRs 1–8:

* **library scope** (``repro.core``, ``repro.circuits``, ``repro.mann``,
  ``repro.encoding``) is simulation-pure: results must be a function of
  the inputs and the caller-provided RNG, so global random state and
  wall-clock reads are banned there (RPL001, RPL002);
* **resource scope** (all of ``src/repro``) owns pools, threads and
  shared memory: lifecycle rules RPL003–RPL005 apply;
* **serving scope** (``repro.runtime``, ``repro.serving``) is the fault
  domain: exception typing (RPL006), swallow hygiene (RPL007), timeout
  discipline and pump purity (RPL009) and lock ordering (RPL010) apply;
* **pool boundary** (everywhere, including tests and benchmarks):
  nothing unpicklable crosses ``submit_all``/``submit_to``/
  ``submit_cached``/``broadcast`` (RPL008);
* **persistence scope** (``repro.utils.io``, ``repro.storage``,
  ``repro.runtime.transport``): files land via tmp-write +
  ``os.replace``, never an in-place write-mode open (RPL011);
* **no unframed read** (all of ``src/repro``): only
  ``repro.runtime.transport``, whose one frame decoder checks a length
  and a CRC before unpickling, may call ``pickle.load`` or
  ``pickle.loads`` (RPL012);
* **one process-pool factory** (everywhere): worker processes are
  constructed only in ``repro/runtime/process_pool.py``, whose workers
  all start through its initializer (RPL013).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple, Type

from . import Finding, Rule

__all__ = ["RULES", "LOCK_ORDER"]

# Scope globs --------------------------------------------------------------
_LIBRARY = (
    "*src/repro/core/*",
    "*src/repro/circuits/*",
    "*src/repro/mann/*",
    "*src/repro/encoding/*",
)
_PACKAGE = ("*src/repro/*",)
_SERVING = ("*src/repro/runtime/*", "*src/repro/serving/*")


def _dotted_name(node: ast.AST) -> str:
    """Render ``a.b.c`` attribute/name chains; ``""`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _call_name(call: ast.Call) -> str:
    return _dotted_name(call.func)


class UnseededRandomRule(Rule):
    """RPL001: library code must receive its RNG as a parameter.

    Flags calls into the legacy global-state numpy API
    (``np.random.seed``/``rand``/...), zero-argument
    ``np.random.default_rng()``, stdlib ``random.*`` module functions and
    zero-argument ``random.Random()`` inside the simulation-pure
    packages.  Seeded constructions (``default_rng(seed_material)``,
    ``Random(seed)``, ``SeedSequence``) pass.
    """

    code = "RPL001"
    name = "unseeded-rng-in-library"
    description = (
        "library code (core/circuits/mann/encoding) must not draw from "
        "global or unseeded RNG state; the generator arrives as a parameter"
    )
    scope = _LIBRARY

    _LEGACY_NUMPY = {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "binomial",
        "poisson",
        "bytes",
        "get_state",
        "set_state",
    }
    _STDLIB_RANDOM = {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "seed",
        "getrandbits",
        "betavariate",
        "expovariate",
    }

    def check(self, tree: ast.Module, source: str, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_name(node)
            if dotted.startswith(("np.random.", "numpy.random.")):
                tail = dotted.rsplit(".", 1)[1]
                if tail == "default_rng" and not node.args and not node.keywords:
                    yield self.finding(
                        path,
                        node,
                        "np.random.default_rng() without seed material draws fresh "
                        "entropy; thread the caller's Generator instead",
                    )
                elif tail in self._LEGACY_NUMPY:
                    yield self.finding(
                        path,
                        node,
                        f"legacy global-state call np.random.{tail}(); use the "
                        "Generator passed in by the caller",
                    )
            elif dotted.startswith("random.") and dotted.count(".") == 1:
                tail = dotted.rsplit(".", 1)[1]
                if tail in self._STDLIB_RANDOM:
                    yield self.finding(
                        path,
                        node,
                        f"stdlib random.{tail}() uses interpreter-global state; "
                        "library code must take an explicit seeded generator",
                    )
            elif dotted in ("Random", "random.Random") and not node.args and not node.keywords:
                yield self.finding(
                    path,
                    node,
                    "Random() without a seed is entropy-seeded; pass explicit "
                    "seed material",
                )


class WallClockInLibraryRule(Rule):
    """RPL002: no wall-clock or sleep dependence in simulation-pure code."""

    code = "RPL002"
    name = "wall-clock-in-library"
    description = (
        "library code (core/circuits/mann/encoding) must not read clocks "
        "or sleep; results must be a pure function of inputs"
    )
    scope = _LIBRARY

    _CLOCKS = {
        "time.time",
        "time.monotonic",
        "time.perf_counter",
        "time.process_time",
        "time.time_ns",
        "time.monotonic_ns",
        "time.perf_counter_ns",
        "time.sleep",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "date.today",
        "datetime.date.today",
    }

    def check(self, tree: ast.Module, source: str, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _call_name(node) in self._CLOCKS:
                yield self.finding(
                    path,
                    node,
                    f"{_call_name(node)}() makes library results time-dependent",
                )


class CloseNeedsContextManagerRule(Rule):
    """RPL003: a ``close()`` method implies context-manager support."""

    code = "RPL003"
    name = "close-without-context-manager"
    description = (
        "classes defining close() must also define __enter__/__exit__ so "
        "callers can scope the resource with `with`"
    )
    scope = _PACKAGE

    def check(self, tree: ast.Module, source: str, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "close" in methods and not {"__enter__", "__exit__"} <= methods:
                yield self.finding(
                    path,
                    node,
                    f"class {node.name} defines close() but not "
                    "__enter__/__exit__ (inherited implementations need a "
                    "suppression naming the base class)",
                )


class ResourceNeedsFinalizerRule(Rule):
    """RPL004: raw pools/threads/segments need a ``weakref.finalize`` net.

    A class that constructs a ``ProcessPoolExecutor``,
    ``ThreadPoolExecutor``, ``SharedMemory`` or ``threading.Thread``
    holds a resource the garbage collector will not release; ``close()``
    handles the happy path, but only a ``weakref.finalize`` registration
    guarantees cleanup when the owner is dropped without ``close()``.
    """

    code = "RPL004"
    name = "resource-without-finalizer"
    description = (
        "classes constructing pools, threads or shared memory must "
        "register a weakref.finalize safety net"
    )
    scope = _PACKAGE

    _RESOURCE_TAILS = {"ProcessPoolExecutor", "ThreadPoolExecutor", "SharedMemory", "Thread"}

    def _class_calls(self, cls: ast.ClassDef) -> Iterator[ast.Call]:
        """Calls in ``cls``'s own body, not in nested class definitions."""
        stack: List[ast.AST] = list(cls.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.ClassDef):
                continue
            if isinstance(node, ast.Call):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    def check(self, tree: ast.Module, source: str, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            resource: Optional[str] = None
            has_finalizer = False
            for call in self._class_calls(node):
                dotted = _call_name(call)
                tail = dotted.rsplit(".", 1)[-1]
                if tail in self._RESOURCE_TAILS and resource is None:
                    # Bare `Thread` must actually be threading.Thread or an
                    # unqualified import; both spell the tail the same way.
                    resource = tail
                if dotted in ("weakref.finalize", "finalize"):
                    has_finalizer = True
            if resource is not None and not has_finalizer:
                yield self.finding(
                    path,
                    node,
                    f"class {node.name} constructs {resource} but never "
                    "registers weakref.finalize; an abandoned instance leaks "
                    "the resource",
                )


class SharedMemoryUnlinkRule(Rule):
    """RPL005: every ``SharedMemory(create=True)`` site needs an unlink path."""

    code = "RPL005"
    name = "shared-memory-without-unlink"
    description = (
        "files creating SharedMemory segments must contain an unlink() "
        "call so /dev/shm cannot leak"
    )

    def check(self, tree: ast.Module, source: str, path: str) -> Iterator[Finding]:
        create_sites: List[ast.Call] = []
        has_unlink = False
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_name(node)
            if dotted.rsplit(".", 1)[-1] == "SharedMemory" and any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            ):
                create_sites.append(node)
            if isinstance(node.func, ast.Attribute) and node.func.attr == "unlink":
                has_unlink = True
        if not has_unlink:
            for site in create_sites:
                yield self.finding(
                    path,
                    site,
                    "SharedMemory(create=True) without a reachable unlink() in "
                    "this file; the segment outlives the process",
                )


class ServingRaisesTypedRule(Rule):
    """RPL006: serving-path raises use the typed exception hierarchy.

    Failures crossing the serving seam must be classifiable by callers:
    :class:`~repro.exceptions.ServingError` subclasses for runtime
    failures, :class:`~repro.exceptions.ConfigurationError` for
    construction-time validation.  Plain ``ValueError``/``RuntimeError``
    raised from ``repro.runtime``/``repro.serving`` are flagged.
    Re-raising a caught exception object (lowercase name) passes.
    """

    code = "RPL006"
    name = "untyped-serving-raise"
    description = (
        "raises inside repro.runtime/repro.serving must use ServingError "
        "subclasses (or ConfigurationError for setup validation)"
    )
    scope = _SERVING

    _ALLOWED = {
        "ServingError",
        "ServingOverloadError",
        "ServingTimeoutError",
        "WorkerCrashError",
        "SpoolIntegrityError",
        "SnapshotIntegrityError",
        "ConfigurationError",
    }

    def check(self, tree: ast.Module, source: str, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = _dotted_name(target).rsplit(".", 1)[-1]
            if not name or not name[0].isupper():
                continue  # re-raise of a caught exception object
            if name not in self._ALLOWED:
                yield self.finding(
                    path,
                    node,
                    f"raise {name} on the serving path; use a ServingError "
                    "subclass (or ConfigurationError for setup validation)",
                )


class SilentExceptionSwallowRule(Rule):
    """RPL007: no bare ``except:`` and no silent broad swallows."""

    code = "RPL007"
    name = "silent-exception-swallow"
    description = (
        "bare except: clauses and `except Exception: pass` bodies hide "
        "failures; narrow the type or handle the error visibly"
    )

    def check(self, tree: ast.Module, source: str, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    path,
                    node,
                    "bare except: catches SystemExit/KeyboardInterrupt too; "
                    "name the exception type",
                )
                continue
            type_name = _dotted_name(node.type).rsplit(".", 1)[-1]
            body_is_silent = all(isinstance(stmt, ast.Pass) for stmt in node.body)
            if type_name in ("Exception", "BaseException") and body_is_silent:
                yield self.finding(
                    path,
                    node,
                    f"except {type_name}: pass swallows every failure silently; "
                    "narrow the type, log, or account for the error",
                )


class PoolBoundaryPicklableRule(Rule):
    """RPL008: nothing unpicklable crosses the process-pool boundary.

    Lambdas and functions defined inside another function cannot be
    pickled, so passing one into the pool seam (``submit_all``/
    ``submit_to``/``submit_cached``/``broadcast``) fails
    only at dispatch time, deep inside a worker traceback.  Flag it at the
    call site instead.
    """

    code = "RPL008"
    name = "unpicklable-at-pool-boundary"
    description = (
        "lambdas/nested functions must not be passed into submit_all/"
        "submit_to/submit_cached/broadcast"
    )

    _BOUNDARY = {"submit_all", "submit_to", "submit_cached", "broadcast"}

    @staticmethod
    def _nested_function_names(tree: ast.Module) -> Set[str]:
        nested: Set[str] = set()
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer:
                    continue
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested.add(inner.name)
        return nested

    def check(self, tree: ast.Module, source: str, path: str) -> Iterator[Finding]:
        nested = self._nested_function_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func_tail = _call_name(node).rsplit(".", 1)[-1]
            if func_tail not in self._BOUNDARY:
                continue
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                if isinstance(argument, ast.Lambda):
                    yield self.finding(
                        path,
                        argument,
                        f"lambda passed into {func_tail}() cannot cross the "
                        "process boundary; use a module-level function",
                    )
                elif isinstance(argument, ast.Name) and argument.id in nested:
                    yield self.finding(
                        path,
                        argument,
                        f"nested function {argument.id!r} passed into "
                        f"{func_tail}() cannot be pickled; hoist it to module "
                        "level",
                    )


class UntimedBlockingRule(Rule):
    """RPL009: serving code never blocks without a bound.

    ``Future.result()`` with no timeout (or a literal ``None``) turns a
    lost worker into a hang; the deadline machinery of PR 8 exists so
    every wait has a bound or an explicit, caller-visible decision not
    to.  ``time.sleep`` on the scheduler pump path is flagged for the
    same reason: the pump's only legal wait is the condition variable.
    """

    code = "RPL009"
    name = "unbounded-blocking-call"
    description = (
        ".result() needs a timeout argument in repro.runtime/repro.serving; "
        "time.sleep is banned in the scheduler pump module"
    )
    scope = _SERVING

    def check(self, tree: ast.Module, source: str, path: str) -> Iterator[Finding]:
        in_scheduler = path.endswith("serving/scheduler.py")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_name(node)
            if in_scheduler and dotted == "time.sleep":
                yield self.finding(
                    path,
                    node,
                    "time.sleep on the scheduler pump path stalls every lane; "
                    "wait on the condition variable with a timeout instead",
                )
                continue
            if not (isinstance(node.func, ast.Attribute) and node.func.attr == "result"):
                continue
            timeout_args = list(node.args) + [
                kw.value for kw in node.keywords if kw.arg == "timeout"
            ]
            if not timeout_args or any(
                isinstance(a, ast.Constant) and a.value is None for a in timeout_args
            ):
                yield self.finding(
                    path,
                    node,
                    ".result() without a timeout hangs forever if the worker "
                    "dies; pass a bound (or suppress with the reason it is "
                    "safe)",
                )


#: Declared lock acquisition order for the concurrency-bearing modules,
#: outermost first.  A thread holding a lock may only acquire locks that
#: appear *later* in this table; RPL010 enforces the order for nested
#: ``with`` acquisitions, and new locks must be added here before use.
LOCK_ORDER: Tuple[Tuple[str, str], ...] = (
    ("scheduler.py", "_cond"),  # engine pump condition — always outermost
    ("process_pool.py", "_lock"),  # executor publish/evict/transport state
    ("transport.py", "_lock"),  # ring/segment bookkeeping
    ("scheduler.py", "_lock"),  # ServingStats counters — always a leaf
    ("process_pool.py", "_route_lock"),  # executor shard routing — always a leaf
)


class LockOrderRule(Rule):
    """RPL010: nested lock acquisitions follow :data:`LOCK_ORDER`."""

    code = "RPL010"
    name = "lock-order-violation"
    description = (
        "nested lock acquisitions in scheduler.py/transport.py/"
        "process_pool.py must follow the declared LOCK_ORDER table"
    )
    scope = (
        "*src/repro/serving/scheduler.py",
        "*src/repro/runtime/transport.py",
        "*src/repro/runtime/process_pool.py",
    )

    @staticmethod
    def _lock_rank(filename: str, attr: str) -> Optional[int]:
        for rank, (table_file, table_attr) in enumerate(LOCK_ORDER):
            if filename.endswith(table_file) and attr == table_attr:
                return rank
        return None

    def _visit(
        self, path: str, body: List[ast.stmt], held: List[Tuple[str, int]]
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired: List[Tuple[str, int]] = []
                for item in stmt.items:
                    expr = item.context_expr
                    # Accept both `with self._lock:` and `with lock.acquire…`-
                    # style attribute chains; the table is attribute-name keyed.
                    attr = expr.attr if isinstance(expr, ast.Attribute) else ""
                    rank = self._lock_rank(path, attr)
                    if rank is None:
                        continue
                    for held_attr, held_rank in held + acquired:
                        if rank <= held_rank:
                            yield Finding(
                                code=self.code,
                                message=(
                                    f"acquiring {attr!r} while holding "
                                    f"{held_attr!r} violates LOCK_ORDER "
                                    "(see repro.devtools.lint.rules.LOCK_ORDER)"
                                ),
                                path=path,
                                line=stmt.lineno,
                                col=stmt.col_offset,
                            )
                    acquired.append((attr, rank))
                yield from self._visit(path, stmt.body, held + acquired)
                continue
            for child_body in self._child_bodies(stmt):
                yield from self._visit(path, child_body, held)

    @staticmethod
    def _child_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
        bodies: List[List[ast.stmt]] = []
        for field in ("body", "orelse", "finalbody"):
            value = getattr(stmt, field, None)
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                bodies.append(value)
        if isinstance(stmt, ast.Try):
            bodies.extend(handler.body for handler in stmt.handlers)
        return bodies

    def check(self, tree: ast.Module, source: str, path: str) -> Iterator[Finding]:
        yield from self._visit(path, tree.body, [])


class NonAtomicPersistRule(Rule):
    """RPL011: persistence paths must not write files in place.

    A crash mid-``open(path, "w")`` leaves a truncated file where a
    reader expects a complete one — for snapshot manifests, spool
    entries and exported results that is silent data loss.  Inside the
    persistence modules, every write-mode open must target a temporary
    sibling that is later renamed into place (``os.replace``): the rule
    flags write-mode ``open`` calls whose target expression does not
    mention a staging name (``tmp``/``staging``/``partial``).  Append
    mode is exempt — journals extend in place by design, protected by
    per-record framing instead of atomic replacement.
    """

    code = "RPL011"
    name = "non-atomic-persist"
    description = (
        "persistence code must write to a tmp/staging sibling and rename "
        "into place; in-place open(..., 'w') leaves torn files on crash"
    )
    scope = (
        "*src/repro/utils/io.py",
        "*src/repro/storage/*",
        "*src/repro/runtime/transport.py",
    )

    _STAGING_MARKERS = ("tmp", "staging", "partial")

    @staticmethod
    def _mode_of(node: ast.Call, mode_position: int) -> Optional[str]:
        for keyword in node.keywords:
            if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
                value = keyword.value.value
                return value if isinstance(value, str) else None
        if len(node.args) > mode_position and isinstance(node.args[mode_position], ast.Constant):
            value = node.args[mode_position].value
            return value if isinstance(value, str) else None
        return None

    def _target_is_staged(self, source: str, target: ast.AST) -> bool:
        segment = ast.get_source_segment(source, target) or ""
        lowered = segment.lower()
        return any(marker in lowered for marker in self._STAGING_MARKERS)

    def check(self, tree: ast.Module, source: str, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_name(node)
            target: Optional[ast.AST]
            if dotted == "open" and node.args:
                mode = self._mode_of(node, mode_position=1)
                target = node.args[0]
            elif dotted.endswith(".open") and isinstance(node.func, ast.Attribute):
                mode = self._mode_of(node, mode_position=0)
                target = node.func.value
            else:
                continue
            if mode is None or "w" not in mode:
                continue
            if target is not None and self._target_is_staged(source, target):
                continue
            yield self.finding(
                path,
                node,
                f"in-place write-mode open ({mode!r}) in a persistence path; "
                "write a tmp/staging sibling and os.replace() it into place",
            )


class UnframedPickleLoadRule(Rule):
    """RPL012: only the frame decoder unpickles.

    Unpickling bytes that no checksum covers turns one scribbled byte of a
    spool entry, snapshot file or journal record into arbitrary objects.
    All three are checksummed frames, and :mod:`repro.runtime.transport`
    decodes every one: it checks the frame's length and CRC-32 before it
    unpickles.  Anywhere else in the package ``pickle.load`` and
    ``pickle.loads`` are flagged, as is importing them from ``pickle``.
    """

    code = "RPL012"
    name = "unframed-pickle-load"
    description = (
        "pickle.load/pickle.loads only in repro/runtime/transport.py, which "
        "checks a frame's length and CRC before unpickling"
    )
    scope = _PACKAGE

    _FRAME_DECODER = "src/repro/runtime/transport.py"
    _CALLS = {"pickle.load", "pickle.loads"}

    def check(self, tree: ast.Module, source: str, path: str) -> Iterator[Finding]:
        if path.endswith(self._FRAME_DECODER):
            return
        for node in ast.walk(tree):
            imported = (
                isinstance(node, ast.ImportFrom)
                and node.module == "pickle"
                and any("pickle." + alias.name in self._CALLS for alias in node.names)
            )
            if imported or (isinstance(node, ast.Call) and _call_name(node) in self._CALLS):
                yield self.finding(
                    path,
                    node,
                    "unpickling outside transport.py reads bytes no CRC covers; "
                    "decode persisted or spooled pickles through repro.runtime.transport",
                )


class ProcessPoolOutsideRuntimeRule(Rule):
    """RPL013: worker processes are constructed only by the runtime's pool.

    :mod:`repro.runtime.process_pool` starts every worker through one
    initializer, which gives the worker a fresh resource-tracker lock (a
    fork can copy it held) and pins numpy's BLAS to one thread (a BLAS
    thread pool per worker oversubscribes the cores).  A pool built
    anywhere else skips both, so ``ProcessPoolExecutor``,
    ``multiprocessing.Pool`` and ``multiprocessing.Process`` — spelled
    through the module, a ``get_context()`` context or a name imported
    from :mod:`multiprocessing` — are flagged outside that module.
    """

    code = "RPL013"
    name = "process-pool-outside-runtime"
    description = (
        "ProcessPoolExecutor, multiprocessing.Pool and multiprocessing.Process "
        "are constructed only in repro/runtime/process_pool.py"
    )

    _POOL_MODULE = "src/repro/runtime/process_pool.py"
    _FACTORIES = {"Pool", "Process"}
    #: Constructors a ``from <package>... import`` can bind, by package.
    _IMPORTABLE = {"multiprocessing": _FACTORIES, "concurrent": {"ProcessPoolExecutor"}}

    @classmethod
    def _multiprocessing_names(cls, tree: ast.Module) -> Tuple[Set[str], Set[str]]:
        """Local names bound to the module (or a context), and to its factories."""
        modules: Set[str] = set()
        factories: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "multiprocessing":
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                wanted = cls._IMPORTABLE.get(node.module.split(".")[0], set())
                factories.update(
                    alias.asname or alias.name for alias in node.names if alias.name in wanted
                )
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and _call_name(node.value).rsplit(".", 1)[-1] == "get_context"
            ):
                modules.update(t.id for t in node.targets if isinstance(t, ast.Name))
        return modules, factories

    @staticmethod
    def _is_multiprocessing(owner: ast.AST, modules: Set[str]) -> bool:
        """Whether ``owner`` is the multiprocessing module (or a submodule or context)."""
        if isinstance(owner, ast.Call):
            return _call_name(owner).rsplit(".", 1)[-1] == "get_context"
        return _dotted_name(owner).split(".")[0] in modules

    def check(self, tree: ast.Module, source: str, path: str) -> Iterator[Finding]:
        if path.endswith(self._POOL_MODULE):
            return
        modules, factories = self._multiprocessing_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            flagged = False
            if isinstance(func, ast.Name):
                flagged = func.id == "ProcessPoolExecutor" or func.id in factories
            elif isinstance(func, ast.Attribute):
                flagged = func.attr == "ProcessPoolExecutor"
                if func.attr in self._FACTORIES:
                    flagged = self._is_multiprocessing(func.value, modules)
            if flagged:
                yield self.finding(
                    path,
                    node,
                    "worker processes are started only by "
                    "repro.runtime.process_pool, through its initializer; use "
                    "PersistentProcessPool",
                )


#: Every rule, in code order; the framework instantiates these.
RULES: Tuple[Type[Rule], ...] = (
    UnseededRandomRule,
    WallClockInLibraryRule,
    CloseNeedsContextManagerRule,
    ResourceNeedsFinalizerRule,
    SharedMemoryUnlinkRule,
    ServingRaisesTypedRule,
    SilentExceptionSwallowRule,
    PoolBoundaryPicklableRule,
    UntimedBlockingRule,
    LockOrderRule,
    NonAtomicPersistRule,
    UnframedPickleLoadRule,
    ProcessPoolOutsideRuntimeRule,
)
