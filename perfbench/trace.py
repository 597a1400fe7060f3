"""In-memory span tracing around the public entry points of each layer.

The benchmark wraps functions of the program from its own files; no
file under ``src/`` knows about it.  :func:`install` replaces each
entry point by a wrapper in *every* loaded ``repro`` module that holds
a reference to it (``repro.serve.daemon.run_jobs`` as well as
``repro.service.executor.run_jobs``), so callers that imported the
name directly are traced too.

A span is ``(name, start, end, span_id, parent_id, op_id, n)``: times
are ``time.perf_counter()`` seconds (CLOCK_MONOTONIC, comparable across
processes on Linux), ids are ``"<pid>:<k>"`` strings, and ``n`` is a
size of the wrapped call's result (see :data:`COUNTED`).
The current span travels in a :mod:`contextvars` variable, so asyncio
tasks keep their own parent; :class:`ContextThreadPool` carries it into
pool threads, and a fork carries it into the child.

Spans stay in memory.  A forked child writes its own spans when its
outermost traced call returns, because the worker exits through
``os._exit`` and never runs exit handlers.
"""

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

#: span name -> [(module, attribute)] of the entry points it wraps.
#: ``Class.method`` attributes wrap a method on the class.
LAYER_TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "apps.iterations": [("repro.apps.counting", "count_iterations")],
    "apps.flops": [("repro.apps.counting", "count_flops")],
    "apps.memory": [("repro.apps.memory", "memory_locations_touched")],
    "apps.cache_lines": [("repro.apps.memory", "cache_lines_touched")],
    "apps.dependences": [("repro.apps.deps", "count_dependences")],
    "core.general": [
        ("repro.core.general", "count"),
        ("repro.core.general", "sum_poly"),
    ],
    "presburger.dnf": [("repro.presburger.dnf", "to_dnf")],
    "presburger.disjoint": [("repro.presburger.disjoint", "disjointify")],
    "omega.satisfiability": [("repro.omega.satisfiability", "satisfiable")],
    "omega.eliminate": [
        ("repro.omega.eliminate", "eliminate_exact"),
        ("repro.omega.eliminate", "eliminate_exact_disjoint"),
        ("repro.omega.eliminate", "real_shadow"),
        ("repro.omega.eliminate", "dark_shadow"),
        ("repro.omega.eliminate", "splinters"),
    ],
    "core.convex": [("repro.core.convex", "sum_over_conjunct")],
    "evalc.compiler.compile": [("repro.evalc.compiler", "compile_sum")],
    "evalc.compiler.eval": [
        ("repro.evalc.compiler", "CompiledSum.at"),
        ("repro.evalc.compiler", "CompiledSum.many"),
        ("repro.evalc.compiler", "CompiledSum.table"),
    ],
    "automaton.build": [("repro.automaton.build", "build_automaton")],
    "automaton.query": [
        ("repro.automaton.query", "member"),
        ("repro.automaton.query", "count_below"),
    ],
    "serve.daemon.handle": [("repro.serve.daemon", "CountingDaemon.handle")],
    "service.request.decode": [
        ("repro.service.request", "JobRequest.from_json")
    ],
    "service.request.hash": [
        ("repro.service.request", "JobRequest.content_hash"),
        ("repro.service.request", "JobRequest.formula_hash"),
    ],
    "service.diskcache.get": [("repro.service.diskcache", "DiskCache.get")],
    "service.diskcache.put": [("repro.service.diskcache", "DiskCache.put")],
    "service.executor.job": [("repro.service.executor", "run_jobs")],
    "service.executor.execute": [
        ("repro.service.executor", "execute_request")
    ],
}

#: Layers whose result is measured into the span's ``n``: clauses
#: produced, points evaluated, store hits.
COUNTED = {
    "presburger.dnf": len,
    "presburger.disjoint": len,
    "evalc.compiler.eval": lambda r: len(r) if isinstance(r, list) else 1,
    "service.diskcache.get": lambda r: int(r is not None),
}

#: Modules imported before patching, so lazily imported names exist.
PRELOAD = (
    "repro.apps",
    "repro.automaton",
    "repro.core",
    "repro.evalc",
    "repro.presburger",
    "repro.omega",
    "repro.serve",
    "repro.service",
)

Span = Tuple[str, float, float, str, Optional[str], Optional[str], int]

#: (span_id, op_id, name) of the innermost open span.
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """Collects spans of this process (and writes a forked child's)."""

    def __init__(self, out_dir: Optional[str] = None):
        self.spans: List[Span] = []
        self.out_dir = out_dir
        self.owner_pid = os.getpid()
        self._ids = itertools.count(1)

    def new_id(self) -> str:
        return "%d:%d" % (os.getpid(), next(self._ids))

    def open(self, name: str, op_id=None):
        """Start a span; returns (token, span_id, parent_id, op_id)."""
        parent = _current.get()
        if op_id is None and parent is not None:
            op_id = parent[1]
        span_id = self.new_id()
        token = _current.set((span_id, op_id, name))
        return token, span_id, (parent[0] if parent else None), op_id

    def close(self, opened, start: float, name: str, n: int = 0) -> None:
        token, span_id, parent_id, op_id = opened
        _current.reset(token)
        self.spans.append(
            (name, start, time.perf_counter(), span_id, parent_id, op_id, n)
        )
        pid = os.getpid()
        if pid != self.owner_pid and not (
            parent_id or ""
        ).startswith("%d:" % pid):
            # The outermost span of a forked child: write before exit.
            self.flush_child()

    def record(self, name, start, end, op_id) -> None:
        """Add a finished root span measured by the caller (a request)."""
        self.spans.append((name, start, end, self.new_id(), None, op_id, 0))

    def flush_child(self) -> None:
        """Write the spans this forked child recorded, then drop them."""
        pid = os.getpid()
        mine = [s for s in self.spans if s[3].startswith("%d:" % pid)]
        self.spans = []
        if self.out_dir and mine:
            write_spans(os.path.join(self.out_dir, "spans-%d.jsonl" % pid), mine)

    def wrap(self, name: str, fn):
        """A wrapper recording one span per call of ``fn``.

        Directly nested calls of the same layer (recursion) fold into
        the outer span, which leaves self times unchanged and keeps
        the cost of tracing recursive solvers low.
        """
        tracer = self
        measure = COUNTED.get(name)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                op_id = _op_id_of(args)
                start = time.perf_counter()
                opened = tracer.open(name, op_id)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.close(opened, start, name)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current = _current.get()
            if current is not None and current[2] == name:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            opened = tracer.open(name)
            n = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    n = measure(result)
                return result
            finally:
                tracer.close(opened, start, name, n)

        return wrapper


def _op_id_of(args) -> Optional[str]:
    """The request id of ``CountingDaemon.handle(self, obj, ...)``."""
    if len(args) >= 2 and isinstance(args[1], dict):
        rid = args[1].get("id")
        return str(rid) if rid is not None else None
    return None


class ContextThreadPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in the submitter's context."""

    def submit(self, fn, *args, **kwargs):
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


def _resolve(module_name: str, attr: str):
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        return cls, meth, cls.__dict__[meth]
    return module, attr, getattr(module, attr)


def install(tracer: Tracer, layers: Sequence[str] = tuple(LAYER_TARGETS)) -> int:
    """Wrap every entry point of ``layers``; returns names patched.

    Module-level functions are replaced in every loaded ``repro``
    module whose attribute is the original object; methods are
    replaced on their class.  The daemon's thread pools are swapped
    for :class:`ContextThreadPool` so pool work keeps its parent span.
    """
    import importlib

    for module_name in PRELOAD:
        importlib.import_module(module_name)
    patched = 0
    for name in layers:
        for module_name, attr in LAYER_TARGETS[name]:
            owner, key, original = _resolve(module_name, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(name, original.__func__))
                setattr(owner, key, wrapped)
                patched += 1
                continue
            wrapped = tracer.wrap(name, original)
            if inspect.isclass(owner):
                setattr(owner, key, wrapped)
                patched += 1
                continue
            for mod_name, module in list(sys.modules.items()):
                if not mod_name.startswith("repro") or module is None:
                    continue
                for var, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, var, wrapped)
                        patched += 1
    daemon = sys.modules["repro.serve.daemon"]
    daemon.ThreadPoolExecutor = ContextThreadPool
    return patched


def write_spans(path: str, spans: Sequence[Span]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(directory: str) -> List[Span]:
    out: List[Span] = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out.extend(tuple(json.loads(line)) for line in fh if line.strip())
    return out


def self_times(spans: Sequence[Span], root_parent: Optional[Dict[str, str]] = None):
    """Self time per span name, in seconds.

    A span's self time is its duration minus the part of its interval
    covered by its children.  ``root_parent`` maps an op id to the span
    that owns top-level spans of that op from another process (the
    client's request span owns the daemon's ``handle`` span).
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for name, start, end, span_id, parent_id, op_id, _n in spans:
        if parent_id is None and root_parent and op_id in root_parent:
            parent_id = root_parent[op_id]
            if parent_id == span_id:
                continue
        if parent_id is not None:
            children.setdefault(parent_id, []).append((start, end))
    totals: Dict[str, float] = {}
    for name, start, end, span_id, _parent, _op, _n in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals
