"""Benchmark-side tracing: wrap ``repro``'s public entry points and
record spans in memory.

Nothing under ``src/`` changes.  :func:`install` replaces each target
function in every loaded ``repro`` module that binds it (so
``encode_relation`` is wrapped in ``repro.service.catalog``, which bound
it at import, and in ``repro.db.encode``, where
``repro.compile.engine`` looks it up at call time), and each target
method on its class.  A wrapper records one span — name, metric key,
start, end, parent — and nests under whatever wrapped call is open on
the same thread.

Each span belongs to a request id (the request's ``tag``) or, for calls
outside any request (catalog setup, updates), to its own root.  A span's
self time is its duration minus its children's; a request's layer self
times add up to its wrapped root spans, and whatever the client saw
beyond them is ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional

#: Modules that define or bind a target; imported before patching so
#: every binding exists when the scan runs.
MODULES = (
    "repro.analysis.analyzer",
    "repro.compile.engine",
    "repro.compile.executor",
    "repro.compile.fixpoint",
    "repro.db.decode",
    "repro.db.encode",
    "repro.eval.materialize",
    "repro.eval.ptime",
    "repro.http.schemas",
    "repro.http.server",
    "repro.obs.flight",
    "repro.service.cache",
    "repro.service.catalog",
    "repro.service.engines",
    "repro.service.runtime",
    "repro.shard.executor",
    "repro.shard.pool",
)


class Span(NamedTuple):
    sid: int
    parent: int  # 0 for a root span
    rid: str
    name: str  # the program's span vocabulary where one exists
    key: str  # "<layer>.<what>", the per-layer metric key
    start: float
    end: float
    info: Optional[dict]

    @property
    def layer(self) -> str:
        return self.key.split(".", 1)[0]


def _tag_of_request(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return getattr(request, "tag", None)


def _tag_of_response(args, kwargs):
    response = args[0] if args else kwargs.get("response")
    return getattr(response, "tag", None)


def _tag_of_payload(args, kwargs):
    payload = args[1] if len(args) > 1 else kwargs.get("payload")
    return payload.get("tag") if isinstance(payload, dict) else None


def _evaluate_key(args, kwargs):
    engine = kwargs.get("engine", "nbe")
    return "compile.term" if engine == "ra" else f"lam.{engine}"


class Target(NamedTuple):
    owner: str  # module path, or "module:Class" for a method
    attr: str
    name: str
    key: object  # str, or fn(args, kwargs) -> str
    tag_before: Optional[Callable] = None
    tag_after: Optional[Callable] = None
    info: Optional[Callable] = None


TARGETS = (
    Target("repro.http.schemas", "parse_query_body", "http.parse",
           "http.parse", tag_after=lambda result: result.tag),
    Target("repro.http.schemas", "render_query_response", "http.render",
           "http.render", tag_before=_tag_of_response),
    Target("repro.http.schemas", "json_response", "http.render",
           "http.render", tag_before=_tag_of_payload),
    Target("repro.service.runtime:QueryService", "execute", "query",
           "service.execute", tag_before=_tag_of_request),
    Target("repro.service.runtime:QueryService", "apply_update",
           "apply_update", "catalog.apply"),
    Target("repro.service.catalog:Catalog", "register_database",
           "catalog.register_database", "catalog.register_database"),
    Target("repro.service.catalog:Catalog", "register_query",
           "catalog.register_query", "catalog.register_query"),
    Target("repro.analysis.analyzer", "analyze_term", "analysis.analyze",
           "analysis.analyze"),
    Target("repro.analysis.analyzer", "analyze_fixpoint",
           "analysis.analyze", "analysis.analyze"),
    Target("repro.service.cache:ResultCache", "get", "cache.lookup",
           "cache.lookup"),
    Target("repro.service.engines", "evaluate_term_query", "evaluate",
           _evaluate_key, info=lambda r: {f"{r.engine}_steps": r.steps}),
    Target("repro.eval.ptime", "run_fixpoint_query", "evaluate",
           "eval.fixpoint", info=lambda r: {"fixpoint_steps": r.nbe_steps}),
    Target("repro.compile.fixpoint", "run_fixpoint_query_compiled",
           "evaluate", "compile.fixpoint",
           info=lambda r: {"stages": r.stages}),
    Target("repro.compile.executor", "execute", "compile.execute",
           "compile.execute", info=lambda r: {"ops": r[1]}),
    Target("repro.db.encode", "encode_relation", "encode", "db.encode"),
    Target("repro.db.decode", "decode_relation", "decode", "db.decode"),
    Target("repro.obs.flight:FlightRecorder", "record", "flight.record",
           "obs.flight_record"),
)


class SpanRecorder:
    """Thread-safe in-memory span sink plus the wrapper factory."""

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def take(self) -> List[Span]:
        """Remove and return every span recorded so far."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    def wrap(self, fn: Callable, target: Target) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            sid = next(recorder._ids)
            if stack:
                parent, rid = stack[-1]
            else:
                parent = 0
                rid = target.tag_before(args, kwargs) if (
                    target.tag_before is not None
                ) else None
                if rid is None and target.tag_after is None:
                    rid = f"~{sid}"  # a root outside any request
            key = target.key(args, kwargs) if callable(target.key) else (
                target.key
            )
            stack.append((sid, rid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder._finish(stack, sid, parent, rid, target, key,
                                 start, None)
                raise
            if rid is None and target.tag_after is not None:
                rid = target.tag_after(result)
            info = target.info(result) if target.info is not None else None
            recorder._finish(stack, sid, parent, rid, target, key, start,
                             info)
            return result

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    def _finish(self, stack, sid, parent, rid, target, key, start, info):
        end = time.perf_counter()
        stack.pop()
        span = Span(
            sid, parent, rid if rid is not None else f"~{sid}",
            target.name, key, start, end, info,
        )
        with self._lock:
            self._spans.append(span)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every target; returns a function that restores them."""
    for module in MODULES:
        importlib.import_module(module)
    undo = []
    for target in TARGETS:
        module_path, _, class_name = target.owner.partition(":")
        owner = importlib.import_module(module_path)
        if class_name:
            owner = getattr(owner, class_name)
            original = owner.__dict__[target.attr]
            setattr(owner, target.attr, recorder.wrap(original, target))
            undo.append((owner, target.attr, original))
            continue
        original = getattr(owner, target.attr)
        wrapper = recorder.wrap(original, target)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# -- attribution --------------------------------------------------------------


def summarize(spans: List[Span]) -> Dict[str, dict]:
    """Group spans by request id and attribute time.

    For each id: ``roots_ms`` (the wrapped root spans' total duration),
    ``self_ms`` (self time per layer, which sums to ``roots_ms``),
    ``time_ms`` (inclusive time per metric key), the summed ``info`` of
    the spans and ``root`` (the first root span's key).
    """
    child_ms: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent:
            child_ms[span.parent] += (span.end - span.start) * 1000.0
    out: Dict[str, dict] = {}
    for span in sorted(spans, key=lambda s: s.start):
        entry = out.get(span.rid)
        if entry is None:
            entry = out[span.rid] = {
                "root": span.key if not span.parent else None,
                "roots_ms": 0.0,
                "self_ms": defaultdict(float),
                "time_ms": defaultdict(float),
                "info": defaultdict(float),
            }
        duration = (span.end - span.start) * 1000.0
        if not span.parent:
            entry["roots_ms"] += duration
            if entry["root"] is None:
                entry["root"] = span.key
        entry["self_ms"][span.layer] += duration - child_ms[span.sid]
        entry["time_ms"][span.key] += duration
        for name, value in (span.info or {}).items():
            if value is not None:
                entry["info"][name] += value
    for entry in out.values():
        for field in ("self_ms", "time_ms", "info"):
            entry[field] = dict(entry[field])
    return out
