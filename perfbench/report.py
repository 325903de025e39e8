"""Metric definitions and the arithmetic that turns one phase's samples
into the end-to-end and per-layer figures."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List

from perfbench.measure import mean, percentile, samples_beyond

#: (name, unit, better, bound): what a user of the system sees.  Timing
#: bounds are the widest allowed (25 %): on a shared 2-CPU machine the
#: same CPU-bound loop ran up to twice as slow from one minute to the
#: next.
END_TO_END = (
    ("throughput_qps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better): one layer each, from the traced run.
PER_LAYER = (
    ("http.parse_ms_p50", "ms", "lower"),
    ("http.render_ms_p50", "ms", "lower"),
    ("http.self_ms_p50", "ms", "lower"),
    ("http.response_kb_mean", "KiB", "lower"),
    ("service.hit_ms_p50", "ms", "lower"),
    ("service.miss_self_ms_p50", "ms", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.invalidations", "count", "lower"),
    ("cache.provenance_saves", "count", "higher"),
    ("cache.inflight_waits", "count", "lower"),
    ("catalog.register_database_ms", "ms", "lower"),
    ("catalog.register_query_ms", "ms", "lower"),
    ("analysis.analyze_ms", "ms", "lower"),
    ("catalog.apply_ms_p50", "ms", "lower"),
    ("compile.execute_ms_p50", "ms", "lower"),
    ("compile.ops_mean", "count", "lower"),
    ("compile.fixpoint_ms_p50", "ms", "lower"),
    ("compile.fixpoint_stages_mean", "count", "lower"),
    ("compile.runtime_fallbacks", "count", "lower"),
    ("lam.nbe_ms_p50", "ms", "lower"),
    ("lam.nbe_steps_mean", "count", "lower"),
    ("eval.fixpoint_ms_p50", "ms", "lower"),
    ("eval.fixpoint_steps_mean", "count", "lower"),
    ("db.encode_ms_per_request", "ms", "lower"),
    ("db.encode_ms_per_update", "ms", "lower"),
    ("db.decode_ms_per_request", "ms", "lower"),
    ("db.result_tuples_mean", "count", "lower"),
    ("obs.flight_record_ms_p50", "ms", "lower"),
    ("unattributed_ms_p50", "ms", "lower"),
    ("tracing_overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


@dataclass
class Request:
    """One request as the caller saw it."""

    rid: str
    latency_ms: float
    ok: bool
    hit: bool = False
    engine: str = ""
    expected_engine: str = ""
    tuples: int = 0
    response_kb: float = 0.0


@dataclass
class Phase:
    """Everything one measured phase of a workload produced."""

    requests: List[Request] = field(default_factory=list)
    updates_ms: List[float] = field(default_factory=list)
    setups_s: List[float] = field(default_factory=list)
    #: Seconds the throughput is computed over.
    busy_s: float = 0.0
    cache: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    mismatches: List[str] = field(default_factory=list)
    #: Per-request span summaries (traced phases only), by request id,
    #: plus the summaries of the setup and update roots.
    traces: Dict[str, dict] = field(default_factory=dict)
    setup_traces: Dict[str, dict] = field(default_factory=dict)

    @property
    def ok_latencies(self) -> List[float]:
        return [r.latency_ms for r in self.requests if r.ok]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.requests if not r.ok)


def end_to_end(phase: Phase, tail_q: float) -> Dict[str, float]:
    latencies = phase.ok_latencies
    return {
        "throughput_qps": (
            len(latencies) / phase.busy_s if phase.busy_s > 0 else 0.0
        ),
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_tail_ms": percentile(latencies, tail_q),
        "peak_rss_mb": phase.peak_rss_mb,
        "setup_s": (
            statistics.median(phase.setups_s) if phase.setups_s else 0.0
        ),
    }


def sample_notes(phase: Phase, tail_q: float) -> List[str]:
    """Human-readable sample counts and the figures the JSON contract
    leaves out (failure rate, write latency)."""
    count = len(phase.ok_latencies)
    attempted = len(phase.requests)
    notes = [
        f"samples: {count} ok of {attempted} requests; latency_tail_ms is "
        f"p{tail_q * 100:g} with {samples_beyond(count, tail_q)} samples "
        f"beyond it; setup_s is the median of {len(phase.setups_s)} set-ups",
        f"failure_rate = {phase.failed / attempted if attempted else 0.0:.6f}"
        f" (non-ok responses / requests attempted)",
    ]
    if phase.updates_ms:
        notes.append(
            f"update_p50_ms = {percentile(phase.updates_ms, 0.5):.4f} ms "
            f"(n={len(phase.updates_ms)} apply_update calls)"
        )
    return notes


def _p50(values: List[float]) -> float:
    return percentile(values, 0.5)


def tracing_overhead(untraced: Phase, traced: Phase) -> float:
    """Traced over untraced latency p50, over the requests both phases
    served (they replay the same seeded inputs, but the traced phase
    gets through fewer of them)."""
    common = {r.rid for r in untraced.requests if r.ok} & {
        r.rid for r in traced.requests if r.ok
    }
    before = [r.latency_ms for r in untraced.requests if r.rid in common]
    after = [r.latency_ms for r in traced.requests if r.rid in common]
    base = percentile(before, 0.5)
    return percentile(after, 0.5) / base if base > 0 else 0.0


def per_layer(phase: Phase, overhead: float) -> Dict[str, float]:
    """The per-layer metrics of a traced phase; ``overhead`` is
    :func:`tracing_overhead`."""
    time_lists: Dict[str, List[float]] = {}
    info_lists: Dict[str, List[float]] = {}
    unattributed: List[float] = []
    http_self: List[float] = []
    hit_ms: List[float] = []
    miss_self_ms: List[float] = []
    ok = [r for r in phase.requests if r.ok]
    for request in ok:
        trace = phase.traces.get(request.rid)
        if trace is None:
            unattributed.append(request.latency_ms)
            continue
        times = trace["time_ms"]
        unattributed.append(layer_self_times(request, trace)["unattributed"])
        for key, value in times.items():
            time_lists.setdefault(key, []).append(value)
        for key, value in trace["info"].items():
            info_lists.setdefault(key, []).append(value)
        if "http.parse" in times:
            http_self.append(
                request.latency_ms
                - times.get("service.execute", 0.0)
                - times["http.parse"]
                - times.get("http.render", 0.0)
            )
        if "service.execute" in times:
            if request.hit:
                hit_ms.append(times["service.execute"])
            else:
                miss_self_ms.append(trace["self_ms"].get("service", 0.0))

    def per_request(key: str) -> float:
        return sum(time_lists.get(key, [])) / len(ok) if ok else 0.0

    updates = [
        trace for trace in phase.traces.values()
        if trace["root"] == "catalog.apply"
    ]
    setup = phase.setup_traces.values()
    hits = phase.cache.get("hits", 0)
    misses = phase.cache.get("misses", 0)
    return {
        "http.parse_ms_p50": _p50(time_lists.get("http.parse", [])),
        "http.render_ms_p50": _p50(time_lists.get("http.render", [])),
        "http.self_ms_p50": _p50(http_self),
        "http.response_kb_mean": mean([r.response_kb for r in ok]),
        "service.hit_ms_p50": _p50(hit_ms),
        "service.miss_self_ms_p50": _p50(miss_self_ms),
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": phase.cache.get("evictions", 0),
        "cache.invalidations": phase.cache.get("invalidations", 0),
        "cache.provenance_saves": phase.cache.get("provenance_saves", 0),
        "cache.inflight_waits": phase.cache.get("inflight_waits", 0),
        "catalog.register_database_ms": sum(
            t["roots_ms"] for t in setup
            if t["root"] == "catalog.register_database"
        ),
        "catalog.register_query_ms": sum(
            t["roots_ms"] for t in setup
            if t["root"] == "catalog.register_query"
        ),
        "analysis.analyze_ms": sum(
            t["time_ms"].get("analysis.analyze", 0.0) for t in setup
        ),
        "catalog.apply_ms_p50": _p50([t["roots_ms"] for t in updates]),
        "compile.execute_ms_p50": _p50(
            time_lists.get("compile.execute", [])
        ),
        "compile.ops_mean": mean(info_lists.get("ops", [])),
        "compile.fixpoint_ms_p50": _p50(
            time_lists.get("compile.fixpoint", [])
        ),
        "compile.fixpoint_stages_mean": mean(info_lists.get("stages", [])),
        "compile.runtime_fallbacks": sum(
            1 for r in ok if r.engine != r.expected_engine
        ),
        "lam.nbe_ms_p50": _p50(time_lists.get("lam.nbe", [])),
        "lam.nbe_steps_mean": mean(info_lists.get("nbe_steps", [])),
        "eval.fixpoint_ms_p50": _p50(time_lists.get("eval.fixpoint", [])),
        "eval.fixpoint_steps_mean": mean(
            info_lists.get("fixpoint_steps", [])
        ),
        "db.encode_ms_per_request": per_request("db.encode"),
        "db.encode_ms_per_update": mean([
            t["time_ms"].get("db.encode", 0.0) for t in updates
        ]),
        "db.decode_ms_per_request": per_request("db.decode"),
        "db.result_tuples_mean": mean([r.tuples for r in ok]),
        "obs.flight_record_ms_p50": _p50(
            time_lists.get("obs.flight_record", [])
        ),
        "unattributed_ms_p50": _p50(unattributed),
        "tracing_overhead": overhead,
    }


def layer_self_times(request: Request, trace: dict) -> Dict[str, float]:
    """One request's self time per layer plus ``unattributed`` (the
    parts add up to the request's end-to-end latency)."""
    parts = dict(trace["self_ms"])
    parts["unattributed"] = request.latency_ms - trace["roots_ms"]
    return parts
