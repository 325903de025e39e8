"""The in-process workloads: ``miss_update`` and ``fixpoint``.

Both drive one :class:`repro.service.QueryService` from a single caller
in a closed loop (each call waits for its reply).  Throughput counts
the time spent inside service calls (requests and updates); the
benchmark's own input generation and oracle checks are excluded.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Callable, Dict, Optional, Tuple

from perfbench import plans
from perfbench.measure import peak_rss_mb
from perfbench.report import Phase, Request
from perfbench.spans import SpanRecorder, install, summarize


def check(
    response, expected, verified: Dict[object, tuple], key, version
) -> str:
    """'' when ``response`` is correct, else what is wrong with it.

    A cache hit returns the very relation object an earlier response
    carried; once that object has been compared with the oracle for the
    same inputs (``key`` at ``version``) it is not compared again.
    """
    profile = response.profile or {}
    ratio = profile.get("bound_ratio")
    if ratio is None or ratio > 1:
        return f"{key}: bound_ratio {ratio!r} is not <= 1"
    relation = response.relation
    if relation is None:
        return f"{key}: ok response without a relation"
    seen = verified.get(key)
    if seen is not None and seen[0] == version and seen[1] is relation:
        return ""
    if relation.as_set() != expected():
        return f"{key}@{version}: result differs from the oracle"
    verified[key] = (version, relation)
    return ""


class _Caller:
    """Shared loop state: the service, the phase record, the clocks."""

    def __init__(self, service, phase: Phase, seconds: float,
                 min_cycles: int):
        self.service = service
        self.phase = phase
        self.start = time.perf_counter()
        self.seconds = seconds
        self.min_cycles = min_cycles
        self.verified: Dict[object, tuple] = {}

    def expired(self) -> bool:
        return time.perf_counter() - self.start >= self.seconds

    def update(self, database: str, relations) -> None:
        start = time.perf_counter()
        self.service.apply_update(database, relations)
        elapsed = time.perf_counter() - start
        self.phase.busy_s += elapsed
        self.phase.updates_ms.append(elapsed * 1000.0)

    def request(
        self, request, expected_engine: str, expected, key, version
    ) -> None:
        start = time.perf_counter()
        response = self.service.execute(request)
        elapsed = time.perf_counter() - start
        self.phase.busy_s += elapsed
        record = Request(
            rid=request.tag,
            latency_ms=elapsed * 1000.0,
            ok=response.ok,
            hit=response.cache_hit,
            engine=response.engine,
            expected_engine=expected_engine,
        )
        if response.ok:
            record.tuples = len(response.relation)
            problem = check(
                response, expected, self.verified, key, version
            )
            if problem:
                self.phase.mismatches.append(problem)
        self.phase.requests.append(record)


def run_phase(
    build: Callable[[], object],
    drive: Callable[[_Caller], None],
    seconds: float,
    setups: int,
    min_cycles: int,
    recorder: Optional[SpanRecorder] = None,
) -> Phase:
    """Set up ``setups`` times (timing each), then drive the last
    service for ``seconds`` (``min_cycles`` bounds cyclic workloads
    from below)."""
    phase = Phase()
    service = None
    for _ in range(setups):
        if service is not None:
            service.close()
            service = None
            gc.collect()
        start = time.perf_counter()
        service = build()
        phase.setups_s.append(time.perf_counter() - start)
    if recorder is not None:
        phase.setup_traces = summarize(recorder.take())
    try:
        drive(_Caller(service, phase, seconds, min_cycles))
    finally:
        service.close()
    if recorder is not None:
        phase.traces = summarize(recorder.take())
    phase.cache = service.cache.stats().as_dict()
    phase.peak_rss_mb = peak_rss_mb()
    return phase


# -- miss_update --------------------------------------------------------------


def miss_update(seed: int) -> Tuple[Callable, Callable]:
    """Rounds of one write then one read of every plan.

    Round ``i`` replaces R or S (alternating per database) of the
    database with ``UPDATE_SIZES[i % 3]`` tuples per relation, with
    seeded contents of the same size, then requests every plan on it.
    Plans reading the touched relation miss; the others hit through
    read-set provenance.
    """
    initial = plans.update_databases(seed)

    def build():
        from repro.service import QueryService

        service = QueryService()
        for name, database in initial.items():
            service.catalog.register_database(name, database)
        plans.register_term_plans(service.catalog, with_nbe=True)
        return service

    def drive(caller: _Caller) -> None:
        from repro.service import QueryRequest

        rng = random.Random(f"miss_update:{seed}")
        model = dict(initial)
        versions = {name: {"R": 0, "S": 0} for name in model}
        engines = {
            entry.name: entry.engine
            for entry in caller.service.catalog.queries()
        }
        # (expr, database) -> (versions, rows): the current inputs only.
        oracle_memo: Dict[tuple, tuple] = {}
        round_index = 0
        while not caller.expired():
            size = plans.UPDATE_SIZES[round_index % len(plans.UPDATE_SIZES)]
            database = plans.update_database_name(size)
            relation = "RS"[(round_index // len(plans.UPDATE_SIZES)) % 2]
            contents = plans.replacement(model[database], relation, rng)
            caller.update(database, {relation: contents})
            model[database] = model[database].with_relation(
                relation, contents
            )
            versions[database][relation] += 1
            for plan in plans.update_plans(size):
                expr = plans.plan_expr(plan)
                version = (versions[database]["R"], versions[database]["S"])

                def expected(expr=expr, database=database, version=version):
                    memo = oracle_memo.get((id(expr), database))
                    if memo is None or memo[0] != version:
                        memo = (version, plans.term_oracle(
                            expr, model[database]
                        ))
                        oracle_memo[(id(expr), database)] = memo
                    return memo[1]

                caller.request(
                    QueryRequest(
                        query=plan,
                        database=database,
                        tag=f"{round_index}:{plan}",
                    ),
                    engines[plan],
                    expected,
                    (plan, database),
                    version,
                )
            round_index += 1

    return build, drive


# -- fixpoint -----------------------------------------------------------------


def fixpoint(seed: int) -> Tuple[Callable, Callable]:
    """Recursive plans on distinct seeded graphs.

    Each request first writes a fresh graph into the plan's database,
    so every request evaluates.  Cases cycle through
    :data:`plans.FIXPOINT_CASES` in a seeded order per cycle.  Only
    whole cycles run — latencies span two orders of magnitude, so a
    partial cycle would shift the percentiles — and at least
    ``min_cycles`` of them; another starts only if one more cycle as
    long as the longest so far still fits in ``seconds``.
    """
    rng_setup = random.Random(f"fixpoint-setup:{seed}")
    initial = {
        plan: plans.fixpoint_inputs(plan, 4, -1, rng_setup)
        for plan in plans.FIXPOINT_PLANS
    }

    def build():
        from repro.db.relations import Database
        from repro.service import QueryService

        service = QueryService()
        for plan, spec in plans.FIXPOINT_PLANS.items():
            service.catalog.register_query(plan, spec)
            service.catalog.register_database(
                f"g_{plan}", Database.of(initial[plan])
            )
        return service

    def drive(caller: _Caller) -> None:
        from repro.service import QueryRequest

        rng = random.Random(f"fixpoint:{seed}")
        engines = {
            entry.name: entry.engine
            for entry in caller.service.catalog.queries()
        }
        index = cycles = 0
        longest = 0.0
        while cycles < caller.min_cycles or (
            time.perf_counter() - caller.start + longest < caller.seconds
        ):
            cycle_start = time.perf_counter()
            cases = list(plans.FIXPOINT_CASES)
            rng.shuffle(cases)
            for plan, nodes, engine in cases:
                inputs = plans.fixpoint_inputs(plan, nodes, cycles, rng)
                database = f"g_{plan}"
                # NBE leaves large term graphs behind; collecting them
                # here keeps one request's garbage (and the oracle's)
                # from being collected inside the next, timed, request.
                gc.collect()
                caller.update(database, inputs)
                caller.request(
                    QueryRequest(
                        query=plan,
                        database=database,
                        engine=engine,
                        tag=f"{index}:{plan}{nodes}",
                    ),
                    engine or engines[plan],
                    lambda plan=plan, inputs=inputs: plans.fixpoint_oracle(
                        plan, inputs
                    ),
                    plan,
                    index,
                )
                index += 1
            cycles += 1
            longest = max(longest, time.perf_counter() - cycle_start)

    return build, drive


WORKLOADS = {"miss_update": miss_update, "fixpoint": fixpoint}
#: Whole fixpoint cycles an untraced run makes at least, so that the
#: p75 tail has about ten samples beyond it.
MIN_CYCLES = 3


def phases(name: str, seed: int, seconds: float, trace: bool, setups: int):
    """The untraced phase, or the untraced and traced halves (the same
    seed, so the traced half replays the untraced half's inputs)."""
    build, drive = WORKLOADS[name](seed)
    if not trace:
        return run_phase(build, drive, seconds, setups, MIN_CYCLES), None
    untraced = run_phase(build, drive, seconds / 2, 1, 1)
    gc.collect()
    recorder = SpanRecorder()
    restore = install(recorder)
    try:
        traced = run_phase(build, drive, seconds / 2, 1, 1, recorder)
    finally:
        restore()
    return untraced, traced
