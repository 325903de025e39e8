"""Tests of the benchmark itself: each workload at a tiny size, the
result contract, the oracles and the span attribution.

    python -m pytest perfbench/tests -q
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from perfbench import ROOT, edge_read, inprocess, plans, report, run, spans
from repro.relalg.engine import evaluate_ra


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(plans, "UPDATE_SIZES", (20, 40, 80))
    monkeypatch.setattr(plans, "NBE_SIZES", (20, 40))
    monkeypatch.setattr(plans, "FIXPOINT_CASES", (
        ("tc", 4, None), ("reach", 5, None), ("sg", 4, "ra"),
        ("tc", 8, "ra"),
    ))
    monkeypatch.setattr(inprocess, "MIN_CYCLES", 1)


def check_result(lines, result, trace):
    """The last line's JSON holds exactly the declared metrics, and each
    is also printed by name with its unit."""
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = report.PER_LAYER if trace else report.END_TO_END
    assert list(result["metrics"]) == [metric[0] for metric in declared]
    for name, unit, *_ in declared:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(
            line.startswith(f"{name} = ") and line.endswith(f" {unit}")
            for line in lines
        ), name


def run_main(capsys, *args):
    code = run.main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_declares_what_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(report.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(report.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["miss_update", "fixpoint"])
def test_in_process_workload_prints_every_metric(
    tiny, capsys, workload, trace
):
    code, lines, result = run_main(
        capsys, "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace),
    )
    assert code == 0
    check_result(lines, result, trace)
    if not trace:
        assert all(
            value["value"] > 0 for value in result["metrics"].values()
        )


@pytest.mark.parametrize("trace", [0, 1])
def test_edge_read_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edge_read",
         "--seed", "3", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    check_result(lines, json.loads(lines[-1]), trace)


def assert_self_times_add_up(phase, layers):
    assert phase.traces
    seen = set()
    for request in phase.requests:
        trace = phase.traces.get(request.rid)
        assert trace is not None, request.rid
        parts = report.layer_self_times(request, trace)
        assert sum(parts.values()) == pytest.approx(
            request.latency_ms, abs=1e-6
        )
        assert all(value >= -1e-9 for value in parts.values()), parts
        seen.update(layer for layer, value in parts.items() if value > 0)
    assert set(layers) <= seen


def test_miss_update_layer_self_times_add_up(tiny):
    _, traced = inprocess.phases("miss_update", 5, 1.0, True, 1)
    assert_self_times_add_up(
        traced, ["service", "cache", "compile", "lam", "db"]
    )


def test_fixpoint_layer_self_times_add_up(tiny):
    _, traced = inprocess.phases("fixpoint", 5, 1.0, True, 1)
    assert_self_times_add_up(traced, ["service", "eval", "compile", "db"])


def test_edge_read_layer_self_times_add_up():
    _, traced = edge_read.phases(5, 2.0, True, 1)
    assert_self_times_add_up(
        traced, ["http", "service", "cache", "obs", "unattributed"]
    )


def test_wrappers_nest_where_callers_look_names_up():
    import repro.compile.fixpoint as compile_fixpoint
    import repro.db.encode as encode
    import repro.service.catalog as catalog
    from repro.service import QueryRequest, QueryService

    original = encode.encode_relation
    recorder = spans.SpanRecorder()
    restore = spans.install(recorder)
    try:
        assert encode.encode_relation is not original
        assert catalog.encode_relation is encode.encode_relation
        assert compile_fixpoint.encode_relation is encode.encode_relation
        service = QueryService()
        service.catalog.register_database(
            "d", plans.pair_database(30, random.Random(1))
        )
        plans.register_term_plans(service.catalog)
        response = service.execute(
            QueryRequest(query="union", database="d", tag="r1")
        )
        recorded = recorder.take()
    finally:
        restore()
    assert response.ok
    assert encode.encode_relation is original
    assert catalog.encode_relation is original
    by_sid = {span.sid: span for span in recorded}
    request = [span for span in recorded if span.rid == "r1"]
    assert {
        "query", "cache.lookup", "evaluate", "compile.execute", "encode",
        "decode",
    } <= {span.name for span in request}
    for span in request:
        if span.parent:
            parent = by_sid[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    evaluate = next(span for span in request if span.name == "evaluate")
    assert by_sid[evaluate.parent].name == "query"
    execute = next(s for s in request if s.name == "compile.execute")
    assert by_sid[execute.parent] is evaluate
    assert {span.key for span in recorded if span.rid.startswith("~")} >= {
        "catalog.register_database", "catalog.register_query",
    }


def test_bucketed_join_oracle_matches_the_baseline():
    database = plans.pair_database(60, random.Random(1))
    expr = plans.TERM_PLANS["join"]
    assert plans.term_oracle(expr, database) == (
        evaluate_ra(expr, database).as_set()
    )


def test_oracle_mismatch_fails_the_run(tiny, capsys, monkeypatch):
    monkeypatch.setattr(
        plans, "term_oracle", lambda expr, database: frozenset()
    )
    code, lines, result = run_main(
        capsys, "--workload", "miss_update", "--seed", "3",
        "--seconds", "1", "--trace", "0",
    )
    assert code == 1
    assert result["correct"] is False
    assert any(line.startswith("MISMATCH") for line in lines)


def test_bound_ratio_above_one_is_a_mismatch():
    class Response:
        profile = {"bound_ratio": 1.5}
        relation = None

    problem = inprocess.check(Response(), frozenset, {}, "k", 0)
    assert "bound_ratio" in problem


def test_edge_verifier_rejects_wrong_tuples():
    verifier = edge_read.Verifier([frozenset({("o1", "o2")})])
    body = (b'{"status":"ok","profile":{"bound_ratio":0.5},"arity":2,'
            b'"tuples":[["o1","o3"]],"admission":{}}')
    _, _, problem = verifier.check(0, body)
    assert "differs" in problem
    good = body.replace(b'"o3"', b'"o2"')
    assert verifier.check(0, good)[2] == ""
    assert verifier.check(0, good)[2] == ""  # the memoized path


def test_exits_non_zero_without_sources(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "miss_update",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
