"""The ``edge_read`` workload: cached reads through the HTTP edge.

The edge runs in its own process (:mod:`perfbench.edge_server`); this
process is the one client, with two keep-alive connections, each a
closed loop (the next request leaves when the reply is in).  Keys are
(plan, database) pairs drawn from a Zipf distribution over 384 keys,
1.5 times the result cache's 256 entries.
"""

from __future__ import annotations

import gc
import http.client
import json
import random
import select
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from perfbench import ROOT, plans
from perfbench.report import Phase, Request

CONNECTIONS = 2
#: Seconds a server may take to print its READY line or its stats.
SERVER_TIMEOUT_S = 120.0


class Server:
    """One edge server process and the time it took to come up."""

    def __init__(self, seed: int, trace: bool) -> None:
        command = [sys.executable, "-m", "perfbench.edge_server",
                   "--seed", str(seed)]
        if trace:
            command.append("--trace")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self._readline()
            ready_s = time.perf_counter() - start
            tag, port, generate_s = line.split()
            if tag != "READY":
                raise RuntimeError(f"edge server said {line!r}")
        except BaseException:
            self.kill()
            raise
        self.port = int(port)
        self.setup_s = ready_s - float(generate_s)

    def _readline(self) -> str:
        ready, _, _ = select.select(
            [self.process.stdout], [], [], SERVER_TIMEOUT_S
        )
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"edge server gave no output (exit {self.process.poll()})"
            )
        return line

    def stats(self) -> dict:
        """Ask for the server's stats, then let it drain and exit."""
        try:
            self.process.stdin.write("STATS\n")
            self.process.stdin.flush()
            return json.loads(self._readline())
        finally:
            self.stop()

    def stop(self) -> None:
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        self.process.kill()
        self.process.wait()


def catalog_engines(port: int) -> Dict[str, str]:
    """The engine the catalog chose for each plan (``GET /v1/catalog``)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", "/v1/catalog")
        payload = json.loads(connection.getresponse().read())
    finally:
        connection.close()
    return {entry["name"]: entry["engine"] for entry in payload["queries"]}


class Verifier:
    """Checks edge responses against the oracles.

    A response's ``"tuples"`` bytes that equal bytes already verified
    for the same key are not parsed again; everything else in the body
    is parsed and checked on every response.
    """

    def __init__(self, oracles: List[frozenset]) -> None:
        self.oracles = oracles
        self.verified: Dict[int, Tuple[bytes, int]] = {}

    def check(self, key: int, body: bytes) -> Tuple[dict, int, str]:
        """(head fields, tuple count, problem or '')."""
        start = body.find(b',"tuples":')
        end = body.rfind(b',"admission":')
        if start < 0 or end < start:
            return json.loads(body), 0, f"key {key}: no tuples in response"
        head = json.loads(body[:start] + body[end:])
        ratio = (head.get("profile") or {}).get("bound_ratio")
        if ratio is None or ratio > 1:
            return head, 0, f"key {key}: bound_ratio {ratio!r} is not <= 1"
        rows_bytes = body[start:end]
        seen = self.verified.get(key)
        if seen is not None and seen[0] == rows_bytes:
            return head, seen[1], ""
        rows = json.loads(b"{" + rows_bytes[1:] + b"}")["tuples"]
        if frozenset(map(tuple, rows)) != self.oracles[key]:
            return head, len(rows), f"key {key}: result differs from oracle"
        self.verified[key] = (rows_bytes, len(rows))
        return head, len(rows), ""


def _connection_loop(
    index: int,
    seed: int,
    port: int,
    deadline: float,
    keys: List[Tuple[str, str]],
    engines: Dict[str, str],
    verifier: Verifier,
    phase: Phase,
    lock: threading.Lock,
) -> None:
    rng = random.Random(f"edge_read:{seed}:{index}")
    weights = plans.zipf_cum_weights(len(keys))
    population = range(len(keys))
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    requests: List[Request] = []
    problems: List[str] = []
    count = 0
    try:
        while time.perf_counter() < deadline:
            for key in rng.choices(population, cum_weights=weights, k=256):
                if time.perf_counter() >= deadline:
                    break
                plan, database = keys[key]
                rid = f"{index}:{count}"
                count += 1
                body = json.dumps(
                    {"query": plan, "database": database, "tag": rid}
                ).encode()
                start = time.perf_counter()
                try:
                    connection.request(
                        "POST", "/v1/query", body,
                        {"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    data = response.read()
                except (OSError, http.client.HTTPException) as exc:
                    requests.append(Request(rid, 0.0, False))
                    problems.append(f"connection {index}: {exc!r}")
                    return
                latency_ms = (time.perf_counter() - start) * 1000.0
                record = Request(rid, latency_ms, response.status == 200)
                if record.ok:
                    head, tuples, problem = verifier.check(key, data)
                    record.ok = head.get("status") == "ok"
                    record.hit = bool(head.get("cache_hit"))
                    record.engine = head.get("engine", "")
                    record.expected_engine = engines[plan]
                    record.tuples = tuples
                    record.response_kb = len(data) / 1024.0
                    if problem:
                        problems.append(problem)
                requests.append(record)
    finally:
        connection.close()
        with lock:
            phase.requests.extend(requests)
            phase.mismatches.extend(problems)


def load(server: Server, seed: int, seconds: float, phase: Phase,
         oracles: List[frozenset]) -> None:
    """Drive ``server`` from two connections for ``seconds``."""
    keys = plans.edge_keys()
    engines = catalog_engines(server.port)
    lock = threading.Lock()
    start = time.perf_counter()
    threads = [
        threading.Thread(
            target=_connection_loop,
            args=(index, seed, server.port, start + seconds, keys, engines,
                  Verifier(oracles), phase, lock),
        )
        for index in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.busy_s = time.perf_counter() - start


def oracles_for(seed: int) -> List[frozenset]:
    databases = plans.edge_databases(seed)
    return [
        plans.term_oracle(plans.TERM_PLANS[plan], databases[database])
        for plan, database in plans.edge_keys()
    ]


def run_phase(seed: int, seconds: float, setups: int, trace: bool,
              oracles: List[frozenset]) -> Phase:
    """Start the server ``setups`` times (timing each), then load the
    last one for ``seconds``."""
    phase = Phase()
    server = None
    try:
        for _ in range(setups):
            if server is not None:
                server.stop()
            gc.collect()
            server = Server(seed, trace)
            phase.setups_s.append(server.setup_s)
        load(server, seed, seconds, phase, oracles)
        stats = server.stats()
    except BaseException:
        if server is not None and server.process.poll() is None:
            server.kill()
        raise
    phase.peak_rss_mb = stats["peak_rss_mb"]
    phase.cache = stats["cache"]
    phase.traces = stats["traces"]
    phase.setup_traces = stats["setup_traces"]
    return phase


def phases(seed: int, seconds: float, trace: bool, setups: int):
    """The untraced phase, or the untraced and traced halves."""
    oracles = oracles_for(seed)
    if not trace:
        return run_phase(seed, seconds, setups, False, oracles), None
    untraced = run_phase(seed, seconds / 2, 1, False, oracles)
    traced = run_phase(seed, seconds / 2, 1, True, oracles)
    return untraced, traced

