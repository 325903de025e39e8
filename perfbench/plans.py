"""Plans, seeded inputs and independent oracles for the workloads.

Everything here is a pure function of the seed, so the edge server
process and the client process build identical databases from the same
``--seed`` without shipping data between them.

Oracles are independent of the engines under test: term plans are
answered by the baseline relational-algebra engine
(:func:`repro.relalg.engine.evaluate_ra`), recursive plans by the
bottom-up Datalog engine (:mod:`repro.datalog`).  ``relalg.engine`` is
*not* used for recursive plans because the ``"ra"`` fixpoint runner is
built on it.
"""

from __future__ import annotations

import functools
import random
import statistics
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.datalog.engine import evaluate_program
from repro.datalog.parser import parse_program
from repro.db.generators import constant_universe
from repro.db.relations import Database, Relation
from repro.queries.fixpoint import (
    reachability_query,
    same_generation_query,
    transitive_closure_query,
)
from repro.queries.language import QueryArity
from repro.queries.relalg_compile import build_ra_query
from repro.relalg.ast import (
    Base,
    ColumnEqualsColumn,
    ColumnEqualsConst,
    CondNot,
    Difference,
    Intersection,
    Product,
    Project,
    RAExpr,
    Select,
    Union,
)
from repro.relalg.engine import evaluate_ra

Rows = FrozenSet[Tuple[str, ...]]

TERM_INPUTS = ("R", "S")
TERM_SCHEMA = {"R": 2, "S": 2}
TERM_SIGNATURE = QueryArity((2, 2), 2)

#: Certified term plans over R(a, b), S(a, b).  ``swap`` reads only R and
#: ``filter`` only S, so on ``miss_update`` a write to one relation
#: leaves the other plan's cached result valid (read-set provenance).
TERM_PLANS: Dict[str, RAExpr] = {
    "swap": Project(Base("R"), (1, 0)),
    "filter": Select(Base("S"), CondNot(ColumnEqualsConst(0, "o1"))),
    "union": Union(Project(Base("R"), (1, 0)), Base("S")),
    "difference": Difference(Base("R"), Base("S")),
    "intersect": Intersection(Base("R"), Base("S")),
    "join": Project(
        Select(Product(Base("R"), Base("S")), ColumnEqualsColumn(1, 2)),
        (0, 3),
    ),
}

#: Registered without an arity signature, so the catalog cannot compile
#: it and serves it on NBE (the reduction engine).
NBE_PLAN = "union_nbe"
NBE_EXPR = TERM_PLANS["union"]


def term_query(expr: RAExpr):
    return build_ra_query(expr, list(TERM_INPUTS), TERM_SCHEMA)


def register_term_plans(catalog, *, with_nbe: bool = False) -> None:
    for name, expr in TERM_PLANS.items():
        catalog.register_query(
            name, term_query(expr), signature=TERM_SIGNATURE
        )
    if with_nbe:
        catalog.register_query(NBE_PLAN, term_query(NBE_EXPR))


def plan_expr(name: str) -> RAExpr:
    return NBE_EXPR if name == NBE_PLAN else TERM_PLANS[name]


# -- term-plan inputs ---------------------------------------------------------


def random_pairs(
    count: int,
    universe: List[str],
    rng: random.Random,
    exclude: FrozenSet[Tuple[str, str]] = frozenset(),
) -> List[Tuple[str, str]]:
    chosen = set()
    rows: List[Tuple[str, str]] = []
    while len(rows) < count:
        row = (rng.choice(universe), rng.choice(universe))
        if row not in chosen and row not in exclude:
            chosen.add(row)
            rows.append(row)
    return rows


def pair_database(size: int, rng: random.Random) -> Database:
    """R and S with ``size`` tuples each over ``size`` constants; half of
    S is drawn from R, so intersection and difference are both about
    ``size / 2`` and the equi-join about ``size``."""
    universe = constant_universe(size)
    r_rows = random_pairs(size, universe, rng)
    shared = rng.sample(r_rows, size // 2)
    fresh = random_pairs(size - len(shared), universe, rng, frozenset(r_rows))
    s_rows = shared + fresh
    rng.shuffle(s_rows)
    return Database.of({
        "R": Relation.from_tuples(2, r_rows),
        "S": Relation.from_tuples(2, s_rows),
    })


def replacement(
    database: Database, name: str, rng: random.Random
) -> Relation:
    """Seeded new contents for ``name``, the same size as before and
    built like :func:`pair_database` (a new S shares half of R)."""
    size = len(database[name])
    universe = constant_universe(size)
    if name == "R":
        return Relation.from_tuples(2, random_pairs(size, universe, rng))
    r_rows = list(database["R"].tuples)
    shared = rng.sample(r_rows, size // 2)
    fresh = random_pairs(size - len(shared), universe, rng, frozenset(r_rows))
    rows = shared + fresh
    rng.shuffle(rows)
    return Relation.from_tuples(2, rows)


# -- edge_read catalog --------------------------------------------------------

#: Tuples per relation of the edge databases; one database per class and
#: instance, so results range from about 5 to 1500 tuples.
EDGE_SIZE_CLASSES = (10, 20, 40, 80, 160, 320, 640, 1000)
EDGE_INSTANCES = 8
EDGE_PLANS = tuple(TERM_PLANS)
#: Zipf exponent of the key popularity.
EDGE_ZIPF_S = 1.0


def edge_database_name(size_class: int, instance: int) -> str:
    return f"n{EDGE_SIZE_CLASSES[size_class]}_{instance}"


def edge_databases(seed: int) -> Dict[str, Database]:
    rng = random.Random(f"edge-databases:{seed}")
    return {
        edge_database_name(size_class, instance): pair_database(size, rng)
        for instance in range(EDGE_INSTANCES)
        for size_class, size in enumerate(EDGE_SIZE_CLASSES)
    }


def edge_keys() -> List[Tuple[str, str]]:
    """(plan, database) keys in popularity order.

    The rank-to-key map is fixed, not seeded: consecutive ranks cycle
    through the size classes, then the plans, then the instances, so
    every popularity band holds the same mix of result sizes and the
    seed changes contents and request order but not the cost mix.
    """
    classes = len(EDGE_SIZE_CLASSES)
    plans = len(EDGE_PLANS)
    keys = []
    for rank in range(classes * plans * EDGE_INSTANCES):
        size_class = rank % classes
        plan = EDGE_PLANS[(rank // classes) % plans]
        instance = rank // (classes * plans)
        keys.append((plan, edge_database_name(size_class, instance)))
    return keys


def zipf_cum_weights(count: int, s: float = EDGE_ZIPF_S) -> List[float]:
    total = 0.0
    cumulative = []
    for rank in range(count):
        total += 1.0 / (rank + 1) ** s
        cumulative.append(total)
    return cumulative


def build_edge_service(databases: Mapping[str, Database]):
    """The edge's service: every edge database and every term plan."""
    from repro.service import QueryService

    service = QueryService()
    for name, database in databases.items():
        service.catalog.register_database(name, database)
    register_term_plans(service.catalog)
    return service


# -- miss_update catalog ------------------------------------------------------

#: Tuples per relation of the miss_update databases: 10^2, 10^3 and
#: 5*10^3, plus two sizes between them so that latencies form a
#: continuum and the median does not sit in the gap between two sizes.
UPDATE_SIZES = (100, 300, 1000, 2000, 5000)
#: The NBE plan is only served on these sizes (reduction is too slow
#: for the larger ones).
NBE_SIZES = (100, 300, 1000)


def update_database_name(size: int) -> str:
    return f"u{size}"


def update_databases(seed: int) -> Dict[str, Database]:
    rng = random.Random(f"update-databases:{seed}")
    return {
        update_database_name(size): pair_database(size, rng)
        for size in UPDATE_SIZES
    }


def update_plans(size: int) -> List[str]:
    plans = list(TERM_PLANS)
    if size in NBE_SIZES:
        plans.append(NBE_PLAN)
    return plans


# -- fixpoint catalog ---------------------------------------------------------

FIXPOINT_PLANS = {
    "tc": transitive_closure_query("E"),
    "reach": reachability_query("S", "E"),
    "sg": same_generation_query("flat", "up", "down"),
}

#: Datalog programs computing the same relations, with the database's
#: relation names mapped to Datalog predicates.
DATALOG_ORACLES = {
    "tc": (
        "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).",
        "tc",
        {"E": "e"},
    ),
    "reach": (
        "r(X) :- s(X).\nr(X) :- r(Y), e(Y, X).",
        "r",
        {"S": "s", "E": "e"},
    ),
    "sg": (
        "sg(X, Y) :- flat(X, Y).\n"
        "sg(X, Y) :- up(X, A), sg(A, B), down(B, Y).",
        "sg",
        {"flat": "flat", "up": "up", "down": "down"},
    ),
}

#: One request per case and cycle: (plan, nodes, engine override).
#: ``None`` leaves the engine to the catalog default; the large graphs
#: ask for the set runner.  Sizes are where each path takes 0.1-2 s on a
#: 2-CPU machine; same-generation is cubic on both paths, so its graphs
#: are smaller.  The cases are picked so that five are cheaper than the
#: median and four dearer, with four around it (0.6-0.7 s): the p50 then
#: falls inside a cluster, not in a gap between two cases.
FIXPOINT_CASES: Tuple[Tuple[str, int, Optional[str]], ...] = (
    ("tc", 6, None),
    ("tc", 8, None),
    ("tc", 10, None),
    ("reach", 8, None),
    ("reach", 12, None),
    ("reach", 14, None),
    ("reach", 16, None),
    ("sg", 4, None),
    ("tc", 40, "ra"),
    ("tc", 50, "ra"),
    ("reach", 200, "ra"),
    ("sg", 12, "ra"),
    ("sg", 16, "ra"),
)
EDGES_PER_NODE = 1.7


def _draw_graph(nodes: int, rng: random.Random) -> List[Tuple[str, str]]:
    labels = constant_universe(nodes)
    rng.shuffle(labels)
    edges = {(labels[i], labels[(i + 1) % nodes]) for i in range(nodes)}
    target = max(nodes, round(EDGES_PER_NODE * nodes))
    while len(edges) < target:
        a, b = rng.choice(labels), rng.choice(labels)
        if a != b:
            edges.add((a, b))
    rows = sorted(edges)
    rng.shuffle(rows)
    return rows


def eccentricities(rows: List[Tuple[str, str]]) -> Dict[str, int]:
    """Each node's longest shortest-path distance to the others."""
    successors: Dict[str, List[str]] = {}
    for a, b in rows:
        successors.setdefault(a, []).append(b)
        successors.setdefault(b, [])
    out = {}
    for source in successors:
        distance = {source: 0}
        frontier = [source]
        while frontier:
            following = []
            for node in frontier:
                for succ in successors[node]:
                    if succ not in distance:
                        distance[succ] = distance[node] + 1
                        following.append(succ)
            frontier = following
        out[source] = max(distance.values())
    return out


@functools.lru_cache(maxsize=None)
def typical_diameter(nodes: int) -> int:
    """The median diameter of 25 draws at this size (fixed draws, not
    the workload seed)."""
    rng = random.Random(f"typical-diameter:{nodes}")
    return int(statistics.median_low(
        max(eccentricities(_draw_graph(nodes, rng)).values())
        for _ in range(25)
    ))


def strongly_connected_rows(
    nodes: int, rng: random.Random
) -> List[Tuple[str, str]]:
    """A sparse digraph: a random Hamiltonian cycle plus random chords,
    about :data:`EDGES_PER_NODE` edges per node, redrawn until its
    diameter is the typical one for its size.

    Strong connectivity fixes the closure at all ``nodes**2`` pairs and
    the diameter fixes the stage count, the two things a fixpoint's cost
    follows most.
    """
    target = typical_diameter(nodes)
    while True:
        rows = _draw_graph(nodes, rng)
        if max(eccentricities(rows).values()) == target:
            return rows


def fixpoint_inputs(
    plan: str, nodes: int, repetition: int, rng: random.Random
) -> Dict[str, Relation]:
    """The inputs of one fixpoint request.

    The graph's shape comes from a fixed seed per (plan, nodes,
    repetition); ``rng`` — the run's seed — renames its nodes and
    reorders its tuples.  Per-graph cost varies by 30 % or more even at
    a fixed size and diameter, so drawing shapes from the run's seed
    would make runs with different seeds do different amounts of work.
    """
    shape = random.Random(f"fixpoint-shape:{plan}:{nodes}:{repetition}")
    rows = strongly_connected_rows(nodes, shape)
    labels = constant_universe(nodes)
    names = list(labels)
    rng.shuffle(names)
    rename = dict(zip(labels, names))
    renamed = [(rename[a], rename[b]) for a, b in rows]
    rng.shuffle(renamed)
    graph = Relation.from_tuples(2, renamed)
    if plan == "tc":
        return {"E": graph}
    if plan == "reach":
        # A source as far from some node as the diameter: the stage
        # count is then the same for every graph of this size.
        reach = eccentricities(rows)
        source = next(
            node for node, _ in rows if reach[node] == max(reach.values())
        )
        return {"S": Relation.unary([rename[source]]), "E": graph}
    roots = shape.sample(sorted(labels), max(1, nodes // 4))
    return {
        "flat": Relation.from_tuples(
            2, [(rename[x], rename[x]) for x in roots]
        ),
        "up": graph,
        "down": Relation.from_tuples(2, [(b, a) for a, b in renamed]),
    }


# -- oracles ------------------------------------------------------------------


def term_oracle(expr: RAExpr, database: Database) -> Rows:
    """The plan's answer on the baseline relational-algebra engine.

    The baseline engine materializes a product in full (25 M rows for a
    join of two 5000-tuple relations), so an equi-join over two distinct
    base relations is answered part by part: both inputs are split into
    buckets by a hash of the join column, and since equal keys land in
    the same bucket, the join is the union of the buckets' joins.
    """
    if (
        isinstance(expr, Project)
        and isinstance(expr.inner, Select)
        and isinstance(expr.inner.condition, ColumnEqualsColumn)
        and isinstance(expr.inner.inner, Product)
        and isinstance(expr.inner.inner.left, Base)
        and isinstance(expr.inner.inner.right, Base)
        and expr.inner.inner.left.name != expr.inner.inner.right.name
    ):
        left = expr.inner.inner.left.name
        right = expr.inner.inner.right.name
        split = database[left].arity
        condition = expr.inner.condition
        if condition.left < split <= condition.right:
            return _bucketed_join(
                expr, database, left, right,
                condition.left, condition.right - split,
            )
    return evaluate_ra(expr, database).as_set()


def _bucketed_join(
    expr: RAExpr,
    database: Database,
    left: str,
    right: str,
    left_column: int,
    right_column: int,
) -> Rows:
    buckets = max(1, len(database[left]) // 4)
    left_parts: Dict[int, list] = {}
    right_parts: Dict[int, list] = {}
    for row in database[left].tuples:
        left_parts.setdefault(hash(row[left_column]) % buckets, []).append(row)
    for row in database[right].tuples:
        right_parts.setdefault(
            hash(row[right_column]) % buckets, []
        ).append(row)
    rows: set = set()
    for bucket, left_rows in left_parts.items():
        right_rows = right_parts.get(bucket)
        if not right_rows:
            continue
        part = Database.of({
            left: Relation(database[left].arity, tuple(left_rows)),
            right: Relation(database[right].arity, tuple(right_rows)),
        })
        rows.update(evaluate_ra(expr, part).as_set())
    return frozenset(rows)


def fixpoint_oracle(plan: str, inputs: Mapping[str, Relation]) -> Rows:
    """The recursive plan's answer on the bottom-up Datalog engine."""
    text, predicate, names = DATALOG_ORACLES[plan]
    edb = Database.of({names[name]: inputs[name] for name in names})
    return evaluate_program(parse_program(text), edb)[predicate].as_set()
