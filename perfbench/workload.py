"""Seeded inputs of the benchmark: one shared store and its query sets.

Everything here is a pure function of the ``--seed`` argument, so two runs
on one seed plan, serve and check byte-identical inputs.  The store holds:

* the paper's Q1 (Fig. 5 selectivities), Q2 and Q3 at a fig8-style
  profile of ``HEAVY_TUPLES`` tuples per relation -- the *heavy* set;
* one 2-4 atom query per ``TINY_SHAPES`` entry over ``TINY_TUPLES``-row
  relations -- the *tiny* set;
* small relations for the planning suite: ``PLAN_RANDOM_QUERIES``
  ``random_cyclic_query`` instances with 8-16 atoms plus one cycle whose
  planned hypergraph has more than 64 vertices once the fresh completion
  variables are added.
  The suite's query shapes are fixed; the seed moves their data, and so
  the statistics the planner weighs.

Every query gets its own predicates (``<query>_<predicate>``), so no two
queries share a relation and each plan sees only its own statistics.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.db.database import Database
from repro.db.generator import generate_column
from repro.db.relation import Relation
from repro.query.conjunctive import ConjunctiveQuery, build_query
from repro.query.examples import q1, q2, q3
from repro.workloads.paper_queries import FIG5_SELECTIVITIES
from repro.workloads.synthetic import cycle_query, random_cyclic_query

HEAVY_TUPLES = 150
HEAVY_FLAT_SELECTIVITY = 15
#: The tiny set, as (atoms, shape).  Every seed serves the same sizes and
#: shapes and draws only the head variables and the data: when the seed
#: drew the shapes too, tiny p50 moved by 0.15 (quartile spread over
#: median) between seeds, twice its spread between runs of one seed.
TINY_SHAPES = ((2, "chain"), (3, "star"), (4, "cycle"), (2, "star"),
               (3, "cycle"), (4, "chain"), (3, "chain"), (4, "star"))
TINY_TUPLES = 200
TINY_DOMAIN = 400
PLAN_TUPLES = 30
PLAN_DOMAIN = 8
#: The random planning queries: instance ``i`` has ``8 + i % 9`` atoms,
#: so sizes 8-16 each appear two or three times.  With Q1-Q3 and the big
#: cycle the suite holds 25 queries: a count that ends in 5 puts the p50
#: and p90 of whole passes in the middle of one query's samples (the 13th
#: and 23rd fastest), where with 22 queries both fell on the boundary
#: between two queries and so read the gap between them.
PLAN_RANDOM_QUERIES = 21
#: 33 binary atoms + 33 fresh completion variables = 66 planned vertices,
#: so the candidates graph runs on two-word masks.
PLAN_BIG_CYCLE = 33


def _renamed(query: ConjunctiveQuery, prefix: str, name: str) -> ConjunctiveQuery:
    body = [(f"{prefix}_{atom.predicate}", list(atom.terms)) for atom in query.atoms]
    return build_query(body, output_variables=list(query.output_variables), name=name)


def heavy_queries() -> List[ConjunctiveQuery]:
    return [
        _renamed(q1(), "q1", "Q1"),
        _renamed(q2(), "q2", "Q2"),
        _renamed(q3(), "q3", "Q3"),
    ]


def tiny_queries(seed: int) -> List[ConjunctiveQuery]:
    """One query per ``TINY_SHAPES`` entry, with two head variables drawn
    from the seed."""
    queries = []
    for index, (atoms, shape) in enumerate(TINY_SHAPES):
        rng = random.Random(f"{seed}:tiny:{index}")
        if shape == "chain":
            body = [(f"r{j}", [f"X{j}", f"X{j + 1}"]) for j in range(atoms)]
            variables = [f"X{j}" for j in range(atoms + 1)]
        elif shape == "star":
            body = [(f"r{j}", ["H", f"X{j}"]) for j in range(atoms)]
            variables = ["H"] + [f"X{j}" for j in range(atoms)]
        else:
            body = [(f"r{j}", [f"X{j}", f"X{(j + 1) % atoms}"]) for j in range(atoms)]
            variables = [f"X{j}" for j in range(atoms)]
        output = rng.sample(variables, 2)
        name = f"tiny{index}"
        queries.append(
            build_query(
                [(f"{name}_{predicate}", terms) for predicate, terms in body],
                output_variables=output,
                name=name,
            )
        )
    return queries


def plan_queries() -> List[ConjunctiveQuery]:
    """The ``plan_cold`` suite: Q1-Q3, the random cyclic queries and the
    big cycle, in that order (fresh objects on every call)."""
    suite = list(heavy_queries())
    for index in range(PLAN_RANDOM_QUERIES):
        size, copy = 8 + index % 9, index // 9
        instance = random.Random(f"plan:{size}:{copy}").randrange(1 << 30)
        name = f"rand{size}_{copy}"
        suite.append(
            _renamed(random_cyclic_query(size, size, arity=3, seed=instance), name, name)
        )
    name = f"cycle{PLAN_BIG_CYCLE}"
    suite.append(_renamed(cycle_query(PLAN_BIG_CYCLE), name, name))
    return suite


def _add_relation(database: Database, predicate: str, attributes: Sequence[str],
                  cardinality: int, distinct: Dict[str, int], seed: int) -> None:
    rng = random.Random(f"{seed}:data:{predicate}")
    columns = [
        generate_column(cardinality, int(distinct[attribute]), rng)
        for attribute in attributes
    ]
    rows = list(zip(*columns))
    database.add_relation(Relation(predicate, list(attributes), rows))


def _add_query_relations(database: Database, query: ConjunctiveQuery,
                         cardinality: int, distinct_of, seed: int) -> None:
    for atom in query.atoms:
        if database.has_relation(atom.predicate):
            continue
        attributes = list(atom.terms)
        distinct = {
            attribute: min(cardinality, distinct_of(atom, attribute))
            for attribute in attributes
        }
        _add_relation(database, atom.predicate, attributes, cardinality, distinct, seed)


def build_database(seed: int) -> Database:
    """The shared store's contents, analysed (statistics in the catalog)."""
    database = Database(name=f"perfbench-{seed}")
    for query in heavy_queries():
        if query.name == "Q1":
            def distinct_of(atom, attribute):
                return FIG5_SELECTIVITIES[atom.predicate[len("q1_"):]][attribute]
        else:
            def distinct_of(atom, attribute):
                return HEAVY_FLAT_SELECTIVITY
        _add_query_relations(database, query, HEAVY_TUPLES, distinct_of, seed)
    for query in tiny_queries(seed):
        _add_query_relations(database, query, TINY_TUPLES,
                             lambda atom, attribute: TINY_DOMAIN, seed)
    for query in plan_queries()[3:]:
        _add_query_relations(database, query, PLAN_TUPLES,
                             lambda atom, attribute: PLAN_DOMAIN, seed)
    database.analyze()
    return database
