"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.db.database import Database
from repro.db.relation import Relation
from repro.hypergraph.generators import (
    cycle_hypergraph,
    paper_q0_hypergraph,
    path_hypergraph,
)
from repro.query.examples import q0, q1, q2, q3


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a long-running end-to-end test (still tier-1)"
    )


@pytest.fixture
def src_env():
    """The environment for a Python subprocess that must import this
    checkout's ``repro``: ``src/`` prepended to ``PYTHONPATH``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@pytest.fixture
def q0_hypergraph():
    """H(Q0): the paper's introductory 8-atom, width-2 hypergraph."""
    return paper_q0_hypergraph()


@pytest.fixture
def triangle_hypergraph():
    return cycle_hypergraph(3)


@pytest.fixture
def square_hypergraph():
    return cycle_hypergraph(4)


@pytest.fixture
def chain_hypergraph():
    return path_hypergraph(4)


@pytest.fixture
def q0_query():
    return q0()


@pytest.fixture
def q1_query():
    return q1()


@pytest.fixture
def q2_query():
    return q2()


@pytest.fixture
def q3_query():
    return q3()


@pytest.fixture
def tiny_database():
    """A 3-relation database over a path query r(X,Y), s(Y,Z), t(Z,W)."""
    return Database(
        relations={
            "r": Relation("r", ["x", "y"], [(1, 10), (2, 20), (3, 30), (1, 20)]),
            "s": Relation("s", ["y", "z"], [(10, 100), (20, 200), (20, 300)]),
            "t": Relation("t", ["z", "w"], [(100, 7), (200, 8), (400, 9)]),
        },
        name="tiny",
    )


@pytest.fixture
def triangle_database():
    """A database for the triangle query r(X,Y), s(Y,Z), t(Z,X)."""
    return Database(
        relations={
            "r": Relation("r", ["a", "b"], [(1, 2), (2, 3), (4, 5), (1, 3)]),
            "s": Relation("s", ["a", "b"], [(2, 3), (3, 1), (5, 6)]),
            "t": Relation("t", ["a", "b"], [(3, 1), (1, 2), (6, 4)]),
        },
        name="triangle",
    )
