"""Equivalence of the vectorised decomposition search plane with the scalar
oracle.

This PR's mask-matrix kernels re-run three things on whole numpy arrays --
candidates-graph construction, k-incremental extension, and the evaluation
fold -- while the historical scalar loops stay in place as the oracle.
These tests pin the vectorised paths to the scalar ones on random
hypergraphs:

* :class:`~repro.core.maskmatrix.MaskMatrix` against the one-line
  big-int definitions of its four queries (including masks wider than one
  64-bit word);
* ``CandidatesGraph(vectorized=True)`` against ``vectorized=False``:
  byte-identical nodes, arcs, orders and ``size_report()``;
* ``extend_to(k + 1)`` against a fresh construction at ``k + 1`` (both
  engines, including switching engine at the extension step);
* the vectorised evaluation fold against the scalar fold: same weights,
  survivors and selected decomposition;
* ``TieBreaker.choose`` with ``policy="first"`` picks the same candidate
  the full sort used to (satellite: ``min`` instead of an O(n log n) sort);
* the kernel-level projection pushdown leaves answers and
  ``OperatorStats`` byte-identical between engines.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.maskmatrix import MaskMatrix
from repro.decomposition.candidates import (
    CandidatesGraph,
    CandidatesGraphFamily,
)
from repro.decomposition.minimal import (
    TieBreaker,
    evaluate_candidates_graph,
    minimal_k_decomp,
)
from repro.exceptions import NoDecompositionExistsError
from repro.hypergraph.generators import (
    cycle_hypergraph,
    random_hypergraph,
    star_hypergraph,
)
from repro.weights.library import (
    lexicographic_taf,
    node_count_taf,
    separator_taf,
    width_taf,
)
from repro.weights.querycost import QueryCostTAF
from repro.workloads.paper_queries import fig5_statistics
from repro.query.examples import q1


small_hypergraph_strategy = st.builds(
    random_hypergraph,
    num_vertices=st.integers(min_value=2, max_value=9),
    num_edges=st.integers(min_value=1, max_value=8),
    rank=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)


def graph_snapshot(graph: CandidatesGraph):
    """Every dense-id array of the graph (the byte-identity contract)."""
    return (
        graph.sub_keys,
        list(graph.cand_keys),
        list(graph.cand_lambda),
        list(graph.cand_var),
        list(graph.cand_chi),
        list(graph.cand_comp),
        list(graph.cand_subs),
        list(graph.sub_solvers),
        list(graph.sub_dependents),
        list(graph.sub_order),
        graph.size_report(),
    )


# ----------------------------------------------------------------------
# MaskMatrix vs its scalar definitions
# ----------------------------------------------------------------------
#: The scalar twin of every MaskMatrix query: one big-int expression per
#: row, the oracle the broadcasted word kernels are pinned against.
SCALAR_QUERIES = {
    "intersects": lambda m, mask: bool(m & mask),
    "subset_of": lambda m, mask: not (m & ~mask),
    "covers": lambda m, mask: not (mask & ~m),
    "intersections": lambda m, mask: m & mask,
}


class TestMaskMatrix:
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    @given(
        num_bits=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_queries_match_scalar_twin(self, num_bits, seed):
        rng = random.Random(seed)
        masks = [rng.getrandbits(num_bits) for _ in range(rng.randint(0, 20))]
        probe = rng.getrandbits(num_bits)
        dense = MaskMatrix(masks, num_bits)
        assert len(dense) == len(masks)
        assert dense.tolist() == masks
        for method, scalar in SCALAR_QUERIES.items():
            assert list(getattr(dense, method)(probe)) == [
                scalar(m, probe) for m in masks
            ], method
        rows = [i for i in range(len(masks)) if rng.random() < 0.5]
        for method in ("intersects", "subset_of", "covers"):
            scalar = SCALAR_QUERIES[method]
            assert list(getattr(dense, method)(probe, rows)) == [
                scalar(masks[r], probe) for r in rows
            ], method
        assert np.flatnonzero(dense.covers(probe)).tolist() == [
            i for i, m in enumerate(masks) if SCALAR_QUERIES["covers"](m, probe)
        ]

    def test_semantics_against_definitions(self):
        masks = [0b1010, 0b0110, 0, 0b1111]
        matrix = MaskMatrix(masks, 4)
        assert list(matrix.intersects(0b0010)) == [True, True, False, True]
        assert list(matrix.subset_of(0b1110)) == [True, True, True, False]
        assert list(matrix.covers(0b1010)) == [True, False, False, True]
        assert matrix.intersections(0b0110) == [0b0010, 0b0110, 0, 0b0110]
        assert matrix.mask_at(3) == 0b1111

    def test_multiword_row_reconstruction(self):
        masks = [1 << 130, (1 << 64) | 1, (1 << 200) - 1]
        matrix = MaskMatrix(masks, 201)
        assert matrix.width == 4
        assert matrix.tolist() == masks
        assert matrix.mask_at(0) == 1 << 130
        assert list(matrix.covers((1 << 64) | 1)) == [False, True, True]


# ----------------------------------------------------------------------
# CandidatesGraph: vectorised engine == scalar oracle
# ----------------------------------------------------------------------
class TestVectorizedCandidatesGraph:
    @settings(max_examples=35, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        hypergraph=small_hypergraph_strategy,
        k=st.integers(min_value=1, max_value=4),
    )
    def test_engines_build_identical_graphs(self, hypergraph, k):
        scalar = CandidatesGraph(hypergraph, k, vectorized=False)
        dense = CandidatesGraph(hypergraph, k, vectorized=True)
        assert graph_snapshot(scalar) == graph_snapshot(dense)

    def test_wider_than_one_word(self):
        # 70 vertices and 70 edges: every mask spans two uint64 words.
        hypergraph = cycle_hypergraph(70)
        scalar = CandidatesGraph(hypergraph, 2, vectorized=False)
        dense = CandidatesGraph(hypergraph, 2, vectorized=True)
        assert graph_snapshot(scalar) == graph_snapshot(dense)

    def test_solver_arc_dedup_on_star(self):
        # Stars make thousands of subproblems share (component, boundary);
        # the memoised solver tuples must still match the plain definition.
        hypergraph = star_hypergraph(12)
        scalar = CandidatesGraph(hypergraph, 2, vectorized=False)
        dense = CandidatesGraph(hypergraph, 2, vectorized=True)
        assert graph_snapshot(scalar) == graph_snapshot(dense)

    @settings(max_examples=18, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        hypergraph=small_hypergraph_strategy,
        k=st.integers(min_value=1, max_value=3),
        engines=st.tuples(st.booleans(), st.booleans()),
    )
    def test_extend_to_matches_fresh_construction(self, hypergraph, k, engines):
        base_engine, extension_engine = engines
        base = CandidatesGraph(hypergraph, k, vectorized=base_engine)
        extended = base.extend_to(k + 1, vectorized=extension_engine)
        fresh = CandidatesGraph(hypergraph, k + 1, vectorized=False)
        assert graph_snapshot(extended) == graph_snapshot(fresh)
        # Extending twice (and over a gap) also matches.
        jumped = base.extend_to(k + 2, vectorized=extension_engine)
        assert graph_snapshot(jumped) == graph_snapshot(
            CandidatesGraph(hypergraph, k + 2, vectorized=False)
        )

    def test_extend_to_same_k_returns_self(self):
        graph = CandidatesGraph(cycle_hypergraph(5), 2)
        assert graph.extend_to(2) is graph

    def test_family_caches_and_matches(self):
        hypergraph = cycle_hypergraph(6)
        family = CandidatesGraphFamily(hypergraph)
        for k in (2, 3, 4):
            assert graph_snapshot(family.graph(k)) == graph_snapshot(
                CandidatesGraph(hypergraph, k, vectorized=False)
            )
        assert family.graph(3) is family.graph(3)


# ----------------------------------------------------------------------
# Evaluation: vectorised fold == scalar fold
# ----------------------------------------------------------------------
class TestVectorizedEvaluation:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        hypergraph=small_hypergraph_strategy,
        k=st.integers(min_value=1, max_value=3),
        taf_index=st.integers(min_value=0, max_value=2),
    )
    def test_fold_matches_scalar(self, hypergraph, k, taf_index):
        graph = CandidatesGraph(hypergraph, k)
        taf = [width_taf(), lexicographic_taf(hypergraph), node_count_taf()][
            taf_index
        ]
        scalar = evaluate_candidates_graph(graph, taf, vectorized=False)
        dense = evaluate_candidates_graph(graph, taf, vectorized=True)
        assert list(map(float, scalar.weight_by_id)) == list(dense.weight_by_id)
        assert bytes(scalar.removed) == bytes(dense.removed)
        assert scalar.survivors_by_sub == dense.survivors_by_sub
        assert scalar.minimum_weight() == dense.minimum_weight()

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        hypergraph=small_hypergraph_strategy,
        k=st.integers(min_value=2, max_value=3),
    )
    def test_selected_decomposition_matches(self, hypergraph, k):
        graph = CandidatesGraph(hypergraph, k)
        taf = lexicographic_taf(hypergraph)
        try:
            scalar_hd = minimal_k_decomp(hypergraph, k, taf, graph=graph)
        except NoDecompositionExistsError:
            return
        dense_result = evaluate_candidates_graph(graph, taf, vectorized=True)
        scalar_result = evaluate_candidates_graph(graph, taf, vectorized=False)
        assert dense_result.minimum_weight() == scalar_result.minimum_weight()
        assert taf.weigh(scalar_hd) == scalar_result.minimum_weight()

    def test_non_separable_taf_keeps_scalar_path(self):
        # separator_taf supplies a full (non-separable) mask edge weight;
        # vectorized=True must still produce the same evaluation.
        hypergraph = cycle_hypergraph(6)
        graph = CandidatesGraph(hypergraph, 2)
        taf = separator_taf()
        scalar = evaluate_candidates_graph(graph, taf, vectorized=False)
        dense = evaluate_candidates_graph(graph, taf, vectorized=True)
        assert list(scalar.weight_by_id) == list(dense.weight_by_id)
        assert scalar.survivors_by_sub == dense.survivors_by_sub

    def test_querycost_mask_space_matches_node_views(self):
        query = q1().with_fresh_head_variables()
        hypergraph = query.hypergraph()
        statistics = fig5_statistics()
        graph = CandidatesGraph(hypergraph, 3)
        plain = QueryCostTAF(query, statistics)
        masked = QueryCostTAF(query, statistics)
        masked.bind_mask_space(graph.bitset)
        reference = evaluate_candidates_graph(graph, plain, vectorized=False)
        vectorised = evaluate_candidates_graph(graph, masked, vectorized=True)
        assert list(reference.weight_by_id) == list(vectorised.weight_by_id)
        assert reference.survivors_by_sub == vectorised.survivors_by_sub
        # Binding twice with the same bitset is a no-op.
        before = masked.mask_vertex_weight
        masked.bind_mask_space(graph.bitset)
        assert masked.mask_vertex_weight is before


# ----------------------------------------------------------------------
# TieBreaker satellite
# ----------------------------------------------------------------------
class TestTieBreakerFirstPolicy:
    @settings(max_examples=60)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=30), min_size=1, max_size=12
        )
    )
    def test_first_equals_sorted_head(self, values):
        breaker = TieBreaker(policy="first")
        assert breaker.choose(values) == sorted(values)[0]
        key = lambda v: (-v, v)  # noqa: E731
        assert breaker.choose(values, key=key) == sorted(values, key=key)[0]

    def test_random_policy_is_seed_stable(self):
        tied = [(frozenset({"b"}), frozenset({"Y"})), (frozenset({"a"}), frozenset({"X"}))]
        picks = {TieBreaker(policy="random", seed=s).choose(tied) for s in range(8)}
        assert picks == set(tied)  # both remain reachable
        assert (
            TieBreaker(policy="random", seed=3).choose(tied)
            == TieBreaker(policy="random", seed=3).choose(tied)
        )
