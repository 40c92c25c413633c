"""minimal-k-decomp (Fig. 2): weighted, normal-form hypertree decompositions.

Given a hypergraph ``H``, a width bound ``k`` and a tree aggregation function
``F^{⊕,v,e}``, the algorithm returns an ``[F, kNFD_H]``-minimal hypertree
decomposition -- a decomposition in normal form of width at most ``k`` whose
weight is minimal among all such decompositions -- or reports *failure* when
``kNFD_H = ∅`` (i.e. ``hw(H) > k``).

The implementation follows the paper closely:

1. build the candidates graph (:class:`repro.decomposition.candidates.CandidatesGraph`);
2. *evaluate* it bottom-up: process subproblems in increasing component size
   (which realises the extraction condition ``incoming(q) ⊆ weighted``),
   either pruning candidates whose subproblem is unsolvable or folding the
   best child weight into each candidate via
   ``weight(p') := weight(p') ⊕ min_p (weight(p) ⊕ e(p', p))``;
3. *select* a decomposition top-down (``Select-hypertree``), choosing a
   minimum-weight candidate for every subproblem.

Both phases run on the graph's dense-id arrays -- weights live in a plain
list indexed by candidate id, arcs are id tuples -- and only materialise
string-labelled :class:`DecompositionNode` views at the TAF boundary (at
most once per candidate, and not at all for TAFs that supply mask-space
weight functions) and in the emitted decomposition.

Ties during selection are broken by a pluggable :class:`TieBreaker`; with the
``"random"`` policy every minimal decomposition can be produced by some run,
which is the completeness half of Theorem 4.4 and is exercised by the tests.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.decomposition.candidates import (
    Candidate,
    CandidatesGraph,
    Subproblem,
)
from repro.decomposition.hypertree import (
    DecompositionNode,
    HypertreeDecomposition,
    NodeId,
)
from repro.exceptions import DecompositionError, NoDecompositionExistsError
from repro.hypergraph.hypergraph import Hypergraph
from repro.weights.semiring import INFINITY, Number
from repro.weights.taf import TreeAggregationFunction


class TieBreaker:
    """Chooses among equally weighted candidates during ``Select-hypertree``.

    ``"first"`` (deterministic, default) picks the smallest candidate under a
    canonical ordering; ``"random"`` picks uniformly at random, realising the
    non-deterministically complete selection the paper assumes for the
    completeness statement of Theorem 4.4.
    """

    def __init__(self, policy: str = "first", seed: Optional[int] = None) -> None:
        if policy not in {"first", "random"}:
            raise DecompositionError(f"unknown tie-breaking policy {policy!r}")
        self.policy = policy
        self._rng = random.Random(seed)

    def choose(self, tied: Sequence[Candidate], key=None) -> Candidate:
        """Pick one of ``tied``; ``key`` overrides the canonical ordering
        (the selection phase passes a key that translates dense candidate
        ids back to the historical (λ names, component names) order)."""
        if self.policy == "first" or len(tied) == 1:
            # ``min`` is the first element of the stable sort, without the
            # O(n log n) sort inside the selection hot loop.
            return min(tied, key=key or _candidate_sort_key)
        # The random policy keeps sorting so a given seed selects the same
        # sequence of decompositions it always did.
        return self._rng.choice(sorted(tied, key=key or _candidate_sort_key))


def _candidate_sort_key(candidate):
    if isinstance(candidate, int):
        # Dense candidate ids follow the canonical construction order.
        return candidate
    kvertex, component = candidate
    return (tuple(sorted(kvertex)), tuple(sorted(component)))


class EvaluationResult:
    """The outcome of the candidates-graph evaluation phase.

    The authoritative state is id-indexed: ``weight_by_id[i]`` is the final
    weight of candidate ``i`` (meaningful only when the candidate survived),
    ``removed[i]`` flags pruned candidates, and ``survivors_by_sub[q]``
    holds the surviving candidate ids of subproblem ``q``.  The historical
    frozenset-keyed views ``weights`` / ``survivors`` are translated lazily
    on first access.
    """

    __slots__ = (
        "graph",
        "weight_by_id",
        "removed",
        "survivors_by_sub",
        "_weights",
        "_survivors",
    )

    def __init__(
        self,
        graph: CandidatesGraph,
        weight_by_id: List[Number],
        removed: bytearray,
        survivors_by_sub: List[Tuple[int, ...]],
    ) -> None:
        self.graph = graph
        self.weight_by_id = weight_by_id
        self.removed = removed
        self.survivors_by_sub = survivors_by_sub
        self._weights: Optional[Dict[Candidate, Number]] = None
        self._survivors: Optional[Dict[Subproblem, Tuple[Candidate, ...]]] = None

    @property
    def weights(self) -> Dict[Candidate, Number]:
        if self._weights is None:
            public = self.graph.public_candidate
            self._weights = {
                public(cand_id): weight
                for cand_id, weight in enumerate(self.weight_by_id)
                if not self.removed[cand_id]
            }
        return self._weights

    @property
    def survivors(self) -> Dict[Subproblem, Tuple[Candidate, ...]]:
        if self._survivors is None:
            graph = self.graph
            public = graph.public_candidate
            self._survivors = {
                graph.public_subproblem(sub_id): tuple(public(c) for c in alive)
                for sub_id, alive in enumerate(self.survivors_by_sub)
            }
        return self._survivors

    @property
    def root_survivor_ids(self) -> Tuple[int, ...]:
        return self.survivors_by_sub[self.graph.ROOT_SUBPROBLEM_ID]

    @property
    def root_candidates(self) -> Tuple[Candidate, ...]:
        public = self.graph.public_candidate
        return tuple(public(c) for c in self.root_survivor_ids)

    def minimum_weight(self) -> Number:
        """The weight of the minimal decomposition (``∞`` if none exists)."""
        candidates = self.root_survivor_ids
        if not candidates:
            return INFINITY
        weights = self.weight_by_id
        return min(weights[c] for c in candidates)


#: Below this many candidates the per-subproblem numpy dispatch overhead of
#: the array fold outweighs the scalar loop it replaces.
_VECTORIZE_MIN_CANDIDATES = 256


def evaluate_candidates_graph(
    graph: CandidatesGraph,
    taf: TreeAggregationFunction,
    vectorized: Optional[bool] = None,
) -> EvaluationResult:
    """The *Evaluate the Candidates Graph* phase of Fig. 2.

    Candidates start with ``weight(p) = v_H(p)``; processing a solvable
    subproblem ``q`` folds ``min_{p ∈ incoming(q)} (weight(p) ⊕ e(p', p))``
    into every candidate ``p'`` that has ``q`` as a subproblem; an
    unsolvable subproblem removes those candidates instead.

    The whole phase is array arithmetic over candidate ids; string-space
    node views are materialised at most once per candidate, and only when
    the TAF has no mask-space weight functions.

    For separable TAFs over the built-in real-valued semirings (those with
    a ``ufunc_name``) the per-subproblem min-fold additionally runs as
    numpy array reductions over ``weight_by_id`` -- identical float64
    operations in identical order, so the result is bit-equal to the
    scalar fold, which remains both the generic path (arbitrary semirings
    and edge weights) and the oracle.  ``vectorized`` forces the choice;
    ``None`` picks the array fold when it applies and the graph is large
    enough to amortise it.
    """
    semiring = taf.semiring
    combine = semiring.combine
    num_candidates = graph.num_candidates
    cand_lambda = graph.cand_lambda
    cand_chi = graph.cand_chi

    # Node views are cached because the TAF may be expensive (cost estimation).
    node_views: List[Optional[DecompositionNode]] = [None] * num_candidates

    def view(cand_id: int) -> DecompositionNode:
        node = node_views[cand_id]
        if node is None:
            node = graph.node_view(cand_id, node_id=cand_id)
            node_views[cand_id] = node
        return node

    mask_vertex_weight = taf.mask_vertex_weight
    if mask_vertex_weight is not None:
        weights: List[Number] = [
            mask_vertex_weight(cand_lambda[i], cand_chi[i])
            for i in range(num_candidates)
        ]
    else:
        vertex_weight = taf.vertex_weight
        weights = [vertex_weight(view(i)) for i in range(num_candidates)]

    # The separable path is gated on the *string* parts (the authoritative
    # definition of the TAF); within it, mask parts are used when available
    # so no node views need to be materialised.
    separable = taf.has_separable_edge
    if separable:
        if taf.has_mask_separable_edge:
            mask_parent_part = taf.mask_edge_parent_part
            mask_child_part = taf.mask_edge_child_part
            parent_parts = [
                mask_parent_part(cand_lambda[i], cand_chi[i])
                for i in range(num_candidates)
            ]
            child_parts = (
                parent_parts
                if mask_child_part is mask_parent_part
                else [
                    mask_child_part(cand_lambda[i], cand_chi[i])
                    for i in range(num_candidates)
                ]
            )
        else:
            edge_parent_part = taf.edge_parent_part
            edge_child_part = taf.edge_child_part
            parent_parts = [edge_parent_part(view(i)) for i in range(num_candidates)]
            # A single shared part function (e.g. cost_H(Q)'s |E(p)|) is
            # evaluated once per candidate, not twice.
            child_parts = (
                parent_parts
                if edge_child_part is edge_parent_part
                else [edge_child_part(view(i)) for i in range(num_candidates)]
            )

    use_array_fold = (
        separable
        and semiring.ufunc_name in ("add", "maximum")
        and (
            vectorized
            if vectorized is not None
            # Arrays win when subproblems have wide candidate sets to reduce
            # over; graphs with many near-empty subproblems (stars) keep the
            # scalar fold, whose per-element cost is lower than the
            # per-subproblem numpy dispatch.
            else num_candidates >= _VECTORIZE_MIN_CANDIDATES
            and num_candidates >= 8 * graph.num_subproblems
        )
    )
    if use_array_fold:
        weights, removed, survivors_by_sub = _array_fold(
            graph, semiring, weights, parent_parts, child_parts
        )
        return _result_with_late_prune(graph, weights, removed, survivors_by_sub)

    removed = bytearray(num_candidates)
    survivors_by_sub: List[Tuple[int, ...]] = [()] * graph.num_subproblems
    sub_solvers = graph.sub_solvers
    sub_dependents = graph.sub_dependents
    mask_edge_weight = taf.mask_edge_weight

    for sub_id in graph.sub_order:
        alive = tuple(c for c in sub_solvers[sub_id] if not removed[c])
        survivors_by_sub[sub_id] = alive
        if not alive:
            # No way to solve this subproblem: every candidate that depends on
            # it is removed from the graph.
            for cand_id in sub_dependents[sub_id]:
                removed[cand_id] = 1
            continue
        # Fold the best solver of ``subproblem`` into each candidate that has
        # it as a subproblem.
        if separable:
            # e(p, p') = parent_part(p) ⊕ child_part(p'); since min
            # distributes over ⊕, the minimisation over solvers can be done
            # once per subproblem and the parent contribution folded in per
            # dependent.
            best_child = INFINITY
            for solver in alive:
                value = combine(weights[solver], child_parts[solver])
                if value < best_child:
                    best_child = value
            for cand_id in sub_dependents[sub_id]:
                if removed[cand_id]:
                    continue
                weights[cand_id] = combine(
                    weights[cand_id], combine(parent_parts[cand_id], best_child)
                )
            continue
        if mask_edge_weight is not None:
            for cand_id in sub_dependents[sub_id]:
                if removed[cand_id]:
                    continue
                parent_lambda = cand_lambda[cand_id]
                parent_chi = cand_chi[cand_id]
                best = INFINITY
                for solver in alive:
                    value = combine(
                        weights[solver],
                        mask_edge_weight(
                            parent_lambda,
                            parent_chi,
                            cand_lambda[solver],
                            cand_chi[solver],
                        ),
                    )
                    if value < best:
                        best = value
                weights[cand_id] = combine(weights[cand_id], best)
            continue
        edge_weight = taf.edge_weight
        for cand_id in sub_dependents[sub_id]:
            if removed[cand_id]:
                continue
            parent_view = view(cand_id)
            best = INFINITY
            for solver in alive:
                value = combine(
                    weights[solver], edge_weight(parent_view, view(solver))
                )
                if value < best:
                    best = value
            weights[cand_id] = combine(weights[cand_id], best)

    return _result_with_late_prune(graph, weights, removed, survivors_by_sub)


def _array_fold(graph, semiring, weights, parent_parts, child_parts):
    """The separable-TAF fold as per-subproblem numpy reductions.

    Runs the same float64 ``⊕``/``min`` operations in the same order as the
    scalar loop (weights, removals and survivor tuples come out bit-equal);
    only the per-candidate Python iteration is replaced by gathers and
    whole-array updates over the graph's cached id arrays.
    """
    combine = np.add if semiring.ufunc_name == "add" else np.maximum
    weight_arr = np.asarray(weights, dtype=np.float64)
    parent_arr = np.asarray(parent_parts, dtype=np.float64)
    child_arr = (
        parent_arr
        if child_parts is parent_parts
        else np.asarray(child_parts, dtype=np.float64)
    )
    removed = np.zeros(len(weight_arr), dtype=bool)
    survivors_by_sub: List[Tuple[int, ...]] = [()] * graph.num_subproblems
    solver_arrays = graph.solver_id_arrays()
    dependent_arrays = graph.dependent_id_arrays()
    for sub_id in graph.sub_order:
        solvers = solver_arrays[sub_id]
        alive = solvers[~removed[solvers]] if solvers.size else solvers
        survivors_by_sub[sub_id] = tuple(alive.tolist())
        dependents = dependent_arrays[sub_id]
        if not alive.size:
            # No way to solve this subproblem: every candidate that depends
            # on it is removed from the graph.
            if dependents.size:
                removed[dependents] = True
            continue
        if not dependents.size:
            continue
        # e(p, p') = parent_part(p) ⊕ child_part(p'); min distributes over
        # ⊕, so minimise over solvers once and fold per dependent.
        best_child = combine(weight_arr[alive], child_arr[alive]).min()
        live = dependents[~removed[dependents]]
        if live.size:
            weight_arr[live] = combine(
                weight_arr[live], combine(parent_arr[live], best_child)
            )
    return weight_arr.tolist(), bytearray(removed.tobytes()), survivors_by_sub


def _result_with_late_prune(
    graph, weights, removed, survivors_by_sub
) -> EvaluationResult:
    """Drop candidates removed after their subproblem's survivor list was
    already recorded (a candidate can be pruned late through one of its
    *other* subproblems; filter defensively so downstream code never sees
    pruned nodes)."""
    survivors_by_sub = [
        alive
        if all(not removed[c] for c in alive)
        else tuple(c for c in alive if not removed[c])
        for alive in survivors_by_sub
    ]
    return EvaluationResult(
        graph=graph,
        weight_by_id=weights,
        removed=removed,
        survivors_by_sub=survivors_by_sub,
    )


def _select_hypertree(
    result: EvaluationResult,
    taf: TreeAggregationFunction,
    tie_breaker: TieBreaker,
) -> HypertreeDecomposition:
    """The *Select-hypertree* phase: extract one minimal decomposition."""
    graph = result.graph
    semiring = taf.semiring
    weights = result.weight_by_id

    root_survivors = result.root_survivor_ids
    if not root_survivors:
        raise NoDecompositionExistsError(graph.k)

    # Tie-breaking uses the historical canonical order -- sorted λ names,
    # then sorted component names -- so the "first" policy selects the same
    # decomposition the frozenset implementation did (numeric mask order
    # would differ).  Only tied candidates are ever translated.
    edge_names = graph.bitset.edge_names
    vertex_names = graph.bitset.vertex_names

    def canonical_key(cand_id: int):
        return (
            tuple(sorted(edge_names(graph.cand_lambda[cand_id]))),
            tuple(sorted(vertex_names(graph.cand_comp[cand_id]))),
        )

    best_root_weight = min(weights[c] for c in root_survivors)
    tied_roots = [c for c in root_survivors if weights[c] == best_root_weight]
    root_id_choice = tie_breaker.choose(tied_roots, key=canonical_key)

    nodes: Dict[NodeId, DecompositionNode] = {}
    children: Dict[NodeId, List[NodeId]] = {}
    next_id = 0

    mask_edge_weight = taf.mask_edge_weight
    cand_lambda = graph.cand_lambda
    cand_chi = graph.cand_chi
    if mask_edge_weight is not None:

        def edge_score(parent: int, solver: int) -> Number:
            return mask_edge_weight(
                cand_lambda[parent],
                cand_chi[parent],
                cand_lambda[solver],
                cand_chi[solver],
            )

    elif taf.has_mask_separable_edge:
        mask_parent_part = taf.mask_edge_parent_part
        mask_child_part = taf.mask_edge_child_part

        def edge_score(parent: int, solver: int) -> Number:
            return semiring.combine(
                mask_parent_part(cand_lambda[parent], cand_chi[parent]),
                mask_child_part(cand_lambda[solver], cand_chi[solver]),
            )

    else:

        def edge_score(parent: int, solver: int) -> Number:
            return taf.edge_weight(
                graph.node_view(parent, -1), graph.node_view(solver, -1)
            )

    def materialise(candidate: int) -> NodeId:
        nonlocal next_id
        node_id = next_id
        next_id += 1
        nodes[node_id] = graph.node_view(candidate, node_id)
        children[node_id] = []
        for subproblem in graph.cand_subs[candidate]:
            alive = result.survivors_by_sub[subproblem]
            if not alive:
                raise DecompositionError(
                    "internal error: selected candidate has an unsolvable subproblem"
                )
            scored = [
                (
                    semiring.combine(weights[solver], edge_score(candidate, solver)),
                    solver,
                )
                for solver in alive
            ]
            best_value = min(score for score, _ in scored)
            tied = [solver for score, solver in scored if score == best_value]
            chosen = tie_breaker.choose(tied, key=canonical_key)
            child_id = materialise(chosen)
            children[node_id].append(child_id)
        return node_id

    root_node = materialise(root_id_choice)
    return HypertreeDecomposition(
        hypergraph=graph.hypergraph,
        root=root_node,
        children=children,
        nodes=nodes,
    )


def minimal_k_decomp(
    hypergraph: Hypergraph,
    k: int,
    taf: TreeAggregationFunction,
    tie_breaker: Optional[TieBreaker] = None,
    graph: Optional[CandidatesGraph] = None,
) -> HypertreeDecomposition:
    """Compute an ``[F^{⊕,v,e}, kNFD_H]``-minimal hypertree decomposition.

    Parameters
    ----------
    hypergraph:
        The hypergraph to decompose (assumed connected, as in the paper).
    k:
        The width bound.
    taf:
        The tree aggregation function to minimise.
    tie_breaker:
        Optional tie-breaking policy for the selection phase.
    graph:
        An already-built candidates graph to reuse (e.g. when evaluating
        several TAFs over the same hypergraph and ``k``).

    Raises
    ------
    NoDecompositionExistsError
        If the hypergraph has no normal-form decomposition of width ``≤ k``,
        i.e. ``hw(H) > k`` (the algorithm's *failure* output).
    """
    graph = _checked_graph(graph, hypergraph, k)
    result = evaluate_candidates_graph(graph, taf)
    return _select_hypertree(result, taf, tie_breaker or TieBreaker())


def minimum_weight(
    hypergraph: Hypergraph,
    k: int,
    taf: TreeAggregationFunction,
    graph: Optional[CandidatesGraph] = None,
) -> Number:
    """The weight of the minimal decomposition without materialising it
    (``∞`` when no width-``k`` NF decomposition exists)."""
    graph = _checked_graph(graph, hypergraph, k)
    return evaluate_candidates_graph(graph, taf).minimum_weight()


def _checked_graph(
    graph: Optional[CandidatesGraph], hypergraph: Hypergraph, k: int
) -> CandidatesGraph:
    """Build the candidates graph, or validate a caller-supplied one.

    A reused graph for the wrong hypergraph or bound would silently produce
    a decomposition of the *graph's* hypergraph; fail loudly instead.
    """
    if graph is None:
        return CandidatesGraph(hypergraph, k)
    if graph.k != k or graph.hypergraph != hypergraph:
        raise DecompositionError(
            "the supplied candidates graph was built for a different "
            f"hypergraph or width bound (graph: k={graph.k}, "
            f"{graph.hypergraph!r}; requested: k={k}, {hypergraph!r})"
        )
    return graph
