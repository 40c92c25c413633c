"""Executing query plans through the shared plan-node IR.

A (complete) hypertree decomposition of a query is a query plan (Section 1.1
and Section 6 of the paper): first evaluate, for every decomposition node
``p``, the expression ``E(p) = Π_{χ(p)} ⋈_{h ∈ λ(p)} rel(h)``; the resulting
tree of relations is an acyclic *tree query* which Yannakakis' algorithm then
answers in output-polynomial time.

Both plan shapes -- hypertree plans and the baseline's left-deep join
orders -- are lowered to the IR of :mod:`repro.db.plan_ir` and interpreted
by :func:`execute_plan`, so they run on the identical operator kernels
(columnar whenever the database is columnar) and their work counters are
directly comparable.  :func:`execute_hypertree_plan` and
:func:`naive_join_evaluation` remain as the public entry points and report
the work performed, which is what the Fig. 8 experiments measure.

The execution plane is parallel and memory-bounded:

* ``threads`` (per call, defaulting to the database's knob, defaulting to
  the ``REPRO_DB_THREADS`` environment variable, defaulting to 1) sizes
  the :class:`~repro.db.scheduler.TaskScheduler` that runs a Yannakakis
  plan's per-subtree task DAG -- per-node expressions, both semijoin
  passes, the join fold.  There is one execution path: at ``threads=1``
  the scheduler runs the DAG inline in its canonical order, above that
  independent sibling subtrees execute concurrently and the big numpy
  kernels release the GIL.  Answers, row order, ``OperatorStats`` and
  trace spans are the same at every thread count; the row engine
  (``columnar=False``) is the semantic oracle.  Join-order plans scan
  their atoms and fold them in one left-deep join, so they always run
  inline.
* ``memory_budget_bytes`` (same defaulting chain, env var
  ``REPRO_DB_MEMORY_BUDGET_BYTES``; ``0`` means unbounded) is handed to
  every kernel unchanged and caps its transient index arrays:
  :mod:`repro.db.columnar` alone turns it into probe/membership/key-pack
  morsel sizes and sizes the join's materialisation morsels adaptively
  from the exact per-chunk emit counts -- results, emit counts and the
  evaluation-budget stop are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.db.algebra import (
    OperatorStats,
    evaluate_node_expression,
    join_all,
    project,
)
from repro.db.database import Database
from repro.db.plan_ir import (
    JoinNode,
    ProjectNode,
    QueryPlanIR,
    ScanNode,
    YannakakisNode,
    hypertree_plan_ir,
    join_order_plan_ir,
    scan_order,
    yannakakis_task_dag,
)
from repro.db.relation import Relation
from repro.db.scheduler import TaskScheduler, resolve_threads
from repro.obs.trace import TraceRecorder, obs_enabled, span_context
from repro.db.yannakakis import (
    TreeQuery,
    fold_plan,
    fold_task_functions,
    project_answer,
    reduction_task_functions,
)
from repro.decomposition.hypertree import HypertreeDecomposition
from repro.exceptions import DatabaseError
from repro.query.conjunctive import ConjunctiveQuery


@dataclass
class ExecutionResult:
    """The outcome of running a query plan.

    ``relation`` is the answer relation (``None`` for Boolean queries);
    ``boolean`` the Boolean answer (``None`` for non-Boolean queries);
    ``stats`` the relational-operator work counters.
    """

    relation: Optional[Relation]
    boolean: Optional[bool]
    stats: OperatorStats

    @property
    def cardinality(self) -> int:
        if self.relation is None:
            return 1 if self.boolean else 0
        return self.relation.cardinality

    def answer_rows(self) -> Optional[list]:
        """The decoded answer rows as a JSON-safe list of lists (``None``
        for Boolean queries), preserving the engine's row order exactly --
        the form the serving plane ships back to clients and the
        equivalence suites compare byte-for-byte."""
        if self.relation is None:
            return None
        return [list(row) for row in self.relation.rows]

    def stats_payload(self) -> Dict[str, object]:
        """A JSON-safe rendering of the work counters: the representation-
        blind :meth:`OperatorStats.snapshot` plus the per-operator counts
        and ``peak_transient_elements``.  Every field is deterministic
        across engines, encodings, chunkings and thread counts, so two
        executions of the same plan against the same data must produce
        equal payloads (the serving plane's determinism contract).  The
        dtype-aware ``peak_transient_bytes`` is deliberately excluded."""
        payload = dict(self.stats.snapshot())
        payload["operations"] = {
            key: self.stats.operations[key]
            for key in sorted(self.stats.operations)
        }
        payload["peak_transient_elements"] = self.stats.peak_transient_elements
        return payload


def build_tree_query(
    query: ConjunctiveQuery,
    database: Database,
    decomposition: HypertreeDecomposition,
    stats: Optional[OperatorStats] = None,
) -> TreeQuery:
    """Materialise ``E(p)`` for every decomposition node and assemble the
    acyclic tree query."""
    bound = database.bind_query(query)
    relations: Dict[object, Relation] = {}
    for node in decomposition.nodes():
        inputs = []
        for edge_name in sorted(node.lambda_edges):
            if edge_name not in bound:
                raise DatabaseError(
                    f"decomposition uses edge {edge_name!r} which is not an atom "
                    f"of query {query.name!r}"
                )
            inputs.append(bound[edge_name])
        projection = sorted(node.chi)
        relations[node.node_id] = evaluate_node_expression(
            inputs, projection, stats=stats
        )
    children = {
        node_id: decomposition.children(node_id)
        for node_id in decomposition.node_ids()
    }
    return TreeQuery(root=decomposition.root, children=children, relations=relations)


def execute_plan(
    plan: QueryPlanIR,
    database: Database,
    budget: Optional[int] = None,
    threads: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
    trace=None,
    trace_id=None,
) -> ExecutionResult:
    """Interpret a plan-node IR tree against ``database``.

    This is the single execution path for every plan shape: atoms are bound
    once (memoised per atom name) and every operator goes through
    :mod:`repro.db.algebra`, which dispatches to the columnar kernels when
    the database is columnar.  ``budget`` caps the total evaluation work
    (tuples read + emitted); exceeding it raises
    :class:`repro.db.algebra.EvaluationBudgetExceeded` -- with ``threads >
    1`` the raise happens in whichever task crosses the budget first, but
    *whether* it happens is scheduling-independent (counters only grow).
    ``threads``/``memory_budget_bytes`` default to the database's knobs;
    see the module docstring.

    ``trace`` (a :class:`repro.obs.trace.TraceRecorder`) records one span
    per plan node -- scans, joins, projections, Yannakakis tasks -- tagged
    ``trace_id``, with morsel counts and emit sizes in the span attrs.
    Tracing is a write-only sidecar: answers, row order and every
    ``OperatorStats`` counter are byte-identical with it on or off
    (``REPRO_OBS=1`` forces a throwaway recorder to pin this in
    whole-suite runs).
    """
    threads = resolve_threads(threads, default=getattr(database, "threads", 1))
    if memory_budget_bytes is None:
        memory_budget_bytes = getattr(database, "memory_budget_bytes", None)
    if trace is None and obs_enabled():
        trace = TraceRecorder()

    stats = OperatorStats(budget=budget)
    atoms = {atom.name: atom for atom in plan.query.atoms}
    bound: Dict[str, Relation] = {}

    def scan(atom_name: str) -> Relation:
        relation = bound.get(atom_name)
        if relation is None:
            relation = database.bind_atom(atoms[atom_name])
            bound[atom_name] = relation
        return relation

    def run(node, needed=None) -> Relation:
        if isinstance(node, ScanNode):
            with span_context(
                trace, f"scan:{node.atom_name}", "plan", trace_id
            ) as span:
                relation = scan(node.atom_name)
                span.attrs["rows"] = relation.cardinality
            return relation
        if isinstance(node, JoinNode):
            inputs = [run(child) for child in node.inputs]
            with span_context(
                trace, "join", "plan", trace_id, inputs=len(inputs)
            ) as span:
                order = None
                if node.smallest_first:
                    order = sorted(
                        range(len(inputs)), key=lambda i: inputs[i].cardinality
                    )
                relation = join_all(
                    inputs, stats=stats, order=order, needed=needed,
                    memory_budget_bytes=memory_budget_bytes,
                )
                span.attrs["rows"] = relation.cardinality
            return relation
        if isinstance(node, ProjectNode):
            # Kernel-level projection pushdown: the join below gathers only
            # the columns this projection (or a later join key) still needs;
            # cardinalities and OperatorStats are unchanged.
            inner = run(node.input, needed=frozenset(node.attributes))
            with span_context(
                trace, f"project:{node.name or 'answer'}", "plan", trace_id
            ) as span:
                relation = project(
                    inner,
                    list(node.attributes),
                    stats=stats,
                    name=node.name,
                    distinct=node.distinct,
                    memory_budget_bytes=memory_budget_bytes,
                )
                span.attrs["rows"] = relation.cardinality
            return relation
        raise DatabaseError(f"unknown plan node: {node!r}")

    root = plan.root
    if isinstance(root, YannakakisNode):
        for atom_name in scan_order(root):
            scan(atom_name)  # serial pre-bind: dictionary interning stays ordered
        return _execute_yannakakis(
            root, run, stats, threads, memory_budget_bytes, trace, trace_id,
        )

    # A Boolean plan only needs the root cardinality, so the top-level join
    # may drop every column that no longer feeds a join key.
    result = run(root, needed=frozenset() if plan.boolean else None)
    if plan.boolean:
        return ExecutionResult(
            relation=None, boolean=result.cardinality > 0, stats=stats
        )
    return ExecutionResult(relation=result, boolean=None, stats=stats)


def _execute_yannakakis(
    root: YannakakisNode, run, stats, threads: int, memory_budget_bytes,
    trace, trace_id,
) -> ExecutionResult:
    """Run one Yannakakis plan as its per-subtree task DAG.

    Phase one executes expressions and both semijoin passes as one DAG
    (independent sibling subtrees overlap freely when ``threads > 1``);
    the join fold needs the reduced tree's metadata
    (:func:`repro.db.yannakakis.fold_plan`), so it runs as a second DAG.
    Determinism comes from the dependency edges (each relation slot has
    exactly one writer per pass) and the commutative ``OperatorStats``
    counters, so every thread count gives the same answer, row order,
    counters and spans.
    """
    children = {node_id: tuple(kids) for node_id, kids in root.children}
    # Pre-seed the mapping in canonical order: concurrent writes then
    # preserve this key order, keeping attribute collection deterministic.
    relations: Dict[object, Relation] = {
        node_id: None for node_id, _ in root.expressions
    }
    tree = TreeQuery(root=root.root, children=children, relations=relations)
    specs = yannakakis_task_dag(root)
    scheduler = TaskScheduler(threads)

    def expression_task(node_id, expression):
        def evaluate_expression() -> None:
            with span_context(
                trace, f"expr:{node_id}", "yannakakis", trace_id
            ) as span:
                relations[node_id] = run(expression)
                span.attrs["rows"] = relations[node_id].cardinality
        return evaluate_expression

    functions = {
        ("expr", node_id): expression_task(node_id, expression)
        for node_id, expression in root.expressions
    }
    functions.update(
        reduction_task_functions(
            tree, relations, stats=stats, full=not root.boolean,
            memory_budget_bytes=memory_budget_bytes, trace=trace,
            trace_id=trace_id,
        )
    )
    scheduler.run(
        [(s.key, s.deps, functions[s.key]) for s in specs if s.key[0] != "fold"]
    )

    if root.boolean:
        answer = relations[root.root].cardinality > 0
        return ExecutionResult(relation=None, boolean=answer, stats=stats)

    plan = fold_plan(tree, list(root.output_variables))
    folded = dict(relations)
    functions = fold_task_functions(
        tree, folded, plan, stats=stats,
        memory_budget_bytes=memory_budget_bytes, trace=trace, trace_id=trace_id,
    )
    scheduler.run(
        [(s.key, s.deps, functions[s.key]) for s in specs if s.key[0] == "fold"]
    )
    result = project_answer(
        folded[root.root], plan, stats=stats,
        memory_budget_bytes=memory_budget_bytes, trace=trace, trace_id=trace_id,
    )
    return ExecutionResult(relation=result, boolean=None, stats=stats)


def execute_hypertree_plan(
    query: ConjunctiveQuery,
    database: Database,
    decomposition: HypertreeDecomposition,
    require_complete: bool = True,
    budget: Optional[int] = None,
    threads: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
    trace=None,
    trace_id=None,
) -> ExecutionResult:
    """Run the query through the hypertree plan.

    The decomposition must be *complete* for the answer to be correct (every
    atom strongly covered); set ``require_complete=False`` only when the
    caller has already ensured semantic completeness by other means (e.g. the
    fresh-variable construction of Section 6).  ``budget`` caps the total
    evaluation work (tuples read + emitted); exceeding it raises
    :class:`repro.db.algebra.EvaluationBudgetExceeded`.
    """
    if require_complete and not decomposition.is_complete():
        raise DatabaseError(
            "the decomposition is not complete; complete it first "
            "(repro.decomposition.complete_decomposition) or plan with the "
            "fresh-variable construction"
        )
    return execute_plan(
        hypertree_plan_ir(query, decomposition),
        database,
        budget=budget,
        threads=threads,
        memory_budget_bytes=memory_budget_bytes,
        trace=trace,
        trace_id=trace_id,
    )


def naive_join_evaluation(
    query: ConjunctiveQuery,
    database: Database,
    order: Optional[Tuple[str, ...]] = None,
    budget: Optional[int] = None,
    threads: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
    trace=None,
    trace_id=None,
) -> ExecutionResult:
    """Evaluate the query by joining all bound atoms in a (given or textual)
    order, with no structural awareness -- the "flat" evaluation a
    quantitative-only engine performs once its optimiser has fixed a join
    order.  Used as the execution backend of the baseline optimiser."""
    return execute_plan(
        join_order_plan_ir(query, order),
        database,
        budget=budget,
        threads=threads,
        memory_budget_bytes=memory_budget_bytes,
        trace=trace,
        trace_id=trace_id,
    )
