"""Yannakakis' algorithm for acyclic query evaluation.

Once a structural decomposition method has turned a query into an equivalent
*tree query* -- a join tree whose nodes carry relations -- Yannakakis'
classical algorithm answers it in output-polynomial time (Section 1.1 of the
paper):

1. **bottom-up semijoin pass**: every node is semijoined with each of its
   children, so a node keeps only tuples that have a partner below it;
2. **top-down semijoin pass**: every child is semijoined with its (already
   reduced) parent, making the whole tree globally consistent;
3. **bottom-up join pass**: the reduced node relations are joined bottom-up,
   projecting at each step onto the output variables plus the variables still
   needed higher up, which bounds every intermediate result by the final
   output size (times the input).

For a Boolean query the third pass is unnecessary: after the first pass the
answer is *true* iff the root relation is non-empty.

The node relations here are arbitrary relations over query variables; the
caller (the hypertree-plan executor or the acyclic-query evaluator) decides
what each node holds.

Both semijoin passes and the join pass are *per-subtree parallel*: sibling
subtrees never read each other's relations, only parent/child pairs do.
:func:`reduction_task_functions` and :func:`fold_task_functions` are the
one implementation of the passes: dictionaries of per-node task callables
keyed exactly like the dependency DAG of
:func:`repro.db.plan_ir.yannakakis_task_dag`.  The executor runs them on a
:class:`~repro.db.scheduler.TaskScheduler` at every thread count; the
public drivers :func:`semijoin_reduce`, :func:`evaluate_boolean` and
:func:`evaluate` run them inline in their canonical order.  Answers and
``OperatorStats`` do not depend on the interleaving (each slot has one
writer per pass and the counters commute; see
:class:`~repro.db.algebra.OperatorStats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.db.algebra import OperatorStats, natural_join, project, semijoin
from repro.db.relation import Relation
from repro.exceptions import DatabaseError
from repro.obs.trace import span_context


@dataclass
class TreeQuery:
    """A join tree whose nodes carry relations over query variables.

    ``children`` maps node id -> child ids; ``relations`` maps node id -> its
    relation; ``root`` is the root node id.  Node ids are opaque (ints or
    strings).
    """

    root: object
    children: Dict[object, Tuple[object, ...]]
    relations: Dict[object, Relation]

    def node_ids(self) -> Tuple[object, ...]:
        order = [self.root]
        i = 0
        while i < len(order):
            order.extend(self.children.get(order[i], ()))
            i += 1
        return tuple(order)

    def post_order(self) -> Tuple[object, ...]:
        result: List[object] = []

        def visit(node) -> None:
            for kid in self.children.get(node, ()):
                visit(kid)
            result.append(node)

        visit(self.root)
        return tuple(result)

    def validate(self) -> None:
        ids = self.node_ids()
        if set(ids) != set(self.relations):
            raise DatabaseError(
                "tree query is inconsistent: tree nodes and relations differ"
            )


def semijoin_reduce(
    tree: TreeQuery,
    stats: Optional[OperatorStats] = None,
    full: bool = True,
    memory_budget_bytes: Optional[int] = None,
    trace=None,
    trace_id=None,
) -> TreeQuery:
    """The semijoin program of Yannakakis' algorithm.

    The bottom-up pass is always performed; the top-down pass only when
    ``full`` is true (it is not needed for Boolean queries).  Returns a new
    :class:`TreeQuery` with reduced relations.  ``memory_budget_bytes``
    bounds the columnar semijoin kernels' transient memory (results
    unchanged).
    Runs :func:`reduction_task_functions` inline in their canonical order;
    ``trace`` records their ``up:<node>`` / ``down:<node>`` spans.
    """
    tree.validate()
    relations = dict(tree.relations)
    tasks = reduction_task_functions(
        tree, relations, stats=stats, full=full,
        memory_budget_bytes=memory_budget_bytes, trace=trace, trace_id=trace_id,
    )
    for task in tasks.values():
        task()
    return TreeQuery(root=tree.root, children=dict(tree.children), relations=relations)


def evaluate_boolean(
    tree: TreeQuery,
    stats: Optional[OperatorStats] = None,
    memory_budget_bytes: Optional[int] = None,
    trace=None,
    trace_id=None,
) -> bool:
    """Answer the Boolean query represented by the tree: true iff the
    semijoin-reduced root is non-empty."""
    reduced = semijoin_reduce(
        tree, stats=stats, full=False, memory_budget_bytes=memory_budget_bytes,
        trace=trace, trace_id=trace_id,
    )
    return reduced.relations[reduced.root].cardinality > 0


@dataclass
class FoldPlan:
    """The static metadata of the bottom-up join pass.

    Computed once from the (reduced) tree -- semijoins never change a
    relation's attributes, so everything here is known before any join
    runs: ``wanted`` the output attributes and ``keeps[v]`` the projection
    list applied to the folded subtree of ``v`` before it is joined into
    its parent (output variables plus the variables still needed higher
    up, the discipline that makes Yannakakis output-polynomial).  The
    fold tasks only read it, so they may share it across threads.
    """

    wanted: List[str]
    keeps: Dict[object, List[str]]


def fold_plan(tree: TreeQuery, output_variables: Sequence[str]) -> FoldPlan:
    """Precompute the join pass: what every folded subtree keeps."""
    relations = tree.relations
    wanted = list(output_variables)
    if not wanted:
        seen = set()
        for relation in relations.values():
            for attribute in relation.attributes:
                if attribute not in seen:
                    seen.add(attribute)
                    wanted.append(attribute)
    wanted_set = set(wanted)

    # ``above[v]``: attributes appearing outside the subtree rooted at ``v``
    # (of the *unfolded* node relations).  One bottom-up pass collects the
    # per-subtree attribute sets, one top-down pass combines each node's
    # ``above`` with its own attributes and every sibling subtree.
    subtree_attrs: Dict[object, set] = {}
    for node in tree.post_order():
        attrs = set(relations[node].attributes)
        for child in tree.children.get(node, ()):
            attrs |= subtree_attrs[child]
        subtree_attrs[node] = attrs
    above: Dict[object, set] = {tree.root: set()}
    for node in tree.node_ids():
        kids = tree.children.get(node, ())
        base = above[node] | set(relations[node].attributes)
        for child in kids:
            outside = set(base)
            for sibling in kids:
                if sibling != child:
                    outside |= subtree_attrs[sibling]
            above[child] = outside

    # Attributes of every *folded* subtree, bottom-up: a node's own columns
    # plus, in child order, whatever each child's kept contribution adds --
    # the exact column order the natural joins of the fold produce.
    keeps: Dict[object, List[str]] = {}
    for node in tree.post_order():
        attrs = list(relations[node].attributes)
        present = set(attrs)
        for child in tree.children.get(node, ()):
            for attribute in keeps[child]:
                if attribute not in present:
                    present.add(attribute)
                    attrs.append(attribute)
        if node != tree.root:
            node_above = above[node]
            keeps[node] = [
                a for a in attrs if a in node_above or a in wanted_set
            ]
    return FoldPlan(wanted=wanted, keeps=keeps)


def evaluate(
    tree: TreeQuery,
    output_variables: Sequence[str],
    stats: Optional[OperatorStats] = None,
    memory_budget_bytes: Optional[int] = None,
    trace=None,
    trace_id=None,
) -> Relation:
    """Full evaluation: the projection of the join of all node relations onto
    ``output_variables`` (all variables of the tree if empty).

    After full semijoin reduction, nodes are joined bottom-up; each
    intermediate result is projected onto the output variables plus the
    variables shared with the remaining (upper) part of the tree (the
    precomputed :func:`fold_plan`).  Runs :func:`fold_task_functions`
    inline in their canonical order; ``trace`` records their
    ``fold:<node>`` spans and the final ``project:answer``.
    """
    reduced = semijoin_reduce(
        tree, stats=stats, full=True, memory_budget_bytes=memory_budget_bytes,
        trace=trace, trace_id=trace_id,
    )
    plan = fold_plan(reduced, output_variables)
    folded = dict(reduced.relations)
    tasks = fold_task_functions(
        reduced, folded, plan, stats=stats,
        memory_budget_bytes=memory_budget_bytes, trace=trace, trace_id=trace_id,
    )
    for task in tasks.values():
        task()
    return project_answer(
        folded[reduced.root], plan, stats=stats,
        memory_budget_bytes=memory_budget_bytes, trace=trace, trace_id=trace_id,
    )


def project_answer(
    relation: Relation,
    plan: FoldPlan,
    stats: Optional[OperatorStats] = None,
    memory_budget_bytes: Optional[int] = None,
    trace=None,
    trace_id=None,
) -> Relation:
    """The last step of the join pass: project the folded root onto the
    output attributes (one ``project:answer`` span)."""
    with span_context(trace, "project:answer", "yannakakis", trace_id) as span:
        answer = project(
            relation, plan.wanted, stats=stats, name="answer",
            memory_budget_bytes=memory_budget_bytes,
        )
        span.attrs["rows"] = answer.cardinality
    return answer


# ----------------------------------------------------------------------
# Per-subtree task functions: the only implementation of both passes.
# Keys match the dependency DAG of repro.db.plan_ir.yannakakis_task_dag;
# each task owns the relation slot it writes and only reads slots its
# dependencies wrote, so the scheduler's dependency edges serialise every
# read-after-write.  Dictionary order is the canonical (inline) order.
# ----------------------------------------------------------------------


def reduction_task_functions(
    tree: TreeQuery,
    relations: Dict[object, Relation],
    stats: Optional[OperatorStats] = None,
    full: bool = True,
    memory_budget_bytes: Optional[int] = None,
    trace=None,
    trace_id=None,
) -> Dict[Tuple[str, object], Callable[[], None]]:
    """The semijoin passes as per-node tasks over a shared ``relations``
    mapping: ``("up", v)`` semijoins ``v`` with each child (children
    order), ``("down", c)`` semijoins ``c`` with its already-final parent.
    Each task that does work records one ``up:<v>`` / ``down:<c>`` span."""

    def up_task(node):
        kids = tree.children.get(node, ())

        def run() -> None:
            if not kids:
                return
            with span_context(trace, f"up:{node}", "yannakakis", trace_id) as span:
                for child in kids:
                    relations[node] = semijoin(
                        relations[node], relations[child], stats=stats,
                        memory_budget_bytes=memory_budget_bytes,
                    )
                span.attrs["rows"] = relations[node].cardinality
        return run

    def down_task(child, parent_id):
        def run() -> None:
            with span_context(trace, f"down:{child}", "yannakakis", trace_id) as span:
                relations[child] = semijoin(
                    relations[child], relations[parent_id], stats=stats,
                    memory_budget_bytes=memory_budget_bytes,
                )
                span.attrs["rows"] = relations[child].cardinality
        return run

    functions: Dict[Tuple[str, object], Callable[[], None]] = {}
    for node in tree.post_order():
        functions[("up", node)] = up_task(node)
    if full:
        for node in tree.node_ids():
            for child in tree.children.get(node, ()):
                functions[("down", child)] = down_task(child, node)
    return functions


def fold_task_functions(
    tree: TreeQuery,
    folded: Dict[object, Relation],
    plan: FoldPlan,
    stats: Optional[OperatorStats] = None,
    memory_budget_bytes: Optional[int] = None,
    trace=None,
    trace_id=None,
) -> Dict[Tuple[str, object], Callable[[], None]]:
    """The join pass as per-subtree tasks: ``("fold", v)`` projects each
    child's completed fold onto its keep list and joins it into ``v``, in
    children order.  Each inner node records one ``fold:<v>`` span."""

    def fold_task(node):
        kids = tree.children.get(node, ())

        def run() -> None:
            if not kids:
                return
            with span_context(trace, f"fold:{node}", "yannakakis", trace_id) as span:
                for child in kids:
                    contribution = project(
                        folded[child], plan.keeps[child], stats=stats,
                        memory_budget_bytes=memory_budget_bytes,
                    )
                    folded[node] = natural_join(
                        folded[node], contribution, stats=stats,
                        memory_budget_bytes=memory_budget_bytes,
                    )
                span.attrs["rows"] = folded[node].cardinality
        return run

    return {("fold", node): fold_task(node) for node in tree.post_order()}
