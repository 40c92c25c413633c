"""Equivalence tests for the parallel, memory-bounded execution plane.

Two invariants, each pinned against its oracle:

* **budgeted vs unbounded kernels** -- ``columnar_natural_join``,
  ``columnar_semijoin`` and project-distinct under any
  ``memory_budget_bytes`` must produce byte-identical output (values *and*
  row order), byte-identical ``OperatorStats`` work counters and the
  identical evaluation-budget stop behaviour as the single-batch kernels;
  the inputs are larger than the 32-row morsel floor, and the tests check
  through ``peak_transient_elements`` and the kernels' span notes that
  the morsel boundaries really are crossed;
* **parallel vs serial ``execute_plan``** -- any ``threads``/
  ``memory_budget_bytes`` combination must return byte-identical answers
  and counters as the serial unbounded run, and must raise
  :class:`EvaluationBudgetExceeded` exactly when the serial run does
  (``work_so_far`` at raise time is the only scheduling-dependent value).

Hypothesis drives randomised relations and trees through both paths side
by side; deterministic cases cover the budget-stop edges (budget hit
exactly at a morsel boundary, mid-morsel, on the first morsel, and with an
all-matching key column) and the degenerate fast paths.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import columnar as columnar_kernels
from repro.db.algebra import (
    EvaluationBudgetExceeded,
    OperatorStats,
    natural_join,
    project,
    semijoin,
)
from repro.db.columnar import ColumnarRelation
from repro.db.database import Database
from repro.db.dictionary import Dictionary
from repro.db.relation import Relation
from repro.db.scheduler import TaskScheduler
from repro.obs.trace import TraceRecorder
from repro.query.conjunctive import build_query
from repro.workloads.synthetic import workload_database

VALUES = st.sampled_from([0, 1, 2, 3, "a", "b"])
#: Memory budgets whose probe/filter/key-pack morsels (32, 32, 40 and 64
#: rows) are all smaller than the chunked side of every generated input.
BUDGETS = st.sampled_from([1, 4_096, 5_120, 8_192])
#: The chunked side's size: always past the largest morsel above.
CHUNKED_ROWS = 65


def morsel_rows(budget):
    """The budget -> morsel rule, restated as the tests' oracle."""
    return max(32, budget // 128)


def relation_strategy(attributes, min_size=1, max_size=100):
    arity = len(attributes)
    return st.lists(
        st.tuples(*([VALUES] * arity)), min_size=min_size, max_size=max_size
    ).map(lambda rows: ("R", tuple(attributes), rows))


def chunked_strategy(attributes):
    """A relation longer than any morsel ``BUDGETS`` gives."""
    return relation_strategy(attributes, min_size=CHUNKED_ROWS)


def columnar(spec, dictionary):
    name, attributes, rows = spec
    return ColumnarRelation.from_relation(
        Relation(name, attributes, rows), dictionary
    )


def assert_identical(unchunked, chunked):
    """Byte-identical: attributes, values and row order."""
    assert chunked.attributes == unchunked.attributes
    assert chunked.rows == unchunked.rows


def traced(kernel, *args, **kwargs):
    """Run one kernel inside a trace span; returns its result and the
    morsel counters the kernel noted on that span."""
    recorder = TraceRecorder()
    with recorder.span("kernel", "test") as span:
        result = kernel(*args, **kwargs)
    return result, dict(span.attrs)


def shift_packed(kernel, *args, **kwargs):
    """Run one kernel with ``_shift_pack`` spied on; returns its result and
    the ``(rows, morsel)`` of every multi-column key pack it ran."""
    calls = []
    real = columnar_kernels._shift_pack

    def spy(columns, width, morsel=None, total_bits=None):
        calls.append((columns[0].shape[0], morsel))
        return real(columns, width, morsel, total_bits)

    with mock.patch.object(columnar_kernels, "_shift_pack", spy):
        result = kernel(*args, **kwargs)
    return result, calls


def assert_join_chunked(notes, stats, lc, rc, budget):
    """The join probed its larger side in budget-sized morsels, and its
    emit chunks kept the transient footprint within the budget (one probe
    row's matches are the smallest unit it can emit)."""
    morsel = morsel_rows(budget)
    probe_card = max(lc.cardinality, rc.cardinality)
    assert probe_card > morsel
    assert notes["probe_morsels"] == math.ceil(probe_card / morsel)
    budget_words = max(budget // 8, 512)
    one_row = 5 * min(lc.cardinality, rc.cardinality) + 3
    assert stats.peak_transient_elements <= max(budget_words, one_row)


class TestChunkedKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        left=chunked_strategy(["x", "y"]),
        right=relation_strategy(["y", "z"]),
        swap=st.booleans(),
        budget=BUDGETS,
    )
    def test_chunked_join_is_byte_identical(self, left, right, swap, budget):
        if swap:  # the chunked (probe) side on either input
            left, right = right, left
        dictionary = Dictionary()
        lc, rc = columnar(left, dictionary), columnar(right, dictionary)
        base_stats, chunk_stats = OperatorStats(), OperatorStats()
        base = natural_join(lc, rc, stats=base_stats)
        chunked, notes = traced(
            natural_join, lc, rc, stats=chunk_stats, memory_budget_bytes=budget
        )
        assert_identical(base, chunked)
        assert base_stats.snapshot() == chunk_stats.snapshot()
        assert base_stats.operations == chunk_stats.operations
        assert_join_chunked(notes, chunk_stats, lc, rc, budget)

    @settings(max_examples=40, deadline=None)
    @given(
        left=chunked_strategy(["x", "y", "z"]),
        right=relation_strategy(["y", "z", "w"]),
        swap=st.booleans(),
        budget=BUDGETS,
    )
    def test_chunked_multi_key_join_is_byte_identical(
        self, left, right, swap, budget
    ):
        # Multi-attribute keys exercise the chunked shift-pack builder.
        if swap:
            left, right = right, left
        dictionary = Dictionary()
        lc, rc = columnar(left, dictionary), columnar(right, dictionary)
        base = natural_join(lc, rc)
        stats = OperatorStats()
        (chunked, notes), packs = shift_packed(
            traced, natural_join, lc, rc, stats=stats, memory_budget_bytes=budget
        )
        assert_identical(base, chunked)
        assert_join_chunked(notes, stats, lc, rc, budget)
        morsel = morsel_rows(budget)
        # Both sides' keys were packed under the budget's morsel, the
        # larger side across morsel boundaries.
        assert sorted(packs) == sorted(
            [(lc.cardinality, morsel), (rc.cardinality, morsel)]
        )

    @settings(max_examples=40, deadline=None)
    @given(
        left=chunked_strategy(["x", "y"]),
        right=relation_strategy(["y", "z"]),
        swap=st.booleans(),
        keep=st.sets(st.sampled_from(["x", "y", "z"])),
        budget=BUDGETS,
    )
    def test_chunked_join_with_pushdown_is_byte_identical(
        self, left, right, swap, keep, budget
    ):
        if swap:
            left, right = right, left
        dictionary = Dictionary()
        lc, rc = columnar(left, dictionary), columnar(right, dictionary)
        base = natural_join(lc, rc, keep=keep)
        stats = OperatorStats()
        chunked, notes = traced(
            natural_join, lc, rc, keep=keep, stats=stats, memory_budget_bytes=budget
        )
        assert_identical(base, chunked)
        assert_join_chunked(notes, stats, lc, rc, budget)

    @settings(max_examples=60, deadline=None)
    @given(
        left=chunked_strategy(["x", "y"]),
        right=relation_strategy(["y", "z"]),
        budget=BUDGETS,
    )
    def test_chunked_semijoin_is_byte_identical(self, left, right, budget):
        dictionary = Dictionary()
        lc, rc = columnar(left, dictionary), columnar(right, dictionary)
        base_stats, chunk_stats = OperatorStats(), OperatorStats()
        base = semijoin(lc, rc, stats=base_stats)
        chunked, notes = traced(
            semijoin, lc, rc, stats=chunk_stats, memory_budget_bytes=budget
        )
        assert_identical(base, chunked)
        assert base_stats.snapshot() == chunk_stats.snapshot()
        morsel = morsel_rows(budget)
        assert lc.cardinality > morsel
        assert notes["filter_morsels"] == math.ceil(lc.cardinality / morsel)
        assert chunk_stats.peak_transient_elements == rc.cardinality + 4 * morsel

    @settings(max_examples=40, deadline=None)
    @given(
        relation=chunked_strategy(["x", "y", "z"]),
        budget=BUDGETS,
        distinct=st.booleans(),
    )
    def test_chunked_project_is_byte_identical(self, relation, budget, distinct):
        dictionary = Dictionary()
        rc = columnar(relation, dictionary)
        base = project(rc, ["x", "z"], distinct=distinct)
        chunked, packs = shift_packed(
            project, rc, ["x", "z"], distinct=distinct, memory_budget_bytes=budget
        )
        assert_identical(base, chunked)
        # Only project-distinct builds keys: across morsel boundaries.
        assert rc.cardinality > morsel_rows(budget)
        expected = [(rc.cardinality, morsel_rows(budget))] if distinct else []
        assert packs == expected

    def test_semijoin_against_distinct_build_side(self):
        # The project-distinct output is flagged duplicate-free, which picks
        # np.isin's sort kind; the result must not change.
        dictionary = Dictionary()
        left = columnar(("l", ("x", "y"), [(i % 4, i % 3) for i in range(30)]), dictionary)
        right = columnar(("r", ("y",), [(i % 3,) for i in range(20)]), dictionary)
        distinct_right = project(right, ["y"], distinct=True)
        assert distinct_right._known_distinct
        plain = semijoin(left, right)
        via_distinct = semijoin(left, distinct_right)
        assert plain.rows == via_distinct.rows

    def test_empty_side_fast_paths_keep_stats(self):
        dictionary = Dictionary()
        full = columnar(("l", ("x", "y"), [(1, 2), (3, 4)]), dictionary)
        empty = columnar(("r", ("y", "z"), []), dictionary)
        for left, right in ((full, empty), (empty, full), (empty, empty)):
            join_stats, semi_stats = OperatorStats(), OperatorStats()
            joined = natural_join(left, right, stats=join_stats)
            assert joined.cardinality == 0
            assert join_stats.tuples_read == left.cardinality + right.cardinality
            assert join_stats.tuples_emitted == 0
            assert join_stats.operations == {"join": 1}
            semi = semijoin(left, right, stats=semi_stats)
            expected = 0 if right.cardinality == 0 else left.cardinality
            assert semi.cardinality == expected
            assert semi_stats.operations == {"semijoin": 1}

    def test_transient_accounting_shrinks_with_chunking(self):
        dictionary = Dictionary()
        rows = [(i % 3, i) for i in range(600)]
        left = columnar(("l", ("k", "a"), rows), dictionary)
        right = columnar(("r", ("k", "b"), rows), dictionary)
        unbounded, bounded = OperatorStats(), OperatorStats()
        base = natural_join(left, right, stats=unbounded)
        chunked, notes = traced(
            natural_join, left, right, stats=bounded, memory_budget_bytes=16_384
        )
        assert_identical(base, chunked)
        assert notes["probe_morsels"] == math.ceil(600 / 128)
        assert notes["emit_morsels"] > 1
        assert bounded.peak_transient_elements <= 16_384 // 8
        assert bounded.peak_transient_elements * 4 < unbounded.peak_transient_elements


class TestChunkedBudgetStops:
    """The budget stop of the chunked join must be indistinguishable from
    the unchunked kernel: same raise/no-raise decision, same ``work_so_far``
    (the exact would-be total, computed before materialising), and nothing
    recorded on abort."""

    #: 32-row probe morsels; the join's adaptive emit chunks then get the
    #: 512-word floor, 18 probe rows (90 emitted rows) each at 5 matches
    #: per probe row.
    MEMORY_BUDGET = 1

    @staticmethod
    def _blowup(probe_rows=100, matches_each=5):
        # Every probe row matches `matches_each` build rows; build side is
        # smaller so the larger side is chunked.  reads = probe + build,
        # emitted = probe * matches_each.
        dictionary = Dictionary()
        build = columnar(
            ("b", ("k", "a"), [(0, j) for j in range(matches_each)]), dictionary
        )
        probe = columnar(
            ("p", ("k", "c"), [(0, 100 + i) for i in range(probe_rows)]), dictionary
        )
        reads = probe_rows + matches_each
        emitted = probe_rows * matches_each
        return build, probe, reads, emitted

    def _assert_same_stop(self, budget, probe_rows=100, matches_each=5):
        build, probe, reads, emitted = self._blowup(probe_rows, matches_each)
        outcomes = []
        peaks = []
        for memory_budget in (None, self.MEMORY_BUDGET):
            stats = OperatorStats(budget=budget)
            try:
                result = natural_join(
                    build, probe, stats=stats, memory_budget_bytes=memory_budget
                )
                outcomes.append(("ok", result.rows, stats.snapshot()))
                peaks.append(stats.peak_transient_elements)
            except EvaluationBudgetExceeded as exc:
                outcomes.append(("raise", exc.work_so_far, stats.snapshot()))
                # Aborted before materialising: nothing recorded.
                assert stats.total_work == 0
        assert outcomes[0] == outcomes[1]
        if peaks:
            # The budgeted run really was chunked.
            assert peaks[1] <= 512 < peaks[0]
        return outcomes[0][0]

    def test_budget_hit_exactly_at_morsel_boundary(self):
        build, probe, reads, emitted = self._blowup()
        # 32-row probe morsels over 100 probe rows end at emit 160/320/480;
        # the first adaptive emit chunk ends at emit 90.  A budget of
        # exactly either boundary is crossed (the total is reads + 500).
        assert self._assert_same_stop(reads + 160) == "raise"
        assert self._assert_same_stop(reads + 90) == "raise"

    def test_budget_hit_mid_morsel(self):
        build, probe, reads, emitted = self._blowup()
        assert self._assert_same_stop(reads + 133) == "raise"

    def test_budget_hit_on_first_morsel(self):
        build, probe, reads, emitted = self._blowup()
        assert self._assert_same_stop(reads + 1) == "raise"

    def test_budget_exactly_sufficient_is_not_hit(self):
        build, probe, reads, emitted = self._blowup()
        # record() raises only when total_work *exceeds* the budget.
        assert self._assert_same_stop(reads + emitted) == "ok"

    def test_all_matching_key_column(self):
        # Every key matches every build row: the densest possible counts
        # array; chunked and unchunked must agree on the abort.
        build, probe, reads, emitted = self._blowup(probe_rows=40, matches_each=40)
        assert (
            self._assert_same_stop(
                reads + emitted - 1, probe_rows=40, matches_each=40
            )
            == "raise"
        )
        assert (
            self._assert_same_stop(reads + emitted, probe_rows=40, matches_each=40)
            == "ok"
        )


def _output_query(num_atoms=5):
    body = [
        (f"r{i}", [f"X{i}", f"X{(i + 1) % num_atoms}"]) for i in range(num_atoms)
    ]
    return build_query(body, output_variables=["X0", "X2"], name="cycle_out")


class TestParallelExecutionEquivalence:
    @pytest.mark.parametrize("threads", [2, 4])
    @pytest.mark.parametrize("memory_budget", [None, 2_048, 1 << 20])
    def test_structural_plan_matches_serial(self, threads, memory_budget):
        from repro.planner.cost_k_decomp import cost_k_decomp

        query = _output_query()
        database = workload_database(
            query, tuples_per_relation=80, domain_size=12, seed=7
        )
        plan = cost_k_decomp(query, database.statistics, 2, completion="fresh")
        serial = plan.to_ir().execute(database, budget=5_000_000)
        parallel = plan.to_ir().execute(
            database,
            budget=5_000_000,
            threads=threads,
            memory_budget_bytes=memory_budget,
        )
        assert parallel.relation.attributes == serial.relation.attributes
        assert parallel.relation.rows == serial.relation.rows  # incl. row order
        assert parallel.stats.snapshot() == serial.stats.snapshot()
        assert parallel.stats.operations == serial.stats.operations

    @pytest.mark.parametrize("threads", [2, 4])
    def test_baseline_plan_matches_serial(self, threads):
        from repro.planner.baseline import baseline_plan

        query = _output_query()
        database = workload_database(
            query, tuples_per_relation=60, domain_size=10, seed=3
        )
        plan = baseline_plan(query, database.statistics)
        serial = plan.to_ir().execute(database, budget=20_000_000)
        parallel = plan.to_ir().execute(
            database, budget=20_000_000, threads=threads, memory_budget_bytes=4_096
        )
        assert parallel.relation.rows == serial.relation.rows
        assert parallel.stats.snapshot() == serial.stats.snapshot()

    @pytest.mark.parametrize("threads", [2, 4])
    def test_boolean_plan_matches_serial(self, threads):
        from repro.planner.cost_k_decomp import cost_k_decomp
        from repro.workloads.synthetic import snowflake_query

        query = snowflake_query(3, 2)
        database = workload_database(
            query, tuples_per_relation=80, domain_size=15, seed=11
        )
        plan = cost_k_decomp(query, database.statistics, 2, completion="fresh")
        serial = plan.to_ir().execute(database, budget=5_000_000)
        parallel = plan.to_ir().execute(database, budget=5_000_000, threads=threads)
        assert parallel.boolean == serial.boolean
        assert parallel.stats.snapshot() == serial.stats.snapshot()

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_tiny_budget_raises_in_every_mode(self, threads):
        from repro.planner.baseline import baseline_plan

        query = _output_query()
        database = workload_database(
            query, tuples_per_relation=60, domain_size=4, seed=1
        )
        plan = baseline_plan(query, database.statistics)
        with pytest.raises(EvaluationBudgetExceeded):
            plan.to_ir().execute(
                database, budget=200, threads=threads, memory_budget_bytes=1_024
            )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_databases_match_across_modes(self, seed):
        from repro.planner.cost_k_decomp import cost_k_decomp

        query = _output_query()
        database = workload_database(
            query, tuples_per_relation=40, domain_size=6, seed=seed
        )
        plan = cost_k_decomp(query, database.statistics, 2, completion="fresh")
        serial = plan.to_ir().execute(database, budget=5_000_000)
        for threads, memory_budget in ((2, None), (4, 1_024)):
            parallel = plan.to_ir().execute(
                database,
                budget=5_000_000,
                threads=threads,
                memory_budget_bytes=memory_budget,
            )
            assert parallel.relation.rows == serial.relation.rows
            assert parallel.stats.snapshot() == serial.stats.snapshot()


class TestKnobsAndScheduler:
    def test_database_reads_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_DB_THREADS", "3")
        monkeypatch.setenv("REPRO_DB_MEMORY_BUDGET_BYTES", "65536")
        database = Database(relations={"r": Relation("r", ["a"], [(1,)])})
        assert database.threads == 3
        assert database.memory_budget_bytes == 65536
        monkeypatch.setenv("REPRO_DB_MEMORY_BUDGET_BYTES", "0")
        assert Database().memory_budget_bytes is None

    def test_explicit_knobs_override_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DB_THREADS", "8")
        database = Database(threads=2, memory_budget_bytes=1_000)
        assert database.threads == 2
        assert database.memory_budget_bytes == 1_000

    def test_morsel_rows_for_budget(self):
        morsel_rows_of = columnar_kernels._morsel_rows
        assert morsel_rows_of(None) is None
        assert morsel_rows_of(0) is None  # 0 disables, as on Database
        assert morsel_rows_of(-1) is None
        assert morsel_rows_of(1 << 20) == (1 << 20) // 128
        assert morsel_rows_of(1) == 32  # floor
        assert morsel_rows_of(5_120) == morsel_rows(5_120) == 40

    def test_scheduler_respects_dependencies(self):
        order = []
        tasks = [
            (("a", 1), (), lambda: order.append("a")),
            (("b", 1), (("a", 1),), lambda: order.append("b")),
            (("c", 1), (("a", 1),), lambda: order.append("c")),
            (("d", 1), (("b", 1), ("c", 1)), lambda: order.append("d")),
        ]
        TaskScheduler(4).run(tasks)
        assert order[0] == "a" and order[-1] == "d"
        assert set(order) == {"a", "b", "c", "d"}

    def test_scheduler_propagates_first_error(self):
        def boom():
            raise ValueError("boom")

        tasks = [
            (("ok", 0), (), lambda: None),
            (("bad", 0), (), boom),
            (("after", 0), (("bad", 0),), lambda: None),
        ]
        with pytest.raises(ValueError, match="boom"):
            TaskScheduler(2).run(tasks)

    def test_scheduler_surfaces_earliest_submitted_error(self):
        # Two independent failures: the later-submitted one finishes first
        # (the earlier sleeps), yet the error surfaced must be the earlier
        # task's -- the one the serial run would have raised -- no matter
        # which future the executor completed first.
        import time

        def slow_first():
            time.sleep(0.2)
            raise ValueError("submitted first")

        def fast_second():
            raise RuntimeError("finished first")

        tasks = [
            (("slow", 0), (), slow_first),
            (("fast", 0), (), fast_second),
        ]
        for _ in range(3):  # repeat: the choice must not depend on timing
            with pytest.raises(ValueError, match="submitted first"):
                TaskScheduler(2).run(tasks)

    def test_scheduler_stops_dispatch_after_error(self):
        # Once a task has failed, tasks that become ready afterwards are
        # never started: here the failing task completes while a slow
        # sibling runs, so the sibling's dependent must not execute.
        import threading
        import time

        ran = []
        started = threading.Event()

        def boom():
            started.wait(5)  # fail only once the sibling is mid-flight
            raise ValueError("boom")

        def slow_ok():
            started.set()
            time.sleep(0.2)
            ran.append("slow")

        tasks = [
            (("bad", 0), (), boom),
            (("slow", 0), (), slow_ok),
            (("dep", 0), (("slow", 0),), lambda: ran.append("dep")),
        ]
        with pytest.raises(ValueError, match="boom"):
            TaskScheduler(2).run(tasks)
        assert "slow" in ran  # already-running work is drained, not killed
        assert "dep" not in ran  # newly-ready work is not dispatched

    def test_scheduler_serial_mode_runs_in_list_order(self):
        order = []
        tasks = [
            (("x", i), (), (lambda i=i: order.append(i))) for i in range(5)
        ]
        TaskScheduler(1).run(tasks)
        assert order == list(range(5))

    def test_task_dag_shape(self):
        from repro.db.plan_ir import yannakakis_task_dag
        from repro.decomposition.kdecomp import optimal_decomposition
        from repro.decomposition.normal_form import complete_decomposition
        from repro.db.plan_ir import hypertree_plan_ir

        query = _output_query()
        decomposition = complete_decomposition(
            optimal_decomposition(query.hypergraph())
        )
        plan = hypertree_plan_ir(query, decomposition)
        specs = yannakakis_task_dag(plan.root)
        keys = {spec.key for spec in specs}
        kinds = {kind for kind, _ in keys}
        assert kinds == {"expr", "up", "down", "fold"}
        # Every dependency points at a task of the DAG, no cycles by kind.
        for spec in specs:
            for dep in spec.deps:
                assert dep in keys
        # Topological in list order.
        seen = set()
        for spec in specs:
            assert all(dep in seen for dep in spec.deps)
            seen.add(spec.key)
