"""Golden pin of the budget -> morsel rule, end to end through the executor.

``memory_budget_bytes`` is the execution plane's one memory knob, and
:mod:`repro.db.columnar` alone turns it into morsel sizes.  The kernel
suites pin budgeted against unbounded kernels; this module pins what the
executor actually hands the kernels: the exact ``stats_payload()`` --
work counters *and* ``peak_transient_elements`` -- of Q1 on the Fig. 5
profile, at the three memory budgets the serving plane runs with (none,
the 256 KiB CI leg, the pool's 1 MiB default), at one and four threads.

The expected values are recorded, not computed: a change to any of them
changes how much transient memory a served query uses, so it must be
deliberate.

On this profile the baseline's left-deep plan explodes far past any
practical evaluation budget, so its pin is the exact budget stop (the
would-be work total computed before the exploding join materialises);
its complete payload is pinned on the smaller Fig. 8(a) profile.
"""

import pytest

from repro.db.algebra import EvaluationBudgetExceeded
from repro.db.generator import database_from_statistics
from repro.planner.baseline import baseline_plan
from repro.planner.cost_k_decomp import cost_k_decomp
from repro.query.examples import q1
from repro.workloads.paper_queries import fig5_statistics, fig8_statistics

BUDGETS = (None, 262_144, 1_048_576)

HYPERTREE_WORK = {
    "tuples_read": 114_835,
    "tuples_emitted": 113_574,
    "intermediate_tuples": 113_574,
    "total_work": 228_409,
    "operations": {"join": 5, "project": 7, "scan": 4, "semijoin": 6},
}
HYPERTREE_PEAK = {None: 330_581, 262_144: 32_765, 1_048_576: 131_071}

BASELINE_STOP_BUDGET = 2_000_000
BASELINE_STOP_WORK = 7_019_181

FIG8A_BASELINE_PAYLOAD = {
    "tuples_read": 3_079,
    "tuples_emitted": 399,
    "intermediate_tuples": 399,
    "total_work": 3_478,
    "operations": {"join": 8},
    "peak_transient_elements": 1_930,
}


def _unbounded(database):
    """``memory_budget_bytes=None`` on a call falls back to the database's
    knob, which ``REPRO_DB_MEMORY_BUDGET_BYTES`` may have set: pin it to
    unbounded so ``None`` means no budget under every environment."""
    database.memory_budget_bytes = None
    return database


@pytest.fixture(scope="module")
def fig5():
    """Q1 on the Fig. 5 profile at its default 5% scale (what
    ``fig5_database()`` builds, without the on-disk workload cache)."""
    return _unbounded(
        database_from_statistics(q1(), fig5_statistics(), seed=0, scale=0.05)
    )


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("memory_budget", BUDGETS)
def test_hypertree_plan_payload(fig5, threads, memory_budget):
    plan = cost_k_decomp(q1(), fig5.statistics, 3, completion="fresh")
    result = plan.to_ir().execute(
        fig5, threads=threads, memory_budget_bytes=memory_budget
    )
    assert result.boolean is True
    assert result.stats_payload() == dict(
        HYPERTREE_WORK, peak_transient_elements=HYPERTREE_PEAK[memory_budget]
    )


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("memory_budget", BUDGETS)
def test_baseline_plan_budget_stop(fig5, threads, memory_budget):
    plan = baseline_plan(q1(), fig5.statistics)
    with pytest.raises(EvaluationBudgetExceeded) as stop:
        plan.to_ir().execute(
            fig5,
            budget=BASELINE_STOP_BUDGET,
            threads=threads,
            memory_budget_bytes=memory_budget,
        )
    assert stop.value.work_so_far == BASELINE_STOP_WORK


@pytest.mark.parametrize("memory_budget", BUDGETS)
def test_baseline_plan_payload_on_fig8a_profile(memory_budget):
    database = _unbounded(
        database_from_statistics(q1(), fig8_statistics(q1(), 300), seed=0, scale=1.0)
    )
    plan = baseline_plan(q1(), database.statistics)
    result = plan.to_ir().execute(database, memory_budget_bytes=memory_budget)
    assert result.stats_payload() == FIG8A_BASELINE_PAYLOAD
