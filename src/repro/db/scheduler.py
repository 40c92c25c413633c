"""A dependency-DAG task scheduler for the execution plane.

The Yannakakis executor (:mod:`repro.db.executor`) decomposes every
plan into *tasks* -- per-decomposition-node expression evaluations,
per-subtree semijoin reductions, per-subtree join folds -- whose data
dependencies form a DAG (see :func:`repro.db.plan_ir.yannakakis_task_dag`).
This module runs such a DAG:

* with ``threads == 1`` every task executes inline, in the submission
  order, which by construction is the DAG's canonical order -- the
  scheduler adds nothing but a function call;
* with ``threads > 1`` tasks run on a ``ThreadPoolExecutor``: a task is
  submitted as soon as all of its dependencies completed, so independent
  sibling subtrees execute concurrently.  The big columnar kernels
  (``argsort``/``searchsorted``/``np.isin`` over int64 columns) release
  the GIL, which is what makes threads effective for this workload.

Determinism: tasks communicate only through per-node slots each task owns
exclusively (the dependency edges serialise every read-after-write), and
the shared :class:`~repro.db.algebra.OperatorStats` accumulator is
thread-safe with purely commutative counters -- so answers, row orderings
and work counters are identical to the inline run regardless of the
interleaving.  Exceptions (including the evaluation-budget watchdog)
propagate to the caller under the **first-error contract**: once any task
fails, no further task is started (queued-but-unstarted futures are
cancelled), already-running tasks are drained, and the error surfaced is
that of the failing task with the *earliest submission order* -- i.e. the
same task whose error the inline run would have raised first among the
tasks that actually failed.  Which error a caller sees is therefore
independent of thread timing.  The multi-process serving pool
(:mod:`repro.db.serving`) honours the same contract for a worker process
dying mid-query: in-flight work is abandoned, queued requests are not
dispatched, and the first detected failure is raised.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Callable, Hashable, Sequence, Tuple

Task = Tuple[Hashable, Tuple[Hashable, ...], Callable[[], None]]


def resolve_threads(threads=None, default: int = 1) -> int:
    """Normalise a thread-count knob: ``None`` falls back to ``default``
    (itself usually the ``REPRO_DB_THREADS`` environment default), anything
    below one is clamped to one (inline execution)."""
    if threads is None:
        threads = default
    return max(1, int(threads))


def threads_from_env(default: int = 1) -> int:
    """The ``REPRO_DB_THREADS`` environment default (used by
    :class:`~repro.db.database.Database` so whole test-suite runs can be
    switched to the parallel plane without touching call sites)."""
    raw = os.environ.get("REPRO_DB_THREADS", "").strip()
    if not raw:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default


def memory_budget_from_env(default=None):
    """The ``REPRO_DB_MEMORY_BUDGET_BYTES`` environment default (empty,
    unset, unparsable or non-positive values mean "unbounded")."""
    raw = os.environ.get("REPRO_DB_MEMORY_BUDGET_BYTES", "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value > 0 else None


def seconds_from_env(name: str, default=None):
    """A float-seconds environment knob.  Empty, unset or ``0`` mean
    ``default`` (the knob is disabled); malformed or negative values raise
    :class:`~repro.exceptions.DatabaseError` rather than being silently
    swallowed -- a mistyped deadline that quietly disables deadlines is
    exactly the failure mode a serving knob must not have.  The serving
    plane uses this for its request-deadline default
    (``REPRO_SERVE_DEADLINE_SECONDS``), mirroring how the execution plane
    reads its thread/budget knobs."""
    from repro.exceptions import DatabaseError

    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise DatabaseError(
            f"{name} must be a number of seconds, got {raw!r}"
        ) from None
    if value < 0:
        raise DatabaseError(
            f"{name} must be non-negative, got {raw!r}"
        )
    return value if value > 0 else default


class TaskScheduler:
    """Run dependency-ordered tasks, serially or on a thread pool."""

    def __init__(self, threads: int = 1) -> None:
        self.threads = max(1, int(threads))

    @property
    def parallel(self) -> bool:
        return self.threads > 1

    def run(self, tasks: Sequence[Task]) -> None:
        """Execute every ``(key, deps, fn)`` task respecting dependencies.

        ``tasks`` must be topologically ordered (dependencies listed before
        dependents), which is how every extractor emits them -- the inline
        path can then simply execute in list order.
        """
        if not self.parallel:
            for _, _, fn in tasks:
                fn()
            return
        self._run_threaded(tasks)

    def _run_threaded(self, tasks: Sequence[Task]) -> None:
        keys = {key for key, _, _ in tasks}
        if len(keys) != len(tasks):
            raise ValueError("duplicate task keys in DAG")
        pending = {key: {d for d in deps if d in keys} for key, deps, _ in tasks}
        functions = {key: fn for key, _, fn in tasks}
        # Tasks arrive in their canonical (inline) order; the list
        # index below makes the first-error choice deterministic.
        order = {key: index for index, (key, _, _) in enumerate(tasks)}
        dependents: dict = {}
        for key, deps, _ in tasks:
            for dep in pending[key]:
                dependents.setdefault(dep, []).append(key)

        ready = [key for key, _, _ in tasks if not pending[key]]
        completed = 0
        errors: dict = {}  # canonical task index -> exception
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            futures = {pool.submit(functions[key]): key for key in ready}
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                newly_ready = []
                for future in done:
                    key = futures.pop(future)
                    completed += 1
                    if future.cancelled():
                        continue
                    error = future.exception()
                    if error is not None:
                        errors[order[key]] = error
                        continue
                    for dependent in dependents.get(key, ()):
                        remaining = pending[dependent]
                        remaining.discard(key)
                        if not remaining:
                            newly_ready.append(dependent)
                if errors:
                    # Cancel everything the executor has not started yet;
                    # running tasks are drained by the surrounding loop.
                    for future in futures:
                        future.cancel()
                else:
                    for key in newly_ready:
                        futures[pool.submit(functions[key])] = key
        if errors:
            # Among the tasks that actually failed, surface the one the
            # inline run would have reached first -- deterministic no matter
            # which future happened to complete first.
            raise errors[min(errors)]
        if completed != len(tasks):
            unrun = [key for key, deps, _ in tasks if pending[key]]
            raise ValueError(f"task DAG is not schedulable; blocked tasks: {unrun}")
