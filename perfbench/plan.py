"""``plan_cold``: plan every query of the planning suite from scratch.

Each call is ``prewarm(db, [q], k_values=PLAN_K, plan_cache=None)`` on a
freshly built query object, so no planner memo survives from one call to
the next; only ``repro.decomposition``, ``repro.weights`` and
``repro.planner`` do work.  A call fails when its plan payload differs
from the one the unmeasured first pass produced, or when it reports no
planning time (a warm replay, not a cold plan).
"""

from __future__ import annotations

import resource
import time
from pathlib import Path
from typing import Dict, List

from repro.db.database import Database
from repro.db.serving import prewarm
from repro.db.storage import canonical_digest

from stats import (Calibration, ScaledTimer, beyond, check_repeatable_counters, median,
                   percentile, reset_peak_rss)
from workload import plan_queries

SETUP_REPEATS = 9


def open_store(store: Path, timer: ScaledTimer):
    """Store open plus statistics load, ``SETUP_REPEATS`` times; returns
    the database and the scaled times in seconds."""
    setups = []
    for _ in range(SETUP_REPEATS):
        database, _, scaled = timer.time(lambda: Database.open(store))
        setups.append(scaled / 1000.0)
    return database, setups


def plan_once(database, query, k_values) -> Dict[str, object]:
    return prewarm(database, [query], k_values=k_values, plan_cache=None,
                   answer="digest")[0]


def plan_cold(args, store: Path, host, report, k_values, tail_q: int, work: Path) -> None:
    # Times are at reference host speed (see ScaledTimer); raw ones are
    # printed beside them.
    database, setups = open_store(store, ScaledTimer())
    reference = {
        query.name: canonical_digest(plan_once(database, query, k_values)["plan"])
        for query in plan_queries()
    }
    report["problems"].extend(check_repeatable_counters(
        work / f"plans-{args.seed}.json", host, reference
    ))
    # Data generation and the reference pass ran in this process too.
    reset_peak_rss()
    timer = ScaledTimer()
    raw: List[float] = []
    scaled: List[float] = []
    by_query: Dict[str, List[float]] = {}
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        for query in plan_queries():  # fresh objects: no memo reuse
            attempted += 1
            payload, raw_ms, scaled_ms = timer.time(
                lambda: plan_once(database, query, k_values))
            if canonical_digest(payload["plan"]) != reference[query.name]:
                report["failures"].append(f"{query.name}: plan changed")
            elif not payload["planning_seconds"] > 0:
                report["failures"].append(f"{query.name}: not planned cold")
            else:
                raw.append(raw_ms)
                scaled.append(scaled_ms)
                by_query.setdefault(query.name, []).append(scaled_ms)
    # Peak, not current: the heap shrinks again between plans.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["attempted"] = attempted
    slowest = max(by_query, key=lambda name: median(by_query[name]))
    tail_ms = percentile(scaled, tail_q)
    qps = 1000.0 * len(scaled) / sum(scaled)
    report["metrics"].update(
        setup_s=median(setups),
        p50_ms=median(scaled),
        tail_ms=tail_ms,
        slowest_query_p50_ms=median(by_query[slowest]),
        qps=qps,
        mem_mb=peak_mb,
    )
    report["lines"].extend([
        f"setup_s {median(setups):.4f} s (median of {len(setups)} store opens)",
        f"host speed: calibration median {median(timer.samples_ms):.4f} ms over "
        f"{len(timer.samples_ms)} samples, reference {Calibration.REFERENCE_MS} ms; "
        f"times at reference speed, raw ones in brackets",
        f"plan_p50_ms {median(scaled):.4f} ms [{median(raw):.4f}] (n={len(scaled)})",
        f"plan_p{tail_q}_ms {tail_ms:.4f} ms [{percentile(raw, tail_q):.4f}] "
        f"(n={len(scaled)}, {beyond(len(scaled), tail_q)} beyond)",
        f"slowest query {slowest} p50 {median(by_query[slowest]):.4f} ms",
        "per-query p50 ms: " + ", ".join(
            f"{name} {median(v):.1f}"
            for name, v in sorted(by_query.items(), key=lambda kv: median(kv[1]))
        ),
        f"qps {qps:.3f} 1/s [{1000.0 * len(raw) / sum(raw):.3f}] "
        f"({len(raw)} plans in {sum(raw) / 1000.0:.2f} s of planning)",
        f"peak_rss_mb {peak_mb:.2f} MB (planning process, measured phase)",
    ])
