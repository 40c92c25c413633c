"""The traced run: per-layer timings taken from outside the program.

Every public call of a layer gets its own timer (a span) around it; the
program itself is unmodified and runs with its own tracing off.  The
traced run is the same for every workload, so every workload prints the
same per-layer metrics:

1. in-process, layer by layer: ``query_from_payload``,
   ``plan_ir_from_payload``, ``Database.bind_query``, ``execute_plan``,
   the answer digest, the whole ``execute_payload``, and the daemon's
   ``encode_frame``/``decode_frame`` on the request and reply frames;
2. a 2-worker ``ServingPool``: start-up, then ``submit``->``collect``
   one request at a time;
3. the daemon: ``DaemonClient.execute`` one request at a time, then tiny
   requests under each serving load (tiny beside tiny, tiny beside heavy);
4. the planning suite with each planner stage called separately:
   ``planning_family``, ``family.graph(k)``, ``cost_k_decomp(family=)``
   on the built graph, ``baseline_plan`` where no width-k plan exists --
   and once more through untraced ``prewarm`` calls, the difference being
   the tracing overhead.

Every response is checked against the serial oracle; the exact counters
(executor work per query, candidates per width) must repeat across runs
on one seed.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.db.daemon import DaemonClient, decode_frame, encode_frame
from repro.db.executor import execute_plan
from repro.db.plan_ir import plan_ir_from_payload
from repro.db.serving import (
    ServingPool,
    answer_digest,
    execute_payload,
    prewarm,
    query_from_payload,
    strip_provenance,
)
from repro.exceptions import PlanningError
from repro.planner.baseline import baseline_plan
from repro.planner.cost_k_decomp import cost_k_decomp, planning_family

from serve import run_closed_loop
from stats import check_repeatable_counters, median
from workload import plan_queries

#: One-at-a-time replays per request, by class.
REPEATS = {"tiny": 30, "heavy": 5}
#: The in-process parts of ``execute_payload`` must add up to its own
#: time within this share, as the median over replays (the rest is the
#: payload checks and stats rendering, about 5%).
WATERFALL_TOLERANCE = 0.2
POOL_STARTS = 2

_UNITS = (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_frac", "ratio"))


def layer_unit(name: str) -> str:
    """``daemon.rtt_ms.tiny`` -> ``ms``; names without a unit suffix are counts."""
    for part in name.split("."):
        for suffix, unit in _UNITS:
            if part.endswith(suffix):
                return unit
    return "count"


def _ms(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0


def _in_process(database, requests, failures) -> Dict[str, Dict[str, List[float]]]:
    """Layer-by-layer timings of the serial serving path, per class."""
    spans: Dict[str, Dict[str, List[float]]] = {"tiny": {}, "heavy": {}}
    for request in requests.values():
        payload = request.payload
        record = spans[request.klass]
        response = execute_payload(payload, database)
        for replay in range(REPEATS[request.klass]):
            # The whole call and its parts go first in turn, so neither
            # side always pays for cold caches.
            if replay % 2 == 0:
                t = time.perf_counter()
                execute_payload(payload, database)
                whole = _ms(t)

            t = time.perf_counter()
            query = query_from_payload(payload["query"])
            from_query = _ms(t)
            t = time.perf_counter()
            plan_ir = plan_ir_from_payload(query, payload["plan"])
            from_plan = _ms(t)
            t = time.perf_counter()
            database.bind_query(query)
            bind = _ms(t)
            t = time.perf_counter()
            result = execute_plan(plan_ir, database)
            executed = _ms(t)
            t = time.perf_counter()
            rows = result.answer_rows()
            probe = {"boolean": result.boolean}
            if rows is not None:
                probe.update(attributes=list(result.relation.attributes), rows=rows)
            digest = answer_digest(probe)
            digested = _ms(t)
            if digest != response["digest"]:
                failures.append(f"in-process {request.name}: layer replay digest differs")
            if replay % 2 == 1:
                t = time.perf_counter()
                execute_payload(payload, database)
                whole = _ms(t)

            t = time.perf_counter()
            request_frame = encode_frame({"format": "repro-daemon", "version": 1,
                                          "id": 1, "kind": "execute",
                                          "payload": payload})
            decode_frame(request_frame[4:])
            reply_frame = encode_frame({"format": "repro-daemon", "version": 1,
                                        "id": 1, "kind": "response",
                                        "response": response})
            decode_frame(reply_frame[4:])
            frames = _ms(t)

            for name, value in (
                ("execute_payload", whole), ("query_from_payload", from_query),
                ("plan_ir_from_payload", from_plan), ("bind_query", bind),
                ("execute_plan", executed), ("answer_digest", digested),
                ("frames", frames),
            ):
                record.setdefault(name, []).append(value)
    return spans


def _replay(execute, requests, oracle, failures, label) -> Dict[str, List[float]]:
    """One request at a time through a front door; latency (ms) per class."""
    latencies: Dict[str, List[float]] = {"tiny": [], "heavy": []}
    for request in requests.values():
        for _ in range(REPEATS[request.klass]):
            t = time.perf_counter()
            response = execute(request.payload)
            elapsed = _ms(t)
            if strip_provenance(response) != oracle[request.name]:
                failures.append(f"{label} {request.name}: differs from the serial oracle")
            else:
                latencies[request.klass].append(elapsed)
    return latencies


def _pool(store, requests, oracle, failures) -> Dict[str, object]:
    startups = []
    for attempt in range(POOL_STARTS):
        t = time.perf_counter()
        pool = ServingPool(store, workers=2)
        startups.append(time.perf_counter() - t)
        if attempt < POOL_STARTS - 1:
            pool.close()
    try:
        latencies = _replay(
            lambda payload: pool.collect(pool.submit(payload)),
            requests, oracle, failures, "pool",
        )
        restarts = pool.restarts
        rejected = pool.metrics.counter("admission_rejected").value
    finally:
        pool.close()
    return {"startup_s": median(startups), "rtt": latencies,
            "restarts": restarts, "rejected": rejected}


def serving_layers(args, store, database, requests, oracle, daemon, streams,
                   report) -> Dict[str, float]:
    """Serving-path layer metrics; counts the requests the replays send
    through the pool and the daemon into ``report["attempted"]``."""
    failures = report["failures"]
    spans = _in_process(database, requests, failures)
    pool = _pool(store, requests, oracle, failures)
    with DaemonClient(daemon.address, timeout=120.0) as client:
        for request in requests.values():  # warm the daemon's workers
            client.execute(request.payload)
        daemon_rtt = _replay(client.execute, requests, oracle, failures, "daemon")
    load_seconds = max(1.0, args.seconds / 4.0)
    loaded = {}
    attempted = 2 * sum(REPEATS[r.klass] for r in requests.values())
    for mix, pair in streams.items():
        loop = run_closed_loop(daemon.address, pair, oracle, load_seconds, args.seed)
        failures.extend(loop["failures"])
        attempted += loop["attempted"]
        loaded[mix] = median(loop["by_class"]["tiny"])

    tiny, heavy = spans["tiny"], spans["heavy"]
    execute_tiny = median(tiny["execute_payload"])
    parts = [sum(values) for values in zip(*(tiny[name] for name in (
        "query_from_payload", "plan_ir_from_payload", "execute_plan", "answer_digest")))]
    gap = median((whole - part) / whole for whole, part in zip(tiny["execute_payload"], parts))
    if abs(gap) > WATERFALL_TOLERANCE:
        report["problems"].append(
            f"tiny waterfall does not reconcile: the parts miss {gap:+.1%} of "
            f"execute_payload {execute_tiny:.4f} ms (tolerance {WATERFALL_TOLERANCE:.0%})"
        )
    daemon_tiny = median(daemon_rtt["tiny"])
    pool_tiny = median(pool["rtt"]["tiny"])
    frame_ms = median(tiny["frames"])
    metrics = {
        "daemon.frame_us": frame_ms * 1000.0,
        "daemon.rtt_ms.tiny": daemon_tiny,
        "daemon.rtt_ms.heavy": median(daemon_rtt["heavy"]),
        "daemon.hop_ms": daemon_tiny - pool_tiny,
        "daemon.tiny_wait_ms": loaded["mixed"] - daemon_tiny,
        "daemon.tiny_self_wait_ms": loaded["tiny"] - daemon_tiny,
        "serve.unattributed_ms": daemon_tiny - pool_tiny - frame_ms,
        "pool.startup_s": pool["startup_s"],
        "pool.rtt_ms.tiny": pool_tiny,
        "pool.rtt_ms.heavy": median(pool["rtt"]["heavy"]),
        "pool.hop_ms": pool_tiny - execute_tiny,
        "pool.restarts": pool["restarts"],
        "pool.admission_rejected": pool["rejected"],
        "serving.execute_payload_ms.tiny": execute_tiny,
        "serving.execute_payload_ms.heavy": median(heavy["execute_payload"]),
        "serving.query_from_payload_us": median(tiny["query_from_payload"]) * 1000.0,
        "serving.answer_digest_us": median(tiny["answer_digest"]) * 1000.0,
        "serving.waterfall_gap_frac": gap,
        "plan_ir.from_payload_us": median(tiny["plan_ir_from_payload"]) * 1000.0,
        "database.bind_query_us": median(tiny["bind_query"]) * 1000.0,
        "executor.execute_plan_ms.tiny": median(tiny["execute_plan"]),
        "executor.execute_plan_ms.heavy": median(heavy["execute_plan"]),
    }
    report["attempted"] += attempted
    return metrics


def _staged(query, statistics, k_values, stage, per_k) -> None:
    """One query through the planner's stages, each timed on its own."""
    t = time.perf_counter()
    family = planning_family(query, statistics)
    stage["family"] += _ms(t)
    best = None
    for k in k_values:
        t = time.perf_counter()
        graph = family.graph(k)
        per_k[k]["graph"] += _ms(t)
        per_k[k]["candidates"] += graph.num_candidates
        t = time.perf_counter()
        try:
            plan = cost_k_decomp(query, statistics, k, family=family)
        except PlanningError:
            plan = None
        per_k[k]["evaluate"] += _ms(t)
        if plan is not None and (best is None or plan.estimated_cost < best.estimated_cost):
            best = plan
    if best is None:
        t = time.perf_counter()
        baseline_plan(query, statistics)
        stage["baseline"] += _ms(t)


def planning_layers(database, k_values, work, seed, host, report) -> Dict[str, float]:
    """Stage-by-stage planning of the suite.  Each query is also planned
    through one untraced ``prewarm`` call, next to its staged calls and
    on its own fresh query object; the two go first in turn, so the
    tracing overhead compares neighbouring measurements."""
    statistics = database.statistics
    stage = {"family": 0.0, "baseline": 0.0}
    per_k = {k: {"graph": 0.0, "evaluate": 0.0, "candidates": 0} for k in k_values}
    staged_total = untraced_total = 0.0
    for index, (query, twin) in enumerate(zip(plan_queries(), plan_queries())):
        for step in ((0, 1) if index % 2 == 0 else (1, 0)):
            t = time.perf_counter()
            if step == 0:
                _staged(query, statistics, k_values, stage, per_k)
                staged_total += _ms(t)
            else:
                prewarm(database, [twin], k_values=k_values, plan_cache=None,
                        answer="digest")
                untraced_total += _ms(t)
    metrics = {
        "planner.family_ms": stage["family"],
        "planner.baseline_ms": stage["baseline"],
        "planner.trace_overhead_frac": (staged_total - untraced_total) / untraced_total,
    }
    for k, values in per_k.items():
        metrics[f"decomposition.graph_build_ms.k{k}"] = values["graph"]
        metrics[f"planner.evaluate_ms.k{k}"] = values["evaluate"]
        metrics[f"decomposition.num_candidates.k{k}"] = values["candidates"]
    report["problems"].extend(check_repeatable_counters(
        work / f"candidates-{seed}.json", host,
        {name: value for name, value in metrics.items() if "num_candidates" in name},
    ))
    return metrics
