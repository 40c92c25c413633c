"""Small measurement helpers: percentiles, process memory, host identity."""

from __future__ import annotations

import json
import math
import os
import platform
import random
import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in percent) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``-th
    percentile (the tail evidence the percentile rests on)."""
    return count - max(1, math.ceil(q / 100.0 * count))


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def pss_kib(pid: int) -> int:
    """Proportional set size of one live process, in KiB (shared pages
    split among the processes mapping them)."""
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1])
    raise RuntimeError(f"no Pss line for pid {pid}")


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS record (``VmHWM``, which
    ``ru_maxrss`` reads), so that a later peak covers only what follows."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def process_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return False
    return fields[0] != "Z"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Calibration:
    """A fixed kernel of Python sorting, dict counting and integer
    arithmetic plus a numpy sort.  It runs no repository code, so a change
    to the program cannot move its time; only the host's speed can."""

    #: The kernel's time at the slower of the two CPU speeds seen on the
    #: 2-CPU Xeon host the bounds in BENCHMARK.json were set on (the faster
    #: gave about 6.5 ms).  It only sets the scale of the scaled timings.
    REFERENCE_MS = 11.0

    def __init__(self) -> None:
        import numpy as np

        self.data = np.random.default_rng(7).integers(0, 1 << 20, 50_000)
        rng = random.Random(7)
        self.items = [rng.random() for _ in range(15_000)]

    def sample_ms(self) -> float:
        started = time.perf_counter()
        self.data.copy().sort()
        sorted(self.items)
        counts: Dict[int, int] = {}
        for value in self.items:
            key = int(value * 1000)
            counts[key] = counts.get(key, 0) + 1
        sum(i * i for i in range(15_000))
        return (time.perf_counter() - started) * 1000.0


class ScaledTimer:
    """Times single-threaded calls at reference host speed.

    On the shared 2-CPU Xeon host the benchmark was sized on, the CPU
    switched between two speeds about 1.5x apart, often within a single
    one-second call.  A calibration sample just before and just after
    each call tracks that speed (the sample after one call is the sample
    before the next); the call's time is scaled by ``REFERENCE_MS`` over
    their mean.  The kernel runs no repository code, so a change to the
    program moves scaled times exactly as it moves raw ones.
    """

    def __init__(self) -> None:
        self.calibration = Calibration()
        self.samples_ms: List[float] = [self.calibration.sample_ms()]

    def time(self, call):
        """``(call(), raw ms, scaled ms)``."""
        started = time.perf_counter()
        result = call()
        raw = (time.perf_counter() - started) * 1000.0
        self.samples_ms.append(self.calibration.sample_ms())
        mean = (self.samples_ms[-2] + self.samples_ms[-1]) / 2.0
        return result, raw, raw * Calibration.REFERENCE_MS / mean


def calibration_ms() -> float:
    """Median of five calibration samples: the host-speed stamp printed
    beside every result, so that results are only compared when they come
    from one host at one speed."""
    calibration = Calibration()
    return statistics.median(calibration.sample_ms() for _ in range(5))


def host_identity() -> Dict[str, object]:
    import numpy as np

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_ms": round(calibration_ms(), 3),
    }


def check_repeatable_counters(path: Path, host: Dict[str, object],
                              counters: Dict[str, int]) -> List[str]:
    """Exact counters must repeat across runs on one seed.  The first run
    on a seed records them in ``path``; later runs on the same host
    compare and return one message per counter that moved."""
    key = {k: host[k] for k in ("cpu_model", "nproc", "python", "numpy")}
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded["host"] != key:
            return []  # another host: never compared
        old = recorded["counters"]
        return [
            f"{name}: {old.get(name)} -> {counters.get(name)}"
            for name in sorted(set(old) | set(counters))
            if old.get(name) != counters.get(name)
        ]
    path.write_text(json.dumps({"host": key, "counters": counters}, sort_keys=True))
    return []

