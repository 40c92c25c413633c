"""The serving front door under test: ``repro db daemon`` as its own
process, and a closed-loop load generator with one connection per thread.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.db.daemon import DaemonClient, DaemonDisconnected, DaemonRequestError
from repro.db.serving import strip_provenance

from stats import process_alive, pss_kib

WORKERS = 2
#: Between a reply and its next request a connection pauses for a seeded
#: uniform 0..think seconds.  Back to back, a connection's arrivals lock
#: into one phase of the daemon's dispatcher, and that phase -- not the
#: code -- decides a run's median.  A few ms break the lock between two
#: tiny streams; a tiny stream beside heavy work needs the dispatcher's
#: whole 50 ms wait tick, so its arrivals see every phase of it.
THINK_S = 0.002
THINK_BESIDE_HEAVY_S = 0.05


class DaemonProcess:
    """One ``repro db daemon`` subprocess over a Unix socket.

    ``setup_s`` is the time from launch to the first ``health`` reply that
    says ``ready``.  :meth:`stop` sends SIGTERM and checks the drain left
    nothing behind: exit code 0, no live worker, no socket file.
    """

    def __init__(self, root: Path, store: Path, socket_path: Path, log_path: Path):
        self.socket_path = socket_path
        self.address = f"unix:{socket_path}"
        if socket_path.exists():
            socket_path.unlink()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        started = time.perf_counter()
        with open(log_path, "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "db", "daemon", str(store),
                 "--address", self.address, "--workers", str(WORKERS)],
                cwd=str(root), env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        self.health = self._await_ready(timeout=120.0)
        self.setup_s = time.perf_counter() - started
        self.worker_pids = list(self.health["worker_pids"])

    def _await_ready(self, timeout: float) -> Dict[str, object]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with code {self.process.returncode} during start-up"
                )
            try:
                with DaemonClient(self.address, timeout=10.0) as client:
                    health = client.health()
            except DaemonDisconnected:
                time.sleep(0.002)
                continue
            if health.get("status") == "ready":
                return health
            time.sleep(0.002)
        self.kill()
        raise RuntimeError(f"daemon not ready within {timeout:.0f}s")

    def pss_mb(self) -> float:
        """Summed PSS of the daemon and its worker processes, in MB."""
        pids = [self.process.pid] + self.worker_pids
        return sum(pss_kib(pid) for pid in pids) / 1024.0

    def stop(self, sigterm: bool = True) -> List[str]:
        """Drain the daemon -- by SIGTERM, or with ``sigterm=False`` by a
        ``shutdown`` request over the wire -- and return one message per
        hygiene violation.

        A daemon that has only just answered its first ``health`` may not
        have installed its signal handlers yet (``serve_forever`` does so
        after the socket is bound), and SIGTERM then kills it outright;
        daemons stopped right after start-up are therefore stopped over
        the wire."""
        problems = []
        if sigterm:
            self.process.send_signal(signal.SIGTERM)
        else:
            with DaemonClient(self.address, timeout=10.0) as client:
                client.shutdown()
        try:
            code = self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.kill()
            return ["daemon did not exit within 60s of SIGTERM"]
        if code != 0:
            problems.append(f"daemon exited with code {code}")
        deadline = time.monotonic() + 5.0
        while any(process_alive(pid) for pid in self.worker_pids):
            if time.monotonic() > deadline:
                orphans = [pid for pid in self.worker_pids if process_alive(pid)]
                problems.append(f"orphan workers after drain: {orphans}")
                for pid in orphans:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                break
            time.sleep(0.01)
        if self.socket_path.exists():
            problems.append(f"socket {self.socket_path} left behind")
            self.socket_path.unlink()
        return problems

    def kill(self) -> None:
        """Last-resort teardown on an error path."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30.0)
        for pid in getattr(self, "worker_pids", ()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


class Request:
    """One replayable request: a query slot name, its class and payload."""

    __slots__ = ("name", "klass", "payload")

    def __init__(self, name: str, klass: str, payload: Mapping):
        self.name = name
        self.klass = klass
        self.payload = payload


def run_closed_loop(
    address: str,
    streams: Sequence[Tuple[Sequence[Request], float]],
    oracle: Mapping[str, Mapping],
    seconds: float,
    seed: int,
    sample=None,
) -> Dict[str, object]:
    """Replay each ``(requests, think)`` stream on its own connection for
    ``seconds`` (closed loop, with the think pause described at
    ``THINK_S``); every response is checked against the serial oracle.

    Each connection first replays its stream once unmeasured (warm-up);
    then all connections start the measured phase together.  A connection
    sends no request after the deadline; requests in flight at the
    deadline complete and count.  ``sample``, when given, is called about
    every 0.5 s of the measured phase; its results come back as
    ``samples``.  Returns per-class and per-query latencies (ms), the
    attempted/failed counts and the measured wall time.
    """
    barrier = threading.Barrier(len(streams) + 1)
    results: List[Dict[str, object]] = [None] * len(streams)
    state = {"deadline": None}

    def drive(slot: int) -> None:
        latencies: List[Tuple[str, str, float]] = []
        failures: List[str] = []
        attempted = 0
        stream, think_s = streams[slot]
        think = random.Random(f"{seed}:think:{slot}")
        try:
            with DaemonClient(address, timeout=120.0, connection_id=slot) as client:
                for request in stream:  # warm-up pass, unmeasured
                    client.execute(request.payload)
                barrier.wait()
                barrier.wait()  # the main thread has set the deadline
                deadline = state["deadline"]
                index = 0
                while time.perf_counter() < deadline:
                    request = stream[index % len(stream)]
                    index += 1
                    attempted += 1
                    started = time.perf_counter()
                    try:
                        response = client.execute(request.payload)
                    except DaemonRequestError as exc:
                        failures.append(f"{request.name}: error frame {exc}")
                        continue
                    elapsed = (time.perf_counter() - started) * 1000.0
                    if response.get("status") != "ok":
                        failures.append(f"{request.name}: status {response.get('status')}")
                    elif strip_provenance(response) != oracle[request.name]:
                        failures.append(f"{request.name}: differs from the serial oracle")
                    else:
                        latencies.append((request.klass, request.name, elapsed))
                    time.sleep(think.uniform(0.0, think_s))
        except (DaemonDisconnected, DaemonRequestError,
                threading.BrokenBarrierError) as exc:
            failures.append(f"connection {slot}: {exc}")
            barrier.abort()
        results[slot] = {"latencies": latencies, "failures": failures,
                         "attempted": attempted}

    threads = [threading.Thread(target=drive, args=(slot,)) for slot in range(len(streams))]
    for thread in threads:
        thread.start()
    started = None
    samples = []
    try:
        barrier.wait()
        started = time.perf_counter()
        state["deadline"] = started + seconds
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    while sample is not None and any(thread.is_alive() for thread in threads):
        samples.append(sample())
        for thread in threads:
            thread.join(timeout=0.5 / len(threads))
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started if started is not None else 0.0
    by_class: Dict[str, List[float]] = {}
    by_query: Dict[str, List[float]] = {}
    failures: List[str] = []
    attempted = 0
    for result in results:
        attempted += result["attempted"]
        failures.extend(result["failures"])
        for klass, name, ms in result["latencies"]:
            by_class.setdefault(klass, []).append(ms)
            by_query.setdefault(name, []).append(ms)
    return {"by_class": by_class, "by_query": by_query, "failures": failures,
            "attempted": attempted, "wall_s": wall, "samples": samples}
