"""The ``serve-mixed`` workload: an open loop against ``repro serve``.

One generator process, two threads, at most two connections: the main
thread POSTs every job at its due time, and a collector thread streams
each job to completion and fetches its span tree.  A job's latency runs
from its due time to its finish, where the finish is the server's own
clock reading that closes the job's root span.  Both processes read the
same monotonic clock, and the offset between the server's span origin
and the client clock is pinned by the POSTs: every job span starts
between the client sending its POST and receiving the reply.

Set-up boots the server several times; each boot counts from spawning
``repro serve`` until every worker has finished a warm-up cell, which
also warms the hot cells the hit jobs ask for.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.serve.client import Backpressure, ServeClient, ServeError

from workloads import (HIT_LIMIT_MS, HOT_BENCHMARKS, PRESETS,
                       SERVE_INSTRUCTIONS, SIM_LIMIT_MS, ScheduledJob,
                       hot_cells, serve_schedule)

#: Server boots per run; the median is ``setup_s``.  The middle one
#: serves the timed window, so the others sample the host before and
#: after it.
BOOTS = 5
#: Worker processes.  One worker leaves the second core to the server and
#: the generator; with two, the four busy processes oversubscribe a
#: 2-core host and ``kips`` spread 22% between runs instead of 7%.
WORKERS = 1
#: Seconds a server gets to print its address or to finish warm-up.
BOOT_TIMEOUT_S = 60.0
#: Jobs the server may hold open at once; the schedule stays far below.
MAX_JOBS = 64
#: A percentile is reported only with at least this many samples beyond
#: it, so a p90 needs 100 samples.
MIN_BEYOND = 10


def percentile(values: List[float], percent: int) -> float:
    """Nearest-rank percentile, or 0 with a notice when the sample is too
    small to leave ``MIN_BEYOND`` samples beyond it."""
    ordered = sorted(values)
    if len(ordered) * (100 - percent) < MIN_BEYOND * 100:
        print(f"perfbench: {len(ordered)} samples are too few for a "
              f"p{percent}; it reads 0", file=sys.stderr)
        return 0.0
    return ordered[len(ordered) * percent // 100]


class Server:
    """A ``repro serve`` subprocess in its own session."""

    def __init__(self, src_dir: Path, run_dir: Path, index: int,
                 workers: int) -> None:
        self.cache_dir = run_dir / f"serve-cache-{index}"
        self.log_path = run_dir / f"serve-{index}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + ([env["PYTHONPATH"]]
                              if env.get("PYTHONPATH") else []))
        self.started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--cache", str(self.cache_dir), "--workers", str(workers),
                 "--max-jobs", str(MAX_JOBS)],
                stdout=log, stderr=subprocess.STDOUT, env=env,
                start_new_session=True)
        try:
            self.port = self._wait_for_port()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - self.started
        self.client = ServeClient(port=self.port, timeout=BOOT_TIMEOUT_S)

    def _wait_for_port(self) -> int:
        deadline = self.started + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with "
                                   f"{self.process.returncode}")
            with open(self.log_path) as log:
                for line in log:
                    if '"serve.start"' in line:
                        url = json.loads(line)["url"]
                        return int(url.rsplit(":", 1)[1])
            time.sleep(0.01)
        raise RuntimeError("repro serve did not start listening")

    def warm(self, data_seed: int) -> Tuple[float, List[dict]]:
        """Compute the hot cells.  Returns the seconds from spawn until
        every worker had finished one of them, and the hot cells' rows."""
        spec = {"benchmarks": list(HOT_BENCHMARKS),
                "presets": [preset for preset, _ in PRESETS.values()],
                "seeds": [hot_cells(data_seed)[0].seed],
                "n_instructions": SERVE_INSTRUCTIONS}
        job_id = str(self.client.submit(spec)["id"])
        while True:
            done = [row["done"] for row in
                    self.client.stats()["pool"]["worker_state"]]
            if min(done) > 0:
                ready_s = time.perf_counter() - self.started
                return ready_s, list(self.client.wait(job_id)["cells"])
            if time.perf_counter() - self.started > BOOT_TIMEOUT_S:
                raise RuntimeError(f"workers idle after warm-up: {done}")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """RSS high-water mark of the server plus its worker processes."""
        total_kb = 0
        for pid in [self.process.pid] + _children(self.process.pid):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    if b"resource_tracker" in handle.read():
                        continue
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def isolate_workers(self, cpu: int, others: Set[int]) -> None:
        """Hold the pool's worker processes on ``cpu`` and every other
        process of the server on ``others``."""
        _pin(self.process.pid, others)
        for pid in _children(self.process.pid):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    tracker = b"resource_tracker" in handle.read()
            except OSError:
                continue
            _pin(pid, others if tracker else {cpu})

    def stop(self) -> None:
        """Interrupt the server (it closes its pool), then make sure the
        whole session is gone."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except OSError:
            pass
        self.process.wait()


def _pin(pid: int, cpus: Set[int]) -> None:
    """Set the CPU affinity of every thread of process ``pid``."""
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return
    for task in tasks:
        try:
            os.sched_setaffinity(int(task), cpus)
        except OSError:
            continue


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


class Outcome:
    """What the generator saw of one scheduled job."""

    __slots__ = ("job", "due_s", "job_id", "send_s", "recv_s", "rows",
                 "spans", "error")

    def __init__(self, job: ScheduledJob, origin_s: float) -> None:
        self.job = job
        #: Due time on the client clock.
        self.due_s = origin_s + job.due_s
        self.job_id: Optional[str] = None
        self.send_s = 0.0
        self.recv_s = 0.0
        self.rows: List[dict] = []
        self.spans: List[dict] = []
        self.error: Optional[str] = None


def _collect(client: ServeClient, pending: "queue.Queue[Optional[Outcome]]",
             ) -> None:
    while True:
        outcome = pending.get()
        if outcome is None:
            return
        try:
            for event in client.stream(str(outcome.job_id)):
                if event.get("event") == "cell":
                    outcome.rows.append(event)
            outcome.spans = list(client.spans(str(outcome.job_id))["spans"])
        except ServeError as error:
            outcome.error = f"{type(error).__name__}: {error}"


def drive(server: Server, schedule: List[ScheduledJob]) -> List[Outcome]:
    """Run the open loop; return one outcome per scheduled job."""
    client = ServeClient(port=server.port, timeout=BOOT_TIMEOUT_S)
    pending: "queue.Queue[Optional[Outcome]]" = queue.Queue()
    collector = threading.Thread(target=_collect, args=(client, pending),
                                 name="perfbench-collector")
    collector.start()
    origin = time.perf_counter() + 0.05
    outcomes = [Outcome(job, origin) for job in schedule]
    try:
        for outcome in outcomes:
            delay = outcome.due_s - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome.send_s = time.perf_counter()
            try:
                reply = client.submit(outcome.job.cell.spec())
            except (Backpressure, ServeError) as error:
                outcome.error = f"{type(error).__name__}: {error}"
                continue
            outcome.recv_s = time.perf_counter()
            outcome.job_id = str(reply["id"])
            pending.put(outcome)
    finally:
        pending.put(None)
        collector.join()
    return outcomes


def _span(outcome: Outcome, name: str) -> Optional[dict]:
    for span in outcome.spans:
        if span["name"] == name:
            return span
    return None


def _clock_offset(outcomes: List[Outcome]) -> float:
    """Client clock minus server span clock, in seconds."""
    low, high = float("-inf"), float("inf")
    for outcome in outcomes:
        root = _span(outcome, "job")
        if root is None:
            continue
        start = root["start_ms"] / 1000.0
        low = max(low, outcome.send_s - start)
        high = min(high, outcome.recv_s - start)
    if low == float("-inf"):
        raise RuntimeError("no job span came back from the server")
    return (low + high) / 2.0 if high >= low else low


def check(outcomes: List[Outcome], expected: Dict[str, List[int]]) -> None:
    """Set ``error`` on every job that was refused, errored, or came back
    with a wrong or missing result."""
    for outcome in outcomes:
        problem = outcome.error
        if problem is None and len(outcome.rows) != 1:
            problem = f"{len(outcome.rows)} result rows for one cell"
        if problem is None:
            row = outcome.rows[0]
            want = expected.get(outcome.job.cell.key)
            if row.get("status") != "done":
                problem = f"cell {row.get('status')}: {row.get('error')}"
            elif want is None:
                problem = f"{outcome.job.cell.key}: not in expected table"
            elif [row.get("cycles"), row.get("committed")] != want:
                problem = (f"{outcome.job.cell.key}: cycles/committed "
                           f"{row.get('cycles')}/{row.get('committed')} "
                           f"!= expected {want[0]}/{want[1]}")
            elif outcome.job.klass == "hit" and row.get("source") != "cache":
                # Hit jobs ask only for cells warmed before the window.
                problem = (f"{outcome.job.cell.key}: hit job answered "
                           f"from {row.get('source')}, not the cache")
            elif _span(outcome, "job") is None:
                problem = "job span missing"
        outcome.error = problem


def run(seed: int, seconds: float, traced: bool, data_seed: int,
        src_dir: Path, run_dir: Path, expected: Dict[str, List[int]],
        ) -> Tuple[Dict[str, float], int, int, List[str]]:
    """One run of ``serve-mixed``: (metrics, attempted, failed, problems)."""
    schedule = serve_schedule(seed, seconds, data_seed)
    setups: List[float] = []
    boots: List[float] = []
    problems: List[str] = []

    def boot(index: int) -> Server:
        server = Server(src_dir, run_dir, index, WORKERS)
        try:
            ready_s, rows = server.warm(data_seed)
        except BaseException:
            server.stop()
            raise
        setups.append(ready_s)
        boots.append(server.boot_s)
        for row in rows:
            key = (f"{row['benchmark']}/{row['label']}/s{row['seed']}/"
                   f"n{row['n_instructions']}")
            if [row["cycles"], row["committed"]] != expected.get(key):
                problems.append(f"warm-up {key}: wrong result")
        return server

    for index in range(BOOTS // 2):
        boot(index).stop()
    server = boot(BOOTS // 2)
    # The worker gets a core of its own, so its busy time never includes
    # time-sharing with the server or the generator, which share the rest.
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    others = allowed - {cpu} or allowed
    try:
        server.isolate_workers(cpu, others)
        os.sched_setaffinity(0, others)
        before = server.client.stats()
        outcomes = drive(server, schedule)
        after = server.client.stats()
        rss_mb = server.peak_rss_mb()
    finally:
        os.sched_setaffinity(0, allowed)
        server.stop()
    for index in range(BOOTS // 2 + 1, BOOTS):
        boot(index).stop()
    warm_failed = len(problems)

    check(outcomes, expected)
    problems.extend(f"{o.job_id or 'refused'}: {o.error}" for o in outcomes
                    if o.error is not None)
    failed = sum(1 for o in outcomes if o.error is not None)
    offset = _clock_offset(outcomes)
    hit_ms: List[float] = []
    sim_ms: List[float] = []
    good = 0
    finish_s: List[float] = []
    for outcome in outcomes:
        root = _span(outcome, "job")
        if outcome.error is not None or root is None:
            continue
        finish = offset + root["end_ms"] / 1000.0
        finish_s.append(finish)
        latency_ms = (finish - outcome.due_s) * 1000.0
        limit = HIT_LIMIT_MS if outcome.job.klass == "hit" else SIM_LIMIT_MS
        (hit_ms if outcome.job.klass == "hit" else sim_ms).append(latency_ms)
        if latency_ms <= limit:
            good += 1
    window_s = max(finish_s, default=outcomes[-1].due_s) - outcomes[0].due_s
    busy_s = _busy_s(after) - _busy_s(before)
    committed = sum(o.rows[0]["committed"] for o in outcomes
                    if o.rows and o.rows[0].get("source") == "computed")

    if not traced:
        metrics = {
            "kips": committed / busy_s / 1000.0 if busy_s > 0 else 0.0,
            "setup_s": sorted(setups)[len(setups) // 2],
            "peak_rss_mb": rss_mb,
        }
        return metrics, len(outcomes), failed + warm_failed, problems

    requested = after["cells"]["requested"] - before["cells"]["requested"]

    def frac(source: str) -> float:
        count = after["cells"][source] - before["cells"][source]
        return count / requested if requested else 0.0

    def span_ms(name: str) -> List[float]:
        return [span["duration_ms"] for o in outcomes for span in o.spans
                if span["name"] == name and span["duration_ms"] is not None]

    metrics = {
        "serve.hit_job_ms.p50": percentile(hit_ms, 50),
        "serve.hit_job_ms.p90": percentile(hit_ms, 90),
        "serve.sim_job_ms.p50": percentile(sim_ms, 50),
        "serve.sim_job_ms.p90": percentile(sim_ms, 90),
        "serve.goodput_jobs_per_s": good / window_s,
        "serve.submit_ms.p50": percentile(
            [(o.recv_s - o.send_s) * 1000.0 for o in outcomes
             if o.error is None], 50),
        "serve.cache_probe_ms.p50": percentile(span_ms("cache.probe"), 50),
        "serve.queue_wait_ms.p50": percentile(span_ms("queue.wait"), 50),
        "serve.queue_wait_ms.p90": percentile(span_ms("queue.wait"), 90),
        "serve.worker_exec_ms.p50": percentile(span_ms("worker.exec"), 50),
        "serve.worker_busy_frac": busy_s / (WORKERS * window_s),
        "serve.hit_frac": frac("cache"),
        "serve.coalesced_frac": frac("coalesced"),
        "serve.computed_frac": frac("computed"),
        "serve.boot_s": sorted(boots)[len(boots) // 2],
        "loadgen.late_ms.p90": percentile(
            [(o.send_s - o.due_s) * 1000.0 for o in outcomes], 90),
        "pipeline.cycles": sum(o.rows[0]["cycles"] for o in outcomes
                               if o.rows
                               and o.rows[0].get("source") == "computed"),
    }
    return metrics, len(outcomes), failed + warm_failed, problems


def _busy_s(stats: dict) -> float:
    return sum(float(row["busy_s"]) for row in stats["pool"]["worker_state"])
