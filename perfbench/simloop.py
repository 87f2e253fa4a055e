"""The simulator workloads: fixed passes of cells in one process.

Each pass runs every cell of the workload once, in a seeded order,
through ``SweepEngine(jobs=1)`` with a fresh result cache, so the cache
store is paid and nothing is served from an earlier pass.  The number
of passes follows from ``--seconds`` alone, so every run of a workload
commits the same simulated instructions.  Each cell is timed on its own
and its time rescaled to the host speed measured just before and after
it (``hostspeed.ScaledClock``).
"""

from __future__ import annotations

import random
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.harness import Cell, ResultCache, SweepEngine
from repro.stats.counters import stats_digest

from hostspeed import REFERENCE_S, ScaledClock
from layers import LayerTracer, sim_layer_metrics
from workloads import SIM_WORKLOADS, sim_key

#: Fresh interpreters started per run to time set-up; the median counts.
SETUP_PROBES = 7
#: Reference tasks each of them runs after set-up to measure its speed.
SETUP_REFERENCES = 2


def _probe_code(bench_dir: Path, src_dir: Path, workload: str,
                data_seed: int) -> str:
    """Python source a fresh interpreter runs to set a workload up.  It
    prints one line when it would start the first timed pass, then the
    times of ``SETUP_REFERENCES`` reference tasks run right after."""
    return (
        "import sys\n"
        f"sys.path[:0] = [{str(bench_dir)!r}, {str(src_dir)!r}]\n"
        "from simloop import set_up\n"
        f"set_up({workload!r}, {data_seed})\n"
        "print('ready', flush=True)\n"
        "from hostspeed import reference\n"
        f"print(*(reference() for _ in range({SETUP_REFERENCES})))\n")


def set_up(workload: str, data_seed: int) -> List[Cell]:
    """Everything a run does before its first timed operation: build the
    cells and their cache keys (which hash the simulator's sources)."""
    cells = SIM_WORKLOADS[workload].build_cells(data_seed)
    for cell in cells:
        cell.digest()
    return cells


def measure_setup(code: str) -> float:
    """Seconds from starting a fresh interpreter on ``code`` until it
    reports that it is set up, rescaled to the reference speed that
    interpreter measured right afterwards."""
    started = time.perf_counter()
    probe = subprocess.Popen([sys.executable, "-c", code],
                             stdout=subprocess.PIPE, text=True)
    try:
        line = probe.stdout.readline() if probe.stdout else ""
        ready = time.perf_counter()
        references, _ = probe.communicate(timeout=60)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.wait()
    if line.strip() != "ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
    times = [float(value) for value in references.split()]
    return (ready - started) * REFERENCE_S * len(times) / sum(times)


class PassRunner:
    """Runs the passes of one workload and checks every result."""

    def __init__(self, cells: List[Cell], seed: int, run_dir: Path,
                 expected: Dict[str, str]) -> None:
        self.cells = cells
        self.rng = random.Random(seed)
        self.run_dir = run_dir
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.committed = 0
        self.cycles = 0
        self.loads = 0
        self.stores = 0
        self.digests: Dict[str, str] = {}
        self.problems: List[str] = []
        self.clock = ScaledClock()
        self._passes = 0

    def run(self, passes: int) -> None:
        """Run ``passes`` passes, timing each cell on ``self.clock``."""
        for _ in range(passes):
            order = list(self.cells)
            self.rng.shuffle(order)
            cache_dir = self.run_dir / f"pass-{self._passes}"
            self._passes += 1
            engine = SweepEngine(jobs=1, cache=ResultCache(cache_dir))
            results: List[Optional[object]] = []
            try:
                for cell in order:
                    started = time.perf_counter()
                    results.append(engine.run_cells([cell])[0])
                    self.clock.add(time.perf_counter() - started)
            except Exception as error:  # noqa: BLE001 - a failed cell
                self.problems.append(f"{type(error).__name__}: {error}")
            results.extend([None] * (len(order) - len(results)))
            for cell, result in zip(order, results):
                self._check(cell, result)
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _check(self, cell: Cell, result: Optional[object]) -> None:
        self.attempted += 1
        key = sim_key(cell)
        if result is None:
            self.failed += 1
            return
        stats = result.result.stats  # type: ignore[attr-defined]
        digest = stats_digest(stats)
        self.committed += stats.committed
        self.cycles += stats.cycles
        self.loads += stats.committed_loads
        self.stores += stats.committed_stores
        validation = result.validation  # type: ignore[attr-defined]
        if cell.validate and (
                validation is None
                or validation.checked_loads != stats.committed_loads
                or validation.checked_cycles == 0):
            checked = validation.checked_loads if validation else None
            self.problems.append(f"{key}: checker saw {checked} of "
                                 f"{stats.committed_loads} committed loads")
            self.failed += 1
        elif self.digests.setdefault(key, digest) != digest:
            self.problems.append(f"{key}: digest changed between passes")
            self.failed += 1
        elif key not in self.expected:
            self.problems.append(f"{key}: not in the expected table")
            self.failed += 1
        elif self.expected[key] != digest:
            self.problems.append(f"{key}: digest {digest[:12]} != "
                                 f"expected {self.expected[key][:12]}")
            self.failed += 1


def run(name: str, seed: int, seconds: float, traced: bool,
        data_seed: int, bench_dir: Path, src_dir: Path, run_dir: Path,
        expected: Dict[str, str],
        chrome_trace: Optional[Path]) -> Tuple[Dict[str, float], int, int,
                                               List[str]]:
    """One run of a simulator workload.

    Returns (metrics, attempted, failed, problems).  Without tracing the
    metrics are the end-to-end ones; with tracing the per-layer ones.
    """
    cells = set_up(name, data_seed)
    passes = SIM_WORKLOADS[name].passes(seconds)

    plain = PassRunner(cells, seed, run_dir, expected)
    # The set-up probes run between passes, outside the timed passes, so
    # their median samples the host across the whole run.
    probe_code = _probe_code(bench_dir, src_dir, name, data_seed)
    probes_before = Counter(k * passes // SETUP_PROBES
                            for k in range(SETUP_PROBES))
    setup: List[float] = []
    for index in range(passes):
        if not traced:
            for _ in range(probes_before[index]):
                setup.append(measure_setup(probe_code))
        plain.run(1)
    problems = list(plain.problems)
    if not traced:
        metrics = {
            "kips": plain.committed / plain.clock.scaled_s / 1000.0,
            "setup_s": sorted(setup)[len(setup) // 2],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return metrics, plain.attempted, plain.failed, problems

    traced_run = PassRunner(cells, seed, run_dir, expected)
    with LayerTracer() as tracer:
        traced_run.run(passes)
    mismatches = [f"{key}: traced digest differs from untraced"
                  for key, digest in traced_run.digests.items()
                  if plain.digests.get(key) != digest]
    if not tracer.restored():
        mismatches.append("traced run left entry points wrapped")
    if chrome_trace is not None:
        tracer.write_chrome_trace(str(chrome_trace))
    metrics = sim_layer_metrics(tracer, traced_run.cycles, traced_run.loads,
                                traced_run.stores)
    metrics["trace.overhead_frac"] = \
        traced_run.clock.host_s / plain.clock.host_s - 1.0
    metrics["host.raw_kips"] = plain.committed / plain.clock.host_s / 1000.0
    metrics["host.speed"] = plain.clock.scaled_s / plain.clock.host_s
    return (metrics, plain.attempted + traced_run.attempted,
            plain.failed + traced_run.failed + len(mismatches),
            problems + traced_run.problems + mismatches)
