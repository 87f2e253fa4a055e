"""Regenerate the benchmark's committed tables.

    python3 perfbench/regen.py expected   # perfbench/expected.json
    python3 perfbench/regen.py profile    # perfbench/profile.json

``expected`` simulates every cell a run can check, for the default and
the held-out data seed: the SimStats digest of every simulator-workload
cell, and the cycles and committed count of every cell the serve
schedule can request.  Simulated statistics are deterministic, so the
table changes only when the model does.

``profile`` makes one traced run per workload at the default seed and
records its per-layer metrics, so later changes size their claims from
measured shares.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src")]

from repro.harness import SweepEngine  # noqa: E402
from repro.serve.spec import expand_cells, parse_spec  # noqa: E402
from repro.stats.counters import stats_digest  # noqa: E402

from workloads import (DATA_SEEDS, SIM_WORKLOADS, WORKLOAD_NAMES,  # noqa: E402
                       serve_universe, sim_key)

#: Fields of the profile the README's claims rest on.
PROFILE_FIELDS = (
    "workload.gen_share", "pipeline.steps_per_cycle",
    "core.load_attempts_per_load", "core.blocked_polls",
    "core.store_commit_attempts_per_store", "serve.hit_frac",
    "serve.coalesced_frac", "serve.computed_frac",
    "serve.worker_busy_frac", "trace.overhead_frac")


def expected_table(jobs: int) -> dict:
    engine = SweepEngine(jobs=jobs, cache=None)
    table: dict = {}
    for data_seed in DATA_SEEDS:
        sim_cells = {}
        for workload in SIM_WORKLOADS.values():
            for cell in workload.build_cells(data_seed):
                # Validation does not change the statistics, so a
                # validated cell shares its plain twin's digest.
                sim_cells.setdefault(sim_key(cell), cell)
        results = engine.run_cells(list(sim_cells.values()))
        sim = {key: stats_digest(result.result.stats)
               for key, result in zip(sim_cells, results)}
        universe = serve_universe(data_seed)
        # Build the serve cells exactly as the server does.
        cells = [expand_cells(parse_spec(cell.spec()))[0]
                 for cell in universe]
        results = engine.run_cells(cells)
        serve = {cell.key: [result.result.stats.cycles,
                            result.result.stats.committed]
                 for cell, result in zip(universe, results)}
        table[str(data_seed)] = {"sim": dict(sorted(sim.items())),
                                 "serve": dict(sorted(serve.items()))}
    return {"regenerate": "python3 perfbench/regen.py expected",
            "data_seeds": table}


def profile(seconds: float) -> dict:
    runs = {}
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", "0", "--seconds", str(seconds), "--trace", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        runs[name] = {metric: value["value"]
                      for metric, value in report["metrics"].items()}
    return {
        "regenerate": "python3 perfbench/regen.py profile",
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "seed": 0,
        "seconds": seconds,
        "key_fields": list(PROFILE_FIELDS),
        "workloads": runs,
    }


def main(argv: list) -> int:
    if argv[:1] == ["expected"]:
        doc = expected_table(jobs=min(2, os.cpu_count() or 1))
        target = BENCH_DIR / "expected.json"
    elif argv[:1] == ["profile"]:
        with open(ROOT / "BENCHMARK.json") as handle:
            seconds = json.load(handle)["run_seconds"]
        doc = profile(seconds)
        target = BENCH_DIR / "profile.json"
    else:
        print(__doc__, file=sys.stderr)
        return 2
    with open(target, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {target.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
