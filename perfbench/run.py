"""Repository benchmark: fixed-work simulator workloads and class-split
serving latency.

Usage, from the repository root::

    python3 perfbench/run.py --workload lsq-dense --seed 0 --seconds 20 \\
        --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code
is 1 when any operation failed and 2 when the benchmark cannot run.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
#: Everything a run writes lives here, inside the checkout.
WORK_DIR = ROOT / ".perfbench"
EXPECTED = BENCH_DIR / "expected.json"


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def load_expected(data_seed: int) -> dict:
    with open(EXPECTED) as handle:
        table = json.load(handle)
    return table["data_seeds"][str(data_seed)]


def parse_args(argv: list) -> argparse.Namespace:
    from workloads import DATA_SEEDS, DEFAULT_DATA_SEED, WORKLOAD_NAMES
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the cell order and the serve schedule")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="nominal length of the timed window; sets "
                             "a fixed amount of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 prints the per-layer metrics of a traced "
                             "run instead of the end-to-end metrics")
    parser.add_argument("--data-seed", type=int, choices=DATA_SEEDS,
                        default=DEFAULT_DATA_SEED,
                        help="trace seed of the simulated cells: 0 is the "
                             "default, 1 the held-out inputs")
    return parser.parse_args(argv)


def main(argv: list) -> int:
    if not (SRC_DIR / "repro").is_dir():
        print(f"perfbench: no simulator sources at {SRC_DIR}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR)]
    args = parse_args(argv)
    manifest = load_manifest()
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in manifest[section]}

    import serveload
    import simloop
    from workloads import SERVE_WORKLOAD

    expected = load_expected(args.data_seed)
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        if args.workload == SERVE_WORKLOAD:
            metrics, attempted, failed, problems = serveload.run(
                args.seed, args.seconds, bool(args.trace), args.data_seed,
                SRC_DIR, run_dir, expected["serve"])
        else:
            chrome = WORK_DIR / f"trace-{args.workload}.json" \
                if args.trace else None
            metrics, attempted, failed, problems = simloop.run(
                args.workload, args.seed, args.seconds, bool(args.trace),
                args.data_seed, BENCH_DIR, SRC_DIR, run_dir,
                expected["sim"], chrome)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
