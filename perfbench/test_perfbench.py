"""Self-test of the repository benchmark at a tiny size.

    python3 -m pytest perfbench -q

It runs every workload for about a second in both modes, so it takes
about a minute.  The repository's own test suite does not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from layers import (CHECKER_HOOKS, LayerTracer, LSQ_METHODS,  # noqa: E402
                    sim_layer_metrics)
from workloads import SIM_WORKLOADS, WORKLOAD_NAMES  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = "0.5"


def run_bench(workload: str, trace: int, *extra: str,
              cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / BENCH_DIR.name / "run.py"),
         "--workload", workload,
         "--seed", "7", "--seconds", TINY_SECONDS, "--trace", str(trace),
         *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)


def last_json(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_printed_with_its_unit(workload: str,
                                            trace: int) -> None:
    completed = run_bench(workload, trace)
    assert completed.returncode == 0, completed.stderr
    report = last_json(completed)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0
    assert report["attempted"] >= 1
    section = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in
            report["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in section}
    if not trace:
        assert all(value["value"] > 0
                   for value in report["metrics"].values())
    if trace and workload in SIM_WORKLOADS:
        trace_file = ROOT / ".perfbench" / f"trace-{workload}.json"
        checked = subprocess.run(
            [sys.executable, "-m", "repro.obs.chrometrace", str(trace_file)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdout=subprocess.PIPE, text=True)
        assert checked.returncode == 0, checked.stdout
        assert report["metrics"]["pipeline.cycles"]["value"] > 0


def _entry_points() -> dict:
    from repro.core.lsq import LoadStoreQueue
    from repro.harness import ResultCache, SweepEngine
    from repro.pipeline import Processor
    import repro.harness.engine as engine
    return {
        "run_cells": SweepEngine.__dict__["run_cells"],
        "store": ResultCache.__dict__["store"],
        "run": Processor.__dict__["run"],
        "step": Processor.__dict__["step"],
        "engine.simulate": engine.simulate,
        "engine.generate_trace": engine.generate_trace,
        **{name: LoadStoreQueue.__dict__[name] for name in LSQ_METHODS},
    }


def test_traced_run_keeps_digests_and_restores_entry_points() -> None:
    from repro.harness import SweepEngine
    from repro.stats.counters import stats_digest

    cells = SIM_WORKLOADS["checked"].build_cells(0)[:2]
    plain = [stats_digest(result.result.stats) for result in
             SweepEngine(jobs=1).run_cells(cells)]
    before = _entry_points()
    with LayerTracer() as tracer:
        assert _entry_points()["run"] is not before["run"]
        assert not tracer.restored()
        traced = [stats_digest(result.result.stats) for result in
                  SweepEngine(jobs=1).run_cells(cells)]
    assert traced == plain
    assert tracer.restored() and _entry_points() == before
    assert tracer.calls["LoadStoreQueue.try_execute_load"] > 0
    assert tracer.calls["ValidationChecker.on_commit"] == \
        2 * cells[0].n_instructions
    assert not tracer.missing


def test_missing_entry_point_reads_zero(capsys) -> None:
    tracer = LayerTracer()
    tracer._count_class(type("LoopWithoutStep", (), {}), "step")
    assert tracer.missing == ["LoopWithoutStep.step"]
    assert "not found" in capsys.readouterr().err
    metrics = sim_layer_metrics(tracer, cycles=100, loads=10, stores=5)
    assert metrics["pipeline.steps_per_cycle"] == 0.0


def copy_benchmark(tmp_path: Path) -> Path:
    """A checkout in ``tmp_path`` holding only the benchmark's files."""
    copy = tmp_path / BENCH_DIR.name
    copy.mkdir()
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            (copy / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(MANIFEST))
    return copy


def test_corrupted_expected_digest_fails(tmp_path: Path) -> None:
    copy = copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    table = json.loads((copy / "expected.json").read_text())
    sim = table["data_seeds"]["0"]["sim"]
    key = sorted(sim)[0]
    sim[key] = "0" * 64
    (copy / "expected.json").write_text(json.dumps(table))
    workload = next(name for name, spec in SIM_WORKLOADS.items()
                    if any(key.startswith(f"{bench}/{label}/")
                           for bench, label in spec.cells))
    completed = run_bench(workload, 0, cwd=tmp_path)
    assert completed.returncode != 0
    report = last_json(completed)
    assert report["failed"] > 0 and report["correct"] is False


def test_bypassed_checker_fails(tmp_path: Path, monkeypatch) -> None:
    import repro.validate
    from run import load_expected
    from simloop import PassRunner

    class Bypassed(repro.validate.ValidationChecker):
        pass

    for hook in CHECKER_HOOKS:
        setattr(Bypassed, hook, lambda self, *args, **kwargs: None)
    monkeypatch.setattr(repro.validate, "ValidationChecker", Bypassed)
    cells = SIM_WORKLOADS["checked"].build_cells(0)[:1]
    runner = PassRunner(cells, 0, tmp_path, load_expected(0)["sim"])
    runner.run(1)
    assert runner.attempted == 1 and runner.failed == 1
    assert "checker saw" in runner.problems[0]


def test_hit_job_not_from_cache_fails() -> None:
    from serveload import Outcome, check
    from workloads import ScheduledJob, hot_cells

    cell = hot_cells(0)[0]
    expected = {cell.key: [100, 50]}
    outcomes = []
    for source in ("cache", "computed"):
        outcome = Outcome(ScheduledJob(0.0, "hit", cell), 0.0)
        outcome.rows = [{"status": "done", "cycles": 100, "committed": 50,
                         "source": source}]
        outcome.spans = [{"name": "job"}]
        outcomes.append(outcome)
    check(outcomes, expected)
    assert outcomes[0].error is None
    assert "not the cache" in str(outcomes[1].error)


def test_refuses_without_simulator_sources(tmp_path: Path) -> None:
    copy_benchmark(tmp_path)
    completed = run_bench("lsq-dense", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_scaled_clock_rescales_to_the_reference_speed(monkeypatch) -> None:
    import hostspeed

    # The host runs the reference at half its nominal speed, then at
    # its nominal speed: each section is scaled by the mean around it.
    times = iter([2 * hostspeed.REFERENCE_S, 2 * hostspeed.REFERENCE_S,
                  hostspeed.REFERENCE_S])
    monkeypatch.setattr(hostspeed, "reference", lambda: next(times))
    clock = hostspeed.ScaledClock()
    clock.add(1.0)
    clock.add(1.5)
    assert clock.host_s == pytest.approx(2.5)
    assert clock.scaled_s == pytest.approx(0.5 + 1.5 / 1.5)
