"""Simulation-as-a-service (``repro.serve``).

* The spec grammar accepts exactly what ``repro bench`` accepts —
  including ``litmus/...`` names — and rejects everything else with a
  client-facing message; expanded cells are digest-compatible with the
  CLI's, so either surface warms the cache for the other.
* The single-flight table runs one computation per key no matter how
  many awaiters pile on, propagates the leader's error to every
  joiner, and empties itself afterwards.
* The work-stealing pool returns results bit-identical to the serial
  engine, steals across backlogs, and contains a worker crash to the
  cell that crashed — the worker respawns and the pool keeps serving.
* The HTTP server end to end: submit/stream/result, warm hits served
  from disk in well under the SLO, concurrent overlapping jobs
  coalesced (each unique cell computed exactly once), backpressure as
  429 -> :class:`Backpressure`, bad specs as 400 -> ``SpecRejected``.
"""

import asyncio
import dataclasses
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.harness.engine import Cell, ResultCache, SweepEngine
from repro.serve.bench import ServerHarness, diff_service_reports
from repro.serve.client import (
    Backpressure,
    ServeClient,
    ServeError,
    SpecRejected,
    generate_load,
)
from repro.serve.jobs import Busy, JobStore
from repro.serve.scheduler import CRASH_BENCHMARK, WorkerCrash, WorkerPool
from repro.serve.server import MAX_BODY_BYTES, ServeConfig
from repro.serve.singleflight import SingleFlight
from repro.serve.spec import (
    SpecError,
    expand_cells,
    parse_spec,
    smoke_spec,
)

N = 300  # instructions per cell: enough pipeline, fast enough for CI


def spec_payload(**overrides):
    payload = {"benchmarks": ["gzip"], "presets": ["conventional"],
               "seeds": [0], "n_instructions": N}
    payload.update(overrides)
    return payload


# ---------------------------------------------------------------------------
# spec grammar


class TestSpec:
    def test_parse_roundtrip_and_defaults(self):
        spec = parse_spec({"benchmarks": ["gzip", "mgrid"]})
        assert spec.presets == ("conventional", "full")
        assert spec.seeds == (0,)
        assert spec.n_instructions == 6000
        assert parse_spec(spec.as_payload()) == spec

    def test_litmus_names_accepted(self):
        spec = parse_spec(spec_payload(
            benchmarks=["litmus/mp", "litmus/sb+fence"]))
        assert spec.n_cells == 2

    @pytest.mark.parametrize("payload, fragment", [
        ("not a dict", "JSON object"),
        (spec_payload(benchmarks=["nosuchbench"]), "unknown benchmark"),
        (spec_payload(benchmarks=["litmus/nosuchshape"]), "litmus"),
        (spec_payload(benchmarks=[]), "non-empty"),
        (spec_payload(presets=["nosuchpreset"]), "unknown preset"),
        (spec_payload(seeds=[]), "non-empty"),
        (spec_payload(seeds=[True]), "integers"),
        (spec_payload(seeds=["0"]), "integers"),
        (spec_payload(n_instructions=0), "positive"),
        (spec_payload(n_instructions=10**9), "capped"),
        (spec_payload(seed=[0]), "unknown spec field"),
        (spec_payload(obs="yes"), "boolean"),
    ])
    def test_rejections_are_client_facing(self, payload, fragment):
        with pytest.raises(SpecError) as excinfo:
            parse_spec(payload)
        assert fragment in str(excinfo.value)

    def test_expand_matches_bench_cells(self):
        """Serve cells must be cache-compatible with ``repro bench``:
        same machine, same digest, same labels and port pairing."""
        from dataclasses import replace

        from repro.cli import BENCH_DEFAULT_PORTS, PRESETS
        from repro.config import base_machine

        spec = parse_spec({"benchmarks": ["gzip"],
                           "presets": ["conventional", "full"],
                           "seeds": [0, 1], "n_instructions": N})
        cells = expand_cells(spec)
        assert len(cells) == spec.n_cells == 4
        expected = []
        for preset in ("conventional", "full"):
            ports = BENCH_DEFAULT_PORTS[preset]
            machine = replace(base_machine(),
                              lsq=PRESETS[preset](ports=ports))
            for seed in (0, 1):
                expected.append(Cell(
                    benchmark="gzip", machine=machine, seed=seed,
                    n_instructions=N, label=f"{preset}-{ports}p"))
        assert [c.digest() for c in cells] \
            == [c.digest() for c in expected]
        assert [c.label for c in cells] == [c.label for c in expected]

    def test_smoke_spec_parses(self):
        spec = parse_spec(smoke_spec())
        assert spec.n_cells == 4


# ---------------------------------------------------------------------------
# single-flight


class TestSingleFlight:
    def test_concurrent_same_key_computes_once(self):
        async def scenario():
            flights = SingleFlight()
            calls = []

            async def compute():
                calls.append(1)
                await asyncio.sleep(0.01)
                return "value"

            results = await asyncio.gather(*[
                flights.run("k", compute) for _ in range(8)])
            return flights, calls, results

        flights, calls, results = asyncio.run(scenario())
        assert len(calls) == 1
        assert [value for _led, value in results] == ["value"] * 8
        assert sum(1 for led, _ in results if led) == 1
        assert flights.leaders == 1 and flights.joined == 7
        assert flights.inflight() == 0

    def test_distinct_keys_run_independently(self):
        async def scenario():
            flights = SingleFlight()

            async def compute(key):
                await asyncio.sleep(0.01)
                return key.upper()

            results = await asyncio.gather(
                flights.run("a", lambda: compute("a")),
                flights.run("b", lambda: compute("b")))
            return flights, results

        flights, results = asyncio.run(scenario())
        assert [value for _led, value in results] == ["A", "B"]
        assert flights.leaders == 2 and flights.joined == 0

    def test_leader_error_reaches_joiners_then_clears(self):
        async def scenario():
            flights = SingleFlight()

            async def boom():
                await asyncio.sleep(0.01)
                raise ValueError("leader failed")

            results = await asyncio.gather(
                *[flights.run("k", boom) for _ in range(3)],
                return_exceptions=True)
            # the key is free again: a retry computes fresh
            async def fine():
                return 42
            led, value = await flights.run("k", fine)
            return results, led, value

        results, led, value = asyncio.run(scenario())
        assert all(isinstance(r, ValueError) for r in results)
        assert led and value == 42


# ---------------------------------------------------------------------------
# work-stealing pool


class TestWorkerPool:
    def test_matches_serial_engine_and_steals(self, tmp_path):
        """Pool results are bit-identical to the serial engine, and an
        unbalanced backlog gets stolen from."""
        cells = expand_cells(parse_spec(spec_payload(
            benchmarks=["gzip", "mgrid"], seeds=[0, 1])))
        serial = SweepEngine(jobs=1, cache=None)
        expected = [serial.run_cell(cell) for cell in cells]

        async def scenario():
            pool = WorkerPool(workers=2, cache_dir=tmp_path / "cache")
            await pool.start()
            try:
                return await asyncio.gather(
                    *[pool.submit(cell) for cell in cells]), pool.computed
            finally:
                await pool.close()

        results, computed = asyncio.run(scenario())
        assert computed == len(cells)
        for got, want in zip(results, expected):
            assert got.result.stats.cycles == want.result.stats.cycles
            assert got.result.stats.committed \
                == want.result.stats.committed
            assert got.ipc == want.ipc

    def test_crash_contained_to_one_cell(self, tmp_path):
        cells = expand_cells(parse_spec(spec_payload(seeds=[0, 1, 2])))
        bad = dataclasses.replace(cells[0], benchmark=CRASH_BENCHMARK)

        async def scenario():
            pool = WorkerPool(workers=2, cache_dir=tmp_path / "cache")
            await pool.start()
            try:
                results = await asyncio.gather(
                    *[pool.submit(c) for c in [cells[0], bad, cells[1]]],
                    return_exceptions=True)
                # the fleet healed: a fresh cell still computes
                after = await pool.submit(cells[2])
                return results, after, pool.respawns
            finally:
                await pool.close()

        results, after, respawns = asyncio.run(scenario())
        kinds = [type(r).__name__ for r in results]
        assert kinds.count("WorkerCrash") == 1
        assert kinds.count("CellResult") == 2
        assert respawns >= 1
        assert after.result.stats.committed > 0


# ---------------------------------------------------------------------------
# job store admission


class TestJobStore:
    def test_admission_cap_and_retry_hint(self):
        store = JobStore(max_active=2, retry_after_s=3.0)
        spec = parse_spec(spec_payload())
        cells = expand_cells(spec)
        store.admit(spec, cells)
        store.admit(spec, cells)
        with pytest.raises(Busy) as excinfo:
            store.admit(spec, cells)
        assert excinfo.value.retry_after_s == 3.0
        assert store.rejected == 1

    def test_job_ids_are_deterministic(self):
        store = JobStore()
        spec = parse_spec(spec_payload())
        cells = expand_cells(spec)
        assert store.admit(spec, cells).id == "job-000001"
        assert store.admit(spec, cells).id == "job-000002"


# ---------------------------------------------------------------------------
# the server, end to end


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    config = ServeConfig(port=0, workers=2, cache_dir=str(cache_dir))
    with ServerHarness(config) as running:
        yield running


@pytest.fixture(scope="module")
def client(harness):
    return ServeClient(port=harness.port)


@pytest.mark.slow
class TestServerEndToEnd:
    def test_results_bit_identical_to_serial_bench(self, client):
        payload = spec_payload(benchmarks=["gzip", "mgrid"], seeds=[0])
        job = client.submit(payload)
        final = client.wait(str(job["id"]))
        assert final["job"]["state"] == "done"
        assert final["job"]["failed"] == 0

        serial = SweepEngine(jobs=1, cache=None)
        for row, cell in zip(final["cells"],
                             expand_cells(parse_spec(payload))):
            want = serial.run_cell(cell)
            assert row["status"] == "done"
            assert row["ipc"] == round(want.ipc, 6)
            assert row["cycles"] == want.result.stats.cycles
            assert row["committed"] == want.result.stats.committed

    def test_warm_resubmit_is_all_cache_and_fast(self, client):
        payload = spec_payload(benchmarks=["gzip", "mgrid"], seeds=[0])
        job = client.submit(payload)       # warmed by the test above
        final = client.wait(str(job["id"]))
        sources = {row["source"] for row in final["cells"]}
        assert sources == {"cache"}
        latencies = sorted(row["service_ms"] for row in final["cells"])
        assert latencies[len(latencies) // 2] < 5.0  # the serving SLO

    def test_concurrent_overlap_coalesces(self, client, harness):
        """Two clients racing on the same cold sweep: every unique
        cell is computed exactly once, the rest join in flight."""
        payload = spec_payload(benchmarks=["gzip"], seeds=[71, 72])
        before = client.stats()["cells"]
        load = generate_load(harness.config.host, harness.port,
                             [payload, payload], clients=2)
        assert load["jobs_completed"] == 2
        assert load["failed_cells"] == 0
        after = client.stats()["cells"]
        requested = after["requested"] - before["requested"]
        computed = after["computed"] - before["computed"]
        coalesced = after["coalesced"] - before["coalesced"]
        assert requested == 4          # 2 jobs x 2 unique cells
        assert computed == 2           # each unique cell exactly once
        assert coalesced == 2

    def test_streamed_events_carry_obs_tail(self, client):
        job = client.submit(spec_payload(obs=True, seeds=[73]))
        cell_events = [event for event in client.stream(str(job["id"]))
                       if event.get("event") == "cell"]
        assert cell_events
        for event in cell_events:
            assert event["obs"]["samples"] > 0
            assert event["obs"]["tail"], "stream tail missing"
            assert {"cycle", "ipc", "rob_occ"} \
                <= set(event["obs"]["tail"][0])

    def test_bad_spec_is_rejected_not_admitted(self, client):
        with pytest.raises(SpecRejected) as excinfo:
            client.submit(spec_payload(benchmarks=["nosuchbench"]))
        assert "unknown benchmark" in str(excinfo.value)

    def test_unknown_job_and_route(self, client):
        with pytest.raises(ServeError):
            client.job("job-999999")
        with pytest.raises(ServeError):
            client._request("GET", "/nosuchroute")

    def test_result_while_running_conflicts(self, client):
        job = client.submit(spec_payload(
            benchmarks=["gzip", "mgrid"], seeds=[74, 75, 76],
            n_instructions=4000))
        job_id = str(job["id"])
        with pytest.raises(ServeError) as excinfo:
            client.result(job_id)
        assert "409" in str(excinfo.value)
        client.wait(job_id)  # drain so the module fixture closes clean


@pytest.mark.parametrize("length", ["abc", "-5", "1e3"])
def test_bad_content_length_is_400(harness, length):
    """A Content-Length that is not a decimal byte count is the
    client's fault: 400, not a 500 from the int() parse."""
    request = (f"POST /jobs HTTP/1.1\r\nHost: test\r\n"
               f"Content-Length: {length}\r\n\r\n{{}}").encode()
    with socket.create_connection(("127.0.0.1", harness.port),
                                  timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 400 "), reply[:80]
    assert b"Content-Length" in reply.split(b"\r\n\r\n", 1)[1]


def test_oversized_body_is_413_before_it_is_read(harness, client):
    """A Content-Length over the body cap is refused with 413 from the
    headers alone: the server neither waits for nor buffers the body,
    and keeps serving ordinary jobs afterwards."""
    length = MAX_BODY_BYTES + 1
    for announced in (length, 99999999999):
        request = (f"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                   f"Content-Length: {announced}\r\n\r\n{{}}").encode()
        with socket.create_connection(("127.0.0.1", harness.port),
                                      timeout=10) as sock:
            sock.sendall(request)   # no body beyond "{}"; no write shutdown
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 413 Payload Too Large"), \
            reply[:80]
        assert str(announced).encode() in reply
    job = client.submit(spec_payload(seeds=[77]))
    final = client.wait(str(job["id"]))
    assert final["job"]["state"] == "done"
    assert final["job"]["failed"] == 0


def _children(pid):
    """Child pids of ``pid`` (Linux ``/proc``)."""
    found = set()
    for task in pathlib.Path(f"/proc/{pid}/task").iterdir():
        text = (task / "children").read_text().split()
        found.update(int(child) for child in text)
    return found


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.slow
@pytest.mark.skipif(not pathlib.Path("/proc/self/task").exists(),
                    reason="needs Linux /proc to list child processes")
def test_sigterm_closes_the_worker_pool(tmp_path):
    """SIGTERM stops ``repro serve`` the way Ctrl-C does: the pool is
    closed, so no spawned worker or resource tracker survives it."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "2", "--cache", str(tmp_path / "cache")],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        started = any(json.loads(line).get("event") == "serve.start"
                      for line in server.stdout)
        assert started, "repro serve exited before it started"
        children = _children(server.pid)
        assert len(children) >= 2, children   # the workers (+ tracker)
        server.send_signal(signal.SIGTERM)
        out, _ = server.communicate(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    assert server.returncode == 0
    assert json.loads(out.splitlines()[-1]) == {"event": "serve.stop",
                                                "reason": "terminate"}
    deadline = time.monotonic() + 10.0
    while any(_running(pid) for pid in children) \
            and time.monotonic() < deadline:
        time.sleep(0.1)
    survivors = sorted(pid for pid in children if _running(pid))
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"processes outlived the server: {survivors}"


@pytest.mark.slow
def test_backpressure_over_http(tmp_path):
    """With max_jobs=1 and a slow job in flight, the second submit is
    429 + Retry-After, surfaced as :class:`Backpressure`."""
    config = ServeConfig(port=0, workers=1, max_jobs=1,
                         retry_after_s=2.0,
                         cache_dir=str(tmp_path / "cache"))
    with ServerHarness(config) as harness:
        client = ServeClient(port=harness.port)
        slow = spec_payload(benchmarks=["gzip", "mgrid"],
                            seeds=[0, 1], n_instructions=6000)
        first = client.submit(slow)
        with pytest.raises(Backpressure) as excinfo:
            client.submit(spec_payload())
        assert excinfo.value.retry_after_s == pytest.approx(2.0)
        client.wait(str(first["id"]))
        # capacity freed: the same submit is admitted now
        job = client.submit(spec_payload())
        final = client.wait(str(job["id"]))
        assert final["job"]["failed"] == 0


# ---------------------------------------------------------------------------
# engine additions the server leans on


class TestEngineAsyncApi:
    def test_probe_is_cache_only(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = SweepEngine(jobs=1, cache=cache)
        cell = expand_cells(parse_spec(spec_payload()))[0]
        assert engine.probe_cell(cell) is None     # cold: no compute
        computed = engine.run_cell(cell)
        probed = engine.probe_cell(cell)
        assert probed is not None and probed.cached
        assert probed.ipc == computed.ipc
        assert probed.result.stats.cycles == computed.result.stats.cycles

    def test_run_cell_async_matches_sync(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = SweepEngine(jobs=1, cache=cache)
        cell = expand_cells(parse_spec(spec_payload()))[0]

        first = asyncio.run(engine.run_cell_async(cell))
        assert not first.cached
        second = asyncio.run(engine.run_cell_async(cell))
        assert second.cached
        assert second.ipc == first.ipc


# ---------------------------------------------------------------------------
# the service-report gate


class TestServiceDiff:
    def good(self):
        return {
            "kind": "service", "calibration_s": 1.0,
            "cold": {"n_cells": 4, "wall_s": 1.0, "cells_per_s": 4.0,
                     "failed": 0},
            "coalescing": {"requested": 8, "computed": 4, "ratio": 0.5},
            "warm": {"p50_ms": 0.3, "p90_ms": 0.5, "max_ms": 1.0},
        }

    def test_clean_pair_passes(self):
        assert diff_service_reports(self.good(), self.good()) == []

    def test_slo_breach_fails(self):
        bad = self.good()
        bad["warm"]["p50_ms"] = 7.5
        failures = diff_service_reports(self.good(), bad)
        assert any("SLO" in failure for failure in failures)

    def test_throughput_collapse_fails(self):
        bad = self.good()
        bad["cold"]["cells_per_s"] = 1.0
        failures = diff_service_reports(self.good(), bad)
        assert any("throughput" in failure for failure in failures)

    def test_normalize_only_relaxes(self):
        bad = self.good()
        bad["cold"]["cells_per_s"] = 1.6
        bad["calibration_s"] = 3.0   # much slower machine
        assert diff_service_reports(self.good(), bad,
                                    normalize=True) == []
        failures = diff_service_reports(self.good(), bad)
        assert failures  # without normalize the same drop fails

    def test_coalescing_regression_fails(self):
        bad = self.good()
        bad["coalescing"]["ratio"] = 1.0
        failures = diff_service_reports(self.good(), bad)
        assert any("coalescing" in failure for failure in failures)
