"""The event-driven memory stage and quiet-cycle skipping, pinned.

``tests/data/engine_digests.json`` holds the outcomes of the per-cycle
reference loop before its memory stage became event driven: SimStats
digests of 50 randomized small machines, of runs cut by ``max_cycles``
and by the deadlock watchdog, and of observer- and checker-attached
runs.  The event-driven loop must reproduce every one of them.  The
golden grid (``tests/test_golden_parity.py``) covers the paper's four
presets; these cover widths, ROB sizes, port counts and load-buffer
capacities that grid never visits, and the cycles a skip must land on.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import asdict, replace
from types import SimpleNamespace

import pytest

from repro.cli import PRESETS
from repro.config import base_machine
from repro.core.lsq import LoadStoreQueue
from repro.obs import Observer
from repro.pipeline.processor import Processor, simulate
from repro.pipeline.wakeup import WakeIndex
from repro.stats.counters import stats_digest
from repro.validate import ValidationChecker
from repro.validate.bundle import SimulationDeadlock
from repro.workload import generate_trace

PINNED = json.loads((pathlib.Path(__file__).parent / "data"
                     / "engine_digests.json").read_text())


def _machine(preset: str, ports: int):
    return replace(base_machine(), lsq=PRESETS[preset](ports=ports))


def _random_case(case):
    lsq = PRESETS[case["preset"]](ports=case["ports"])
    if case["load_buffer_entries"]:
        lsq = replace(lsq, load_buffer_entries=case["load_buffer_entries"])
    width = case["width"]
    core = replace(base_machine().core, fetch_width=width,
                   issue_width=width, commit_width=width,
                   rob_entries=case["rob_entries"])
    trace = generate_trace(case["benchmark"], n_instructions=case["n"],
                           seed=case["seed"])
    return trace, replace(base_machine(), core=core, lsq=lsq)


def _observer_digest(summary) -> str:
    payload = {"cycles": summary.cycles, "cpi_slots": summary.cpi_slots,
               "event_counts": summary.event_counts,
               "samples": [list(sample) for sample in summary.samples]}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestRandomConfigParity:
    def test_fifty_random_small_configs_are_bit_identical(self):
        """50 random small machines (narrow widths, tiny ROBs, odd
        load-buffer sizes) reproduce the reference loop's digests."""
        assert len(PINNED["random_configs"]) == 50
        for case in PINNED["random_configs"]:
            trace, machine = _random_case(case)
            assert stats_digest(simulate(trace, machine).stats) == \
                case["digest"], f"random case {case['case']} drifted: {case}"

    def test_skipping_quiet_cycles_changes_nothing(self):
        """In-engine differential: stepping every cycle and skipping the
        quiet ones give the same stats and the same checker report."""
        for case in PINNED["random_configs"][::5]:
            trace, machine = _random_case(case)
            outcomes = []
            for skip in (False, True):
                checker = ValidationChecker(raise_on_error=False)
                stats = Processor(machine, checker=checker,
                                  skip_quiet=skip).run(trace).stats
                outcomes.append((asdict(stats), checker.checked_cycles,
                                 checker.checked_loads,
                                 len(checker.failures)))
            assert outcomes[0] == outcomes[1], f"case {case['case']}"


@pytest.mark.parametrize("case", PINNED["max_cycles"],
                         ids=lambda c: f"{c['benchmark']}-{c['preset']}"
                                       f"-{c['max_cycles']}")
def test_max_cycles_stops_at_the_pinned_cycle(case):
    trace = generate_trace(case["benchmark"], n_instructions=case["n"],
                           seed=0)
    stats = simulate(trace, _machine(case["preset"], case["ports"]),
                     max_cycles=case["max_cycles"]).stats
    assert (stats.cycles, stats_digest(stats)) == \
        (case["cycles"], case["digest"])


@pytest.mark.parametrize("case", PINNED["deadlock"],
                         ids=lambda c: f"{c['benchmark']}-{c['preset']}"
                                       f"-wd{c['watchdog_cycles']}")
def test_forced_deadlock_raises_at_the_pinned_cycle(case, monkeypatch):
    """A small REPRO_WATCHDOG_CYCLES trips inside a quiet window: the
    skip must stop at the watchdog's cycle, with the same charges."""
    monkeypatch.setenv("REPRO_WATCHDOG_CYCLES",
                       str(case["watchdog_cycles"]))
    trace = generate_trace(case["benchmark"], n_instructions=case["n"],
                           seed=0)
    processor = Processor(_machine(case["preset"], case["ports"]))
    with pytest.raises(SimulationDeadlock) as raised:
        processor.run(trace)
    assert raised.value.bundle.cycle == case["cycle"]
    assert f"at cycle {case['cycle']} " in str(raised.value)
    assert stats_digest(processor.stats) == case["digest"]


@pytest.mark.parametrize("case", PINNED["observer"],
                         ids=lambda c: f"{c['benchmark']}-{c['preset']}")
def test_observer_sees_every_skipped_cycle(case):
    """CPI stack, interval samples and event counts through
    ``Observer.on_skip`` match the per-cycle observation."""
    trace = generate_trace(case["benchmark"], n_instructions=case["n"],
                           seed=0)
    observer = Observer()
    stats = simulate(trace, _machine(case["preset"], case["ports"]),
                     obs=observer).stats
    assert stats_digest(stats) == case["digest"]
    summary = observer.summary()
    assert summary.cycles == stats.cycles
    assert _observer_digest(summary) == case["observer"]


class TestCheckerOnTheEventLoop:
    def test_checker_scans_every_simulated_cycle(self):
        """The oracle and the invariant checker run on the same loop as
        a bare run, skipped cycles included."""
        for case in PINNED["checker"]:
            trace = generate_trace(case["benchmark"],
                                   n_instructions=case["n"], seed=0)
            checker = ValidationChecker()
            stats = simulate(trace, _machine(case["preset"], case["ports"]),
                             checker=checker).stats
            assert stats_digest(stats) == case["digest"]
            assert checker.checked_cycles == stats.cycles \
                == case["checked_cycles"]
            assert checker.checked_loads == case["checked_loads"]


def test_memory_stage_asks_once_per_event(monkeypatch):
    """On a port-starved segmented machine the loop makes one access
    attempt per load, asks ``load_blocked`` about once per load, and
    steps fewer cycles than it simulates."""
    calls = {"load_blocked": 0, "try_execute_load": 0, "step": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(LoadStoreQueue, "load_blocked")
    counting(LoadStoreQueue, "try_execute_load")
    counting(Processor, "step")
    trace = generate_trace("mgrid", n_instructions=2000, seed=0)
    stats = simulate(trace, _machine("full", 1)).stats
    assert calls["try_execute_load"] <= 1.1 * stats.committed_loads
    assert calls["load_blocked"] <= 2 * stats.committed_loads
    assert stats.dcache_port_stalls > 5 * stats.committed_loads
    assert calls["step"] < stats.cycles


class TestWakeIndex:
    def _entry(self, seq):
        return [seq, None, 0, 0]

    def test_store_set_waits_count_until_the_store_executes(self):
        wake = WakeIndex()
        blocker = SimpleNamespace(seq=3)
        first, second = self._entry(5), self._entry(9)
        wake.park(first, "store_set", 10, blocker)
        assert wake.blocked(10) == 0        # charged by the refusal
        assert wake.blocked(11) == 1
        wake.park(second, "store_set", 11, blocker)
        assert wake.blocked(11) == 1
        assert wake.blocked(12) == 2
        assert wake.blocked(12, below_seq=7) == 1
        assert wake.store_executed(3) == [first, second]
        assert wake.blocked(12) == 0 and len(wake) == 0

    def test_nilp_wakes_only_the_loads_it_reached(self):
        wake = WakeIndex()
        entries = [self._entry(seq) for seq in (20, 8, 14)]
        for entry in entries:
            wake.park(entry, "in_order", 1)
        assert [e[0] for e in wake.nilp_moved(14)] == [8, 14]
        assert wake.nilp_waiting
        assert [e[0] for e in wake.nilp_moved(None)] == [20]

    def test_squash_drops_the_young_and_wakes_the_rest(self):
        wake = WakeIndex()
        old, young = self._entry(4), self._entry(40)
        wake.park(old, "membar", 2)
        wake.park(young, "store_store", 2)
        assert wake.squash_from(10) == [old]
        assert len(wake) == 0

    def test_unknown_reason_is_refused(self):
        with pytest.raises(ValueError):
            WakeIndex().park(self._entry(1), "load_buffer_full", 0)
