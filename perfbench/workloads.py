"""What each workload runs: its cells, its pass size and its serve schedule.

Every simulator cell is built from the public preset functions of
``repro.config`` and run through ``repro.harness``.  Cells never name an
engine, so they always run on the default one.

Two kinds of seed are kept apart on purpose:

* ``--seed`` (any integer) drives the benchmark's own choices: the order
  of cells inside each pass, and for ``serve-mixed`` the arrival times,
  the class of every job and which new cells it asks for.  Simulator
  workloads therefore do identical work under every ``--seed``.
* the *data seed* (``0`` = default, ``1`` = held out) sets the trace
  seeds of the simulated cells.  The expected-output table holds both,
  so a claim can be re-checked on inputs nobody tuned against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.config import (MachineConfig, base_machine, conventional_lsq,
                          full_techniques_lsq)
from repro.harness import Cell

#: The data seeds the expected table covers: the default and a held-out one.
DATA_SEEDS = (0, 1)
DEFAULT_DATA_SEED = 0

#: Committed instructions of every simulator-workload cell.
SIM_INSTRUCTIONS = 4000

#: Label -> (serve preset name, LSQ preset).  Labels match ``repro bench``
#: and the job server, which pair 2-ported conventional with 1-ported
#: full-technique queues.
PRESETS = {
    "conventional-2p": ("conventional", lambda: conventional_lsq(ports=2)),
    "full-1p": ("full", lambda: full_techniques_lsq(ports=1)),
}


def machine(label: str) -> MachineConfig:
    return replace(base_machine(), lsq=PRESETS[label][1]())


@dataclass(frozen=True)
class SimWorkload:
    """A closed loop over fixed passes of ``cells`` in one process."""

    name: str
    cells: Tuple[Tuple[str, str], ...]
    validate: bool
    #: Host seconds one pass took on the reference 2-core host.  It only
    #: converts ``--seconds`` into a whole number of passes, so a run's
    #: work never depends on how fast the host happens to be.
    pass_s: float

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))

    def build_cells(self, data_seed: int) -> List[Cell]:
        return [Cell(benchmark=bench, machine=machine(label),
                     seed=data_seed, n_instructions=SIM_INSTRUCTIONS,
                     validate=self.validate, label=label)
                for bench, label in self.cells]


SIM_WORKLOADS: Dict[str, SimWorkload] = {
    workload.name: workload for workload in (
        # The cycle loop re-polls blocked loads 6-12 times per load: core
        # and pipeline dominate, so parking blocked loads shows here.
        SimWorkload(
            "lsq-dense",
            (("mgrid", "full-1p"), ("wupwise", "full-1p"),
             ("sixtrack", "conventional-2p"), ("perl", "conventional-2p")),
            validate=False, pass_s=0.75),
        # Low IPC, quiet cycles, heavy trace generation, 1.1-1.6 attempts
        # per load: the control that load parking should not move.
        SimWorkload(
            "mem-bound",
            (("mcf", "full-1p"), ("art", "conventional-2p"),
             ("swim", "full-1p")),
            validate=False, pass_s=1.3),
        # Validated cells from both sets: the oracle and invariant checker
        # dominate, so a slowed or bypassed oracle path shows here.
        SimWorkload(
            "checked",
            (("mgrid", "full-1p"), ("perl", "conventional-2p"),
             ("art", "conventional-2p"), ("swim", "full-1p")),
            validate=True, pass_s=1.9),
    )
}


def sim_key(cell: Cell) -> str:
    return f"{cell.benchmark}/{cell.label}/s{cell.seed}/n{cell.n_instructions}"


# -- serve-mixed ---------------------------------------------------------

SERVE_WORKLOAD = "serve-mixed"

#: Committed instructions of every cell the serve schedule can request:
#: about 50 ms of worker time each, long enough for a repeat to join the
#: computation while it is still in flight.
SERVE_INSTRUCTIONS = 1500
#: Hot cells are warmed before the timed window; hit jobs ask only for them.
HOT_BENCHMARKS = ("gzip", "mgrid", "perl", "swim")
#: New cells come from these benchmarks, whose trace generation is cheap.
NEW_BENCHMARKS = ("gzip", "mgrid", "perl", "swim", "art", "twolf", "vpr",
                  "equake")
#: Trace seeds per new-cell benchmark and preset (the universe holds
#: 8 x 2 x 24 = 384 cells, enough for a 60 s run without reuse).  A run
#: takes the same first ones of each pair under every seed.
NEW_SEEDS_PER_CELL = 24
#: Arrival rates (jobs/s): hits, and leaders of new cells.  A third of
#: the leaders get a repeat a few ms later, which joins the in-flight
#: computation.  At these rates the worker is busy about 30% of the
#: time, so a 2x host slowdown still leaves it idle a third of the time
#: and no backlog builds.
HIT_RATE = 16.8
LEADER_RATE = 5.4
REPEAT_EVERY = 3
REPEAT_DELAY_S = (0.002, 0.010)
#: The latency limits a job must meet to count towards goodput.
HIT_LIMIT_MS = 50.0
SIM_LIMIT_MS = 1000.0


@dataclass(frozen=True)
class ServeCell:
    benchmark: str
    preset: str          # serve preset name ("conventional" / "full")
    label: str
    seed: int

    @property
    def key(self) -> str:
        return f"{self.benchmark}/{self.label}/s{self.seed}/" \
               f"n{SERVE_INSTRUCTIONS}"

    def spec(self) -> Dict[str, object]:
        return {"benchmarks": [self.benchmark], "presets": [self.preset],
                "seeds": [self.seed], "n_instructions": SERVE_INSTRUCTIONS}


def _serve_seed_base(data_seed: int) -> int:
    return 1000 * (data_seed + 1)


def hot_cells(data_seed: int) -> List[ServeCell]:
    base = _serve_seed_base(data_seed)
    return [ServeCell(bench, PRESETS[label][0], label, base)
            for bench in HOT_BENCHMARKS for label in PRESETS]


def new_cells(data_seed: int) -> List[ServeCell]:
    base = _serve_seed_base(data_seed)
    return [ServeCell(bench, PRESETS[label][0], label, base + offset)
            for bench in NEW_BENCHMARKS for label in PRESETS
            for offset in range(1, NEW_SEEDS_PER_CELL + 1)]


def serve_universe(data_seed: int) -> List[ServeCell]:
    """Every cell the serve workload can request for ``data_seed``."""
    return hot_cells(data_seed) + new_cells(data_seed)


@dataclass(frozen=True)
class ScheduledJob:
    due_s: float         # seconds after the window opens
    klass: str           # "hit" or "sim", fixed here, never by the server
    cell: ServeCell


def serve_schedule(seed: int, seconds: float,
                   data_seed: int) -> List[ScheduledJob]:
    """The seeded open-loop schedule: a fixed number of jobs per class.

    Hits and leaders arrive as one Poisson stream whose class sequence
    is a shuffled fixed multiset; repeats follow their leader by a few
    milliseconds.
    """
    rng = random.Random(seed)
    n_hit = max(1, round(HIT_RATE * seconds))
    # Every benchmark/preset pair gets the same new cells under every
    # seed, so the pool computes the same cells; the seed sets only
    # their order and arrival times.
    pairs = len(NEW_BENCHMARKS) * len(PRESETS)
    per_pair = max(1, round(LEADER_RATE * seconds / pairs))
    if per_pair > NEW_SEEDS_PER_CELL:
        raise ValueError(f"{per_pair} new cells per benchmark and preset "
                         f"needed, the universe has {NEW_SEEDS_PER_CELL}; "
                         "run for fewer seconds")
    universe = new_cells(data_seed)
    fresh = []
    for start in range(0, len(universe), NEW_SEEDS_PER_CELL):
        fresh.extend(universe[start:start + per_pair])
    rng.shuffle(fresh)
    n_lead = len(fresh)
    hot = hot_cells(data_seed)
    classes = ["hit"] * n_hit + ["sim"] * n_lead
    rng.shuffle(classes)
    rate = len(classes) / seconds
    jobs: List[ScheduledJob] = []
    due = 0.0
    leaders = 0
    for klass in classes:
        due += rng.expovariate(rate)
        if klass == "hit":
            jobs.append(ScheduledJob(due, "hit", rng.choice(hot)))
            continue
        cell = fresh[leaders]
        leaders += 1
        jobs.append(ScheduledJob(due, "sim", cell))
        if leaders % REPEAT_EVERY == 0:
            jobs.append(ScheduledJob(due + rng.uniform(*REPEAT_DELAY_S),
                                     "sim", cell))
    jobs.sort(key=lambda job: job.due_s)
    return jobs


WORKLOAD_NAMES = tuple(SIM_WORKLOADS) + (SERVE_WORKLOAD,)
