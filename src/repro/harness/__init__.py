"""Experiment harness: regenerate every table and figure of the paper.

:mod:`repro.harness.engine` provides the parallel, disk-cached sweep
engine; :mod:`repro.harness.experiment` the cached runner built on it;
:mod:`repro.harness.figures` defines one entry point per figure and
table of the evaluation (Section 4), each returning a structured result
with a ``format()`` text rendering that mirrors the paper's rows/series.
"""

from repro.harness.engine import (
    Cell,
    CellResult,
    ResultCache,
    SweepEngine,
    sweep_report,
)
from repro.harness.experiment import (
    ExperimentRunner,
    default_instructions,
    default_runner,
)
from repro.harness import figures

__all__ = [
    "Cell",
    "CellResult",
    "ExperimentRunner",
    "ResultCache",
    "SweepEngine",
    "default_instructions",
    "default_runner",
    "figures",
    "sweep_report",
]
