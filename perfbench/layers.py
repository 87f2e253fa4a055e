"""Per-layer tracing of the simulator from outside.

:class:`LayerTracer` replaces public entry points of the ``repro``
layers with timing or counting wrappers while it is active, and puts
every original back when it exits.  Nothing inside ``repro`` changes.

* *Timed* entry points keep a stack, so each layer's self time is its
  duration minus the time of its directly nested timed calls.
* A few coarse ones (a cell, trace generation, the warm-ups, the cycle
  loop) also record a span: name, start, end, parent, cell.  Spans stay
  in memory and are written once, as a Chrome trace, at the end.
* *Counted* entry points only count calls; they are on paths too hot to
  time without distorting what is measured.

An entry point that no longer exists (for example ``Processor.step``
once the cycle loop stops stepping every cycle) is reported on stderr
in one line and its metric reads 0.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Timed LoadStoreQueue methods; their summed self time is ``core.lsq_s``.
LSQ_METHODS = ("begin_cycle", "sample", "can_allocate", "allocate",
               "load_blocked", "store_blocked", "on_membar_dispatch",
               "try_execute_membar", "poll_invalidation",
               "try_execute_load", "try_execute_store", "try_commit_store",
               "commit_load", "maybe_clear_predictor", "squash_from")
#: ValidationChecker callbacks; together they are ``validate.hook_s``.
CHECKER_HOOKS = ("attach", "on_dispatch", "on_load_executed", "on_commit",
                 "on_squash", "end_cycle")

Span = Tuple[str, float, float, int, Optional[str]]


class LayerTracer:
    """Context manager that wraps the layers' entry points."""

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Finished spans: (name, start, end, parent index or -1, cell).
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._child = [0.0]          # nested-time accumulator per frame
        self._open: List[int] = []   # indices of open spans
        self._cell: Optional[str] = None
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installing ------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        import repro
        from repro.core.lsq import LoadStoreQueue
        from repro.harness import ResultCache, SweepEngine
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.pipeline import Processor
        from repro.validate import ValidationChecker
        from repro.workload import generate_trace

        try:
            self._wrap_class(SweepEngine, "run_cells", span=True,
                             cell_of=_cell_label)
            self._wrap_class(ResultCache, "load")
            self._wrap_class(ResultCache, "store")
            self._wrap_function(generate_trace, "generate_trace", span=True)
            self._wrap_function(repro.simulate, "simulate", span=True)
            self._wrap_class(Processor, "run", span=True)
            self._wrap_class(Processor, "warm_caches", span=True)
            self._wrap_class(Processor, "warm_predictor", span=True)
            self._count_class(Processor, "step")
            self._count_class(MemoryHierarchy, "data_access")
            for name in LSQ_METHODS:
                self._wrap_class(LoadStoreQueue, name)
            for name in CHECKER_HOOKS:
                self._wrap_class(ValidationChecker, name)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every wrapped entry point back, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped entry point holds its original."""
        return all(vars(owner).get(attr) is original
                   for owner, attr, original in self._patches)

    def _missing(self, what: str) -> None:
        self.missing.append(what)
        print(f"perfbench: {what} not found; its metrics read 0",
              file=sys.stderr)

    def _wrap_class(self, cls: type, attr: str, span: bool = False,
                    cell_of: Optional[Callable[..., Optional[str]]] = None,
                    ) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self._missing(f"{cls.__name__}.{attr}")
            return
        name = f"{cls.__name__}.{attr}"
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._timed(name, original, span, cell_of))

    def _count_class(self, cls: type, attr: str) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self._missing(f"{cls.__name__}.{attr}")
            return
        name = f"{cls.__name__}.{attr}"
        calls = self.calls

        def counted(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            return original(*args, **kwargs)

        self._patches.append((cls, attr, original))
        setattr(cls, attr, counted)

    def _wrap_function(self, original: Callable[..., Any], name: str,
                       span: bool = False) -> None:
        """Rebind a module-level function in every ``repro`` module that
        imported it by name."""
        wrapper = self._timed(name, original, span, None)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _timed(self, name: str, original: Callable[..., Any], span: bool,
               cell_of: Optional[Callable[..., Optional[str]]],
               ) -> Callable[..., Any]:
        clock = time.perf_counter
        child = self._child
        inclusive = self.inclusive
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        opened = self._open

        def timed(*args: Any, **kwargs: Any) -> Any:
            if span:
                if cell_of is not None:
                    self._cell = cell_of(*args, **kwargs)
                parent = opened[-1] if opened else -1
                opened.append(len(spans))
                spans.append((name, 0.0, 0.0, parent, self._cell))
            child.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                nested = child.pop()
                elapsed = end - start
                inclusive[name] += elapsed
                self_s[name] += elapsed - nested
                calls[name] += 1
                child[-1] += elapsed
                if span:
                    index = opened.pop()
                    record = spans[index]
                    spans[index] = (name, start, end, record[3], record[4])

        return timed

    # -- reading ---------------------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as a Chrome trace (one row; nesting by time)."""
        events: List[Dict[str, object]] = [
            {"name": "process_name", "ph": "M", "pid": 0, "ts": 0,
             "args": {"name": "perfbench traced run"}}]
        origin = min((record[1] for record in self.spans), default=0.0)
        for index, (name, start, end, parent, cell) in \
                enumerate(self.spans):
            events.append({
                "name": name, "ph": "X", "pid": 0, "tid": 0,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"span": index, "parent": parent, "cell": cell}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


def _cell_label(engine: Any, cells: Any, *args: Any,
                **kwargs: Any) -> Optional[str]:
    """The cell a ``run_cells`` span is filed under (the benchmark runs
    one cell per call)."""
    if not cells:
        return None
    cell = cells[0]
    return f"{cell.benchmark}/{cell.label}"


def sim_layer_metrics(tracer: LayerTracer, cycles: int, loads: int,
                      stores: int) -> Dict[str, float]:
    """Per-layer metrics of a traced simulator run.

    ``cycles``, ``loads`` and ``stores`` are the simulated totals
    (committed loads and stores) over every traced cell.
    """
    inc = tracer.inclusive
    calls = tracer.calls
    cell_s = inc["SweepEngine.run_cells"]
    gen_s = inc["generate_trace"]
    warm_s = inc["Processor.warm_caches"]
    predictor_s = inc["Processor.warm_predictor"]
    loop_s = inc["Processor.run"] - warm_s - predictor_s
    lsq_s = sum(tracer.self_s[f"LoadStoreQueue.{name}"]
                for name in LSQ_METHODS)
    hook_s = sum(inc[f"ValidationChecker.{name}"] for name in CHECKER_HOOKS)
    hook_calls = sum(calls[f"ValidationChecker.{name}"]
                     for name in CHECKER_HOOKS)
    attempts = calls["LoadStoreQueue.try_execute_load"]
    return {
        "workload.gen_s": gen_s,
        "workload.gen_share": _ratio(gen_s, cell_s),
        "memory.warm_s": warm_s,
        "memory.data_access_calls": calls["MemoryHierarchy.data_access"],
        "core.predictor_warm_s": predictor_s,
        "core.load_attempts": attempts,
        "core.load_attempts_per_load": _ratio(attempts, loads),
        "core.blocked_polls": calls["LoadStoreQueue.load_blocked"],
        "core.store_commit_attempts_per_store": _ratio(
            calls["LoadStoreQueue.try_commit_store"], stores),
        "core.lsq_s": lsq_s,
        "pipeline.cycles": cycles,
        "pipeline.steps_per_cycle": _ratio(calls["Processor.step"], cycles),
        "pipeline.loop_self_s": tracer.self_s["Processor.run"],
        "pipeline.host_us_per_cycle": _ratio(loop_s * 1e6, cycles),
        "validate.hook_s": hook_s,
        "validate.hook_calls": hook_calls,
        "harness.cache_store_s": inc["ResultCache.store"],
        "harness.cache_load_s": inc["ResultCache.load"],
        "harness.cell_overhead_s": tracer.self_s["SweepEngine.run_cells"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
