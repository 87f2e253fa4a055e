"""SIM-T: time taint — host-index data must not price the model.

The PR 5 hot-path overhaul split every queue into two faces: the
*model* face (program-order window, segment itineraries, port
calendars — what the paper's hardware sees and what SimStats charges
meter) and the *host* face (granule hash buckets, O(1) occupancy
mirrors, liveness counters — pure speed, architecturally invisible).
The golden-digest parity suite enforces the split dynamically; this
family enforces it statically by tainting every read of a host-only
index structure and tracking the taint through assignments, returns,
and calls (see :mod:`repro.analyze.dataflow.taint`):

``SIM-T001`` — a host-index-derived value reaches a
    :class:`SimStats` counter write (``stats.x += tainted``).

``SIM-T002`` — a host-index-derived value reaches a modeled charge:
    a port booking (``reserve``/``reserve_path``/``charge*`` argument)
    or a latency/cycle attribute write.

Host sources: ``_granules`` / ``candidate_lists()`` (the address-granule
candidate index), ``_order`` (the zero-copy program-order deque),
``_seg_seqs`` (per-segment bisection lists), ``_live`` / ``_occupied`` /
``live_loads`` (O(1) occupancy mirrors), the processor's ``_wake``
index of parked memory-stage entries and its ``_event_horizon()``
(the next cycle a stage can act, found by scanning host queues).

Blessing: accessors that *derive model-architectural answers* from host
indexes — the search itineraries ``backward_path``/``forward_path`` and
friends — are declared per module in ``SIM_LINT_MODEL_VIEWS`` and
return clean taint.  That registry is the machine-checkable form of
"charge the model": you may charge what the itinerary says, never what
the host shortcut saw.

``@hotpath`` functions run in strict mode: a call the analyzer cannot
resolve propagates taint instead of laundering it, because hot-path
code is exactly where host shortcuts concentrate.

Scope: findings are reported in ``core/``, ``pipeline/`` and
``memory/`` modules (taint still *propagates* through the whole
corpus, so a helper in ``harness/`` cannot launder a flow that ends in
``core/``).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.analyze.catalog import RULE_CATALOG
from repro.analyze.dataflow.callgraph import FunctionInfo, callee_name, \
    own_nodes
from repro.analyze.dataflow.taint import (SinkSite, TaintEngine, TaintHit,
                                          TaintSpec)
from repro.analyze.engine import Analysis
from repro.analyze.findings import Finding

#: Host-only index structures: reading one taints the value.
HOST_INDEX_ATTRS = {
    "_granules": "address-granule candidate index",
    "_order": "program-order host deque",
    "_seg_seqs": "per-segment bisection index",
    "_live": "O(1) live-slot counter",
    "_occupied": "O(1) occupied-segment counter",
    "live_loads": "O(1) live-load occupancy mirror",
    "_wake": "memory-stage wake index of parked entries",
}

#: Calls whose results are host-index views regardless of receiver.
HOST_INDEX_CALLS = {
    "candidate_lists": "granule-index candidate buckets",
    "_event_horizon": "quiet-cycle event horizon",
}

#: Port-charge calls: tainted arguments are SIM-T002.
PORT_CHARGE_CALLS = ("reserve", "reserve_path", "charge")

#: Attribute-write suffixes treated as modeled latencies.
LATENCY_SUFFIXES = ("_cycle", "_cycles", "_latency")
LATENCY_ATTRS = {"latency"}

SPEC = TaintSpec(source_attrs=HOST_INDEX_ATTRS,
                 source_calls=HOST_INDEX_CALLS)


def _stats_counter_of(target: ast.AST) -> Optional[str]:
    """``stats.x`` / ``<anything>.stats.x`` -> ``"x"``."""
    if not isinstance(target, ast.Attribute):
        return None
    base = target.value
    if isinstance(base, ast.Attribute) and base.attr == "stats":
        return target.attr
    if isinstance(base, ast.Name) and base.id == "stats":
        return target.attr
    return None


def _latency_attr_of(target: ast.AST) -> Optional[str]:
    if not isinstance(target, ast.Attribute):
        return None
    name = target.attr
    if name in LATENCY_ATTRS or name.endswith(LATENCY_SUFFIXES):
        return name
    return None


def _sink_sites(info: FunctionInfo) -> List[SinkSite]:
    """Stats-counter writes, latency writes, port charges in ``info``."""
    sites: List[SinkSite] = []
    for node in own_nodes(info.node):
        targets: List[Tuple[ast.AST, ast.AST]] = []
        if isinstance(node, ast.AugAssign):
            targets = [(node.target, node.value)]
        elif isinstance(node, ast.Assign):
            targets = [(target, node.value) for target in node.targets]
        for target, value in targets:
            counter = _stats_counter_of(target)
            if counter is not None:
                sites.append(SinkSite(
                    node=node, exprs=(value,),
                    descr=f"SimStats counter '{counter}'",
                    rule="SIM-T001"))
                continue
            latency = _latency_attr_of(target)
            if latency is not None:
                sites.append(SinkSite(
                    node=node, exprs=(value,),
                    descr=f"modeled latency attribute '{latency}'",
                    rule="SIM-T002"))
        if isinstance(node, ast.Call):
            name = callee_name(node)
            if name is not None and (name in PORT_CHARGE_CALLS
                                     or name.startswith("charge_")):
                exprs = tuple(node.args) + tuple(
                    keyword.value for keyword in node.keywords)
                if exprs:
                    sites.append(SinkSite(
                        node=node, exprs=exprs,
                        descr=f"port charge '{name}()'",
                        rule="SIM-T002"))
    return sites


def _format_hit(hit: TaintHit) -> str:
    tag = hit.tags[0]
    origin = f"host index '{tag.what}' read at {tag.path}:{tag.line}"
    if tag.via:
        origin += " via " + " -> ".join(f"{hop.split(':')[-1]}()"
                                        for hop in reversed(tag.via))
    text = f"value derived from {origin} flows into {hit.descr}"
    if hit.via_call is not None:
        text += f" inside {hit.via_call}()"
    extra = len(hit.tags) - 1
    if extra > 0:
        text += f" (+{extra} more host read{'s' if extra > 1 else ''})"
    return text


def check(analysis: Analysis) -> List[Finding]:
    graph = analysis.callgraph()
    engine = TaintEngine(graph, SPEC, _sink_sites,
                         modules=analysis.modules)
    engine.solve()
    findings: List[Finding] = []
    for hit in engine.collect_hits():
        if not hit.module.in_scope("core", "pipeline", "memory"):
            continue
        findings.append(Finding(
            rule=hit.rule, path=hit.module.path,
            line=getattr(hit.node, "lineno", 1),
            column=getattr(hit.node, "col_offset", 0),
            message=_format_hit(hit),
            fixit=RULE_CATALOG[hit.rule].fixit))
    return findings
