"""An in-memory span tracer and the table of layer entry points it wraps.

The benchmark measures each layer from outside the program: it
replaces layer entry points (functions and methods of ``repro``) with
wrappers that record into a :class:`Tracer`. Nothing under ``src/``
changes, and nothing is wrapped unless a traced run asks for it.

Three wrapper kinds trade detail for cost:

* ``SPAN`` — coarse entry points (an evaluator pass, a workload
  generation). Each call records ``[name, start, end, parent,
  covered]``; ``covered`` is the time the call's direct children spent,
  so self time is ``end - start - covered``.
* ``HOT`` — boundaries called millions of times (prefix lookup). Only a
  per-name call count and inclusive time are aggregated.
* ``COUNT`` — a per-name call count, no clock reads.

Per-address functions such as ``ContentPortMapper.best_route_for_address``
(~18M calls per content run) are deliberately not wrapped: the wrapper
would cost more than the call.

Coverage is attributed once, by the outermost instrumented frame: a
``HOT`` call or span adds its duration to the enclosing span only when
no other ``HOT`` call is already open around it.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

SPAN = "span"
HOT = "hot"
COUNT = "count"

#: Span record fields.
NAME, START, END, PARENT, COVERED = range(5)

#: ``(metric stem, module, attribute path, kind)``. Several entry points
#: may share one stem; their calls and times are summed.
LAYER_HOOKS: Tuple[Tuple[str, str, str, str], ...] = (
    ("topology.covering_prefix", "repro.topology.aslevel",
     "ASTopology.covering_prefix", HOT),
    ("topology.shortest_as_hops", "repro.topology.aslevel",
     "ASTopology.shortest_as_hops", HOT),
    ("mobility.generate_workload", "repro.mobility.synth",
     "generate_workload", SPAN),
    ("mobility.as_columns", "repro.mobility.synth",
     "MobilityWorkload.as_columns", SPAN),
    ("mobility.multihomed_timeline", "repro.mobility.multihoming",
     "build_multihomed_timeline", HOT),
    ("routing.routes_to", "repro.routing.bgp",
     "RoutingOracle.routes_to", COUNT),
    ("routing.candidate_routes", "repro.routing.bgp",
     "VantagePoint.candidate_routes", HOT),
    ("routing.routes_to_many", "repro.routing.bgp",
     "RoutingOracle.routes_to_many", SPAN),
    ("routing.next_hop_table", "repro.routing.bgp",
     "VantagePoint.next_hop_table", SPAN),
    ("forwarding.simulate_event", "repro.forwarding.convergence",
     "ConvergenceSimulator.simulate_event", HOT),
    ("forwarding.simulate_event", "repro.forwarding.convergence",
     "ConvergenceSimulator.simulate_event_under_faults", HOT),
    ("forwarding.expected_outage", "repro.forwarding.convergence",
     "ConvergenceSimulator.expected_outage", SPAN),
    ("forwarding.expected_outage", "repro.forwarding.convergence",
     "ConvergenceSimulator.expected_outage_under_faults", SPAN),
    ("core.evaluator.content", "repro.core.evaluator",
     "ContentUpdateCostEvaluator.evaluate", SPAN),
    ("core.evaluator.union_sizes", "repro.core.evaluator",
     "ContentUpdateCostEvaluator.union_table_sizes", SPAN),
    ("core.evaluator.device", "repro.core.evaluator",
     "DeviceUpdateCostEvaluator.evaluate", SPAN),
    ("core.evaluator.fault_tolerance", "repro.core.evaluator",
     "FaultToleranceEvaluator.evaluate_indirection", SPAN),
    ("core.evaluator.fault_tolerance", "repro.core.evaluator",
     "FaultToleranceEvaluator.evaluate_resolution", SPAN),
    ("core.evaluator.fault_tolerance", "repro.core.evaluator",
     "FaultToleranceEvaluator.evaluate_name_based", SPAN),
    ("core.tradeoff", "repro.core.tradeoff", "evaluate_tradeoff", SPAN),
    ("core.strategies.routes_for_addresses", "repro.core.strategies",
     "ContentPortMapper.routes_for_addresses", COUNT),
    ("core.strategies.eligible_ports", "repro.core.strategies",
     "ContentPortMapper.eligible_ports", COUNT),
    ("core.strategies.update_for_event", "repro.core.strategies",
     "ContentPortMapper.update_for_event", HOT),
    ("core.displacement.port_for_address", "repro.core.displacement",
     "InterdomainPortMap.port_for_address", HOT),
    ("measurement.matrix", "repro.measurement.vantage",
     "ContentMeasurement.matrix", HOT),
)

#: Parent-side engine entry points, the only hooks a pooled run installs
#: (workers are forked from the parent; wrapping layers there would slow
#: them without bringing their numbers back).
ENGINE_HOOKS: Tuple[Tuple[str, str, str, str], ...] = (
    ("engine.shm.export", "repro.engine.shm", "export_world", SPAN),
)

#: Return-value tallies: stem -> function of the wrapped call's result.
TALLIES: Dict[str, Callable[[Any], float]] = {
    "core.evaluator.content": lambda report: report.num_events,
    "core.evaluator.device": lambda report: report.num_events,
    # Shared-memory segment size in MiB (None: the export was skipped).
    "engine.shm.export": lambda manifest: (
        sum(b["nbytes"] for b in manifest.buffers) / 2.0 ** 20
        if manifest is not None else 0.0
    ),
}


class Tracer:
    """Spans and hot-boundary aggregates, kept in memory for one run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.stack: List[int] = []
        #: stem -> [calls, inclusive seconds]
        self.hot: Dict[str, list] = {}
        #: stem -> summed tally of return values
        self.tallies: Dict[str, float] = {}
        #: Open HOT calls; a list so wrappers can share it by reference.
        self._hot_depth = [0]
        self._installed: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Drop everything recorded so far (wrappers stay installed)."""
        self.spans.clear()
        self.stack.clear()
        for stat in self.hot.values():
            stat[0], stat[1] = 0, 0.0
        for stem in self.tallies:
            self.tallies[stem] = 0.0

    # -- wrappers -----------------------------------------------------

    def span(self, stem: str, fn: Callable,
             tally: Optional[Callable[[Any], float]] = None) -> Callable:
        spans, stack, depth, clock = (
            self.spans, self.stack, self._hot_depth, self.clock
        )
        if tally is not None:
            self.tallies.setdefault(stem, 0.0)
        tallies = self.tallies

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            record = [stem, clock(), 0.0, parent, 0.0]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = end = clock()
                stack.pop()
                if parent >= 0 and not depth[0]:
                    spans[parent][COVERED] += end - record[START]
            if tally is not None:
                tallies[stem] += tally(result)
            return result

        return wrapper

    def hot_timer(self, stem: str, fn: Callable) -> Callable:
        stat = self.hot.setdefault(stem, [0, 0.0])
        spans, stack, depth, clock = (
            self.spans, self.stack, self._hot_depth, self.clock
        )

        def wrapper(*args, **kwargs):
            outer = not depth[0]
            depth[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[0] -= 1
                stat[0] += 1
                stat[1] += elapsed
                if outer and stack:
                    spans[stack[-1]][COVERED] += elapsed

        return wrapper

    def counter(self, stem: str, fn: Callable) -> Callable:
        stat = self.hot.setdefault(stem, [0, 0.0])

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, stem: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a span named ``stem``."""
        return self.span(stem, fn)(*args, **kwargs)

    # -- installation ----------------------------------------------------

    def install(self, hooks) -> None:
        """Wrap every hook's entry point in place.

        A module-level function is replaced in every loaded ``repro``
        module that imported it by name; a method is replaced on its
        class. Install before the ``World`` is built so that no object
        holds a reference to an unwrapped entry point.
        """
        for stem, module_name, path, kind in hooks:
            module = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if kind == SPAN:
                wrapped = self.span(stem, original, TALLIES.get(stem))
            elif kind == HOT:
                wrapped = self.hot_timer(stem, original)
            else:
                wrapped = self.counter(stem, original)
            if owner_path:
                self._replace(owner, attr, wrapped)
                continue
            for name, loaded in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, key, wrapped)

    def _replace(self, owner: Any, attr: str, wrapped: Callable) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every entry point :meth:`install` replaced."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------

    def span_times(self) -> Dict[str, Dict[str, float]]:
        """Per stem: call count, inclusive seconds and self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for record in self.spans:
            row = out.setdefault(
                record[NAME], {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
            )
            duration = record[END] - record[START]
            row["calls"] += 1
            row["inclusive_s"] += duration
            row["self_s"] += duration - record[COVERED]
        return out

    def covered_below(self, stem_prefix: str) -> float:
        """Time that layer spans and hot calls cover directly under the
        root spans whose stem starts with ``stem_prefix``."""
        return sum(
            record[COVERED] for record in self.spans
            if record[PARENT] < 0 and record[NAME].startswith(stem_prefix)
        )
