"""Per-event reference implementations: the parity oracle for ``repro``.

``src/`` holds one implementation of each computation, the array path.
This package holds the straightforward per-event and per-destination
loops those array paths replaced. The parity tests compare production
against these functions directly, and :func:`patched` installs them
in place of the production entry points, so a whole run can be
repeated on the reference path:

    python -m tests.reference run all --scale small

With ``repro compare -2 -1 --fail-on-diff`` against an ordinary run
into the same ledger, that is the suite-wide digest parity check.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Iterator

import repro.core.aggregate as _aggregate
import repro.core.evaluator as _evaluator
import repro.core.tradeoff as _tradeoff
import repro.engine.shm as _shm
from repro.core import ContentUpdateCostEvaluator, DeviceUpdateCostEvaluator
from repro.engine.registry import load_registry
from repro.forwarding import ConvergenceSimulator
from repro.routing import RoutingOracle, VantagePoint

from .aggregate import complete_forwarding_table, router_aggregateability
from .convergence import (
    deliver_under_faults,
    simulate_event,
    simulate_event_under_faults,
    update_arrival_times,
)
from .evaluator import (
    evaluate_content,
    evaluate_device,
    interdomain_displaced,
    per_day_update_rates,
    replay_timeline,
    union_table_sizes,
)
from .routing import compute_routes, next_hop_table, routes_to
from .tradeoff import evaluate_tradeoff, time_averaged_port_sets

__all__ = [
    "compute_routes",
    "routes_to",
    "next_hop_table",
    "update_arrival_times",
    "simulate_event",
    "deliver_under_faults",
    "simulate_event_under_faults",
    "interdomain_displaced",
    "evaluate_device",
    "evaluate_content",
    "replay_timeline",
    "per_day_update_rates",
    "union_table_sizes",
    "time_averaged_port_sets",
    "evaluate_tradeoff",
    "complete_forwarding_table",
    "router_aggregateability",
    "patched",
]


def _no_export(scale, cache=None):
    """Shared-memory export disabled: its next-hop LUT and route tables
    come from the array control plane, so pool workers must compute
    through the cache path instead."""
    return None


#: ``(class, method name, reference)`` for every replaced method.
_METHODS = (
    (RoutingOracle, "routes_to", routes_to),
    (VantagePoint, "next_hop_table", next_hop_table),
    (ConvergenceSimulator, "update_arrival_times", update_arrival_times),
    (ConvergenceSimulator, "simulate_event", simulate_event),
    (ConvergenceSimulator, "simulate_event_under_faults",
     simulate_event_under_faults),
    (DeviceUpdateCostEvaluator, "evaluate", evaluate_device),
    (ContentUpdateCostEvaluator, "evaluate", evaluate_content),
    (ContentUpdateCostEvaluator, "union_table_sizes", union_table_sizes),
)

#: ``(production function, reference)`` for every replaced function.
_FUNCTIONS = (
    (_evaluator.per_day_update_rates, per_day_update_rates),
    (_tradeoff.evaluate_tradeoff, evaluate_tradeoff),
    (_aggregate.router_aggregateability, router_aggregateability),
    (_shm.export_world, _no_export),
)


@contextlib.contextmanager
def patched() -> Iterator[None]:
    """Run the with-block on the reference implementations.

    Methods are replaced on their classes. A module-level function is
    replaced in every loaded ``repro`` module that imported it by name;
    the experiment registry is loaded first so no experiment module
    imports the production function later. Pool workers forked inside
    the block inherit the replacements.
    """
    load_registry()
    saved = []
    try:
        for owner, attr, reference in _METHODS:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, reference)
        for original, reference in _FUNCTIONS:
            for name, module in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, value))
                        setattr(module, key, reference)
        yield
    finally:
        while saved:
            owner, attr, value = saved.pop()
            setattr(owner, attr, value)
