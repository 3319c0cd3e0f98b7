"""Reference §3.3.3 cost triangle: the per-event port-set replay.

Production reads copies and table entries off the content-plane
kernel (:mod:`repro.core.contentplane`). These are the replays it
must reproduce exactly: each timeline walked event by event, with the
eligible port set recomputed per event through
:class:`~repro.core.ContentPortMapper`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core import (
    ContentPortMapper,
    ContentUpdateCostEvaluator,
    ForwardingStrategy,
)
from repro.core.tradeoff import StrategyCosts, TradeoffResult
from repro.measurement.vantage import ContentMeasurement
from repro.routing import RoutingOracle, VantagePoint

from .evaluator import evaluate_content

__all__ = ["time_averaged_port_sets", "evaluate_tradeoff"]


def time_averaged_port_sets(
    mapper: ContentPortMapper,
    measurement: ContentMeasurement,
    accumulate: bool,
) -> Dict[str, float]:
    """Average eligible-port-set size per name, weighted by residence time.

    With ``accumulate=True`` the port set is the running union (the
    union-flooding data plane); otherwise it is the instantaneous set.
    Returns {"copies": time-averaged copies, "entries": final entries}.
    """
    total_hours = 0.0
    weighted_copies = 0.0
    entries = 0
    for name in measurement.names():
        timeline = measurement.timeline(name)
        union_ports: set = set()
        prev_hour = 0
        current_ports = mapper.eligible_ports(timeline.set_at(0))
        union_ports |= current_ports
        events = timeline.events()
        for event in events + [None]:
            end_hour = timeline.total_hours if event is None else event.hour
            span = end_hour - prev_hour
            size = len(union_ports) if accumulate else len(current_ports)
            weighted_copies += span * size
            total_hours += span
            if event is None:
                break
            prev_hour = event.hour
            current_ports = mapper.eligible_ports(event.new_addrs)
            union_ports |= current_ports
        entries += len(union_ports) if accumulate else len(current_ports)
    return {
        "copies": weighted_copies / total_hours if total_hours else 0.0,
        "entries": float(entries),
    }


def evaluate_tradeoff(
    routers: List[VantagePoint],
    oracle: RoutingOracle,
    measurement: ContentMeasurement,
) -> TradeoffResult:
    """:func:`repro.core.evaluate_tradeoff` from the per-event replays."""
    evaluator = ContentUpdateCostEvaluator(routers, oracle)
    reports = {
        strategy: evaluate_content(evaluator, measurement, strategy)
        for strategy in ForwardingStrategy
    }
    costs: List[StrategyCosts] = []
    names = measurement.names()
    for router in routers:
        mapper = ContentPortMapper(router, oracle)
        flooding_stats = time_averaged_port_sets(
            mapper, measurement, accumulate=False
        )
        union_stats = time_averaged_port_sets(
            mapper, measurement, accumulate=True
        )
        per_strategy = {
            # No names, no packets: no copies either.
            ForwardingStrategy.BEST_PORT: (
                1.0 if names else 0.0, float(len(names))
            ),
            ForwardingStrategy.CONTROLLED_FLOODING: (
                flooding_stats["copies"],
                flooding_stats["entries"],
            ),
            ForwardingStrategy.UNION_FLOODING: (
                union_stats["copies"],
                union_stats["entries"],
            ),
        }
        for strategy, (copies, entries) in per_strategy.items():
            costs.append(
                StrategyCosts(
                    strategy=strategy,
                    router=router.name,
                    update_rate=reports[strategy].rates[router.name],
                    avg_copies_per_packet=copies,
                    table_entries=int(entries),
                )
            )
    return TradeoffResult(
        costs=costs,
        num_events=reports[ForwardingStrategy.BEST_PORT].num_events,
        num_names=len(names),
    )
