"""Reference data plane: the per-event update-cost loops (§3.2, §3.3).

Production evaluators reduce columnar event tables and ``Addrs(d, t)``
membership matrices with numpy. These are the per-event loops whose
counts they must reproduce exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro import obs
from repro.core import (
    ContentPortMapper,
    ContentUpdateCostEvaluator,
    DeviceUpdateCostEvaluator,
    ForwardingStrategy,
    InterdomainPortMap,
    UnionFloodingState,
    UpdateRateReport,
)
from repro.measurement.vantage import ContentMeasurement
from repro.mobility import MobilityEvent
from repro.routing import rank_key

__all__ = [
    "interdomain_displaced",
    "evaluate_device",
    "evaluate_content",
    "content_mappers",
    "union_table_sizes",
    "replay_timeline",
    "per_day_update_rates",
]


def interdomain_displaced(
    port_map: InterdomainPortMap, event: MobilityEvent
) -> bool:
    """§3.2/§6.2.2: does the mobility event change the router's best
    forwarding port for the moving device?

    Uses the next hop of the highest-ranked RIB route as the output
    port, "implicitly assuming that the forwarding output port changes
    if and only if the next hop attribute changes".
    """
    old_port = port_map.port_for_address(event.old.ip)
    new_port = port_map.port_for_address(event.new.ip)
    if old_port is None or new_port is None:
        return False
    return old_port != new_port


def evaluate_device(
    evaluator: DeviceUpdateCostEvaluator, events: Iterable[MobilityEvent]
) -> UpdateRateReport:
    """:meth:`DeviceUpdateCostEvaluator.evaluate`, one event at a time."""
    updates = {pm.vantage.name: 0 for pm in evaluator._port_maps}
    count = 0
    for event in events:
        count += 1
        for pm in evaluator._port_maps:
            if interdomain_displaced(pm, event):
                updates[pm.vantage.name] += 1
    obs.incr("evaluator.scalar.device.events", count)
    rates = {
        name: (n / count if count else 0.0) for name, n in updates.items()
    }
    return UpdateRateReport(rates=rates, num_events=count, updates=updates)


def evaluate_content(
    evaluator: ContentUpdateCostEvaluator,
    measurement: ContentMeasurement,
    strategy: ForwardingStrategy,
) -> UpdateRateReport:
    """:meth:`ContentUpdateCostEvaluator.evaluate` as an incremental replay.

    Each timeline's port profile is maintained as a counter and only
    the addresses an event actually added or removed are re-projected.
    """
    mappers = content_mappers(evaluator)
    updates = {m.vantage.name: 0 for m in mappers}
    union_states: Dict[str, UnionFloodingState] = {
        m.vantage.name: UnionFloodingState() for m in mappers
    }
    count = 0
    for name in measurement.names():
        timeline = measurement.timeline(name)
        events = timeline.events()
        count += len(events)
        for mapper in mappers:
            router = mapper.vantage.name
            if strategy is ForwardingStrategy.UNION_FLOODING:
                # Seed the union with the initial address set so
                # only genuinely new locations count as updates.
                union_states[router].observe(
                    mapper, name, timeline.set_at(0)
                )
                for event in events:
                    if union_states[router].observe(
                        mapper, name, event.new_addrs
                    ):
                        updates[router] += 1
                continue
            updates[router] += replay_timeline(
                mapper, timeline, events, strategy
            )
    obs.incr("evaluator.scalar.content.events", count)
    rates = {
        name: (n / count if count else 0.0) for name, n in updates.items()
    }
    return UpdateRateReport(rates=rates, num_events=count, updates=updates)


def content_mappers(evaluator: ContentUpdateCostEvaluator):
    """One fresh per-address mapper per router of ``evaluator``."""
    return [
        ContentPortMapper(router, evaluator._oracle)
        for router in evaluator._routers
    ]


def union_table_sizes(
    evaluator: ContentUpdateCostEvaluator, measurement: ContentMeasurement
) -> Dict[str, int]:
    """:meth:`ContentUpdateCostEvaluator.union_table_sizes` as an event
    replay through :class:`UnionFloodingState`."""
    sizes = {}
    for mapper in content_mappers(evaluator):
        state = UnionFloodingState()
        for name in measurement.names():
            timeline = measurement.timeline(name)
            state.observe(mapper, name, timeline.set_at(0))
            for event in timeline.events():
                state.observe(mapper, name, event.new_addrs)
        sizes[mapper.vantage.name] = state.table_size()
    return sizes


def replay_timeline(
    mapper: ContentPortMapper,
    timeline,
    events,
    strategy: ForwardingStrategy,
) -> int:
    """Count best-port / flooding updates along one timeline."""

    def recompute_best(addrs):
        winner = None
        for addr in addrs:
            route = mapper.best_route_for_address(addr)
            if route is None:
                continue
            if winner is None or rank_key(route) < rank_key(winner):
                winner = route
        return winner

    port_counts: Dict[int, int] = {}
    for addr in timeline.set_at(0):
        route = mapper.best_route_for_address(addr)
        if route is None:
            continue
        port_counts[route.next_hop] = port_counts.get(route.next_hop, 0) + 1
    best = recompute_best(timeline.set_at(0))

    changed_count = 0
    for event in events:
        prev_best_port = None if best is None else best.next_hop
        prev_ports = frozenset(port_counts)
        best_removed = False
        for addr in event.removed():
            route = mapper.best_route_for_address(addr)
            if route is None:
                continue
            remaining = port_counts[route.next_hop] - 1
            if remaining:
                port_counts[route.next_hop] = remaining
            else:
                del port_counts[route.next_hop]
            if best is not None and route == best:
                best_removed = True
        for addr in event.added():
            route = mapper.best_route_for_address(addr)
            if route is None:
                continue
            port_counts[route.next_hop] = (
                port_counts.get(route.next_hop, 0) + 1
            )
            if not best_removed and (
                best is None or rank_key(route) < rank_key(best)
            ):
                best = route
        if best_removed:
            best = recompute_best(event.new_addrs)
        if strategy is ForwardingStrategy.BEST_PORT:
            new_best_port = None if best is None else best.next_hop
            if new_best_port != prev_best_port:
                changed_count += 1
        elif frozenset(port_counts) != prev_ports:
            changed_count += 1
    return changed_count


def per_day_update_rates(
    evaluator: DeviceUpdateCostEvaluator,
    events: Iterable[MobilityEvent],
) -> Dict[str, List[float]]:
    """§6.2.2 sensitivity to time: group by day, then evaluate each day."""
    by_day: Dict[int, List[MobilityEvent]] = {}
    for event in events:
        by_day.setdefault(event.day, []).append(event)
    series: Dict[str, List[float]] = {}
    for day in sorted(by_day):
        report = evaluate_device(evaluator, by_day[day])
        for router, rate in report.rates.items():
            series.setdefault(router, []).append(rate)
    return series
