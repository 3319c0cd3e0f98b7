"""Reference convergence simulation: BFS arrivals and per-probe walks.

Production :class:`~repro.forwarding.ConvergenceSimulator` floods with
a matrix BFS and resolves every (probe instant, source) cell with one
reachability fixpoint. These are the dict flood and the packet walks
it must reproduce float for float.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.faults import LINK, ROUTER, FaultSchedule, MessageLossModel, RetryPolicy
from repro.forwarding import ConvergenceSimulator
from repro.forwarding.convergence import (
    DEFAULT_RETRANSMIT,
    FaultyMobilityOutage,
    MobilityOutage,
    Node,
)

__all__ = [
    "update_arrival_times",
    "simulate_event",
    "deliver_under_faults",
    "simulate_event_under_faults",
]


def update_arrival_times(
    sim: ConvergenceSimulator, new_router: Node
) -> Dict[Node, float]:
    """When each router learns of the endpoint's new attachment."""
    return {
        node: hops * sim._delay
        for node, hops in sim._graph.bfs_distances(new_router).items()
    }


def simulate_event(
    sim: ConvergenceSimulator,
    old_router: Node,
    new_router: Node,
    probe_step: float = 0.25,
) -> MobilityOutage:
    """Outage per source: walk a probe from every source at every instant."""
    arrivals = update_arrival_times(sim, new_router)
    convergence = max(arrivals.values())
    outage: Dict[Node, float] = {}
    for source in sim._nodes:
        if source == new_router:
            outage[source] = 0.0
            continue
        last_failure: Optional[float] = None
        t = 0.0
        while t <= convergence + probe_step:
            if not sim.deliver(source, t, old_router, new_router):
                last_failure = t
            t += probe_step
        outage[source] = (
            0.0 if last_failure is None else last_failure + probe_step
        )
    return MobilityOutage(
        old_router=old_router,
        new_router=new_router,
        convergence_time=convergence,
        outage_by_source=outage,
    )


def deliver_under_faults(
    sim: ConvergenceSimulator,
    source: Node,
    time: float,
    old_router: Node,
    new_router: Node,
    arrivals: Dict[Node, float],
    faults: FaultSchedule,
) -> bool:
    """Fault-aware probe: stale entries AND down elements drop it."""
    current = source
    visited = set()
    while True:
        if faults.is_down(ROUTER, current, time):
            return False
        if current == new_router:
            return True
        if current in visited:
            return False
        visited.add(current)
        target = new_router if arrivals.get(
            current, float("inf")
        ) <= time else old_router
        hop = sim._nh(current)[target]
        if hop == current:
            return False
        if faults.is_down(LINK, (current, hop), time):
            return False
        current = hop


def simulate_event_under_faults(
    sim: ConvergenceSimulator,
    old_router: Node,
    new_router: Node,
    rng: random.Random,
    loss: Optional[MessageLossModel] = None,
    retransmit: RetryPolicy = DEFAULT_RETRANSMIT,
    faults: Optional[FaultSchedule] = None,
    probe_step: float = 0.25,
) -> FaultyMobilityOutage:
    """:func:`simulate_event` under a loss model and fault schedule."""
    loss = loss or MessageLossModel()
    if (faults is None or faults.empty) and loss.lossless:
        base = simulate_event(sim, old_router, new_router, probe_step)
        return FaultyMobilityOutage(
            old_router=base.old_router,
            new_router=base.new_router,
            convergence_time=base.convergence_time,
            outage_by_source=base.outage_by_source,
            retransmissions=0,
        )
    faults = faults or FaultSchedule.EMPTY
    arrivals, retransmissions = sim.lossy_update_arrival_times(
        new_router, loss, retransmit, rng, faults
    )
    convergence = max(arrivals.values())
    outage: Dict[Node, float] = {}
    for source in sim._nodes:
        if source == new_router:
            outage[source] = 0.0
            continue
        last_failure: Optional[float] = None
        t = 0.0
        while t <= convergence + probe_step:
            if not deliver_under_faults(
                sim, source, t, old_router, new_router, arrivals, faults
            ):
                last_failure = t
            t += probe_step
        outage[source] = (
            0.0 if last_failure is None else last_failure + probe_step
        )
    return FaultyMobilityOutage(
        old_router=old_router,
        new_router=new_router,
        convergence_time=convergence,
        outage_by_source=outage,
        retransmissions=retransmissions,
    )
