"""Reference control plane: per-destination BFS and per-prefix FIB loop.

The production oracle computes route tables with the frontier-batched
array engine (:mod:`repro.routing.frontier`). These are the dict-based
computations it must reproduce path for path.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.routing import RoutingOracle, VantagePoint
from repro.routing.bgp import BestPath, PathType
from repro.topology import ASTopology

__all__ = ["compute_routes", "routes_to", "next_hop_table"]


def _better(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    """Within one path type: shorter path wins, then lexicographic path.

    Lexicographic comparison on the ASN tuple subsumes the lowest-
    next-hop tiebreak and makes the oracle fully deterministic.
    """
    return (len(a), a) < (len(b), b)


def compute_routes(topo: ASTopology, dest: int) -> Dict[int, BestPath]:
    """Best policy path from every AS to ``dest`` (absent = unreachable)."""
    info: Dict[int, BestPath] = {dest: BestPath((dest,), PathType.ORIGIN)}

    # Stage 1 — customer routes: propagate up provider links, level
    # by level (BFS), so every AS in the destination's provider
    # cone gets its shortest customer-learned path.
    current: Dict[int, Tuple[int, ...]] = {dest: (dest,)}
    while current:
        candidates: Dict[int, Tuple[int, ...]] = {}
        for child in sorted(current):
            child_path = current[child]
            for provider in sorted(topo.ases[child].providers):
                if provider in info:
                    continue
                cand = (provider,) + child_path
                prev = candidates.get(provider)
                if prev is None or _better(cand, prev):
                    candidates[provider] = cand
        for asn, path in candidates.items():
            info[asn] = BestPath(path, PathType.CUSTOMER)
        current = candidates

    # Stage 2 — peer routes: one peering hop off any AS holding a
    # customer/origin route. Only ASes that did not get a customer
    # route take one (customer routes are strictly preferred).
    peer_adds: Dict[int, Tuple[int, ...]] = {}
    holders = dict(info)
    for asn in sorted(topo.ases):
        if asn in info:
            continue
        best: Optional[Tuple[int, ...]] = None
        for peer in sorted(topo.ases[asn].peers):
            held = holders.get(peer)
            if held is None:
                continue
            cand = (asn,) + held.path
            if best is None or _better(cand, best):
                best = cand
        if best is not None:
            peer_adds[asn] = best
    for asn, path in peer_adds.items():
        info[asn] = BestPath(path, PathType.PEER)

    # Stage 3 — provider routes: propagate down customer links from
    # every AS that has a route, in order of total path length
    # (Dijkstra with unit weights and multi-source initialization;
    # sources start at their existing path lengths).
    heap: List[Tuple[int, Tuple[int, ...], int]] = []
    for asn, bp in info.items():
        for customer in topo.ases[asn].customers:
            if customer in info:
                continue
            cand = (customer,) + bp.path
            heapq.heappush(heap, (len(cand), cand, customer))
    while heap:
        _, path, asn = heapq.heappop(heap)
        if asn in info:
            continue
        if asn in path[1:]:
            continue  # loop prevention
        info[asn] = BestPath(path, PathType.PROVIDER)
        for customer in topo.ases[asn].customers:
            if customer in info:
                continue
            cand = (customer,) + path
            heapq.heappush(heap, (len(cand), cand, customer))
    return info


def routes_to(oracle: RoutingOracle, dest_asn: int) -> Dict[int, BestPath]:
    """:meth:`RoutingOracle.routes_to` over :func:`compute_routes`."""
    cached = oracle._cache.get(dest_asn)
    if cached is not None:
        return cached
    if dest_asn not in oracle.topology.ases:
        raise KeyError(f"unknown destination AS{dest_asn}")
    result = compute_routes(oracle.topology, dest_asn)
    oracle._cache[dest_asn] = result
    oracle._dirty += 1
    obs.incr("oracle.demand_computations")
    obs.gauge("oracle.route_cache.size", len(oracle._cache))
    return result


def next_hop_table(
    vantage: VantagePoint, oracle: RoutingOracle, prefixes
) -> np.ndarray:
    """:meth:`VantagePoint.next_hop_table` as one ``fib_best`` per prefix."""
    table = np.full(len(prefixes), -1, dtype=np.int64)
    for i, prefix in enumerate(prefixes):
        best = vantage.fib_best(oracle, prefix)
        if best is not None:
            table[i] = best.next_hop
    obs.incr("vantage.next_hop_table.prefixes", len(prefixes))
    return table
