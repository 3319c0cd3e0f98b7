"""Reference Fig. 12 tables: best port per name through the per-address
mapper.

Production reads each name's hour-0 best port off the content-plane
kernel (:mod:`repro.core.contentplane`); these build the same complete
table one name at a time with :meth:`ContentPortMapper.best_port`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Tuple

from repro.core import (
    ContentPortMapper,
    aggregateability,
    lpm_forwarding_table,
)
from repro.measurement.vantage import ContentMeasurement
from repro.net import ContentName
from repro.routing import RoutingOracle, VantagePoint

__all__ = ["complete_forwarding_table", "router_aggregateability"]


def complete_forwarding_table(
    mapper: ContentPortMapper,
    address_sets: Mapping[ContentName, FrozenSet],
) -> Dict[ContentName, int]:
    """Best-port forwarding entry for every name (the complete table).

    Names whose address set yields no route at this router are omitted
    — a real router cannot install an entry it has no port for.
    """
    table: Dict[ContentName, int] = {}
    for name in sorted(address_sets):
        port = mapper.best_port(address_sets[name])
        if port is not None:
            table[name] = port
    return table


def router_aggregateability(
    vantage: VantagePoint,
    oracle: RoutingOracle,
    measurement: ContentMeasurement,
) -> Tuple[float, Dict[ContentName, int], Dict[ContentName, int]]:
    """:func:`repro.core.router_aggregateability` over hour-0 address sets."""
    mapper = ContentPortMapper(vantage, oracle)
    address_sets = {
        name: measurement.timeline(name).set_at(0)
        for name in measurement.names()
    }
    complete = complete_forwarding_table(mapper, address_sets)
    lpm = lpm_forwarding_table(complete)
    return aggregateability(complete, lpm), complete, lpm
