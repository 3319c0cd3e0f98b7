"""The §3.3.3 cost triangle: updates vs. table size vs. traffic.

§3.3.3 observes that update cost, forwarding table size, and
forwarding-plane traffic are *fungible*: a strategy can buy lower
update cost by keeping more state and forwarding more copies. The
paper's model "implicitly focuses on control plane costs"; this module
completes the triangle so the ablation bench can quantify all three
corners for every strategy:

* **update cost** — fraction of mobility events changing router state
  (§3.3.1, as elsewhere);
* **forwarding traffic** — expected packet copies sent per forwarded
  packet: 1 for best-port, the size of the *current* eligible port set
  for controlled flooding, and the size of the *accumulated* port set
  for union flooding;
* **table size** — (name, port) state entries held by the router.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..measurement.vantage import ContentMeasurement
from ..routing import RoutingOracle, VantagePoint
from .contentplane import ContentPlane
from .evaluator import ContentUpdateCostEvaluator
from .strategies import ForwardingStrategy

__all__ = ["StrategyCosts", "TradeoffResult", "evaluate_tradeoff"]


@dataclass(frozen=True)
class StrategyCosts:
    """The three §3.3.3 costs of one strategy at one router."""

    strategy: ForwardingStrategy
    router: str
    update_rate: float
    avg_copies_per_packet: float
    table_entries: int


@dataclass
class TradeoffResult:
    """All strategies x all routers."""

    costs: List[StrategyCosts]
    num_events: int
    num_names: int

    def for_strategy(self, strategy: ForwardingStrategy) -> List[StrategyCosts]:
        """The per-router costs of one strategy."""
        return [c for c in self.costs if c.strategy is strategy]

    def at(self, strategy: ForwardingStrategy, router: str) -> StrategyCosts:
        """The cost triple for one (strategy, router) pair."""
        for c in self.costs:
            if c.strategy is strategy and c.router == router:
                return c
        raise KeyError((strategy, router))


def evaluate_tradeoff(
    routers: List[VantagePoint],
    oracle: RoutingOracle,
    measurement: ContentMeasurement,
) -> TradeoffResult:
    """Quantify all three §3.3.3 costs for all three strategies.

    Update rates come from :meth:`ContentUpdateCostEvaluator.evaluate`;
    copies and entries are read from the same kernel results
    (:class:`~repro.core.contentplane.RouterContent`). Best-port sends
    one copy per packet and holds one entry per name.
    """
    evaluator = ContentUpdateCostEvaluator(routers, oracle)
    reports = {
        strategy: evaluator.evaluate(measurement, strategy)
        for strategy in ForwardingStrategy
    }
    total_hours = ContentPlane.of(measurement).total_hours
    num_names = len(measurement.names())
    costs: List[StrategyCosts] = []
    for content in evaluator.router_content(measurement):
        for strategy in ForwardingStrategy:
            if strategy is ForwardingStrategy.BEST_PORT:
                copies = 1.0 if total_hours else 0.0
                entries = num_names
            else:
                copies = (
                    content.copy_hours[strategy] / total_hours
                    if total_hours else 0.0
                )
                entries = content.entries[strategy]
            costs.append(
                StrategyCosts(
                    strategy=strategy,
                    router=content.router,
                    update_rate=reports[strategy].rates[content.router],
                    avg_copies_per_packet=copies,
                    table_entries=entries,
                )
            )
    return TradeoffResult(
        costs=costs,
        num_events=reports[ForwardingStrategy.BEST_PORT].num_events,
        num_names=num_names,
    )
