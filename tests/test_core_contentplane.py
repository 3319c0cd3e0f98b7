"""Tests for the content-plane kernel (:mod:`repro.core.contentplane`).

The reduction is checked against a direct per-row computation over
Python sets, on synthetic ``AddrsMatrix`` timelines and synthetic
per-address port/rank tables: hand-picked edge cases plus a hypothesis
property test. Parity with the per-event replays on real worlds lives
in ``tests/test_columnar_parity.py``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.content import AddressTimeline
from repro.core import (
    ContentUpdateCostEvaluator,
    ForwardingStrategy,
    evaluate_tradeoff,
    router_aggregateability,
)
from repro.core.contentplane import ContentPlane
from repro.experiments import ExperimentScale, exp_ablation_tradeoff, exp_ablation_union
from repro.measurement.vantage import ContentMeasurement, MeasurementConfig, VantageFleet, VantageNode
from repro.net import ContentName, IPv4Address
from repro.routing import RoutingOracle
from repro.workload import AddrsMatrix

from tests import reference
from tests.test_core_evaluator import content_internet, vantage

BEST = ForwardingStrategy.BEST_PORT
FLOOD = ForwardingStrategy.CONTROLLED_FLOODING
UNION = ForwardingStrategy.UNION_FLOODING


def naive(timelines, table):
    """Every kernel output, one row at a time over Python sets.

    ``table`` maps an address to ``(port, rank)``; port -1 is unrouted.
    """
    updates = {BEST: 0, FLOOD: 0, UNION: 0}
    copy_hours = {FLOOD: 0, UNION: 0}
    entries = {FLOOD: 0, UNION: 0}
    first_port = []
    for tl in timelines:
        points = tl.change_points()
        ends = [h for h, _ in points[1:]] + [tl.total_hours]
        best_prev = ports_prev = union = None
        for (hour, addrs), end in zip(points, ends):
            routed = [table[a] for a in addrs if table[a][0] >= 0]
            best = min(routed, key=lambda pr: pr[1])[0] if routed else -1
            ports = {port for port, _ in routed}
            grown = ports if union is None else union | ports
            if union is None:
                first_port.append(best)
            else:
                updates[BEST] += best != best_prev
                updates[FLOOD] += ports != ports_prev
                updates[UNION] += grown != union
            best_prev, ports_prev, union = best, ports, grown
            copy_hours[FLOOD] += (end - hour) * len(ports)
            copy_hours[UNION] += (end - hour) * len(union)
        entries[FLOOD] += len(ports_prev)
        entries[UNION] += len(union)
    return updates, copy_hours, entries, first_port


def kernel(timelines, table):
    plane = ContentPlane(
        [tl.name for tl in timelines],
        [AddrsMatrix.from_timeline(tl) for tl in timelines],
        [tl.total_hours for tl in timelines],
    )
    values = [table[IPv4Address(v)] for v in plane.universe.tolist()]
    port = [p for p, _ in values]
    rank = [r for _, r in values]
    result = plane.reduce(
        "r", np.array(port, dtype=np.int64), np.array(rank, dtype=np.int64)
    )
    return (
        result.updates,
        result.copy_hours,
        result.entries,
        result.first_port.tolist(),
    )


def addr(i):
    return IPv4Address(0x0A000000 + i)


def tl(name, total_hours, changes):
    return AddressTimeline(
        ContentName.from_domain(name),
        total_hours,
        [(h, frozenset(addr(i) for i in ids)) for h, ids in changes],
    )


class TestReduceEdgeCases:
    #: addr -> (port, rank); 0..2 tie at rank 1 on port 7, 3 is unrouted
    #: with a rank that would win if it were not ignored, 4..5 on port 9.
    TABLE = {
        addr(0): (7, 1), addr(1): (7, 1), addr(2): (7, 1),
        addr(3): (-1, 0), addr(4): (9, 2), addr(5): (9, 3),
        addr(6): (-1, 5),
    }

    def timelines(self):
        return [
            # Unrouted addresses come and go around routed ones.
            tl("a.com", 30, [(0, [0, 3]), (4, [3, 4]), (9, [1, 5]),
                             (12, [3]), (20, [2, 4])]),
            # Every address unrouted: no port, ever.
            tl("b.com", 30, [(0, [3]), (5, [6]), (8, [3, 6])]),
            # A single row: zero events.
            tl("c.com", 30, [(0, [4, 5])]),
            # Rank ties: swapping tied addresses changes nothing.
            tl("d.com", 30, [(0, [0]), (3, [1]), (6, [2, 1])]),
            # An empty set between non-empty ones.
            tl("e.com", 30, [(0, [5]), (10, []), (11, [5])]),
        ]

    def test_matches_naive(self):
        assert kernel(self.timelines(), self.TABLE) == naive(
            self.timelines(), self.TABLE
        )

    def test_expected_values(self):
        updates, copy_hours, entries, first = kernel(
            self.timelines(), self.TABLE
        )
        assert first == [7, -1, 9, 7, 9]
        assert updates[FLOOD] >= updates[BEST]
        assert entries[UNION] == 2 + 0 + 1 + 1 + 1
        assert updates[UNION] == 1  # a.com gains port 9 at hour 4

    def test_empty_plane(self):
        assert kernel([], self.TABLE) == (
            {BEST: 0, FLOOD: 0, UNION: 0}, {FLOOD: 0, UNION: 0},
            {FLOOD: 0, UNION: 0}, [],
        )


@st.composite
def synthetic(draw):
    """Timelines over a small address pool plus a port/rank table in
    which equal ranks always share a port."""
    pool = draw(st.integers(min_value=1, max_value=8))
    port_of_rank = draw(st.lists(st.integers(0, 3), min_size=6, max_size=6))
    table = {}
    for i in range(pool):
        rank = draw(st.integers(0, 5))
        routed = draw(st.booleans()) or draw(st.booleans())
        table[addr(i)] = (port_of_rank[rank] if routed else -1, rank)
    timelines = []
    for n in range(draw(st.integers(min_value=1, max_value=4))):
        total = draw(st.integers(min_value=1, max_value=40))
        hours = sorted(draw(st.sets(st.integers(1, total - 1), max_size=6))
                       ) if total > 1 else []
        changes = [
            (h, draw(st.sets(st.integers(0, pool - 1), max_size=pool)))
            for h in [0] + hours
        ]
        timelines.append(tl(f"n{n}.com", total, changes))
    return timelines, table


class TestReduceProperty:
    @settings(max_examples=200, deadline=None)
    @given(synthetic())
    def test_matches_naive(self, case):
        timelines, table = case
        assert kernel(timelines, table) == naive(timelines, table)


def empty_measurement():
    fleet = VantageFleet([VantageNode("pl0", "us-west", 6)])
    return ContentMeasurement({}, fleet, MeasurementConfig(days=2))


class TestEmptyMeasurement:
    def routers(self):
        return [vantage("vp1"), vantage("vp2")], RoutingOracle(
            content_internet()
        )

    def test_zero_rates_copies_entries(self):
        routers, oracle = self.routers()
        meas = empty_measurement()
        evaluator = ContentUpdateCostEvaluator(routers, oracle)
        for strategy in ForwardingStrategy:
            report = evaluator.evaluate(meas, strategy)
            assert report.num_events == 0
            assert report.rates == {"vp1": 0.0, "vp2": 0.0}
        assert evaluator.union_table_sizes(meas) == {"vp1": 0, "vp2": 0}
        result = evaluate_tradeoff(routers, oracle, meas)
        assert result.num_names == 0
        for cost in result.costs:
            assert cost.avg_copies_per_packet == 0.0
            assert cost.table_entries == 0
        assert result == reference.evaluate_tradeoff(routers, oracle, meas)
        assert router_aggregateability(routers[0], oracle, meas) == (
            1.0, {}, {}
        )

    def test_formatters_render(self):
        routers, oracle = self.routers()
        meas = empty_measurement()
        evaluator = ContentUpdateCostEvaluator(routers, oracle)
        union = exp_ablation_union.UnionAblationResult(
            best_port=evaluator.evaluate(meas, BEST),
            flooding=evaluator.evaluate(meas, FLOOD),
            union=evaluator.evaluate(meas, UNION),
            union_table_sizes=evaluator.union_table_sizes(meas),
            names_measured=0,
        )
        assert "0.00" in exp_ablation_union.format_result(union)
        (series,) = exp_ablation_union.series(union)
        assert [row[-1] for row in series.rows] == [0.0, 0.0]
        text = exp_ablation_tradeoff.format_result(
            evaluate_tradeoff(routers, oracle, meas)
        )
        assert "(0 names, 0 events" in text


class TestScaleValidation:
    def test_zero_popular_domains_rejected(self):
        with pytest.raises(ValueError, match="num_popular_domains"):
            ExperimentScale(label="x", num_users=1, device_days=1,
                            content_days=1, num_popular_domains=0)

    def test_none_popular_domains_allowed(self):
        scale = ExperimentScale(label="x", num_users=1, device_days=1,
                                content_days=1, num_popular_domains=None)
        assert scale.num_popular_domains is None


class TestMemo:
    def test_one_reduction_per_measurement_and_router(self):
        routers, oracle = [vantage("vp1")], RoutingOracle(content_internet())
        meas = ContentMeasurement(
            {t.name: t for t in [tl("a.com", 10, [(0, [0]), (5, [1])])]},
            VantageFleet([VantageNode("pl0", "us-west", 6)]),
            MeasurementConfig(days=1),
        )
        first = ContentUpdateCostEvaluator(routers, oracle).router_content(
            meas
        )
        again = ContentUpdateCostEvaluator(routers, oracle).router_content(
            meas
        )
        assert first[0] is again[0]
        # A different oracle is a different table: no stale reuse.
        other = ContentUpdateCostEvaluator(
            routers, RoutingOracle(content_internet())
        ).router_content(meas)
        assert other[0] is not first[0]


class TestContentCounters:
    def test_counters_in_metrics_out(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.engine import CACHE_DIR_ENV, runner

        monkeypatch.setenv(CACHE_DIR_ENV, "off")
        runner._WORLDS.clear()  # intern in this run, not an earlier one
        target = tmp_path / "metrics.json"
        assert main(["run", "fig12", "--scale", "small",
                     "--metrics-out", str(target)]) == 0
        capsys.readouterr()
        payload = json.loads(target.read_text(encoding="utf-8"))
        counters = payload["experiments"]["fig12"]["metrics"]["counters"]
        assert counters["evaluator.batch.content.addresses"] > 0
        assert counters["evaluator.batch.content.nonzeros"] > 0
        timers = payload["experiments"]["fig12"]["metrics"]["timers"]
        assert "evaluator.batch.content.intern" in timers
        assert "evaluator.batch.content.reduce" in timers
