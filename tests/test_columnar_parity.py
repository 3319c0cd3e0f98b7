"""Golden parity tests: vectorized evaluators vs the per-event reference.

The columnar data plane's contract is *bit-identical* results: the
vectorized device/content evaluators and ``per_day_update_rates`` must
produce exactly the reports — and therefore exactly the ledger series
digests — that the per-event loops in :mod:`tests.reference` produce.
The content-plane kernel is held to the same contract for every output
it feeds: update counts, union table sizes, the §3.3.3 copies and
entries (compared with ``==``, not approximately) and the Fig. 12
tables. These tests run both in one process and compare everything,
including digests.
"""

import dataclasses

import pytest

from repro.core import (
    ContentPortMapper,
    ContentUpdateCostEvaluator,
    DeviceUpdateCostEvaluator,
    ForwardingStrategy,
    evaluate_tradeoff,
    per_day_update_rates,
    router_aggregateability,
)
from repro.experiments import SMALL_SCALE, ExperimentScale, World
from repro.mobility import MobilityEvent
from repro.net import parse_address
from repro.obs.history import digest_series
from repro.routing import RoutingOracle
from repro.workload import DeviceEventColumns

from tests import reference
from tests.test_core_evaluator import (
    L6,
    L6B,
    L7,
    content_internet,
    ev,
    loc,
    measurement,
    timeline,
    vantage,
)

#: An unannounced address: exercises the missing-covering-prefix path.
L_DARK = loc("192.168.1.1", "192.168.0.0/16", 999)


def device_events():
    return [
        ev(L6, L7, day=0),
        ev(L6, L6B, day=0),
        ev(L7, L6, day=1),
        ev(L6B, L7, day=1),
        MobilityEvent("u2", 2, 3.0, L7, L6),
        ev(L6, L_DARK, day=2),
        ev(L_DARK, L7, day=3),
    ]


def report_digest(report):
    return digest_series(
        "report",
        ("router", "rate", "updates", "events"),
        [[r, report.rates[r], report.updates[r], report.num_events]
         for r in report.rates],
    )


def two_routers():
    oracle = RoutingOracle(content_internet())
    return [vantage("vp1"), vantage("vp2")], oracle


def content_measurement():
    return measurement([
        timeline(
            "a.com",
            [(0, ["10.6.0.1", "10.7.0.1"]), (2, ["10.6.0.1"]),
             (5, ["10.6.0.5"]), (7, ["10.7.0.2", "10.6.0.5"]),
             (11, ["10.7.0.2"]), (13, ["10.6.0.1", "10.7.0.1"])],
        ),
        timeline(
            "b.com",
            [(0, ["10.6.0.1", "10.6.0.3"]), (4, ["10.6.0.2"]),
             (9, ["10.7.0.5"]), (15, ["10.6.0.2"])],
        ),
        # A name with no events at all.
        timeline("c.com", [(0, ["10.6.0.8"])]),
        # A name whose addresses are never routed.
        timeline("d.com", [(0, ["192.168.0.1"]), (6, ["192.168.0.2"])]),
    ])


class TestDeviceParity:
    def test_reports_identical(self):
        routers, oracle = two_routers()
        scalar = reference.evaluate_device(
            DeviceUpdateCostEvaluator(routers, oracle), device_events()
        )
        vector = DeviceUpdateCostEvaluator(routers, oracle).evaluate(
            device_events()
        )
        assert vector.rates == scalar.rates
        assert vector.updates == scalar.updates
        assert vector.num_events == scalar.num_events
        assert list(vector.rates) == list(scalar.rates)  # dict order too
        assert report_digest(vector) == report_digest(scalar)

    def test_columns_input_matches_list_input(self):
        routers, oracle = two_routers()
        evaluator = DeviceUpdateCostEvaluator(routers, oracle)
        from_list = evaluator.evaluate(device_events())
        from_cols = evaluator.evaluate(
            DeviceEventColumns.from_events(device_events())
        )
        assert report_digest(from_list) == report_digest(from_cols)

    def test_scalar_accepts_columns(self):
        routers, oracle = two_routers()
        columns = DeviceEventColumns.from_events(device_events())
        scalar = reference.evaluate_device(
            DeviceUpdateCostEvaluator(routers, oracle), columns
        )
        vector = DeviceUpdateCostEvaluator(routers, oracle).evaluate(columns)
        assert report_digest(scalar) == report_digest(vector)

    def test_empty_events(self):
        routers, oracle = two_routers()
        report = DeviceUpdateCostEvaluator(routers, oracle).evaluate([])
        assert report.num_events == 0
        assert set(report.rates.values()) == {0.0}


class TestPerDayParity:
    def test_series_identical(self):
        routers, oracle = two_routers()
        scalar = reference.per_day_update_rates(
            DeviceUpdateCostEvaluator(routers, oracle), device_events()
        )
        vector = per_day_update_rates(
            DeviceUpdateCostEvaluator(routers, oracle), device_events()
        )
        assert vector == scalar
        assert list(vector) == list(scalar)
        digest = lambda s: digest_series(
            "per_day", ("router", "rates"),
            [[r, rates] for r, rates in s.items()],
        )
        assert digest(vector) == digest(scalar)

    def test_empty(self):
        routers, oracle = two_routers()
        evaluator = DeviceUpdateCostEvaluator(routers, oracle)
        assert per_day_update_rates(evaluator, []) == {}


class TestContentParity:
    @pytest.mark.parametrize("strategy", list(ForwardingStrategy))
    def test_reports_identical(self, strategy):
        routers, oracle = two_routers()
        meas = content_measurement()
        scalar = reference.evaluate_content(
            ContentUpdateCostEvaluator(routers, oracle), meas, strategy
        )
        vector = ContentUpdateCostEvaluator(routers, oracle).evaluate(
            meas, strategy
        )
        assert vector.rates == scalar.rates
        assert vector.updates == scalar.updates
        assert vector.num_events == scalar.num_events
        assert list(vector.rates) == list(scalar.rates)
        assert report_digest(vector) == report_digest(scalar)


class TestContentKernelParity:
    """Kernel vs per-event replays: every content output, exactly."""

    def check(self, routers, oracle, meas):
        evaluator = ContentUpdateCostEvaluator(routers, oracle)
        for strategy in ForwardingStrategy:
            kernel = evaluator.evaluate(meas, strategy)
            replay = reference.evaluate_content(evaluator, meas, strategy)
            assert kernel.updates == replay.updates, strategy
            assert kernel.rates == replay.rates, strategy
            assert kernel.num_events == replay.num_events
        assert evaluator.union_table_sizes(meas) == (
            reference.union_table_sizes(evaluator, meas)
        )
        tradeoff = evaluate_tradeoff(routers, oracle, meas)
        for router in routers:
            mapper = ContentPortMapper(router, oracle)
            for strategy, accumulate in (
                (ForwardingStrategy.CONTROLLED_FLOODING, False),
                (ForwardingStrategy.UNION_FLOODING, True),
            ):
                stats = reference.time_averaged_port_sets(
                    mapper, meas, accumulate
                )
                costs = tradeoff.at(strategy, router.name)
                assert costs.avg_copies_per_packet == stats["copies"]
                assert costs.table_entries == int(stats["entries"])
            best = tradeoff.at(ForwardingStrategy.BEST_PORT, router.name)
            assert best.table_entries == len(meas.names())
            assert router_aggregateability(router, oracle, meas) == (
                reference.router_aggregateability(router, oracle, meas)
            )

    def test_synthetic_measurement(self):
        routers, oracle = two_routers()
        self.check(routers, oracle, content_measurement())

    def test_reference_tradeoff_matches(self):
        routers, oracle = two_routers()
        meas = content_measurement()
        assert evaluate_tradeoff(routers, oracle, meas) == (
            reference.evaluate_tradeoff(routers, oracle, meas)
        )

    @pytest.mark.parametrize(
        "scale",
        [
            ExperimentScale(label="tiny", num_users=16, device_days=2,
                            content_days=1, num_popular_domains=16, seed=s)
            for s in (2014, 1002017, 2002020)
        ] + [dataclasses.replace(SMALL_SCALE, num_popular_domains=30)],
        ids=lambda s: f"{s.label}-{s.num_popular_domains}-{s.seed}",
    )
    def test_world(self, scale):
        world = World(scale, cache=None)
        for meas in (world.popular_measurement, world.unpopular_measurement):
            self.check(world.routeviews, world.oracle, meas)
