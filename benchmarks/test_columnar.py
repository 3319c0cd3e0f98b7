"""Bench: the columnar data plane vs the per-event reference.

Times the vectorized device and content update-rate evaluations under
the benchmark timer, then runs the identical workload through the
scalar per-event loops of :mod:`tests.reference` and asserts
bit-identical reports — the parity
contract — plus the speedup the columnar refactor exists for. Route
caches are warmed before either measurement so both paths time the
evaluation itself, not BGP route computation. Speedups are recorded
through the existing obs metrics plumbing (``bench.columnar.*``).
"""

import time

from conftest import run_once

from repro import obs
from repro.core import (
    ContentUpdateCostEvaluator,
    DeviceUpdateCostEvaluator,
    ForwardingStrategy,
    per_day_update_rates,
)

from tests import reference


def _timed(func, *args):
    """Run ``func`` once, returning (result, seconds)."""
    start = time.perf_counter()
    result = func(*args)
    return result, time.perf_counter() - start


def test_device_columnar_vs_scalar(benchmark, world, scale):
    columns = world.device_event_columns
    evaluator = DeviceUpdateCostEvaluator(world.routeviews, world.oracle)
    evaluator.evaluate(columns)  # warm the per-prefix route caches

    start = time.perf_counter()
    vector = run_once(benchmark, evaluator.evaluate, columns)
    vector_s = time.perf_counter() - start
    scalar, scalar_s = _timed(reference.evaluate_device, evaluator, columns)

    assert vector.rates == scalar.rates
    assert vector.updates == scalar.updates
    assert vector.num_events == scalar.num_events

    speedup = scalar_s / max(vector_s, 1e-9)
    obs.gauge("bench.columnar.device.vector_s", vector_s)
    obs.gauge("bench.columnar.device.scalar_s", scalar_s)
    obs.gauge("bench.columnar.device.speedup", speedup)
    print(
        f"device update rates [{scale.label}]: {len(columns)} events, "
        f"vector {vector_s:.3f}s vs scalar {scalar_s:.3f}s "
        f"({speedup:.1f}x)"
    )
    if scale.label == "paper":
        assert speedup >= 3.0, (
            f"columnar device evaluation only {speedup:.1f}x faster "
            f"than the scalar oracle at paper scale"
        )


def test_per_day_columnar_vs_scalar(benchmark, world, scale):
    columns = world.device_event_columns
    evaluator = DeviceUpdateCostEvaluator(world.routeviews, world.oracle)
    evaluator.evaluate(columns)  # warm caches

    vector = run_once(benchmark, per_day_update_rates, evaluator, columns)
    scalar, scalar_s = _timed(
        reference.per_day_update_rates, evaluator, columns
    )
    assert vector == scalar
    obs.gauge("bench.columnar.per_day.scalar_s", scalar_s)
    print(
        f"per-day update rates [{scale.label}]: "
        f"{len(vector)} routers x {len(columns.days())} days, parity ok"
    )


def test_content_columnar_vs_scalar(benchmark, world, scale):
    meas = world.popular_measurement
    evaluator = ContentUpdateCostEvaluator(world.routeviews, world.oracle)
    strategy = ForwardingStrategy.CONTROLLED_FLOODING
    evaluator.evaluate(meas, strategy)  # warm the per-address caches

    start = time.perf_counter()
    vector = run_once(benchmark, evaluator.evaluate, meas, strategy)
    vector_s = time.perf_counter() - start
    scalar, scalar_s = _timed(
        reference.evaluate_content, evaluator, meas, strategy
    )

    assert vector.rates == scalar.rates
    assert vector.updates == scalar.updates
    assert vector.num_events == scalar.num_events

    speedup = scalar_s / max(vector_s, 1e-9)
    obs.gauge("bench.columnar.content.vector_s", vector_s)
    obs.gauge("bench.columnar.content.scalar_s", scalar_s)
    obs.gauge("bench.columnar.content.speedup", speedup)
    print(
        f"content update rates [{scale.label}]: "
        f"{vector.num_events} events, vector {vector_s:.3f}s vs "
        f"scalar {scalar_s:.3f}s ({speedup:.1f}x)"
    )
