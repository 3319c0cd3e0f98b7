"""Bench: the columnar data plane vs the per-event reference.

Times the vectorized device update-rate evaluation and the
content-plane kernel (three strategies' update rates, union table
sizes and the §3.3.3 cost triangle) under the benchmark timer, then
runs the identical workload through the per-event loops of
:mod:`tests.reference` and asserts bit-identical results — the parity
contract — plus the speedup the columnar refactor exists for. Route
caches are warmed before either measurement so both paths time the
evaluation itself, not BGP route computation. Speedups are recorded
through the existing obs metrics plumbing (``bench.columnar.*``); the
content ratio is recorded, not gated.
"""

import time

from conftest import run_once

from repro import obs
from repro.core import (
    ContentUpdateCostEvaluator,
    DeviceUpdateCostEvaluator,
    ForwardingStrategy,
    evaluate_tradeoff,
    per_day_update_rates,
)
from repro.measurement.vantage import ContentMeasurement

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


def _content_plane(routers, oracle, meas):
    """Every content output the experiments read: three strategies'
    update rates, union table sizes and the §3.3.3 cost triangle."""
    evaluator = ContentUpdateCostEvaluator(routers, oracle)
    reports = [evaluator.evaluate(meas, s) for s in ForwardingStrategy]
    sizes = evaluator.union_table_sizes(meas)
    return reports, sizes, evaluate_tradeoff(routers, oracle, meas)


def _content_reference(routers, oracle, meas):
    evaluator = ContentUpdateCostEvaluator(routers, oracle)
    reports = [
        reference.evaluate_content(evaluator, meas, s)
        for s in ForwardingStrategy
    ]
    sizes = reference.union_table_sizes(evaluator, meas)
    return reports, sizes, reference.evaluate_tradeoff(routers, oracle, meas)


def test_content_kernel_vs_reference(benchmark, world, scale):
    measured = world.popular_measurement
    routers, oracle = world.routeviews, world.oracle

    def fresh():
        # The kernel memoizes on the measurement object: a new wrapper
        # over the same timelines times a cold kernel.
        return ContentMeasurement(
            measured.timelines, measured.fleet, measured.config
        )

    _content_plane(routers, oracle, fresh())  # warm the BGP route caches

    start = time.perf_counter()
    kernel = run_once(benchmark, _content_plane, routers, oracle, fresh())
    kernel_s = time.perf_counter() - start
    replay, replay_s = _timed(_content_reference, routers, oracle, fresh())

    assert kernel == replay

    speedup = replay_s / max(kernel_s, 1e-9)
    obs.gauge("bench.columnar.content.kernel_s", kernel_s)
    obs.gauge("bench.columnar.content.reference_s", replay_s)
    obs.gauge("bench.columnar.content.speedup", speedup)
    print(
        f"content plane [{scale.label}]: {kernel[0][0].num_events} events, "
        f"kernel {kernel_s:.3f}s vs reference {replay_s:.3f}s "
        f"({speedup:.1f}x)"
    )
