"""Bench: the array-native control plane vs its scalar ancestors.

Two measurements the refactor exists for:

* **cold oracle build** — one frontier-batched sweep over every
  destination (``routes_to_many``) against the per-destination dict
  BFS it replaced (``tests.reference.compute_routes``), with a full
  parity check;
* **shared-memory fan-out** — ``run_experiments`` with ``--jobs``-style
  pooling, asserting through the metrics stream that workers attach
  the parent's exported World instead of rebuilding or unpickling
  their own (``shm.worker.attached`` up, the event-columns pickle
  path never taken) and that every segment is unlinked at shutdown.

Speedups are recorded as ``bench.control_plane.*`` gauges; the hard
parity/attach assertions hold at any scale, the speedup floors only at
paper scale where the constant factors are amortized.
"""

import time

from conftest import run_once

from repro import obs
from repro.engine import run_experiments
from repro.routing import RoutingOracle

from test_columnar import _timed
from tests import reference


def test_oracle_cold_build(benchmark, world, scale):
    topo = world.topology
    dests = sorted(topo.ases)

    def cold_batch():
        oracle = RoutingOracle(topo)
        return oracle.routes_to_many(dests)

    start = time.perf_counter()
    batch = run_once(benchmark, cold_batch)
    vector_s = time.perf_counter() - start

    def cold_scalar():
        return {dest: reference.compute_routes(topo, dest) for dest in dests}

    tables, scalar_s = _timed(cold_scalar)

    for dest in dests[:: max(1, len(dests) // 25)]:  # spot-check parity
        materialized = batch.materialize(dest)
        expected = tables[dest]
        assert set(materialized) == set(expected)
        for asn, bp in materialized.items():
            assert bp.path == expected[asn].path

    speedup = scalar_s / max(vector_s, 1e-9)
    obs.gauge("bench.control_plane.oracle.vector_s", vector_s)
    obs.gauge("bench.control_plane.oracle.scalar_s", scalar_s)
    obs.gauge("bench.control_plane.oracle.speedup", speedup)
    print(
        f"cold oracle build [{scale.label}]: {len(dests)} dests, "
        f"frontier {vector_s:.3f}s vs scalar {scalar_s:.3f}s "
        f"({speedup:.1f}x)"
    )
    if scale.label == "paper":
        assert speedup >= 3.0, (
            f"frontier oracle build only {speedup:.1f}x faster than "
            f"per-destination BFS at paper scale"
        )


_FANOUT_EXPERIMENTS = ["fig8", "fig10", "fig12"]


def _pooled(scale, jobs):
    """(records, merged metrics snapshot, seconds) for a pooled run."""
    metrics = obs.Metrics()
    start = time.perf_counter()
    with obs.using(metrics):
        records = run_experiments(
            _FANOUT_EXPERIMENTS, scale, jobs=jobs, cache=None
        )
    return records, metrics.snapshot(), time.perf_counter() - start


def test_pooled_workers_attach_shared_world(benchmark, scale):
    records, snap, pooled_s = run_once(benchmark, _pooled, scale, 2)
    assert all(record.ok for record in records), [
        (record.name, record.status) for record in records
    ]
    counters = snap["counters"]
    # Every worker-side experiment saw an attached segment...
    assert counters.get("shm.worker.attached", 0) >= len(records)
    # ...no worker fell back to unpickling the event table...
    assert counters.get("world.event_columns.pickle_path", 0) == 0
    # ...and the parent unlinked everything it created.
    assert counters.get("shm.segments.created", 0) >= 1
    assert counters.get("shm.leaked", 0) == 0
    assert snap["gauges"].get("shm.segments.open", 0) == 0

    obs.gauge("bench.control_plane.fanout.array_s", pooled_s)
    print(
        f"pooled fan-out [{scale.label}]: {len(records)} experiments, "
        f"shared-world {pooled_s:.3f}s, "
        f"{counters.get('shm.worker.attached', 0):.0f} worker attaches"
    )
