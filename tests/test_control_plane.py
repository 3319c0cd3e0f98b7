"""Array-native control plane vs the scalar reference, property-style.

Three parity obligations pinned here:

* the frontier-batched oracle (:meth:`RoutingOracle.routes_to_many`)
  must equal the per-destination scalar computation
  (:func:`tests.reference.compute_routes`) on arbitrary valley-free
  internets, including multihomed stubs;
* the vectorized FIB derivation (``VantagePoint.next_hop_table``) must
  equal the scalar per-prefix ``fib_best`` ranking
  (:func:`tests.reference.next_hop_table`), including under selective
  announcement;
* batched convergence (``expected_outage``/``_under_faults``) must be
  bit-identical to the per-event scalar simulator
  (:func:`tests.reference.patched`).

Plus the serialization contracts the shared-memory fan-out leans on:
a pickled oracle drops its frontier engine and dirty count, and an
array artifact written by a different GENERATOR_VERSION is a counted
cache miss, never a crash.
"""

import pickle
import random

import pytest
from hypothesis import given, settings

from repro import obs
from repro.faults import LINK, ROUTER, FaultEvent, FaultSchedule
from repro.faults.models import MessageLossModel
from repro.forwarding import ConvergenceSimulator
from repro.net import IPv4Prefix
from repro.routing import RoutingOracle, VantagePoint
from repro.topology import (
    binary_tree_topology,
    chain_topology,
    clique_topology,
    star_topology,
)

from . import reference
from .test_property_routing import random_internet

np = pytest.importorskip("numpy")


def _assert_tables_equal(batch_table, scalar_table, dest):
    assert set(batch_table) == set(scalar_table), dest
    for asn, bp in batch_table.items():
        ref = scalar_table[asn]
        assert bp.path == ref.path, (dest, asn)
        assert bp.path_type is ref.path_type, (dest, asn)


class TestRoutesToManyParity:
    @settings(max_examples=50, deadline=None)
    @given(random_internet())
    def test_batch_equals_scalar_compute(self, topo):
        oracle = RoutingOracle(topo)
        dests = sorted(topo.ases)
        batch = oracle.routes_to_many(dests)
        for dest in dests:
            _assert_tables_equal(
                batch.materialize(dest), reference.compute_routes(topo, dest),
                dest,
            )

    @settings(max_examples=30, deadline=None)
    @given(random_internet())
    def test_routes_to_equals_scalar_compute(self, topo):
        # The public per-dest API must agree too (it materializes from
        # the frontier engine's table).
        oracle = RoutingOracle(topo)
        for dest in sorted(topo.ases):
            _assert_tables_equal(
                oracle.routes_to(dest), reference.compute_routes(topo, dest),
                dest,
            )


def _attach_prefixes(topo):
    """Two /24s per AS — enough repetition for selective announcement."""
    prefixes = []
    for i, asn in enumerate(sorted(topo.ases)):
        for j in range(2):
            prefix = IPv4Prefix(((10 << 24) | (i << 12) | (j << 8)), 24)
            topo.assign_prefix(asn, prefix)
            prefixes.append(prefix)
    return prefixes


def _vantages(topo):
    """Collectors at every multi-neighbor AS, plain and selective."""
    out = []
    for asn in sorted(topo.ases):
        node = topo.ases[asn]
        neighbors = {
            nbr: topo.relationship(asn, nbr) for nbr in node.neighbors()
        }
        if len(neighbors) < 2:
            continue
        out.append(VantagePoint(
            name=f"plain-{asn}", host_region=node.region,
            neighbors=neighbors,
        ))
        out.append(VantagePoint(
            name=f"selective-{asn}", host_region=node.region,
            neighbors=neighbors, selective_fraction=0.7,
        ))
    return out[:6]  # bound the per-example cost


class TestNextHopTableParity:
    @settings(max_examples=25, deadline=None)
    @given(random_internet())
    def test_batch_equals_fib_best(self, topo):
        # random_internet multihomes a fraction of stubs/T2s (two
        # providers), and the selective-* vantages exercise the
        # announcement filter — both named in the parity obligation.
        prefixes = _attach_prefixes(topo)
        array_oracle = RoutingOracle(topo)
        tables = {
            vp.name: np.asarray(vp.next_hop_table(array_oracle, prefixes))
            for vp in _vantages(topo)
        }
        with reference.patched():
            scalar_oracle = RoutingOracle(topo)
            for vp in _vantages(topo):
                expected = reference.next_hop_table(
                    vp, scalar_oracle, prefixes
                )
                assert (tables[vp.name] == expected).all(), vp.name


_GRAPHS = {
    "chain": lambda: chain_topology(7),
    "tree": lambda: binary_tree_topology(12),
    "clique": lambda: clique_topology(6),
    "star": lambda: star_topology(8),
}


class TestConvergenceBatchParity:
    @pytest.mark.parametrize("graph_name", sorted(_GRAPHS))
    @pytest.mark.parametrize("seed", [0, 7, 2014])
    def test_expected_outage_bit_identical(self, graph_name, seed):
        graph = _GRAPHS[graph_name]()
        batched = ConvergenceSimulator(graph).expected_outage(
            12, random.Random(seed)
        )
        with reference.patched():
            scalar = ConvergenceSimulator(graph).expected_outage(
                12, random.Random(seed)
            )
        assert batched == scalar  # exact float equality, not approx

    @pytest.mark.parametrize("graph_name", sorted(_GRAPHS))
    @pytest.mark.parametrize("seed", [3, 11])
    def test_outage_under_faults_bit_identical(self, graph_name, seed):
        graph = _GRAPHS[graph_name]()
        nodes = sorted(graph.nodes(), key=repr)
        faults = FaultSchedule([
            FaultEvent(start=0.0, kind=ROUTER, target=nodes[1],
                       duration=2.5),
            FaultEvent(start=1.0, kind=LINK,
                       target=(nodes[0], nodes[1]), duration=3.0),
        ])
        loss = MessageLossModel(loss_rate=0.15)

        def run():
            return ConvergenceSimulator(graph).expected_outage_under_faults(
                10, random.Random(seed), loss=loss, faults=faults
            )

        batched = run()
        with reference.patched():
            scalar = run()
        assert batched == scalar


class TestOraclePickleState:
    def test_pickle_drops_frontier_and_dirty(self):
        topo = star_topology_as_internet()
        oracle = RoutingOracle(topo)
        dests = sorted(topo.ases)[:3]
        oracle.routes_to_many(dests)  # builds the frontier engine
        for dest in dests:
            oracle.routes_to(dest)
        assert oracle._frontier is not None
        assert oracle.table_dirty > 0

        clone = pickle.loads(pickle.dumps(oracle))
        assert clone._frontier is None
        assert clone._dirty == 0
        assert clone.table_dirty == 0
        # ...and it still answers correctly (rebuilding lazily).
        for dest in dests:
            _assert_tables_equal(
                clone.routes_to(dest), reference.compute_routes(topo, dest),
                dest,
            )


def star_topology_as_internet():
    """A tiny fixed internet: one T1, two T2s, three multihomed stubs."""
    from repro.topology import ASNode, ASTopology, Tier

    topo = ASTopology()
    topo.add_as(ASNode(10, Tier.T1, "us-west"))
    topo.add_as(ASNode(20, Tier.T2, "us-east"))
    topo.add_as(ASNode(21, Tier.T2, "eu-west"))
    for asn in (30, 31, 32):
        topo.add_as(ASNode(asn, Tier.STUB, "asia-east"))
    topo.add_customer_provider(20, 10)
    topo.add_customer_provider(21, 10)
    topo.add_peering(20, 21)
    for asn in (30, 31, 32):
        topo.add_customer_provider(asn, 20)
        topo.add_customer_provider(asn, 21)  # multihomed
    return topo


class TestArrayArtifactVersioning:
    def test_generator_version_mismatch_is_counted_miss(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import cache as cache_mod

        store = cache_mod.ArtifactCache(str(tmp_path))
        key = store.key("oracle-tables", seed=1)
        store.store_arrays(key, {"dests": np.arange(5, dtype=np.int32)})
        assert store.load_arrays(key) is not None

        monkeypatch.setattr(
            cache_mod, "GENERATOR_VERSION",
            cache_mod.GENERATOR_VERSION + 1,
        )
        metrics = obs.Metrics()
        with obs.using(metrics):
            assert store.load_arrays(key) is None  # miss, not crash
        snap = metrics.snapshot()
        assert snap["counters"].get("cache.version_mismatch") == 1
        # The stale artifact is dropped, so the next load is a plain
        # miss with no second mismatch count.
        with obs.using(metrics):
            assert store.load_arrays(key) is None
        assert (
            metrics.snapshot()["counters"]["cache.version_mismatch"] == 1
        )
