"""Suite-wide parity: every experiment, production vs the reference path.

Runs all registered experiments at a tiny scale twice — once as
shipped, once under :func:`tests.reference.patched` — and requires
identical series digests, the in-process counterpart of the CI job
that diffs ``repro run all`` against ``python -m tests.reference run
all`` with ``repro compare --fail-on-diff``.
"""

import os
import subprocess
import sys

import repro.core
import repro.core.evaluator
import repro.engine.shm
import repro.experiments.exp_ablation_tradeoff as exp_ablation_tradeoff
import repro.experiments.exp_fig8_sensitivity as exp_fig8_sensitivity
import repro.experiments.exp_fig12 as exp_fig12
from repro.core import ContentUpdateCostEvaluator, DeviceUpdateCostEvaluator
from repro.engine.registry import all_specs
from repro.experiments import ExperimentScale, World
from repro.obs.history import digest_series
from repro.routing import RoutingOracle

from tests import reference

TINY = ExperimentScale(
    label="tiny", num_users=16, device_days=2, content_days=1,
    num_popular_domains=16, seed=2014,
)


def _suite_digests():
    """``{experiment: {series: digest}}`` for one fresh tiny World."""
    world = World(TINY, cache=None)
    digests = {}
    for spec in all_specs():
        result = spec.execute(world if spec.needs_world else None)
        digests[spec.name] = {
            series.name: digest_series(
                series.name, series.headers, series.rows
            )
            for series in spec.series(result)
        }
    return digests


def test_all_experiments_match_the_reference_path():
    production = _suite_digests()
    with reference.patched():
        scalar = _suite_digests()
    assert len(production) == 23
    assert scalar == production


def test_patched_installs_and_restores():
    routes_to = RoutingOracle.routes_to
    evaluate = DeviceUpdateCostEvaluator.evaluate
    per_day = repro.core.evaluator.per_day_update_rates
    export_world = repro.engine.shm.export_world
    union_sizes = ContentUpdateCostEvaluator.union_table_sizes
    tradeoff = exp_ablation_tradeoff.evaluate_tradeoff
    aggregate = exp_fig12.router_aggregateability
    with reference.patched():
        assert RoutingOracle.routes_to is reference.routes_to
        assert DeviceUpdateCostEvaluator.evaluate is reference.evaluate_device
        assert (ContentUpdateCostEvaluator.union_table_sizes
                is reference.union_table_sizes)
        assert exp_ablation_tradeoff.evaluate_tradeoff is (
            reference.evaluate_tradeoff
        )
        assert exp_fig12.router_aggregateability is (
            reference.router_aggregateability
        )
        for module in (repro.core, repro.core.evaluator,
                       exp_fig8_sensitivity):
            assert (module.per_day_update_rates
                    is reference.per_day_update_rates)
        assert repro.engine.shm.export_world(TINY) is None
    assert RoutingOracle.routes_to is routes_to
    assert DeviceUpdateCostEvaluator.evaluate is evaluate
    for module in (repro.core, repro.core.evaluator, exp_fig8_sensitivity):
        assert module.per_day_update_rates is per_day
    assert repro.engine.shm.export_world is export_world
    assert ContentUpdateCostEvaluator.union_table_sizes is union_sizes
    assert exp_ablation_tradeoff.evaluate_tradeoff is tradeoff
    assert exp_fig12.router_aggregateability is aggregate


def test_module_entry_point_runs_the_cli():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tests.reference", "run", "table1"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Table 1" in proc.stdout
