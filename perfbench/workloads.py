"""The benchmark's workloads: which experiments run, at what scale, how.

Each workload stresses a different part of the reproduction (see
README.md for the measured reasons):

* ``content-small`` — the content plane: ``core.evaluator`` content
  reductions, the ``core.tradeoff`` replay and ``core.strategies``
  per-address lookups. Device, forwarding and engine code sit idle.
* ``device-paper`` — the device and control planes over the paper's
  372 users: prefix lookup, workload generation, the device evaluator,
  routing and forwarding. The content evaluator never runs.
* ``harness-pooled`` — every other experiment through the pooled
  runner against an artifact cache: pool start-up, shared-memory
  export/attach, cache store/load and dispatch are a large share.

The experiment lists are pinned here rather than derived from the
registry, so an experiment added later does not silently change what
a workload measures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Tuple

CONTENT_EXPERIMENTS = ("fig11", "fig12", "ablation-union", "ablation-tradeoff")

DEVICE_EXPERIMENTS = (
    "fig6", "fig7", "fig8", "fig9", "fig10", "fib-size",
    "ablation-outage", "ablation-multihoming", "fault-tolerance",
    "fig8-sensitivity", "perturbation", "policy-sensitivity",
)

#: The 19 registered experiments not in ``content-small``.
HARNESS_EXPERIMENTS = (
    "ablation-caching", "ablation-hybrid", "ablation-multihoming",
    "ablation-outage", "ablation-strategy-layer", "compact-routing",
    "envelope", "fault-tolerance", "fib-size", "fig10", "fig6", "fig7",
    "fig8", "fig8-sensitivity", "fig9", "intradomain", "perturbation",
    "policy-sensitivity", "table1",
)

#: Worker processes for the pooled workload: the 2-core host the
#: baseline was measured on.
HARNESS_JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: Tuple[str, ...]
    #: ``"small"`` or ``"paper"``, the base scale before ``overrides``.
    scale_label: str
    #: ``ExperimentScale`` fields replaced on the base scale.
    overrides: Tuple[Tuple[str, int], ...]
    #: Run through ``engine.runner.run_experiments`` with a worker pool.
    pooled: bool
    #: Set-up also builds the content substrate.
    content: bool


#: The in-process workloads are cut down from the named scales so that
#: one pass takes about 7-9 s and a run fits three passes: the content
#: universe to 30 popular domains (small scale has 120), the device
#: trace to 2 days of the paper's 372 users (the paper has 14 days).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("content-small", CONTENT_EXPERIMENTS, "small",
                 overrides=(("num_popular_domains", 30),),
                 pooled=False, content=True),
        Workload("device-paper", DEVICE_EXPERIMENTS, "paper",
                 overrides=(("device_days", 2),),
                 pooled=False, content=False),
        Workload("harness-pooled", HARNESS_EXPERIMENTS, "small",
                 overrides=(), pooled=True, content=False),
    )
}


#: Input sets one run covers, all derived from the run's seed (see
#: :func:`scales_for`). Each gets one set-up before the first timed pass.
INPUT_SETS = 3

#: Fewest timed passes in one run, also when ``--seconds`` ends sooner:
#: one per input set.
MIN_PASSES = INPUT_SETS

#: Distance between the seeds of a run's input sets, so that the sets
#: of runs at nearby seeds never overlap.
INPUT_SET_STRIDE = 1_000_003


def scales_for(workload: Workload, seed: int, tiny: bool = False):
    """The ``ExperimentScale`` of each input set a run at ``seed`` covers.

    The first set is at ``seed`` itself. How much work a pass does
    depends on its inputs: over single seeds, ``content-small`` passes
    differed by up to 15% and ``harness-pooled`` passes by up to 27% in
    CPU time on the same host, so every run averages several sets.

    ``tiny`` is a seconds-scale substrate for the benchmark's
    self-test; it never produces numbers that are compared.
    """
    from repro.experiments import DEFAULT_SCALE, SMALL_SCALE, ExperimentScale

    seeds = [seed + INPUT_SET_STRIDE * i for i in range(INPUT_SETS)]
    if tiny:
        return [ExperimentScale(label="tiny", num_users=16, device_days=2,
                                content_days=1, num_popular_domains=16,
                                seed=s) for s in seeds]
    base = SMALL_SCALE if workload.scale_label == "small" else DEFAULT_SCALE
    return [dataclasses.replace(base, seed=s, **dict(workload.overrides))
            for s in seeds]
