"""Measure one workload in this (fresh) process and print one JSON line.

``run.py`` starts it once per measurement::

    python3 perfbench/measure.py --workload content-small --seed 2014 \
        --seconds 20 --trace 0

Set-up runs once per input set (in process, also once before every
timed pass) and is reported as a median. The timed
phase repeats whole passes over the workload's experiments until
``--seconds`` have elapsed, and at least :data:`workloads.MIN_PASSES`
times. In process, each pass gets a fresh substrate and the passes take
the run's input sets (:func:`workloads.scales_for`) in turn. Every
set-up and every pass is paired with :mod:`speed` reference samples
taken around it and scaled to the reference speed; ``setup_s`` is the
median of the scaled set-ups, ``wall_s`` and ``cpu_s`` the mean over
input sets of each set's median scaled pass (see README.md for why).
With ``--trace 1`` the layer wrappers of :mod:`tracer` are installed
before anything is built and the per-layer metrics are added.

One operation is one experiment execution. It fails if it raises, if
its run record is not ok, or if its series digests differ from an
earlier execution at the same seed in this process.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from speed import Probe  # noqa: E402
from workloads import (  # noqa: E402
    HARNESS_JOBS,
    MIN_PASSES,
    WORKLOADS,
    Workload,
    scales_for,
)

_clock = time.perf_counter

#: Reference samples taken before and after each pooled pass. A pass
#: runs for seconds with the workers busy, so the reference cannot run
#: inside it as it does between in-process experiments.
POOLED_SAMPLES = 3

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "fidelity_pass": ("count", "higher"),
}


def _experiment_metrics() -> Dict[str, Tuple[str, str]]:
    names = sorted({n for w in WORKLOADS.values() for n in w.experiments})
    return {f"exp.{name}_s": ("s", "lower") for name in names}


#: Per-layer metrics of a traced run: name -> (unit, better). Every
#: workload prints all of them; a layer a workload never enters reads 0.
PER_LAYER = {
    "world.topology_s": ("s", "lower"),
    "world.workload_s": ("s", "lower"),
    "world.event_columns_s": ("s", "lower"),
    "world.universe_s": ("s", "lower"),
    "world.hosting_s": ("s", "lower"),
    "world.measurement_s": ("s", "lower"),
    **_experiment_metrics(),
    "topology.covering_prefix_calls": ("count", "lower"),
    "topology.covering_prefix_s": ("s", "lower"),
    "topology.shortest_as_hops_calls": ("count", "lower"),
    "topology.shortest_as_hops_s": ("s", "lower"),
    "mobility.generate_workload_calls": ("count", "lower"),
    "mobility.generate_workload_s": ("s", "lower"),
    "mobility.as_columns_s": ("s", "lower"),
    "mobility.multihomed_timeline_s": ("s", "lower"),
    "routing.routes_to_calls": ("count", "lower"),
    "routing.candidate_routes_calls": ("count", "lower"),
    "routing.candidate_routes_s": ("s", "lower"),
    "routing.routes_to_many_s": ("s", "lower"),
    "routing.next_hop_table_s": ("s", "lower"),
    "routing.route_tables": ("count", "lower"),
    "forwarding.simulate_event_calls": ("count", "lower"),
    "forwarding.simulate_event_s": ("s", "lower"),
    "forwarding.expected_outage_s": ("s", "lower"),
    "core.evaluator.content_s": ("s", "lower"),
    "core.evaluator.content_events": ("count", "higher"),
    "core.evaluator.content_events_per_s": ("1/s", "higher"),
    "core.evaluator.union_sizes_s": ("s", "lower"),
    "core.evaluator.device_s": ("s", "lower"),
    "core.evaluator.device_events": ("count", "higher"),
    "core.evaluator.fault_tolerance_s": ("s", "lower"),
    "core.tradeoff.self_s": ("s", "lower"),
    "core.strategies.routes_for_addresses_calls": ("count", "lower"),
    "core.strategies.eligible_ports_calls": ("count", "lower"),
    "core.strategies.update_for_event_calls": ("count", "lower"),
    "core.strategies.update_for_event_s": ("s", "lower"),
    "core.displacement.port_for_address_calls": ("count", "lower"),
    "core.displacement.port_for_address_s": ("s", "lower"),
    "measurement.matrix_calls": ("count", "lower"),
    "measurement.matrix_s": ("s", "lower"),
    "engine.shm.export_s": ("s", "lower"),
    "engine.shm.segment_mb": ("MB", "lower"),
    "engine.cache.entries": ("count", "lower"),
    "engine.cache.bytes": ("B", "lower"),
    "engine.cache.driver_hits": ("count", "higher"),
    "engine.cache.driver_misses": ("count", "lower"),
    "engine.runner.first_result_s": ("s", "lower"),
    "engine.runner.parallel_efficiency": ("ratio", "higher"),
    "engine.runner.retries": ("count", "lower"),
    "engine.runner.worker_peak_rss_mb": ("MB", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.coverage_pct": ("%", "higher"),
}


# -- operations and their outcomes -------------------------------------------


class Outcomes:
    """Attempted/failed operations, series digests and paper targets."""

    def __init__(self, scale_label: str):
        self.scale_label = scale_label
        self.attempted = 0
        self.failures: List[str] = []
        #: experiment -> {series name: digest}, from its first execution.
        self.digests: Dict[str, Dict[str, str]] = {}
        #: experiment -> paper targets passed, from its first execution.
        self.fidelity: Dict[str, int] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, spec, ok: bool, digests: Dict[str, str],
               observed: Dict[str, float], error: str = "") -> None:
        self.attempted += 1
        if not ok:
            last = error.strip().splitlines()[-1:] or ["not ok"]
            self.failures.append(f"{spec.name}: {last[0]}")
            return
        first = self.digests.setdefault(spec.name, digests)
        if first != digests:
            self.failures.append(f"{spec.name}: series digest drift")
            return
        self.fidelity.setdefault(spec.name, sum(
            1 for target in spec.targets()
            if target.applies_at(self.scale_label)
            and target.key in observed
            and target.accepts(observed[target.key])
        ))

    @classmethod
    def merged(cls, scales: list, parts: List["Outcomes"]) -> "Outcomes":
        """One record of several input sets; names gain ``@<seed>``."""
        merged = cls(scales[0].label)
        for scale, part in zip(scales, parts):
            merged.attempted += part.attempted
            merged.failures += [f"{f} (seed {scale.seed})" for f in part.failures]
            for name, value in part.digests.items():
                merged.digests[f"{name}@{scale.seed}"] = value
            for name, value in part.fidelity.items():
                merged.fidelity[f"{name}@{scale.seed}"] = value
        return merged

    def execute(self, spec, world) -> None:
        """Run one experiment in this process and record the outcome."""
        from repro.obs import digest_series

        try:
            result = spec.execute(world if spec.needs_world else None)
            spec.format(result)
            digests = {
                s.name: digest_series(s.name, s.headers, s.rows)
                for s in spec.series(result)
            }
            observed = spec.observed(result)
        except Exception as exc:  # one broken experiment never stops the run
            self.record(spec, False, {}, {}, f"{type(exc).__name__}: {exc}")
            return
        self.record(spec, True, digests, observed)


# -- measurement helpers --------------------------------------------------


def _cpu_s(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    if children:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Higher of this process's and its reaped children's peak RSS."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0  # ru_maxrss is in KiB on Linux


def _union_length(intervals: List[Tuple[float, float]], lo: float,
                  hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _world_pieces(content: bool):
    """``(metric stem or None, touch)`` for every substrate piece set-up builds."""
    pieces = [
        ("world.topology_s", lambda w: w.topology),
        (None, lambda w: w.oracle),
        (None, lambda w: w.routeviews),
        ("world.workload_s", lambda w: w.workload),
        ("world.event_columns_s", lambda w: w.device_event_columns),
    ]
    if content:
        pieces += [
            ("world.universe_s", lambda w: w.universe),
            ("world.hosting_s", lambda w: w.hosting),
            ("world.measurement_s", lambda w: w.popular_measurement),
            ("world.measurement_s", lambda w: w.unpopular_measurement),
        ]
    return pieces


def build_world(scale, content: bool):
    """A cache-less World with its substrate touched; ``(world, seconds by piece)``."""
    from repro.experiments import World

    world = World(scale, cache=None)
    parts: Dict[str, float] = {}
    for stem, touch in _world_pieces(content):
        started = _clock()
        touch(world)
        if stem is not None:
            parts[stem] = parts.get(stem, 0.0) + _clock() - started
    return world, parts


def _median_parts(parts: List[Dict[str, float]]) -> Dict[str, float]:
    keys = {k for p in parts for k in p}
    return {k: statistics.median(p.get(k, 0.0) for p in parts) for k in keys}


# -- the two run modes --------------------------------------------------------


def _timed_setup(scale, content: bool):
    """Build a World between reference samples; ``(world, parts, raw s, scaled s)``."""
    probe = Probe()
    probe.sample()
    started = _clock()
    world, parts = build_world(scale, content)
    wall = _clock() - started
    probe.sample()
    return world, parts, wall, wall * probe.factor()


def run_in_process(workload: Workload, scales: list, seconds: float,
                   tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
    from repro.engine.registry import get_spec

    specs = [get_spec(name) for name in workload.experiments]
    if tracer is not None:
        tracer.install(tracing.LAYER_HOOKS)

    setups: Dict[str, List[float]] = {"raw": [], "scaled": []}
    parts = []
    for scale in scales:
        # Slicing drops the World at once, so it is not held while the
        # next one is built.
        piece_times, raw, scaled = _timed_setup(scale, workload.content)[1:]
        setups["raw"].append(raw)
        setups["scaled"].append(scaled)
        parts.append(piece_times)

    outcomes = [Outcomes(scale.label) for scale in scales]
    #: experiment -> raw wall seconds per pass
    times: Dict[str, List[float]] = {s.name: [] for s in specs}
    passes: List[Tuple[int, float, float, float]] = []
    route_tables = []
    if tracer is not None:
        tracer.reset()
    started = _clock()
    while len(passes) < MIN_PASSES or _clock() - started < seconds:
        # Each pass gets a fresh substrate, so every pass is equally
        # cold, and passes take the input sets in turn. The build is not
        # traced and not part of the pass; it is one more set-up, so the
        # set-up samples spread over the whole run.
        current = len(passes) % len(scales)
        if tracer is not None:
            tracer.uninstall()
        world, _, raw, scaled = _timed_setup(scales[current], workload.content)
        setups["raw"].append(raw)
        setups["scaled"].append(scaled)
        if tracer is not None:
            tracer.install(tracing.LAYER_HOOKS)
        probe = Probe()
        wall = cpu = 0.0
        for spec in specs:
            probe.sample()
            cpu0, wall0 = _cpu_s(children=False), _clock()
            if tracer is None:
                outcomes[current].execute(spec, world)
            else:
                tracer.call(f"exp.{spec.name}", outcomes[current].execute,
                            spec, world)
            times[spec.name].append(_clock() - wall0)
            wall += times[spec.name][-1]
            cpu += _cpu_s(children=False) - cpu0
        probe.sample()
        passes.append((current, wall, cpu, probe.factor()))
        route_tables.append(world.oracle.route_cache_size)
        world = None

    result = _timed_result(scales, outcomes, passes, setups)
    if tracer is not None:
        layers = _layer_metrics(tracer, len(passes))
        layers.update(_median_parts(parts))
        layers.update({f"exp.{name}_s": statistics.median(runs)
                       for name, runs in times.items()})
        layers["routing.route_tables"] = float(statistics.median(route_tables))
        traced = sum(wall for _, wall, _, _ in passes)
        unattributed = traced - tracer.covered_below("exp.")
        layers["trace.unattributed_s"] = unattributed / len(passes)
        layers["trace.coverage_pct"] = 100.0 * (1 - unattributed / traced)
        result["layers"] = layers
        result["spans"] = tracer.span_times()
    result["cache"] = "none"
    return result


def _timed_result(scales: list, outcomes: List[Outcomes],
                  passes: List[Tuple[int, float, float, float]],
                  setups: Dict[str, List[float]]) -> Dict[str, Any]:
    """The end-to-end metrics of a run, and the raw seconds behind them.

    ``passes`` holds each timed pass's input set, raw wall and CPU
    seconds and reference factor (:meth:`speed.Probe.factor`). The
    timed metrics are the mean over input sets of each set's median
    pass, so every set weighs the same however many passes it got.
    """
    def per_set(value) -> float:
        return statistics.mean(
            statistics.median(value(p) for p in passes if p[0] == i)
            for i in range(len(scales))
        )

    merged = Outcomes.merged(scales, outcomes)
    return {
        "outcomes": merged,
        "metrics": {
            "wall_s": per_set(lambda p: p[1] * p[3]),
            "setup_s": statistics.median(setups["scaled"]),
            "cpu_s": per_set(lambda p: p[2] * p[3]),
            "peak_rss_mb": _peak_rss_mb(),
            "fidelity_pass": float(sum(merged.fidelity.values())),
        },
        "raw": {
            "wall_s": per_set(lambda p: p[1]),
            "setup_s": statistics.median(setups["raw"]),
            "cpu_s": per_set(lambda p: p[2]),
            "speed": statistics.median(p[3] for p in passes),
        },
        "passes": len(passes),
    }


def _cache_footprint(root: str) -> Tuple[int, int]:
    entries = size = 0
    for name in os.listdir(root):
        path = os.path.join(root, name)
        if os.path.isfile(path):
            entries += 1
            size += os.path.getsize(path)
    return entries, size


def run_pooled(workload: Workload, scales: list, seconds: float,
               tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
    from repro.engine.cache import ArtifactCache
    from repro.engine.registry import get_spec
    from repro.engine.runner import run_experiments

    specs = {name: get_spec(name) for name in workload.experiments}
    outcomes = [Outcomes(scale.label) for scale in scales]

    def record_all(current: int, records) -> None:
        for record in records:
            outcomes[current].record(specs[record.name], record.ok,
                                     record.series_digests, record.observed,
                                     record.error)

    if tracer is not None:
        tracer.install(tracing.ENGINE_HOOKS)
    scratch = tempfile.mkdtemp(prefix="harness-")
    try:
        # Set-up: cold passes, each against a new empty cache. Every
        # input set keeps a cache of its own: the topology and oracle
        # tables do not depend on the seed, so a shared cache would make
        # the cold passes after the first partly warm.
        setups: Dict[str, List[float]] = {"raw": [], "scaled": []}
        caches = []
        for current, scale in enumerate(scales):
            caches.append(ArtifactCache(tempfile.mkdtemp(dir=scratch)))
            probe = Probe()
            probe.sample(POOLED_SAMPLES)
            started = _clock()
            records = run_experiments(list(workload.experiments), scale,
                                      jobs=HARNESS_JOBS, cache=caches[current])
            wall = _clock() - started
            probe.sample(POOLED_SAMPLES)
            setups["raw"].append(wall)
            setups["scaled"].append(wall * probe.factor())
            record_all(current, records)
        entries, size = _cache_footprint(caches[0].root)

        if tracer is not None:
            tracer.reset()
        timed: List[Tuple[int, float, float, float]] = []
        passes = []
        started = _clock()
        while len(timed) < MIN_PASSES or _clock() - started < seconds:
            current = len(timed) % len(scales)
            cache = caches[current]
            hits, misses = cache.hits, cache.misses
            first: List[float] = []
            probe = Probe()
            probe.sample(POOLED_SAMPLES)
            cpu0 = _cpu_s(children=True)
            wall0, epoch0 = _clock(), time.time()
            records = run_experiments(
                list(workload.experiments), scales[current],
                jobs=HARNESS_JOBS, cache=cache,
                on_record=lambda _r: first or first.append(_clock()),
            )
            wall = _clock() - wall0
            cpu = _cpu_s(children=True) - cpu0
            probe.sample(POOLED_SAMPLES)
            timed.append((current, wall, cpu, probe.factor()))
            record_all(current, records)
            passes.append({
                "wall": wall, "wall0": wall0, "epoch0": epoch0,
                "records": records, "first": first[0] - wall0,
                "hits": cache.hits - hits, "misses": cache.misses - misses,
            })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = _timed_result(scales, outcomes, timed, setups)
    result["cache"] = "cold set-up, warm timed passes"
    if tracer is not None:
        layers = _layer_metrics(tracer, len(timed))
        layers.update(_engine_metrics(tracer, passes, entries, size))
        result["layers"] = layers
        result["spans"] = tracer.span_times()
    return result


# -- per-layer reduction ---------------------------------------------------


def _layer_metrics(tracer: tracing.Tracer, passes: int) -> Dict[str, float]:
    """Per-pass layer numbers from the tracer (zeros for idle layers)."""
    spans = tracer.span_times()

    def span(stem: str, field: str) -> float:
        return spans.get(stem, {}).get(field, 0.0) / passes

    def hot(stem: str, index: int) -> float:
        return tracer.hot.get(stem, [0, 0.0])[index] / passes

    content_inclusive = span("core.evaluator.content", "inclusive_s")
    content_events = tracer.tallies.get("core.evaluator.content", 0.0) / passes
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({
        "topology.covering_prefix_calls": hot("topology.covering_prefix", 0),
        "topology.covering_prefix_s": hot("topology.covering_prefix", 1),
        "topology.shortest_as_hops_calls": hot("topology.shortest_as_hops", 0),
        "topology.shortest_as_hops_s": hot("topology.shortest_as_hops", 1),
        "mobility.generate_workload_calls":
            span("mobility.generate_workload", "calls"),
        "mobility.generate_workload_s":
            span("mobility.generate_workload", "inclusive_s"),
        "mobility.as_columns_s": span("mobility.as_columns", "inclusive_s"),
        "mobility.multihomed_timeline_s":
            hot("mobility.multihomed_timeline", 1),
        "routing.routes_to_calls": hot("routing.routes_to", 0),
        "routing.candidate_routes_calls": hot("routing.candidate_routes", 0),
        "routing.candidate_routes_s": hot("routing.candidate_routes", 1),
        "routing.routes_to_many_s":
            span("routing.routes_to_many", "inclusive_s"),
        "routing.next_hop_table_s":
            span("routing.next_hop_table", "inclusive_s"),
        "forwarding.simulate_event_calls": hot("forwarding.simulate_event", 0),
        "forwarding.simulate_event_s": hot("forwarding.simulate_event", 1),
        "forwarding.expected_outage_s":
            span("forwarding.expected_outage", "inclusive_s"),
        "core.evaluator.content_s": span("core.evaluator.content", "self_s"),
        "core.evaluator.content_events": content_events,
        "core.evaluator.content_events_per_s": (
            content_events / content_inclusive if content_inclusive else 0.0
        ),
        "core.evaluator.union_sizes_s":
            span("core.evaluator.union_sizes", "inclusive_s"),
        "core.evaluator.device_s": span("core.evaluator.device", "self_s"),
        "core.evaluator.device_events":
            tracer.tallies.get("core.evaluator.device", 0.0) / passes,
        "core.evaluator.fault_tolerance_s":
            span("core.evaluator.fault_tolerance", "inclusive_s"),
        "core.tradeoff.self_s": span("core.tradeoff", "self_s"),
        "core.strategies.routes_for_addresses_calls":
            hot("core.strategies.routes_for_addresses", 0),
        "core.strategies.eligible_ports_calls":
            hot("core.strategies.eligible_ports", 0),
        "core.strategies.update_for_event_calls":
            hot("core.strategies.update_for_event", 0),
        "core.strategies.update_for_event_s":
            hot("core.strategies.update_for_event", 1),
        "core.displacement.port_for_address_calls":
            hot("core.displacement.port_for_address", 0),
        "core.displacement.port_for_address_s":
            hot("core.displacement.port_for_address", 1),
        "measurement.matrix_calls": hot("measurement.matrix", 0),
        "measurement.matrix_s": hot("measurement.matrix", 1),
    })
    return out


def _engine_metrics(tracer: tracing.Tracer, passes: List[Dict[str, Any]],
                    entries: int, size: int) -> Dict[str, float]:
    """Parent-side harness numbers, as per-pass medians."""
    exports = [r for r in tracer.spans if r[tracing.NAME] == "engine.shm.export"]
    export_s = [r[tracing.END] - r[tracing.START] for r in exports]
    segment_mb = tracer.tallies.get("engine.shm.export", 0.0) / len(exports)

    def med(values) -> float:
        return float(statistics.median(values))

    unattributed, efficiency = [], []
    for run in passes:
        busy = [(r[tracing.START] - run["wall0"], r[tracing.END] - run["wall0"])
                for r in exports
                if run["wall0"] <= r[tracing.START] <= run["wall0"] + run["wall"]]
        busy += [(rec.started_at - run["epoch0"],
                  rec.started_at - run["epoch0"] + rec.wall_s)
                 for rec in run["records"]]
        unattributed.append(run["wall"] - _union_length(busy, 0.0, run["wall"]))
        efficiency.append(sum(rec.wall_s for rec in run["records"])
                          / (HARNESS_JOBS * run["wall"]))
    out = {
        f"exp.{name}_s": med(
            rec.wall_s for run in passes for rec in run["records"]
            if rec.name == name
        )
        for name in {rec.name for rec in passes[0]["records"]}
    }
    out.update({
        "engine.shm.export_s": med(export_s),
        "engine.shm.segment_mb": segment_mb,
        "engine.cache.entries": float(entries),
        "engine.cache.bytes": float(size),
        "engine.cache.driver_hits": med(run["hits"] for run in passes),
        "engine.cache.driver_misses": med(run["misses"] for run in passes),
        "engine.runner.first_result_s": med(run["first"] for run in passes),
        "engine.runner.parallel_efficiency": med(efficiency),
        "engine.runner.retries": med(
            sum(rec.attempts for rec in run["records"]) - len(run["records"])
            for run in passes
        ),
        "engine.runner.worker_peak_rss_mb": max(
            rec.metrics.get("gauges", {}).get("resources.peak_rss_mb", 0.0)
            for run in passes for rec in run["records"]
        ),
        "trace.unattributed_s": med(unattributed),
        "trace.coverage_pct": med(
            100.0 * (1 - u / run["wall"]) for u, run in zip(unattributed, passes)
        ),
    })
    return out


# -- entry point -------------------------------------------------------------


def conditions(workload: Workload, scales: list, trace: bool,
               cache: str) -> Dict[str, Any]:
    """The run conditions every result is stamped with."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "scale": dataclasses.asdict(scales[0]),
        "input_seeds": [scale.seed for scale in scales],
        "jobs": HARNESS_JOBS if workload.pooled else 1,
        "cache": cache,
        "trace": trace,
    }


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    from repro.obs.history import git_sha

    return git_sha()


def _source_digest() -> str:
    """Hash of every file under ``src/``: names the code that was measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> Dict[str, Any]:
    """Run one workload here; the JSON-ready result ``run.py`` consumes."""
    workload = WORKLOADS[workload_name]
    scales = scales_for(workload, seed, tiny)
    tracer = tracing.Tracer() if trace else None
    runner = run_pooled if workload.pooled else run_in_process
    try:
        result = runner(workload, scales, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcomes: Outcomes = result.pop("outcomes")
    result.update({
        "workload": workload.name,
        "conditions": conditions(workload, scales, trace, result.pop("cache")),
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "failures": outcomes.failures,
        "digests": outcomes.digests,
    })
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
