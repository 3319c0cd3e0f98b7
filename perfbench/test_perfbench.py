"""Self-test of the benchmark at a tiny scale.

Run from the repository root::

    python3 -m pytest -p no:cacheprovider perfbench

It checks that every metric ``BENCHMARK.json`` names is printed with
its unit, that failed and drifting operations are counted, that span
self time never exceeds inclusive time, and that the untraced share of
a traced run is reported.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import measure  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _tiny_measure(workload, seed, seconds, trace, env, deadline):
    """``run._measure`` at the tiny scale, in this process."""
    result = measure.measure(workload, seed, seconds, trace, tiny=True)
    return json.loads(json.dumps(result))  # as if read from a child


@pytest.fixture
def tiny_run(monkeypatch):
    """``run.main`` measuring every workload at the tiny scale in process."""
    monkeypatch.setattr(run, "_measure", _tiny_measure)
    previous = signal.getsignal(signal.SIGTERM)
    yield run.main
    signal.signal(signal.SIGTERM, previous)


class FakeSpec:
    """Duck-typed ``ExperimentSpec`` with a controllable result."""

    needs_world = False

    def __init__(self, name, rows=((1, 2),), error=None):
        self.name = name
        self.rows = rows
        self.error = error

    def execute(self, world=None):
        if self.error is not None:
            raise self.error
        return self.rows

    def format(self, result):
        return str(result)

    def series(self, result):
        from repro.engine.registry import Series

        return [Series(self.name, ("a", "b"), result)]

    def observed(self, result):
        return {}

    def targets(self):
        return []


def test_benchmark_json_matches_the_printed_metrics():
    assert [m["name"] for m in BENCHMARK["workloads"]] == sorted(WORKLOADS)
    for section, table in (("end_to_end", measure.END_TO_END),
                           ("per_layer", measure.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in BENCHMARK[section]}
        assert declared == table


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace, tiny_run, capsys):
    assert tiny_run(["--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    # The tiny substrate is degenerate enough that an experiment may
    # fail on it; every failure must be listed and counted.
    listed = sum(line.strip().startswith("FAILED ") for line in lines)
    assert summary["failed"] == listed < summary["attempted"]
    assert summary["correct"] == (listed == 0)
    section = "per_layer" if trace else "end_to_end"
    for workload in WORKLOADS:
        for metric in BENCHMARK[section]:
            printed = summary["metrics"][f"{workload}/{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert any(
                line.split()[:1] == [metric["name"]]
                and line.split()[-1] == metric["unit"]
                for line in lines
            ), metric["name"]
    assert sum(line.startswith("series_digest ") for line in lines) == 3
    assert sum(line.startswith("conditions ") for line in lines) == 3
    if trace:
        for workload in WORKLOADS:
            unattributed = summary["metrics"][f"{workload}/trace.unattributed_s"]
            assert unattributed["value"] >= 0.0


def test_a_raising_experiment_is_a_failed_operation():
    outcomes = measure.Outcomes("tiny")
    outcomes.execute(FakeSpec("good"), None)
    outcomes.execute(FakeSpec("bad", error=RuntimeError("boom")), None)
    assert (outcomes.attempted, outcomes.failed) == (2, 1)
    assert "boom" in outcomes.failures[0]


def test_a_doctored_digest_is_a_failed_operation():
    outcomes = measure.Outcomes("tiny")
    outcomes.execute(FakeSpec("exp"), None)
    outcomes.execute(FakeSpec("exp", rows=((1, 3),)), None)
    assert (outcomes.attempted, outcomes.failed) == (2, 1)
    assert "drift" in outcomes.failures[0]


def test_a_not_ok_run_record_is_a_failed_operation():
    outcomes = measure.Outcomes("tiny")
    outcomes.record(FakeSpec("exp"), False, {}, {}, "Traceback\nKeyError: x")
    assert outcomes.failures == ["exp: KeyError: x"]


def test_digest_drift_between_untraced_and_traced_runs_fails(monkeypatch):
    def fake_measure(workload, seed, seconds, trace, env, deadline):
        return {
            "conditions": {}, "attempted": 1, "failures": [],
            "digests": {"exp": {"s": "traced" if trace else "plain"}},
            "metrics": {"wall_s": 1.0}, "raw": {},
            "layers": dict.fromkeys(measure.PER_LAYER, 0.0),
        }

    monkeypatch.setattr(run, "_measure", fake_measure)
    result = run.run_workload("content-small", 1, 0.0, True, {}, 0.0)
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_timings_are_scaled_and_averaged_over_input_sets():
    from types import SimpleNamespace

    scales = [SimpleNamespace(label="tiny", seed=s) for s in (1, 2)]
    parts = [measure.Outcomes("tiny") for _ in scales]
    for part in parts:
        part.execute(FakeSpec("exp"), None)
    # (input set, raw wall, raw cpu, reference factor): a pass made while
    # the reference ran twice as slow (factor 0.5) counts half.
    passes = [(0, 4.0, 3.0, 0.5), (1, 3.0, 3.0, 1.0), (0, 2.0, 1.5, 1.0)]
    setups = {"raw": [1.0, 3.0, 2.0], "scaled": [1.0, 1.5, 2.0]}
    result = measure._timed_result(scales, parts, passes, setups)
    assert result["metrics"]["wall_s"] == (2.0 + 3.0) / 2
    assert result["metrics"]["cpu_s"] == (1.5 + 3.0) / 2
    assert result["metrics"]["setup_s"] == 1.5
    assert result["raw"]["wall_s"] == (3.0 + 3.0) / 2
    assert set(result["outcomes"].digests) == {"exp@1", "exp@2"}
    assert result["outcomes"].attempted == 2


def test_span_self_time_never_exceeds_inclusive_time():
    clock = iter(float(t) for t in range(1000)).__next__
    tracer = tracing.Tracer(clock=clock)
    leaf = tracer.hot_timer("leaf", lambda: None)
    inner = tracer.span("inner", lambda: leaf())
    outer = tracer.span("outer", lambda: (inner(), leaf(), inner()))
    tracer.call("root", outer)
    times = tracer.span_times()
    assert times["inner"]["calls"] == 2 and tracer.hot["leaf"][0] == 3
    for record in tracer.spans:
        inclusive = record[tracing.END] - record[tracing.START]
        assert 0.0 <= inclusive - record[tracing.COVERED] <= inclusive
    # Coverage is counted once, by the outermost instrumented frame.
    assert times["outer"]["self_s"] == (
        times["outer"]["inclusive_s"] - times["inner"]["inclusive_s"] - 1
    )


def test_traced_run_spans_are_consistent_and_uninstalled():
    from repro.topology.aslevel import ASTopology

    original = ASTopology.covering_prefix
    result = measure.measure("device-paper", 3, 0.0, True, tiny=True)
    assert ASTopology.covering_prefix is original
    assert result["attempted"] > result["failed"]
    for stem, row in result["spans"].items():
        assert row["self_s"] <= row["inclusive_s"] + 1e-9, stem
    layers = result["layers"]
    assert layers["topology.covering_prefix_calls"] > 0
    assert 0.0 <= layers["trace.unattributed_s"] <= result["metrics"]["wall_s"]


def test_refuses_settings_that_change_the_measurement(tiny_run, monkeypatch,
                                                     capsys):
    monkeypatch.setenv("REPRO_SCALAR", "1")
    assert tiny_run(["--workload", "content-small"]) == 2
    out, err = capsys.readouterr()
    assert "REPRO_SCALAR" in err and out == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "content-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
