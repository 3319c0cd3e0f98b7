"""The repository benchmark: run workloads, check outputs, print metrics.

Usage (from the repository root)::

    python3 perfbench/run.py                      # all workloads, untraced
    python3 perfbench/run.py --workload content-small --seed 7 \
        --seconds 20 --trace 1

Each measurement runs in a fresh ``measure.py`` process, so peak RSS
and lazily built state belong to that run alone. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` makes an untraced and then a
traced measurement at the same seed and prints the per-layer metrics,
with the traced run's slowdown as ``trace.overhead_pct``. The series
digests of the two must agree; any that differ are failed operations.

The timed metrics are scaled to a fixed reference speed of the host
(see ``speed.py``); the report also gives them unscaled. The report
gives the run conditions, every metric by name with its unit, the
operation counts and the combined ``series_digest``; its last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

#: Settings that change what is measured (scalar reference paths, fault
#: injection, a shared cache, another scale, memory profiling, sampler
#: rate, cache eviction). A run with any of them set is refused.
FORBIDDEN_ENV = (
    "REPRO_SCALAR", "REPRO_CHAOS", "REPRO_CACHE_DIR", "REPRO_SCALE",
    "REPRO_PROFILE_MEM", "REPRO_RESOURCE_HZ", "REPRO_CACHE_MAX_MB",
)

#: Thread pools numpy's BLAS/OpenMP back ends may start.
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

#: Wall-clock budget of one invocation for a single workload.
DEADLINE_S = 170.0

#: Scratch space inside the checkout; emptied and removed after each run.
TMP_DIR = os.path.join(ROOT, ".perfbench-tmp")


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def _child_env(tmp: str) -> Dict[str, str]:
    env = dict(os.environ)
    threads = str(os.cpu_count() or 1)
    for name in THREAD_ENV:
        env[name] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = tmp
    return env


def _measure(workload: str, seed: int, seconds: float, trace: bool,
             env: Dict[str, str], deadline: float) -> Dict[str, Any]:
    """One measurement in a fresh process; its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "measure.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace))]
    # A session of its own, so a timeout also reaches the pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}: measurement exceeded the deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload}: measurement exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: measurement printed no result")
    return json.loads(lines[-1])


def series_digest(digests: Dict[str, Dict[str, str]]) -> str:
    """One digest over every experiment's series digests."""
    blob = json.dumps(digests, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 env: Dict[str, str], deadline: float) -> Dict[str, Any]:
    """Measure one workload; the metrics the ``--trace`` mode reports."""
    from measure import END_TO_END, PER_LAYER

    plain = _measure(workload, seed, seconds, False, env, deadline)
    runs = [plain]
    failures = list(plain["failures"])
    if trace:
        traced = _measure(workload, seed, seconds, True, env, deadline)
        runs.append(traced)
        failures += traced["failures"]
        for name, digests in traced["digests"].items():
            if plain["digests"].get(name, digests) != digests:
                failures.append(f"{name}: series digest drift under tracing")
        metrics = dict(traced["layers"])
        metrics["trace.overhead_pct"] = 100.0 * (
            traced["metrics"]["wall_s"] / plain["metrics"]["wall_s"] - 1.0
        )
        units = PER_LAYER
    else:
        metrics = plain["metrics"]
        units = END_TO_END
    return {
        "workload": workload,
        "conditions": dict(plain["conditions"], trace=trace),
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                    for name in units},
        "attempted": sum(run["attempted"] for run in runs),
        "failed": len(failures),
        "failures": failures,
        "series_digest": series_digest(plain["digests"]),
        "raw": plain["raw"],
    }


def _print_report(result: Dict[str, Any]) -> None:
    print(f"== {result['workload']}")
    print("conditions " + json.dumps(result["conditions"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']!r} {metric['unit']}")
    raw = result["raw"]
    print(f"  unscaled: wall_s {raw['wall_s']!r} s, setup_s "
          f"{raw['setup_s']!r} s, cpu_s {raw['cpu_s']!r} s; "
          f"reference factor {raw['speed']!r}")
    share = result["failed"] / result["attempted"]
    print(f"  operations: {result['attempted']} attempted, "
          f"{result['failed']} failed ({share:.1%})")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"series_digest {result['series_digest']}")


def _finite(result: Dict[str, Any]) -> bool:
    return all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
               for m in result["metrics"].values())


def main(argv: Optional[List[str]] = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    forbidden = [name for name in FORBIDDEN_ENV if name in os.environ]
    if forbidden:
        print("perfbench: refusing to measure with " + ", ".join(forbidden)
              + " set", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through the ``finally`` blocks below, which stop
    # the measurement's process group and remove the scratch space.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(TMP_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_DIR)
    try:
        env = _child_env(tmp)
        results = []
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), env, deadline))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass  # another run is still using it

    for result in results:
        _print_report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": metric
                   for r in results for name, metric in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0 and all(_finite(r) for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
