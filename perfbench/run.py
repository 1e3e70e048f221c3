"""Benchmark for quiver-regrade: one workload run, in one fresh process.

Usage, from the repository root:

    python3 perfbench/run.py --workload hilbert-tables --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from ``--seed``, measures set-up time in fresh
child processes, then runs whole passes of the workload in this process for
about ``--seconds`` seconds and checks every output.  Every end-to-end time
is scaled to a reference host speed by a calibration loop timed between the
ops (``hostclock.py``).  Prints each metric by
name and unit, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics, and writes the spans under ``perfbench/out``.
Exits 1 when an output is wrong and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One thread everywhere and one field: the machine has two cores and the
# default prime can be overridden from the environment.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "QUIVER_REGRADE_PRIME": "32003",
}
SETUP_PROBES = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "peak_rss_mb": "MB",
}


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_library():
    if not (SRC / "quiver_regrade" / "__init__.py").is_file():
        _fail(f"no quiver_regrade package under {SRC}")
    sys.path.insert(0, str(SRC))
    import quiver_regrade

    if Path(quiver_regrade.__file__).resolve().parent != SRC / "quiver_regrade":
        _fail(f"imported quiver_regrade from {quiver_regrade.__file__}, not from {SRC}")


def measure_setup(texts: list[str]) -> dict[str, float]:
    """Median over fresh processes of: spawn -> package imported, inputs parsed.

    Each probe is scaled to the reference host speed by calibrations taken
    in this process just before and just after it (see ``hostclock``).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    payload = json.dumps(texts)
    ready, numpy_s, import_s = [], [], []
    for _ in range(SETUP_PROBES):
        before = hostclock.calibrate()
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py")],
            input=payload, capture_output=True, text=True, env=env, timeout=60, check=False,
        )
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}", 1)
        k = hostclock.factor(before, hostclock.calibrate())
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        ready.append((report["ready"] - spawned) * k)
        numpy_s.append(report["numpy_import_s"] * k)
        import_s.append(report["import_s"] * k)
    return {
        "setup_s": statistics.median(ready),
        "setup.numpy_import_s": statistics.median(numpy_s),
        "setup.import_s": statistics.median(import_s),
    }


class Run:
    """Passes of one workload, their latencies and the oracle's verdicts.

    Untraced passes are timed on a ``HostClock``: ``pass_s`` holds their raw
    times and ``scaled_pass_s`` and ``latencies`` the scaled ones.  A traced
    pass is calibrated only just before and after it, so that no calibration
    falls inside a span; ``traced_pass_s`` holds their scaled times.
    """

    def __init__(self, workload):
        self.w = workload
        self.clock = hostclock.HostClock()
        self.latencies: list[float] = []
        self.pass_s: list[float] = []
        self.scaled_pass_s: list[float] = []
        self.traced_pass_s: list[float] = []
        self.attempted = 0
        self.failed = 0

    def _check(self, lat, out):
        self.attempted += len(lat)
        self.failed += self.w.check(out)
        self.last_out, self.last_ops = out, len(lat)

    def untraced_pass(self, j: int) -> float:
        """Run pass ``j`` on the host clock; returns its cost in seconds."""
        self.w.prepare(j)
        gc.collect()
        t0 = time.perf_counter()
        self.clock.start()
        lat, out = self.w.run_pass(j, self.clock.op)
        raw, scaled, scaled_lat = self.clock.finish(lat)
        cost = time.perf_counter() - t0
        self.pass_s.append(raw)
        self.scaled_pass_s.append(scaled)
        self.latencies.extend(scaled_lat)
        self._check(lat, out)
        return cost

    def traced_pass(self, j: int, tracer, install) -> float:
        """Run pass ``j`` traced; returns its raw time in seconds.  The
        tracer is off again before the oracle runs."""
        self.w.prepare(j)
        gc.collect()
        before = hostclock.calibrate()
        install(tracer)
        try:
            t0 = time.perf_counter()
            lat, out = self.w.run_pass(j, tracer.begin_op)
            elapsed = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        self.traced_pass_s.append(elapsed * hostclock.factor(before, hostclock.calibrate()))
        self._check(lat, out)
        return elapsed


def run_passes(run: Run, seconds: float, tracer=None, install=None):
    """Whole passes until the next would overrun ``seconds`` (at least one).

    With a tracer, each untraced pass is followed by the same pass traced.
    """
    start = time.perf_counter()
    costs = []
    j = 0
    while True:
        costs.append(run.untraced_pass(j))
        next_cost = statistics.median(costs)
        if tracer is not None:
            next_cost = costs[-1] + run.traced_pass(j, tracer, install)
        j += 1
        if time.perf_counter() - start + next_cost > seconds:
            return


def end_to_end(run: Run, setup: dict) -> dict[str, float]:
    return {
        "setup_s": setup["setup_s"],
        "wall_s": statistics.median(run.scaled_pass_s),
        "op_s.p50": statistics.median(run.latencies),
        "op_s.p90": statistics.quantiles(run.latencies, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.update(PINNED_ENV)
    _import_library()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload](args.seed)
    setup = measure_setup(w.texts)
    w.setup()

    run = Run(w)
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        run_passes(run, args.seconds, tracer, tracing.install_all)
    else:
        run_passes(run, args.seconds)

    # oracle self-check: one deliberately wrong output must be caught
    caught = w.check(w.corrupt(run.last_out))
    print(f"oracle self-check: one wrong output injected into the last pass gives "
          f"failed_frac {caught}/{run.last_ops} = {caught / run.last_ops:.3g}")

    correct = run.failed == 0 and caught > 0
    if args.trace:
        metrics = layers.per_layer(tracer, run, setup)
        OUT.mkdir(exist_ok=True)
        spans = tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print(f"spans written: {spans}; absent names: {', '.join(tracer.absent) or 'none'}")
        units = layers.UNITS
    else:
        metrics = end_to_end(run, setup)
        units = END_TO_END_UNITS

    print(f"workload {args.workload} seed {args.seed}: {run.attempted} ops, {run.failed} failed "
          f"(failed_frac {run.failed / max(1, run.attempted):.4f})")
    print("  untraced passes, raw (s):    " + " ".join(f"{t:.3f}" for t in run.pass_s))
    print("  untraced passes, scaled (s): " + " ".join(f"{t:.3f}" for t in run.scaled_pass_s))
    print(f"  calibration loop: median {run.clock.median_calibration() * 1e3:.3f} ms "
          f"over {len(run.clock.calibrations)} (reference {hostclock.REFERENCE_S * 1e3:g} ms)")
    if run.traced_pass_s:
        print("  traced passes, scaled (s):   " + " ".join(f"{t:.3f}" for t in run.traced_pass_s))
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
