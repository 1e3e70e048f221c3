"""Run the benchmark over several seeds and summarise each end-to-end metric.

Usage, from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads hilbert-tables ...] [--out FILE]

For every workload and seed it runs ``run.py`` with the run length from
``BENCHMARK.json`` and reports, per metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  ``--out`` writes the summary with the environment as JSON.
Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _environment() -> dict:
    probe = "import numpy, sys; print(numpy.__version__)"
    numpy_version = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "QUIVER_REGRADE_PRIME": "32003",
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=False,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({time.perf_counter() - started:.1f} s): " + " ".join(
                f"{name}={values[name][-1]:.6g}" for name in bounds), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            summary[workload][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals),
            }
            print(f"  {workload:<15} {name:<12} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.3f} (bound {bounds[name]})")
    if args.out:
        args.out.write_text(json.dumps(
            {"seeds": args.seeds, "run_seconds": bench["run_seconds"],
             "environment": _environment(), "workloads": summary}, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
