#!/usr/bin/env python3
"""Run the benchmark over several seeds and report the run-to-run spread.

    python3 bench/spread.py --workloads cube128 mni-mri cohort --seeds 1-10 [--trace 1] [--out FILE]

Each run is ``bench/run.py`` with ``run_seconds`` from BENCHMARK.json, one
after another in fresh processes. For every metric it prints the median of
the per-run values, their quartiles (``statistics.quantiles(n=4)``) and the
spread ``(q3 - q1) / median``; for end-to-end metrics also the bound from
BENCHMARK.json. ``--out`` writes the same numbers, every per-run value and
a host record (CPU model, caches, versions) as JSON.
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

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def host_record() -> dict:
    """CPU model and cache sizes as the kernel reports them, plus versions."""
    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
        record["cpu0_caches"] = caches
    except OSError as exc:
        record["cpu_info_error"] = str(exc)
    return record


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run: its result object plus ``elapsed_s``, the run's own wall time."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "elapsed_s": time.perf_counter() - start}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="range 'a-b' or list 'a,b,c'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    result = {"host": host_record(), "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace) for seed in seeds]
        per_metric = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            per_metric[name] = {"unit": runs[0]["metrics"][name]["unit"], **summarize(values), "values": values}
            if name in bounds:
                per_metric[name]["bound"] = bounds[name]
        result["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_elapsed_s": [r["elapsed_s"] for r in runs],
            "metrics": per_metric,
        }
        summary = result["workloads"][workload]
        print(f"== {workload}: correct={summary['correct']} failed={summary['failed']}/{summary['attempted']} "
              f"mean run {statistics.mean(summary['run_elapsed_s']):.1f} s")
        for name, m in per_metric.items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            bound = f" bound {m['bound']}" if "bound" in m else ""
            print(f"  {name:40s} median {m['median']:.6g} {m['unit']:6s} spread {spread}{bound}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
