"""Measure a baseline: every workload over several seeds, written to JSON.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 30 --sets 2 --out perfbench/baseline.json

Each set runs perfbench/run.py once per (workload, seed) with tracing off;
sets run one after another.  For each end-to-end metric a set records every
value, the median and the quartiles, and the spread: the distance between
the quartiles as a share of the median.  Every later set's medians are also
given as a ratio to the first set's.  After the sets, one traced run per
workload (first seed) gives the per-layer figures.  The machine (CPU count,
Python version) and the commit are recorded alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("iso-enum", "eval-sweep", "class-pipeline")


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def measure_set(workload: str, chosen: list[int], seconds: str, label: str) -> dict:
    values: dict[str, list[float]] = {}
    attempted = failed = 0
    for seed in chosen:
        result = run(workload, seed, seconds, 0)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        line = " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
        print(f"{label} {workload} seed {seed}: {line}", flush=True)
    summary = {}
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None, "values": vs}
        print(f"{label} {workload} {name}: median {med:.4g} spread {summary[name]['spread']:.3f}",
              flush=True)
    return {"attempted": attempted, "failed": failed, "end_to_end": summary}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    chosen = seeds(args.seeds)
    workloads = args.workloads.split(",")
    out = {
        "commit": commit(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seeds": chosen,
        "seconds": float(args.seconds),
        "sets": [],
        "median_ratio_to_first_set": [],
        "per_layer_seed": chosen[0],
        "per_layer": {},
    }

    def save():
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")

    for k in range(args.sets):
        out["sets"].append({})
        for workload in workloads:
            out["sets"][k][workload] = measure_set(workload, chosen, args.seconds, f"set {k + 1}")
            save()
        if k:
            out["median_ratio_to_first_set"].append({
                workload: {
                    name: m["median"] / out["sets"][0][workload]["end_to_end"][name]["median"]
                    for name, m in out["sets"][k][workload]["end_to_end"].items()
                }
                for workload in workloads
            })
            save()
    for workload in workloads:
        traced = run(workload, chosen[0], args.seconds, 1)
        out["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
