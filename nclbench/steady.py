"""Steadiness mode: repeat workloads over several seeds and summarize.

    python3 nclbench/steady.py --workload transforms --workload oracles \\
        --seeds 1-10 [--record LABEL] [--trace]

Runs `run.py` once per (workload, seed), then prints, for every end-to-end
metric, the median and quartiles of its values and their spread -- the
distance between the quartiles as a share of the median.  A metric whose
spread exceeds its bound in BENCHMARK.json is flagged: differences smaller
than that spread cannot be told apart from noise.

--trace adds one traced run per workload (first seed) and prints each
layer's self time per workload.  --record appends everything, with the
Python version and core count, to nclbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="an inclusive range, e.g. 1-10")
    parser.add_argument("--record", metavar="LABEL")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.stdout.reconfigure(line_buffering=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    entry = {"label": args.record, "python": platform.python_version(),
             "nproc": os.cpu_count(), "seconds": spec["run_seconds"], "seeds": seeds,
             "workloads": {}}
    flagged = 0
    for workload in args.workload:
        results = [run_once(workload, s, spec["run_seconds"], 0) for s in seeds]
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        print(f"# {workload}: {len(seeds)} runs, attempted={summary['attempted']} "
              f"failed={summary['failed']}")
        for name, bound in bounds.items():
            q = quartiles([r["metrics"][name]["value"] for r in results])
            summary["metrics"][name] = q
            flag = q["spread"] > bound
            flagged += flag
            print(f"{name:16s} median={q['median']:.6g} q1={q['q1']:.6g} q3={q['q3']:.6g} "
                  f"spread={q['spread']:.4f} bound={bound}{'  SPREAD > BOUND' * flag}")
        if args.trace:
            layers = run_once(workload, seeds[0], spec["run_seconds"], 1)["metrics"]
            summary["layer_self_s"] = {m: layers[f"{m}.self_s"]["value"] for m in MODULES}
            summary["trace_overhead_ratio"] = layers["trace_overhead_ratio"]["value"]
            print("layer self time (s): " + ", ".join(
                f"{m}={v:.3f}" for m, v in summary["layer_self_s"].items()))
        entry["workloads"][workload] = summary

    if args.record:
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append(entry)
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
