"""Compare two source checkouts of nclab, request by request and run by run.

    python3 benchmarks/pair_compare.py --parent DIR --change DIR --label pr5 \\
        [--requests bijection:1:3] [--steady bijection:1-10] [--steady oracles:1-3]

Writes BENCH_<label>.json in the current directory, with the sha256 and
the line count of each side's `src/nclab/*.py`.  A file of that name that
was written for the same two sources is added to, not replaced, so runs
in different environments can share one file; a `layers` section that
`layers.py` wrote is kept either way.  Nothing is installed; the
checkouts get only what running them leaves behind (`.nclbench_out/`,
`__pycache__/`).

Every comparison records each side's bytecode state when it began
(`bytecode`): whether PYTHONDONTWRITEBYTECODE was set, and whether
`src/nclab/__pycache__` existed.  Start-up is a large share of a light
request, and compiling the source is a large share of start-up, so only
comparisons made in the same state are comparable.

--requests WORKLOAD:SEED:REPS sends every request of the seeded deck of a
nclbench workload to both checkouts, REPS times, alternating which
checkout goes first.  Each request is a fresh `python -m nclab` process
started by a small launcher process, which reports the wall time and the
peak RSS of that one child.  On Linux a child is charged with the RSS of
the process that spawned it, so the launcher, not this script, spawns it.
Every request's exit code and stdout digest are compared between the two
sides (`outputs_identical`, `mismatches`).  Timings are unscaled.  Each
request's row gives each side's median wall time with its quartiles and
their spread (the quartiles' distance as a share of the median), as
`nclbench/steady.py` computes them: a difference between the two medians
smaller than either side's quartile range is not told apart from noise.

--steady WORKLOAD:SEEDS runs `nclbench/run.py` once per seed on both
checkouts, alternating which runs first, and summarizes every end-to-end
metric with the quartiles of `nclbench/steady.py`, so SEEDS names at
least two.  The file is written after each comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "nclbench"))

from steady import parse_seeds, quartiles  # noqa: E402
from workloads import build_deck  # noqa: E402

LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "nclab", *sys.argv[2:]],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as fh:
    fh.write(f"{wall} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}")
"""


def sources(checkout: Path) -> list[Path]:
    return sorted((checkout / "src" / "nclab").glob("*.py"))


def source_digest(checkout: Path) -> str:
    """sha256 over the library's source files, naming what was measured."""
    digest = hashlib.sha256()
    for path in sources(checkout):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def source_lines(checkout: Path) -> int:
    """Lines in the library's source files, as `wc -l src/nclab/*.py` counts."""
    return sum(path.read_bytes().count(b"\n") for path in sources(checkout))


def bytecode_state(checkout: Path) -> dict:
    return {"dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            "pycache": (checkout / "src" / "nclab" / "__pycache__").is_dir()}


def launch(checkout: Path, args: tuple[str, ...], report: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, str(report), *args],
                          cwd=checkout, env=env, capture_output=True, check=True)
    wall, maxrss_kb, code = report.read_text().split()
    return {"wall_s": float(wall), "rss_mb": int(maxrss_kb) / 1024, "exit": int(code),
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}


def compare_requests(sides: dict[str, Path], workload: str, seed: int, reps: int) -> dict:
    deck = build_deck(workload, seed)
    bytecode = {side: bytecode_state(path) for side, path in sides.items()}
    tries = {side: [[] for _ in deck] for side in sides}
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report"
        for rep in range(reps):
            order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
            for i, req in enumerate(deck):
                got = {side: launch(sides[side], req.args, report) for side in order}
                for side in sides:
                    tries[side][i].append(got[side])
                first, second = (got[side] for side in sides)
                if (first["exit"], first["stdout_sha256"]) != \
                        (second["exit"], second["stdout_sha256"]):
                    mismatches.append(" ".join(req.args))
    rows = []
    for i, req in enumerate(deck):
        row = {"template": req.template, "args": " ".join(req.args)}
        for side in sides:
            walls = quartiles([t["wall_s"] for t in tries[side][i]])
            row[f"{side}_s"] = statistics.median(walls["values"])
            row[f"{side}_q1_s"], row[f"{side}_q3_s"] = walls["q1"], walls["q3"]
            row[f"{side}_spread"] = walls["spread"]
            row[f"{side}_rss_mb"] = max(t["rss_mb"] for t in tries[side][i])
        rows.append(row)
    totals = {side: sum(row[f"{side}_s"] for row in rows) for side in sides}
    return {
        "workload": workload, "seed": seed, "reps": reps, "requests": len(deck),
        "bytecode": bytecode, "outputs_identical": not mismatches, "mismatches": mismatches,
        "sum_of_medians_s": totals,
        "req_per_s": {side: len(deck) / total for side, total in totals.items()},
        "per_request": rows,
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "nclbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def compare_steady(sides: dict[str, Path], workload: str, seeds: list[int]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bytecode = {side: bytecode_state(path) for side, path in sides.items()}
    results = {side: [] for side in sides}
    for k, seed in enumerate(seeds):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for side in order:
            results[side].append(run_once(sides[side], workload, seed, spec["run_seconds"]))
    out = {"workload": workload, "seeds": seeds, "seconds": spec["run_seconds"],
           "bytecode": bytecode}
    for side in sides:
        out[side] = {
            "correct": all(r["correct"] for r in results[side]),
            "attempted": sum(r["attempted"] for r in results[side]),
            "failed": sum(r["failed"] for r in results[side]),
            "metrics": {name: quartiles([r["metrics"][name]["value"] for r in results[side]])
                        for name in names},
        }
    parent, change = sides
    out["pairs_change_better"] = {}
    for name in names:
        sign = 1 if better[name] == "higher" else -1
        pairs = zip(out[parent]["metrics"][name]["values"], out[change]["metrics"][name]["values"])
        out["pairs_change_better"][name] = sum(sign * (c - p) > 0 for p, c in pairs)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--requests", action="append", default=[],
                        metavar="WORKLOAD:SEED:REPS")
    parser.add_argument("--steady", action="append", default=[], metavar="WORKLOAD:SEEDS")
    args = parser.parse_args()
    steady = [(workload, parse_seeds(seeds))
              for workload, seeds in (spec.split(":") for spec in args.steady)]
    if any(len(seeds) < 2 for _, seeds in steady):
        parser.error("--steady needs at least two seeds: its summary takes quartiles")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    entry = {"label": args.label, "python": platform.python_version(),
             "nproc": os.cpu_count(),
             "source_sha256": {side: source_digest(path) for side, path in sides.items()},
             "source_lines": {side: source_lines(path) for side, path in sides.items()},
             "requests": [], "end_to_end": []}
    out_path = Path(f"BENCH_{args.label}.json")
    if out_path.is_file():
        earlier = json.loads(out_path.read_text())
        if earlier.get("source_sha256") == entry["source_sha256"]:
            entry = earlier
        elif "layers" in earlier:  # written by layers.py, which names its own sources
            entry["layers"] = earlier["layers"]
    # written after each comparison, so that one that fails loses no other
    for spec in args.requests:
        workload, seed, reps = spec.split(":")
        entry["requests"].append(compare_requests(sides, workload, int(seed), int(reps)))
        out_path.write_text(json.dumps(entry, indent=1) + "\n")
        print(json.dumps({k: v for k, v in entry["requests"][-1].items()
                          if k != "per_request"}), flush=True)
    for workload, seeds in steady:
        entry["end_to_end"].append(compare_steady(sides, workload, seeds))
        out_path.write_text(json.dumps(entry, indent=1) + "\n")
        print(json.dumps(entry["end_to_end"][-1]["pairs_change_better"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
