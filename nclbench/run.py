"""End-to-end benchmark of the nclab CLI.

    python3 nclbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each request is a fresh
`python -m nclab ...` process with PYTHONPATH=src, as a user runs the CLI;
one client sends them one at a time (a closed loop).  The request list of
a workload is built from the seed (see `workloads.py`) and every output is
checked against an expectation fixed before timing.

--trace 0 measures the end-to-end metrics over rounds of the deck that
fill --seconds, scaled to a reference machine speed by a calibration task
timed in the same run (see `timed_run`).
--trace 1 runs one pass untraced and the same pass through `launcher.py`,
which traces the calls into every public nclab function, and reports the
per-layer metrics named in BENCHMARK.json.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A table of the same figures, plus the ones that are
not always defined (latency_p90_s needs 100 requests), precedes it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer
from check import check
from workloads import WORKLOADS, build_deck

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".nclbench_out"
SETUP_POINTS = 6
SETUP_CMD = [sys.executable, "-c", "import nclab.cli"]
# The calibration task: a fresh interpreter that imports the standard
# modules nclab imports and does a little work of the kind nclab does
# (generators, tuples, Fractions, text), with no nclab in it.
CALIBRATION = """
import argparse, bisect, dataclasses, inspect, itertools, json, math, re
from fractions import Fraction
def compositions(n):
    if n == 0:
        yield ()
        return
    for k in range(1, n + 1):
        for rest in compositions(n - k):
            yield (k,) + rest
total = Fraction(0)
for c in compositions(10):
    total += Fraction(len(c), sum(x * x for x in c))
text = "\\n".join("{" + ",".join(map(str, c)) + "}" for c in compositions(10))
"""
CALIBRATION_CMD = [sys.executable, "-c", CALIBRATION]
# The calibration task's time on the two-core machine the figures in
# README.md come from, in its usual state; timings are scaled to it.
CALIBRATION_S = 0.12
RUN_BUDGET_S = 165  # a run ends within this, even if the program hangs
P90_MIN_REQUESTS = 100

# Per-layer metrics named after a method use the method's short name.
SPAN_ALIASES = {
    "series.comp_inverse": "series.TruncatedSeries.comp_inverse",
    "series.reciprocal": "series.TruncatedSeries.reciprocal",
    "series.compose": "series.TruncatedSeries.compose",
}

EXTRA_UNITS = {"fail_ratio": "ratio", "latency_p90_s": "s", "requests": "count",
               "rounds": "count", "calibration_s": "s", "unscaled_setup_s": "s",
               "unscaled_req_per_s": "1/s", "unscaled_latency_p50_s": "s"}

_IMPORTTIME_RE = re.compile(rb"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NCLAB_LIMIT"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class OutOfTime(Exception):
    pass


class Client:
    """Runs one command at a time to completion, timing it.

    Every process is waited for; one still running at the deadline is
    killed (and counts as failed), and none starts after it.
    """

    def __init__(self, deadline: float) -> None:
        self.env = child_env()
        self.deadline = deadline

    def execute(self, cmd: list[str]) -> tuple[float, int, bytes, bytes]:
        start = perf_counter()
        if start >= self.deadline:
            raise OutOfTime
        try:
            proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=ROOT,
                                  timeout=self.deadline - start)
        except subprocess.TimeoutExpired as exc:
            return perf_counter() - start, -1, exc.stdout or b"", exc.stderr or b""
        return perf_counter() - start, proc.returncode, proc.stdout, proc.stderr

    def request(self, args) -> tuple[float, int, bytes, bytes]:
        return self.execute([sys.executable, "-m", "nclab", *args])


class Judge:
    """Checks every reply, counts failures and reports the first few."""

    def __init__(self) -> None:
        self.failed = 0
        self.attempted = 0

    def __call__(self, req, code: int, stdout: bytes) -> None:
        self.attempted += 1
        problem = check(req.expect, code, stdout)
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAIL {req.template} {' '.join(req.args)[:160]}: {problem}",
                      file=sys.stderr)


# ------------------------------------------------------------ end to end

def timed_run(client: Client, deck, seconds: float, judge: Judge) -> tuple[dict, dict]:
    """Rounds over the deck until `seconds` are up.  The first round sends
    every request in the deck's order; later rounds send the fastest first
    and skip a request whose last try would not end in time, so the light
    requests are tried many times, spread over the run, and the long ones
    again only where the run has room.
    `req_per_s` takes each request's latency as the median of its tries and
    `latency_p50_s` is `request_median` of all tries: on a shared machine a
    fast try is a rare event of varying size, while medians follow the
    machine's typical speed.

    Set-up and the calibration task are timed at `SETUP_POINTS` places of
    every round.  Every timing is then scaled by CALIBRATION_S over the
    median calibration time: the program does not change the calibration
    task, so a change to the program shows in full, while a slow spell of
    the machine slows both and largely cancels.  The unscaled figures are printed
    too."""
    client.execute(SETUP_CMD)  # untimed: writes the bytecode cache of a fresh checkout
    setup_at = {j * len(deck) // SETUP_POINTS for j in range(SETUP_POINTS)}
    setup_tries: list[float] = []
    calibration_tries: list[float] = []
    tries: list[list[float]] = [[] for _ in deck]
    end = perf_counter() + seconds
    rounds = 0
    order = list(range(len(deck)))
    try:
        while True:
            sent = False
            for n, i in enumerate(order):
                if n in setup_at and (not rounds or perf_counter() < end):
                    setup_tries.append(client.execute(SETUP_CMD)[0])
                    calibration_tries.append(client.execute(CALIBRATION_CMD)[0])
                if rounds and perf_counter() + tries[i][-1] > end:
                    continue
                latency, code, out, _ = client.request(deck[i].args)
                judge(deck[i], code, out)
                tries[i].append(latency)
                sent = True
            rounds += 1
            if not sent or perf_counter() >= end:
                break
            order.sort(key=lambda i: tries[i][0])
    except OutOfTime:
        print("warning: run budget exhausted; the deck was cut short", file=sys.stderr)
    latencies = [statistics.median(t) for t in tries if t]
    calibration = statistics.median(calibration_tries)
    raw = {
        "setup_s": statistics.median(setup_tries),
        "req_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": request_median([t for t in tries if t]),
    }
    scale = CALIBRATION_S / calibration
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "req_per_s": raw["req_per_s"] / scale,
        "latency_p50_s": raw["latency_p50_s"] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    extra = {"fail_ratio": judge.failed / judge.attempted, "requests": len(latencies),
             "rounds": rounds, "calibration_s": calibration,
             **{f"unscaled_{name}": value for name, value in raw.items()}}
    if len(latencies) >= P90_MIN_REQUESTS:
        extra["latency_p90_s"] = statistics.quantiles(latencies, n=10)[-1] * scale
    return metrics, extra


def request_median(tries: list[list[float]]) -> float:
    """The median latency of a request drawn from the deck: every request
    weighs the same, spread evenly over its tries.  Unlike the median of
    per-request medians it uses every try, not the few in the middle."""
    weighted = sorted((t, Fraction(1, len(ts))) for ts in tries for t in ts)
    half, seen = Fraction(len(tries), 2), Fraction(0)
    for latency, weight in weighted:
        seen += weight
        if seen >= half:
            return latency
    return weighted[-1][0]


# ------------------------------------------------------------ per layer

def import_times(stderr: bytes) -> dict[str, float]:
    """nclab module -> its own import time in seconds, from -X importtime."""
    out = {}
    for m in _IMPORTTIME_RE.finditer(stderr):
        name = m[2].decode()
        if name.startswith("nclab."):
            out[name.split(".", 1)[1]] = int(m[1]) / 1e6
    return out


def traced_run(client: Client, deck, judge: Judge, report_path: Path):
    untraced = []
    for req in deck:
        latency, code, out, _ = client.request(req.args)
        judge(req, code, out)
        untraced.append(latency)

    spans_file = OUT_DIR / "spans.json"
    launcher = str(Path(__file__).with_name("launcher.py"))
    rows, summaries = [], []
    exits: Counter = Counter()
    output_bytes = 0
    imports: dict[str, list[float]] = {m: [] for m in tracer.MODULES}
    for i, req in enumerate(deck):
        cmd = [sys.executable, "-X", "importtime", launcher, str(spans_file), str(i),
               "--", *req.args]
        latency, code, out, err = client.execute(cmd)
        judge(req, code, out)
        exits[code] += 1
        output_bytes += len(out)
        for module, secs in import_times(err).items():
            imports.setdefault(module, []).append(secs)
        try:
            records = json.loads(spans_file.read_text())
            spans_file.unlink()
        except FileNotFoundError:  # the process died before writing; judged above
            records = tracer.Tracer().records(str(i))
        summary = tracer.summarize(records)
        summaries.append(summary)
        rows.append({
            "request": i, "template": req.template, "args": list(req.args), "exit": code,
            "latency_untraced_s": untraced[i], "latency_traced_s": latency,
            "traced_wall_s": summary["wall_s"],
            "layer_self_s": summary["module_self_s"],
        })

    total = lambda key, name: sum(s[key].get(name, 0) for s in summaries)
    values = {
        "trace_overhead_ratio": sum(r["latency_traced_s"] for r in rows) / sum(untraced),
        "cli.output_bytes": output_bytes,
        "partitions.errors": total("errors", "partitions"),
        "linked.revalidations_per_from_pair": ratio(
            sum(s["make_linked_under_from_pair"] for s in summaries),
            total("calls", "linked.from_pair")),
        "series.nc_per_coeff": ratio(sum(s["nc_under_series"] for s in summaries),
                                     sum(s["coefficients"] for s in summaries)),
    }
    for code in range(5):
        values[f"cli.exit.{code}"] = exits[code]
    for module in tracer.MODULES:
        values[f"{module}.self_s"] = total("module_self_s", module)
        values[f"{module}.import_s"] = statistics.median(imports[module] or [0.0])
    for identity in {k for s in summaries for k in s["checked"]}:
        values[f"verify.{identity}.checked"] = total("checked", identity)

    def lookup(metric: str):
        if metric in values:
            return values[metric]
        base, _, kind = metric.rpartition(".")
        span = SPAN_ALIASES.get(base, base)
        if kind == "self_s":
            return total("self_s", span)
        if kind in ("calls", "yielded"):
            return total(kind, span)
        if kind == "checked":
            return 0
        raise KeyError(metric)

    report = {
        "requests": rows,
        "layer_self_s": {m: values[f"{m}.self_s"] for m in tracer.MODULES},
        "max_self_time_residual_s": max(
            abs(sum(r["layer_self_s"].values()) - r["traced_wall_s"]) for r in rows),
    }
    report_path.write_text(json.dumps(report, indent=1))
    return lookup


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM exit through Python, so that subprocess.run kills and
    # waits for the request in flight instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "nclab" / "cli.py").is_file():
        print(f"error: no nclab source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    client = Client(deadline=perf_counter() + RUN_BUDGET_S)
    deck = build_deck(args.workload, args.seed)
    judge = Judge()

    if args.trace:
        report_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        try:
            lookup = traced_run(client, deck, judge, report_path)
        except OutOfTime:
            print("error: run budget exhausted before the traced pass ended",
                  file=sys.stderr)
            return 1
        metrics = {m["name"]: (lookup(m["name"]), m["unit"]) for m in spec["per_layer"]}
        extra = {"trace_report": (report_path.relative_to(ROOT), "")}
    else:
        values, extra = timed_run(client, deck, args.seconds, judge)
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        extra = {k: (v, EXTRA_UNITS[k]) for k, v in extra.items()}

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:48s} {value} {unit}".rstrip())
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
