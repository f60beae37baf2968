"""Time the layers of one or more nclab source checkouts, in process.

    python3 benchmarks/layers.py --src parent=DIR --src change=DIR --label LABEL [--reps 15]

Each layer is a setup and a timed expression.  One run of a layer is a
fresh interpreter with DIR/src first on its path: it does the setup, then
times the expression with `time.perf_counter`.  The runs of the checkouts
alternate, and each layer keeps the median and the quartiles of REPS runs
per checkout, with their spread, as `nclbench/steady.py` computes them: a
difference between two medians smaller than either side's quartile range
is not told apart from noise.  A layer that a checkout cannot run (a name
its setup uses that the checkout does not have) is recorded as null for
it; one whose run takes more than BUDGET_S seconds as over the budget,
and one whose run exits non-zero as an error with the last line of its
stderr, each after that one run.  DIR is the checkout's root, not its
`src/`.

Writes BENCH_<label>.json in the current directory, or extends it: the
`layers` section gets one entry per checkout named by --src NAME (the
directory name when NAME= is left out), with the sha256 and line count of
its `src/nclab/*.py`, beside the Python version and the core count.  Other
sections of the file, such as those `pair_compare.py` writes, are kept.
Each side's layers are printed as [q1, median, q3] in seconds.  Only the
standard library is used, and nothing is written to the checkouts
but what importing them leaves behind (`__pycache__/`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "nclbench")]

from pair_compare import source_digest, source_lines  # noqa: E402
from steady import quartiles  # noqa: E402

# One seeded pair of raw block lists on {1..3000}: a non-crossing beta, in
# which each element opens a block or joins an open one (each choice equally
# likely), and an endpoint refinement alpha of it, drawn the same way inside
# each block of beta.  Standard library only, so that every checkout runs it.
PAIR_3000 = """\
import random
from nclab.linked import from_pair, make_linked, to_pair
from nclab.partitions import is_noncrossing, make_partition

def nc_blocks(rng, n):
    blocks, opened = [], []
    for k in range(1, n + 1):
        d = rng.randrange(len(opened) + 1)
        if d == len(opened):
            opened.append(len(blocks))
            blocks.append([k])
        else:
            del opened[d + 1:]
            blocks[opened[d]].append(k)
    return blocks

rng = random.Random(3000)
beta_blocks = nc_blocks(rng, 3000)
alpha_blocks = []
for w in beta_blocks:
    parts = [[w[x - 1] for x in blk] for blk in nc_blocks(rng, len(w) - 1)] or [[]]
    parts[0].append(w[-1])
    alpha_blocks.extend(parts)
"""

# The one-block pair on {1..n}: the endpoint floor of 1_n against 1_n.  Its
# linked partition has n - 1 blocks, each but the first sharing its least
# element with the block before it.
ONE_BLOCK = """\
from nclab.linked import from_pair, make_linked
from nclab.partitions import endpoint_floor, make_partition
full = make_partition({n}, [range(1, {n} + 1)])
floor = endpoint_floor(full)
"""

# Seeded moments at one depth: m_1 = 1, then numerators in -30..30 over
# denominators 1..12, the draw of `verify moments` carried to that depth.
# The same values serve as t_0..t_(depth-1) and as free cumulants.
SEEDED_MOMENTS = """\
import random
from fractions import Fraction
from nclab import series
rng = random.Random({depth})
values = [1] + [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range({depth} - 1)]
m = series.MomentSequence.of(values)
"""

ORACLE_MODULES = "import nclab.partitions, nclab.polynomials\n"

# T = (1 + z)^k, and the Fuss-Catalan moments C((k + 1) n, n) / (k n + 1)
# that it gives, at depth 200; k = 1 gives the Catalan numbers, whose free
# cumulants are all 1
CLOSED_FORM = """\
from fractions import Fraction
from math import comb
from nclab import series
t = [comb({k}, j) for j in range(200)]
fuss = tuple(Fraction(comb(({k} + 1) * n, n), {k} * n + 1) for n in range(1, 201))
m = series.MomentSequence.of(fuss)
"""

# each closed form checked through one fast route; the result is whether it holds
CLOSED_FORM_LAYERS = {
    **{f"moments_from_t of (1+z)^{k} depth 200": (
        CLOSED_FORM.format(k=k), "series.moments_from_t(t, 200).values == fuss")
       for k in (1, 2, 3)},
    "t_transform of Fuss-Catalan k=2 depth 200": (
        CLOSED_FORM.format(k=2), "series.t_transform(m).coeffs == tuple(t)"),
    "moments_from_cumulants of ones depth 200": (
        CLOSED_FORM.format(k=1), "series.moments_from_cumulants([1] * 200, 200).values == fuss"),
    "cumulants_from_moments of Catalan depth 200": (
        CLOSED_FORM.format(k=1), "series.cumulants_from_moments(m) == (1,) * 200"),
}

# the conversions at depth d, each with the digest of its output as result
TRANSFORM_LAYERS = {
    f"{route} depth {depth}": (SEEDED_MOMENTS.format(depth=depth), expression.format(depth=depth))
    for route, expression in [
        ("t_transform", "digest(series.t_transform(m).coeffs)"),
        ("s_transform", "digest(series.s_transform(m).coeffs)"),
        ("cumulants_from_moments", "digest(series.cumulants_from_moments(m))"),
        ("moments_from_t", "digest(series.moments_from_t(values, {depth}).values)"),
        ("moments_from_cumulants", "digest(series.moments_from_cumulants(values, {depth}).values)"),
    ]
    for depth in (40, 100, 200)
}

# One canonical command line per command, as the CLI reads it without
# argparse; the setup imports argparse, so that the argparse layer times
# building the parser and parsing on both sides, as each request does.
CLI_PARSE = """\
import argparse
from nclab import cli
argvs = [["enumerate", "nc", "3"],
         ["map", "from-pair", "{1,3}{2}", "{1,2,3}", "--details", "--json"],
         ["--limit", "13", "count", "nc", "13"],
         ["moments", "--t", "1,1/2,3", "--n", "8"],
         ["transform", "--moments", "1,2,5,14", "--to", "t", "--order", "2"],
         ["verify", "counts", "2", "--json"]]
"""

# name -> (setup, expression); the expression's value is recorded as the
# layer's result, so that the two sides can be seen to do the same work
LAYERS = {
    # start-up: the CLI imported in a fresh interpreter, and the parse step
    # of the six canonical command lines, by a fresh argparse parser each
    # and by the fast parser, which older checkouts do not have
    "import nclab.cli": (
        "import importlib",
        "importlib.import_module('nclab.cli').__name__"),
    # the library modules that requests import, cold: without bytecode,
    # mostly compiling their source.  enumerate, map and count load
    # nclab.linked, which loads nclab.partitions; moments --t and transform
    # load nclab.series, moments --symbolic nclab.polynomials, and verify
    # nclab.verify, which loads nclab.linked and the rest as its suites need
    **{f"import nclab.{module}": (
        "import importlib",
        f"importlib.import_module('nclab.{module}').__name__")
       for module in ("partitions", "linked", "series", "polynomials", "verify")},
    "cli parse x6 argparse": (
        CLI_PARSE,
        "digest(sorted(vars(cli.build_parser().parse_args(a)).items()) for a in argvs)"),
    "cli parse x6 fast": (
        CLI_PARSE + "parse = cli._fast_args",
        "digest(sorted(vars(parse(a)).items()) for a in argvs)"),
    "enumerate_nc(12)": (
        "from nclab.partitions import enumerate_nc",
        "count(enumerate_nc(12))"),
    "enumerate_nc(12) to_text": (
        "from nclab.partitions import enumerate_nc",
        "count(p.to_text() for p in enumerate_nc(12))"),
    "cli enumerate nc 12": (
        "from nclab import cli\n"
        "sys.stdout = open(os.devnull, 'w')",
        "cli.main(['enumerate', 'nc', '12'])"),
    "cli enumerate nc 11 --json": (
        "from nclab import cli\n"
        "sys.stdout = open(os.devnull, 'w')",
        "cli.main(['enumerate', 'nc', '11', '--json'])"),
    "cli enumerate nc 10": (
        "from nclab import cli\n"
        "sys.stdout = open(os.devnull, 'w')",
        "cli.main(['enumerate', 'nc', '10'])"),
    "enumerate_ncl(9)": (
        "from nclab.linked import enumerate_ncl",
        "count(enumerate_ncl(9))"),
    "enumerate_ncl_direct(9)": (
        "from nclab.linked import enumerate_ncl_direct",
        "count(enumerate_ncl_direct(9))"),
    "to_pair over NCL(8)": (
        "from nclab.linked import enumerate_ncl, to_pair\n"
        "objs = list(enumerate_ncl(8))",
        "count(map(to_pair, objs))"),
    "from_pair over NCL(8)": (
        "from nclab.linked import enumerate_ncl, from_pair, to_pair\n"
        "from nclab.partitions import make_partition\n"
        "pairs = [(make_partition(a.n, a.blocks), make_partition(b.n, b.blocks))\n"
        "         for a, b in map(to_pair, enumerate_ncl(8))]",
        "count(starmap(from_pair, pairs))"),
    "make_linked over NCL(8)": (
        "from nclab.linked import enumerate_ncl, make_linked\n"
        "raw = [(p.n, p.blocks) for p in enumerate_ncl(8)]",
        "count(starmap(make_linked, raw))"),
    # the seeded draw of `verify moments` (100 sequences at depth 8); the
    # result counts the oracle values that equal the fast routes' (400)
    "transform oracles x100 depth 8": (
        "import random\n"
        "from fractions import Fraction\n"
        "from nclab import series\n"
        "from nclab.verify import RANDOM_SEED\n"
        "rng = random.Random(RANDOM_SEED)\n"
        "ms = [series.MomentSequence.of([1] + [\n"
        "    Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(7)])\n"
        "    for _ in range(100)]\n"
        "ts = [series.t_transform(m).coeffs for m in ms]\n"
        "ks = [series.cumulants_from_moments(m) for m in ms]",
        "sum((series.moments_from_t_by_enumeration(t, 8) == m)"
        " + (series.cumulants_from_t_by_enumeration(t, 8) == k)"
        " + (series.cumulants_from_moments_by_enumeration(m) == k)"
        " + (series.moments_from_cumulants_by_enumeration(k, 8) == m)"
        " for m, t, k in zip(ms, ts, ks))"),
    # the whole transform-roundtrips check of `verify moments` on its draw,
    # run cold as in one request
    "check_transform_roundtrips x100 depth 8": (
        "import random\n"
        "from fractions import Fraction\n"
        "from nclab import series\n"
        "from nclab.verify import RANDOM_SEED, check_transform_roundtrips\n"
        "rng = random.Random(RANDOM_SEED)\n"
        "ms = [series.MomentSequence.of([1] + [\n"
        "    Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(7)])\n"
        "    for _ in range(100)]",
        "check_transform_roundtrips(ms).checked"),
    **TRANSFORM_LAYERS,
    **CLOSED_FORM_LAYERS,
    # the sums over NC(n) by block weights, built cold
    "moment_poly_inner_outer(10)": (
        "from nclab.polynomials import moment_poly_inner_outer",
        "len(moment_poly_inner_outer(10).terms)"),
    "moment_poly_inner_outer(12)": (
        "from nclab.polynomials import moment_poly_inner_outer",
        "len(moment_poly_inner_outer(12).terms)"),
    "moment_poly_cumulants(10)": (
        "from nclab.polynomials import moment_poly_cumulants",
        "len(moment_poly_cumulants(10).terms)"),
    "cumulant_poly(12)": (
        "from nclab.polynomials import cumulant_poly",
        "len(cumulant_poly(12).terms)"),
    # cold: the modules the oracle imports when it runs are timed with it
    "moments_from_t_by_enumeration depth 12": (
        SEEDED_MOMENTS.format(depth=12),
        "digest(series.moments_from_t_by_enumeration(values, 12).values)"),
    # the oracles' sums alone, here and past the depth of `verify moments`:
    # the setup loads every module that the oracles of any checkout import.
    # Checkouts whose oracles evaluate symbolic polynomials run over the
    # budget at the deepest two.
    **{f"moments_from_t_by_enumeration depth {depth}, modules loaded": (
        SEEDED_MOMENTS.format(depth=depth) + ORACLE_MODULES,
        f"digest(series.moments_from_t_by_enumeration(values, {depth}).values)")
       for depth in (12, 20, 100)},
    **{f"cumulants_from_moments_by_enumeration depth {depth}, modules loaded": (
        SEEDED_MOMENTS.format(depth=depth) + ORACLE_MODULES,
        "digest(series.cumulants_from_moments_by_enumeration(m))")
       for depth in (40, 100)},
    # moments read back from a t-transform, whose denominators compound with
    # the depth, at depth 100
    "moments_from_t of t_transform depth 100": (
        SEEDED_MOMENTS.format(depth=100) + "t = series.t_transform(m).coeffs",
        "digest(series.moments_from_t(t, 100).values)"),
    # the seeded pair at n=3000; each setup builds fresh objects, so that no
    # cached property of an earlier step is read
    "make_partition + is_noncrossing n=3000": (
        PAIR_3000,
        "is_noncrossing(make_partition(3000, beta_blocks))"),
    "from_pair n=3000": (
        PAIR_3000 + "alpha = make_partition(3000, alpha_blocks)\n"
                    "beta = make_partition(3000, beta_blocks)",
        "len(from_pair(alpha, beta).blocks)"),
    "to_pair n=3000": (
        PAIR_3000 + "p = from_pair(make_partition(3000, alpha_blocks),\n"
                    "              make_partition(3000, beta_blocks))",
        "len(to_pair(p)[0].blocks)"),
    "make_linked n=3000": (
        PAIR_3000 + "raw = from_pair(make_partition(3000, alpha_blocks),\n"
                    "                make_partition(3000, beta_blocks)).blocks",
        "len(make_linked(3000, raw).blocks)"),
    "from_pair one block n=3000": (
        ONE_BLOCK.format(n=3000),
        "len(from_pair(floor, full).blocks)"),
    "from_pair one block n=12000": (
        ONE_BLOCK.format(n=12000),
        "len(from_pair(floor, full).blocks)"),
    "make_linked one block n=3000": (
        ONE_BLOCK.format(n=3000) + "raw = from_pair(floor, full).blocks",
        "len(make_linked(3000, raw).blocks)"),
}

RUN = """
import hashlib, json, os, sys, time
from itertools import starmap
sys.path.insert(0, {src!r})

def count(items):
    return sum(1 for _ in items)

def digest(values):
    return hashlib.sha256(", ".join(map(str, values)).encode()).hexdigest()[:16]

try:
{setup}
except (ImportError, AttributeError):
    print(json.dumps(None), file=sys.__stdout__)
    raise SystemExit
start = time.perf_counter()
result = {expression}
elapsed = time.perf_counter() - start
print(json.dumps([elapsed, result]), file=sys.__stdout__)
"""


# A run still going after this many seconds is stopped and recorded as over
# the budget, and that checkout's later runs of the layer are skipped: the
# Fraction-arithmetic transforms of older checkouts take minutes at depth 200.
BUDGET_S = 60


def run_layer(checkout: Path, setup: str, expression: str) -> list | dict | None:
    """One run of a layer: [elapsed, result]; None where the checkout
    lacks a name the setup uses; or a dict that ends the layer's runs on
    this checkout: over the budget, or the error of a child that failed."""
    indented = "".join(f"    {line}\n" for line in setup.splitlines())
    code = RUN.format(src=str(checkout / "src"), setup=indented, expression=expression)
    try:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=BUDGET_S)
    except subprocess.TimeoutExpired:
        return {"over_budget_s": BUDGET_S}
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"error": f"exit {proc.returncode}: {last}"}
    return json.loads(proc.stdout.splitlines()[-1])


def parse_src(spec: str) -> tuple[str, Path]:
    name, sep, path = spec.rpartition("=")
    checkout = Path(path).resolve()
    return (name if sep else checkout.name), checkout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True, type=parse_src,
                        metavar="[NAME=]DIR", help="a source checkout; repeat to compare")
    parser.add_argument("--label", required=True)
    parser.add_argument("--reps", type=int, default=15)
    args = parser.parse_args()
    if args.reps < 2:
        parser.error("--reps needs at least 2: each layer's summary takes quartiles")
    sides = dict(args.src)
    for checkout in sides.values():
        if not (checkout / "src" / "nclab").is_dir():
            sys.exit(f"error: --src {checkout} has no src/nclab; give the checkout root")
    runs: dict[str, dict[str, list]] = {side: {name: [] for name in LAYERS} for side in sides}
    for rep in range(args.reps):
        order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
        for name, (setup, expression) in LAYERS.items():
            for side in order:
                if not any(isinstance(got, dict) for got in runs[side][name]):
                    runs[side][name].append(run_layer(sides[side], setup, expression))
    out_path = Path(f"BENCH_{args.label}.json")
    data = json.loads(out_path.read_text()) if out_path.is_file() else {"label": args.label}
    section = data.setdefault("layers", {})
    section.update({
        "how": "one fresh interpreter per run, time.perf_counter around the expression "
               "after its setup; checkouts alternating; median and quartiles of the runs",
        "python": platform.python_version(), "nproc": os.cpu_count(), "reps": args.reps,
        "budget_s": BUDGET_S,
        "expressions": {name: expression for name, (_, expression) in LAYERS.items()},
    })
    for side, checkout in sides.items():
        results = {}
        for name, got in runs[side].items():
            if any(g is None for g in got):
                results[name] = None
                continue
            if isinstance(got[-1], dict):  # over the budget, or an error
                results[name] = got[-1]
                continue
            q = quartiles([elapsed for elapsed, _ in got])
            results[name] = {"median_s": q["median"], "q1_s": q["q1"], "q3_s": q["q3"],
                             "spread": q["spread"], "values": q["values"], "result": got[0][1]}
        section[side] = {"source_sha256": source_digest(checkout),
                         "source_lines": source_lines(checkout), "results": results}
        print(json.dumps({side: {name: [round(r[key], 4) for key in ("q1_s", "median_s", "q3_s")]
                                 if r and "median_s" in r else r
                                 for name, r in results.items()}}), flush=True)
    out_path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
