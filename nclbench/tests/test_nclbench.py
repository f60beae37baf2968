"""Tests of the benchmark itself: seeded decks, the checker, the trace
arithmetic and the references.  Run with

    python3 -m pytest -q nclbench/tests
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402
import tracer  # noqa: E402
from run import request_median  # noqa: E402
from check import check, expected_checked  # noqa: E402
from workloads import (  # noqa: E402
    ENUM_DIGESTS, WORKLOADS, Expect, build_deck, rand_ncl, rand_nc,
)


# ------------------------------------------------------------------ decks

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_argv_and_other_seed_other_argv(workload):
    argv = lambda seed: [r.args for r in build_deck(workload, seed)]
    assert argv(7) == argv(7)
    assert argv(7) != argv(8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_content_not_composition(workload):
    templates = lambda seed: sorted(r.template for r in build_deck(workload, seed))
    assert templates(1) == templates(2)


# ---------------------------------------------------------------- checker

def test_checker_accepts_expected_and_rejects_corrupted_output():
    e = Expect(stdout="{1,3}{2}\n{1,2,3}\n")
    assert check(e, 0, b"{1,3}{2}\n{1,2,3}\n") is None
    assert check(e, 0, b"{1,2}{3}\n{1,2,3}\n") is not None
    assert check(e, 0, b"{1,3}{2}\n{1,2,3}") is not None
    assert check(e, 3, b"{1,3}{2}\n{1,2,3}\n") is not None


def test_checker_rejects_wrong_exit_code_and_output_of_rejects():
    e = Expect(exit_codes=frozenset({3}))
    assert check(e, 3, b"") is None
    assert check(e, 0, b"") is not None
    assert check(e, 2, b"") is not None
    assert check(e, 3, b"oops\n") is not None


def test_checker_enumeration_by_digest_and_closed_form():
    objects = [ref.fmt_blocks(b) for b in ref.nc_partitions(10)]
    text = "\n".join(objects) + f"\ncount={len(objects)}\n"
    e = Expect(enum=("nc", 10, False))
    assert check(e, 0, text.encode()) is None
    assert check(e, 0, text.replace("{1,10}", "{1,9}", 1).encode()) is not None
    dropped = "\n".join(objects[1:]) + f"\ncount={len(objects)}\n"
    assert check(e, 0, dropped.encode()) is not None
    records = [json.dumps({"n": 10, "blocks": [list(b) for b in blocks]})
               for blocks in ref.nc_partitions(10)]
    as_json = Expect(enum=("nc", 10, True))
    tail = f'{{"count": {len(records)}}}'
    assert check(as_json, 0, "\n".join(records + [tail]).encode()) is None
    for first in ("[1]", '{"n": 10, "blocks": 7}', records[1]):
        bad = "\n".join([first] + records[1:] + [tail])
        assert check(as_json, 0, bad.encode()) is not None


def test_checker_verify_output():
    lines = [f"PASS bijection.{name} n<=3 checked={expected_checked(name, 3)} x"
             for name in ("roundtrip-linked", "roundtrip-pairs")]
    good = "\n".join(lines + ["summary: 2 checks, 2 passed"]) + "\n"
    e = Expect(verify=("bijection", 3, False))
    assert check(e, 0, good.encode()) is None
    assert check(e, 1, good.encode()) is not None
    assert check(e, 0, good.replace("checked=9", "checked=8").encode()) is not None
    assert check(e, 0, good.replace("PASS", "FAIL", 1).encode()) is not None
    seeded = ("PASS moments.four-routes n<=1 checked=1\n"
              "PASS moments.per-partition-identity n<=1 checked=1\n"
              "PASS moments.transform-roundtrips depth=8 x100 checked=100\n"
              "PASS moments.special-cases depth=8 checked=2\n"
              "summary: 4 checks, 4 passed\n")
    assert check(Expect(verify=("moments", 1, False)), 0, seeded.encode()) is None


# ------------------------------------------------------------ end to end

def test_request_median_weighs_every_request_the_same():
    assert request_median([[1.0], [2.0], [3.0]]) == 2.0
    # four tries of one request weigh as much as the one try of another
    assert request_median([[0.1, 0.2, 0.3, 0.4], [9.0]]) == 0.4
    assert request_median([[0.1, 0.2, 0.3], [0.5], [9.0]]) == 0.5


# ------------------------------------------------------------ trace maths

def _rec(spans, aggregates=()):
    names = sorted({s[1] for s in spans} | {a[1] for a in aggregates})
    code = {n: i for i, n in enumerate(names)}
    return {
        "request": "r", "names": names,
        "spans": [[sid, code[n], parent, start, end, y] for sid, n, parent, start, end, y in spans],
        "aggregates": [[sid, code[n], parent, k, dur, y] for sid, n, parent, k, dur, y in aggregates],
        "calls": {}, "errors": {}, "checked": {}, "coefficients": 0,
    }


def test_self_times_of_nested_spans():
    # cli.main [0, 100] > series.a [10, 60] > partitions.b [20, 30], [40, 45];
    # plus 1000 folded calls of partitions.c under series.a lasting 5 in all
    rec = _rec(
        [(0, "cli.main", None, 0, 100, 0),
         (1, "series.a", 0, 10, 60, 0),
         (2, "partitions.b", 1, 20, 30, 1),
         (3, "partitions.b", 1, 40, 45, 1)],
        [(4, "partitions.c", 1, 1000, 5, 0)],
    )
    own = tracer.self_times(tracer.nodes(rec))
    assert own == pytest.approx({0: 50e-9, 1: 30e-9, 2: 10e-9, 3: 5e-9, 4: 5e-9})
    s = tracer.summarize(rec)
    assert s["wall_s"] == pytest.approx(100e-9)
    assert s["module_self_s"] == pytest.approx(
        {"cli": 50e-9, "series": 30e-9, "partitions": 20e-9})
    assert sum(s["module_self_s"].values()) == pytest.approx(s["wall_s"])
    assert s["yielded"]["partitions.b"] == 2


def test_tracer_wraps_functions_and_generators():
    t = tracer.Tracer()

    def gen(n):
        yield from range(n)

    inner = t.wrap("partitions.inner", lambda x: x + 1)
    items = t.wrap("partitions.items", gen)

    def outer_body():
        return sum(inner(x) for x in items(3))

    outer = t.wrap("cli.outer", outer_body)
    assert outer() == 6
    s = tracer.summarize(t.records("r"))
    assert s["calls"] == {"cli.outer": 1, "partitions.inner": 3, "partitions.items": 1}
    assert s["yielded"]["partitions.items"] == 3
    assert sum(s["module_self_s"].values()) == pytest.approx(s["wall_s"])


def test_tracer_folds_hot_names_per_parent(monkeypatch):
    monkeypatch.setattr(tracer, "AGGREGATE_AFTER", 5)
    t = tracer.Tracer()
    leaf = t.wrap("partitions.leaf", lambda: None)
    t.wrap("cli.root", lambda: [leaf() for _ in range(12)])()
    rec = t.records("r")
    assert len(rec["spans"]) == 6 and len(rec["aggregates"]) == 1
    assert rec["aggregates"][0][3] == 7
    assert tracer.summarize(rec)["calls"]["partitions.leaf"] == 12


# -------------------------------------------------------------- references

def test_pinned_enumeration_digests():
    for (kind, n), digest in ENUM_DIGESTS.items():
        gen = ref.nc_partitions if kind == "nc" else ref.ncl_partitions
        objects = [ref.fmt_blocks(b) for b in gen(n)]
        assert len(objects) == (ref.catalan(n) if kind == "nc" else ref.ncl_count(n))
        assert ref.lines_digest(objects) == digest


def test_reference_enumerations_are_valid_and_distinct():
    for n in range(1, 8):
        plain = list(ref.nc_partitions(n))
        assert len(set(plain)) == ref.catalan(n)
        assert all(ref.is_noncrossing(b) for b in plain)
        assert len(set(ref.ncl_partitions(n))) == ref.schroder(n - 1)
    assert [ref.schroder(k) for k in range(7)] == [1, 2, 6, 22, 90, 394, 1806]


def test_reference_pairs_are_endpoint_refinements():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 12)
        alpha, beta = ref.to_pair(rand_ncl(rng, n), n)
        assert ref.is_noncrossing(alpha) and ref.is_noncrossing(beta)
        assert ref.endpoint_refines(alpha, beta)
        assert ref.count_below(rand_nc(rng, n)) >= 1


def test_reference_moment_calculus_on_known_values():
    catalan_moments = [Fraction(ref.catalan(k)) for k in range(1, 5)]
    assert ref.t_coeffs(catalan_moments) == [1, 1, 0, 0]
    assert ref.moments_from_t([1, 1, 0, 0], 4) == catalan_moments
    assert ref.cumulants_from_moments(catalan_moments) == [1, 1, 1, 1]
    assert ref.moments_from_cumulants([1, 1, 1, 1], 4) == catalan_moments
    assert ref.poly_text(ref.moment_poly(4)) == \
        "t3 + 3*t2*t1 + t1^3 + 4*t2 + 6*t1^2 + 6*t1 + 1"
