"""Acceptance suite: the headline identities at their full desk-scale
ranges, one test per criterion, each printing a PASS/FAIL line (run with
``pytest -s``).  Criteria 1-6 and 9 run the `nclab.verify` suites and
check that each identity passed and checked as many objects as its closed
form gives; criterion 7 feeds the transform check its own seeded draw;
criterion 8 runs the CLI on the worked example.  Everything is exact."""

import random
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

from nclab import MomentSequence, catalan, cli, ncl_count
from nclab.verify import check_transform_roundtrips, run_suite


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


@cache
def suite(name, n_max):
    """One verify suite's results by identity, run once per module."""
    return {r.identity: r for r in run_suite(name, n_max)}


def assert_passed(res, checked):
    assert res.passed, res.failures
    assert res.checked == checked


def test_criterion_1_bijection_round_trips():
    with criterion(1, "pair bijection round-trips, n <= 8"):
        # one check per linked partition, and as many endpoint-refinement pairs
        total = sum(map(ncl_count, range(1, 9)))
        assert_passed(suite("bijection", 8)["roundtrip-linked"], total)
        assert_passed(suite("bijection", 8)["roundtrip-pairs"], total)


def test_criterion_2_counting():
    with criterion(2, "linked-partition counts three ways, n <= 9"):
        assert_passed(suite("counts", 9)["ncl-three-way"], 9)
        assert_passed(suite("counts", 9)["ncl-direct-oracle"], 7)


def test_criterion_3_interval_counts():
    with criterion(3, "refinement-interval counts are Catalan products, n <= 7"):
        # one check per non-crossing partition
        assert_passed(suite("counts", 9)["interval-products"], sum(map(catalan, range(1, 8))))


def test_criterion_4_boolean_structure():
    with criterion(4, "coarsening sets are Boolean, n <= 7"):
        assert_passed(suite("counts", 9)["boolean-coarsenings"], sum(map(catalan, range(1, 8))))


def test_criterion_5_moment_polynomials():
    with criterion(5, "four moment-polynomial routes agree, n <= 8"):
        assert_passed(suite("moments", 8)["four-routes"], 8)


def test_criterion_6_per_partition_identity():
    with criterion(6, "per-partition cumulant identity, n <= 6"):
        total = sum(map(catalan, range(1, 7)))
        assert_passed(suite("moments", 8)["per-partition-identity"], total)


def test_criterion_7_transforms():
    with criterion(7, "transform calculus on 100 random sequences, depth 8"):
        rng = random.Random(90210)
        res = check_transform_roundtrips([
            MomentSequence.of([1] + [
                Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(7)
            ])
            for _ in range(100)
        ])
        assert res.scope == "depth=8 x100"
        assert_passed(res, 100)


def test_criterion_8_cli_worked_example(capsys):
    with criterion(8, "CLI reproduces the worked n=11 example byte-for-byte"):
        pi = "{1,2,4}{2,3}{4,5,6}{6,7}{8,9,11}{9,10}"
        alpha = "{1,3,7}{2}{4,5}{6}{8,10,11}{9}"
        beta = "{1,2,3,4,5,6,7}{8,9,10,11}"

        assert cli.main(["map", "to-pair", pi]) == 0
        assert capsys.readouterr().out == f"{alpha}\n{beta}\n"

        assert cli.main(["map", "from-pair", alpha, beta]) == 0
        assert capsys.readouterr().out == f"{pi}\n"

        assert cli.main(["map", "to-pair", pi, "--details"]) == 0
        assert capsys.readouterr().out == (
            "unlinking: {1,2,4}{3}{5,6}{7}{8,9,11}{10}\n"
            "permutation: (1,2,3,4,5,6,7)(8,9,10,11)\n"
            f"alpha: {alpha}\n"
            f"beta: {beta}\n"
        )


def test_criterion_9_special_cases():
    with criterion(9, "pinned special coefficient sequences"):
        assert_passed(suite("moments", 8)["special-cases"], 2)
