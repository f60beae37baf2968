import hashlib
import random
import sys
import threading
from fractions import Fraction
from functools import lru_cache

import pytest

import nclab.partitions
import nclab.polynomials
from nclab import (
    Polynomial,
    classify_blocks,
    cumulant_poly,
    cumulant_product_identity,
    enumerate_ncl_direct,
    make_partition,
    moment_poly,
    moment_poly_cumulants,
    moment_poly_inner_outer,
    moment_poly_linked,
    moment_poly_pairs,
    moments_from_t,
    to_pair,
)
from nclab.polynomials import _exact_quotient, _mono_from_sizes
from nclab.verify import verify_moments
from helpers import discrete, fresh_families, full, nc, per_partition_sum

T1 = Polynomial.variable(1)
T2 = Polynomial.variable(2)
ONE = Polynomial.one()

# the four low-order moment polynomials in their conventional written form
LOW_ORDER = {
    1: "1",
    2: "t1 + 1",
    3: "t2 + t1^2 + 3*t1 + 1",
    4: "t3 + 3*t2*t1 + t1^3 + 4*t2 + 6*t1^2 + 6*t1 + 1",
}


class TestRingOperations:
    def test_add_zero_mul_one(self):
        p = T1 * T2 + Polynomial.constant(5)
        assert p + Polynomial(()) == p
        assert p * ONE == p

    def test_square_of_binomial(self):
        assert ((T1 + ONE) * (T1 + ONE)).to_text() == "t1^2 + 2*t1 + 1"

    def test_product_of_binomials(self):
        assert ((T1 + ONE) * (T2 + ONE)).to_text() == "t2*t1 + t2 + t1 + 1"

    def test_variable_zero_is_constant_one(self):
        assert Polynomial.variable(0) == ONE

    def test_negative_variable_rejected(self):
        with pytest.raises(ValueError) as exc:
            Polynomial.variable(-1)
        assert str(exc.value) == "bad variable power t-1^1"

    def test_monomial_ordering_is_weight_then_lex(self):
        p = (
            Polynomial.variable(3)
            + T2 * T1
            + T1 * T1 * T1
            + T2
            + T1 * T1
            + T1
            + ONE
        )
        assert p.to_text() == "t3 + t2*t1 + t1^3 + t2 + t1^2 + t1 + 1"

    def test_negative_coefficients_render(self):
        minus_one = Polynomial.constant(-1)
        assert (minus_one * T1).to_text() == "-t1"
        assert (T2 + minus_one * T1).to_text() == "t2 - t1"


class TestLowOrderRegression:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_routes_match_printed_form(self, n):
        for route in (
            moment_poly_linked,
            moment_poly_pairs,
            moment_poly_inner_outer,
            moment_poly_cumulants,
        ):
            assert route(n).to_text() == LOW_ORDER[n]


class TestLinkedRoute:
    def test_n1(self):
        assert moment_poly_linked(1) == ONE

    def test_n2(self):
        assert moment_poly_linked(2) == T1 + ONE

    def test_term_count_is_ncl_count(self):
        # total coefficient mass equals the number of linked partitions
        for n in range(1, 7):
            total = sum(c for _, c in moment_poly_linked(n).terms)
            assert total == sum(1 for _ in enumerate_ncl_direct(n))


class TestPairsRoute:
    def test_n2_n3(self):
        assert moment_poly_pairs(2) == T1 + ONE
        assert moment_poly_pairs(3).to_text() == LOW_ORDER[3]

    def test_worked_example_pair_monomial(self):
        alpha = make_partition(11, [[1, 3, 7], [2], [4, 5], [6], [8, 10, 11], [9]])
        beta = make_partition(11, [[1, 2, 3, 4, 5, 6, 7], [8, 9, 10, 11]])
        special = classify_blocks(alpha, beta)
        mono = _mono_from_sizes(
            len(blk) - 1 if i in special else len(blk)
            for i, blk in enumerate(alpha.blocks)
        )
        assert mono == ((1, 3), (2, 3))


class TestInnerOuterRoute:
    def test_n2(self):
        assert moment_poly_inner_outer(2) == T1 + ONE

    def test_n3_term_by_term(self):
        # the nested partition contributes t1 * (1 + t1)
        assert moment_poly_inner_outer(3) == (
            ONE + T1 + T1 + (T1 * (ONE + T1)) + T2
        )

    def test_n4(self):
        assert moment_poly_inner_outer(4).to_text() == LOW_ORDER[4]


class TestCumulantPolys:
    def test_first_three(self):
        assert cumulant_poly(1) == ONE
        assert cumulant_poly(2) == T1
        assert cumulant_poly(3) == T2 + T1 * T1

    def test_weight_homogeneous(self):
        for n in range(2, 8):
            weights = {sum(i * e for i, e in exps) for exps, _ in cumulant_poly(n).terms}
            assert weights == {n - 1}

    def test_substitution_route_n3(self):
        # kappa_3 + 3 kappa_2 kappa_1 + kappa_1^3 expands to the printed form
        expanded = cumulant_poly(3) + Polynomial.constant(3) * cumulant_poly(
            2
        ) * cumulant_poly(1) + cumulant_poly(1) * cumulant_poly(1) * cumulant_poly(1)
        assert expanded == moment_poly_cumulants(3)
        assert expanded.to_text() == LOW_ORDER[3]


# sha256 of to_text(), first 16 hex digits, for n = 1..12, pinned from the
# output of the tally of NC(n) by block type that the recursion replaced.
# Every moment route gives the moment polynomial; the enumerating routes
# are pinned up to n = 9, where they still take under a second.
MOMENT_POLY_DIGESTS = (
    "6b86b273ff34fce1",
    "1183bf282ddd6719",
    "493706576bc02f60",
    "4db13e0e3b518cc1",
    "a52bfbf1e720930c",
    "3f89f79f524a3b9c",
    "67bdf2e138f55002",
    "2fa93a8133fa5ee4",
    "ebd708fbf6926a85",
    "7a98cb47384cf530",
    "e604240c3caca582",
    "abdd6b666cf76d48",
)
CUMULANT_POLY_DIGESTS = (
    "6b86b273ff34fce1",
    "628b49d96dcde97a",
    "82ee60721dd86a52",
    "63fe030a32782ec1",
    "4d4bf6e363709bca",
    "32d1ed62bf1216eb",
    "677f5713015e0272",
    "18ff3578e2b623f6",
    "36520c54212c354f",
    "fd4b08e34f4b3491",
    "ce3d3f876422725a",
    "d9b973f086057479",
)


def text_digest(p: Polynomial) -> str:
    return hashlib.sha256(p.to_text().encode()).hexdigest()[:16]


class TestPinnedDigests:
    @pytest.mark.parametrize("route, top", [
        (moment_poly, 12), (moment_poly_inner_outer, 12), (moment_poly_cumulants, 12),
        (moment_poly_linked, 9), (moment_poly_pairs, 9),
    ], ids=lambda x: getattr(x, "__name__", str(x)))
    def test_moment_routes(self, route, top):
        assert [text_digest(route(n)) for n in range(1, top + 1)] == list(
            MOMENT_POLY_DIGESTS[:top])

    def test_cumulant_poly(self):
        assert [text_digest(cumulant_poly(n)) for n in range(1, 13)] == list(
            CUMULANT_POLY_DIGESTS)


class TestFourRoutes:
    def test_equal_to_n8(self):
        for n in range(1, 9):
            p1 = moment_poly_linked(n)
            p2 = moment_poly_pairs(n)
            p3 = moment_poly_inner_outer(n)
            p4 = moment_poly_cumulants(n)
            assert p1 == p2 == p3 == p4

    def test_positive_integer_coefficients(self):
        for n in range(1, 9):
            assert all(
                isinstance(c, int) and c > 0 for _, c in moment_poly_linked(n).terms
            )


@lru_cache(maxsize=None)
def partition_count(k: int, largest: int) -> int:
    """The number of partitions of k into parts of at most ``largest``."""
    if k == 0:
        return 1
    return sum(partition_count(k - part, part) for part in range(1, min(k, largest) + 1))


class TestClosedForm:
    def test_low_order_text(self):
        for n, text in LOW_ORDER.items():
            assert moment_poly(n).to_text() == text

    def test_equals_inner_outer_to_n9(self):
        for n in range(1, 10):
            assert moment_poly(n) == moment_poly_inner_outer(n)

    def test_equals_four_routes_through_verify(self):
        four = [r for r in verify_moments(8) if r.identity == "four-routes"]
        assert [(r.checked, r.passed) for r in four] == [(8, True)]

    def test_verify_catches_a_wrong_closed_form(self, monkeypatch):
        right = nclab.polynomials.moment_poly
        monkeypatch.setattr(nclab.polynomials, "moment_poly",
                            lambda n: right(n) + ONE if n == 5 else right(n))
        four = [r for r in verify_moments(5) if r.identity == "four-routes"]
        assert [(r.passed, r.failures) for r in four] == [(False, ["n=5: routes disagree"])]

    def test_term_count_n20(self):
        expected = sum(partition_count(k, k) for k in range(20))
        assert expected == 2087
        assert len(moment_poly(20).terms) == expected

    def test_n_below_one(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be at least 1"):
                moment_poly(n)

    def test_positive_integer_coefficients(self):
        for n in range(1, 16):
            assert all(type(c) is int and c > 0 for _, c in moment_poly(n).terms)

    def test_inexact_division_raises(self):
        assert _exact_quotient(12, 4) == 3
        with pytest.raises(ArithmeticError, match="7 is not divisible by 2"):
            _exact_quotient(7, 2)


class TestBlockTypeRoutes:
    def test_routes_equal_per_partition_sums(self):
        # the recursion behind the three routes, under their polynomial
        # weights, against the plain sum over NC(n)
        t = Polynomial.variable
        zero = Polynomial(())
        for n in range(1, 9):
            assert moment_poly_inner_outer(n) == per_partition_sum(
                n, lambda size, inner: t(size - 1) + t(size) if inner else t(size - 1),
                zero, ONE)
            assert cumulant_poly(n + 1) == per_partition_sum(
                n, lambda size, inner: t(size), zero, ONE)
            assert moment_poly_cumulants(n) == per_partition_sum(
                n, lambda size, inner: cumulant_poly(size), zero, ONE)

    def test_threads_share_one_family(self, monkeypatch):
        # a route keeps one running recursion per process; two threads must
        # not advance it at once, nor read a size another thread skipped
        fresh_families(monkeypatch)
        results, errors = {}, []

        def work(k):
            try:
                for n in (range(12, 0, -1) if k % 2 else range(1, 13)):
                    results[k, n] = moment_poly_inner_outer(n)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 72
        assert all(p == moment_poly(n) for (_, n), p in results.items())

    def test_pair_monomials_not_revalidated(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an endpoint-refinement pair was re-checked")

        want = moment_poly_linked(6)
        for module in (nclab.partitions, nclab.polynomials):
            for name in ("classify_blocks", "endpoint_refines"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert moment_poly_pairs(6) == want
        assert all(cumulant_product_identity(b) for b in nc(5))


class TestTermBijection:
    def test_monomials_match_under_pairing(self):
        # each linked partition produces the same monomial as its image pair
        for n in range(1, 8):
            for p in enumerate_ncl_direct(n):
                mono_linked = _mono_from_sizes(len(a) - 1 for a in p.blocks)
                a, b = to_pair(p)
                special = classify_blocks(a, b)
                mono_pair = _mono_from_sizes(
                    len(blk) - 1 if i in special else len(blk)
                    for i, blk in enumerate(a.blocks)
                )
                assert mono_linked == mono_pair, p


class TestPerPartitionIdentity:
    def test_discrete(self):
        for n in (1, 3, 5):
            assert cumulant_product_identity(discrete(n))

    def test_full_3_sides(self):
        # product side = kappa_3; sum side has contributions t2 and t1*t1
        assert cumulant_poly(3) == T2 + T1 * T1
        assert cumulant_product_identity(full(3))

    def test_exhaustive_to_n6(self):
        for n in range(1, 7):
            for b in nc(n):
                assert cumulant_product_identity(b), b

    def test_crossing_rejected(self):
        with pytest.raises(ValueError, match="crossing"):
            cumulant_product_identity(make_partition(4, [[1, 3], [2, 4]]))


class TestEvaluate:
    def test_simple(self):
        assert (T1 + ONE).evaluate([0, 1]) == 2

    def test_constant_term_at_zero(self):
        p = moment_poly_linked(4)
        assert p.evaluate([0, 0, 0, 0]) == 1

    def test_degree4_at_catalan_point(self):
        assert moment_poly_linked(4).evaluate([1, 1, 0, 0]) == 14

    def test_missing_index(self):
        with pytest.raises(ValueError, match="missing value for t3"):
            moment_poly_linked(4).evaluate([1, 1])

    def test_bridges_to_numeric_route(self):
        rng = random.Random(47)
        for depth in range(1, 9):
            t = [Fraction(1)] + [
                Fraction(rng.randint(-15, 15), rng.randint(1, 8))
                for _ in range(depth - 1)
            ]
            numeric = moments_from_t(t, depth)
            for n in range(1, depth + 1):
                assert moment_poly_inner_outer(n).evaluate(t) == numeric.moment(n)


class TestIO:
    def test_json_form(self):
        p = Polynomial.constant(3) * T2 * T1 + ONE
        assert p.to_json_dict() == {
            "terms": [
                {"coeff": "3", "monomial": {"2": 1, "1": 1}},
                {"coeff": "1", "monomial": {}},
            ]
        }

    def test_monomial_str(self):
        assert (T1 * T1 * T1).to_text() == "t1^3"
        assert (T2 * T1).to_text() == "t2*t1"
        assert ONE.to_text() == "1"
