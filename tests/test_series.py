import hashlib
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nclab.partitions
import nclab.polynomials
from nclab import (
    MomentSequence,
    NormalizationError,
    TruncatedSeries,
    catalan,
    cumulant_poly,
    cumulants_from_moments,
    cumulants_from_moments_by_enumeration,
    cumulants_from_t,
    cumulants_from_t_by_enumeration,
    moment_poly_cumulants,
    moment_poly_inner_outer,
    moment_poly_pairs,
    moment_series,
    moments_from_cumulants,
    moments_from_cumulants_by_enumeration,
    moments_from_t,
    moments_from_t_by_enumeration,
    s_transform,
    t_transform,
)
from helpers import fresh_families, per_partition_sum


def random_moments(rng, depth):
    return MomentSequence.of(
        [1] + [Fraction(rng.randint(-40, 40), rng.randint(1, 15))
               for _ in range(depth - 1)]
    )


def random_t(rng, length):
    return [Fraction(1)] + [
        Fraction(rng.randint(-40, 40), rng.randint(1, 15)) for _ in range(length - 1)
    ]


def sparse_coeffs(rng, depth):
    """1 followed by depth - 1 rationals, about a third of them zero, then
    a zero-padded tail of 0..2 entries, the way the CLI pads short lists."""
    return [Fraction(1)] + [
        Fraction(0) if rng.random() < 0.35
        else Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        for _ in range(depth - 1)
    ] + [Fraction(0)] * rng.randint(0, 2)


def seeded_fractions(seed, count, max_den):
    rng = random.Random(seed)
    return [Fraction(rng.randint(-30, 30), rng.randint(1, max_den)) for _ in range(count)]


def series_route(name, depth, max_den):
    """One series operation or conversion on seeded inputs of the given
    depth, with denominators up to max_den."""
    a = seeded_fractions(depth, depth, max_den)
    b = seeded_fractions(depth + 1, depth, max_den)
    seq = [1, *a[: depth - 1]]
    routes = {
        "reciprocal": lambda: TruncatedSeries.of(1, *a).reciprocal().coeffs,
        "reciprocal 3/7": lambda: TruncatedSeries.of("3/7", *a).reciprocal().coeffs,
        "reciprocal -2": lambda: TruncatedSeries.of(-2, *a).reciprocal().coeffs,
        "mul": lambda: (TruncatedSeries.of(*a, 1) * TruncatedSeries.of(1, *b)).coeffs,
        "mul 3/7 by -2, orders differ": lambda: (
            TruncatedSeries.of("3/7", *a) * TruncatedSeries.of(-2, *b[: depth // 2])).coeffs,
        "compose": lambda: TruncatedSeries.of(1, *a).compose(TruncatedSeries.of(0, *b)).coeffs,
        "compose 3/7": lambda: (
            TruncatedSeries.of("3/7", *a).compose(TruncatedSeries.of(0, *b))).coeffs,
        "comp_inverse": lambda: TruncatedSeries.of(0, 1, *a[: depth - 1]).comp_inverse().coeffs,
        "comp_inverse -5/3": lambda: (
            TruncatedSeries.of(0, "-5/3", *a[: depth - 1]).comp_inverse().coeffs),
        "s_transform": lambda: s_transform(MomentSequence.of(seq)).coeffs,
        "t_transform": lambda: t_transform(MomentSequence.of(seq)).coeffs,
        "cumulants_from_moments": lambda: cumulants_from_moments(MomentSequence.of(seq)),
        "moments_from_t": lambda: moments_from_t(seq, depth).values,
        "moments_from_cumulants": lambda: moments_from_cumulants(seq, depth).values,
        "cumulants_from_t": lambda: cumulants_from_t(seq, depth),
    }
    return routes[name]()


def digest(values):
    return hashlib.sha256(", ".join(map(str, values)).encode()).hexdigest()[:16]


# Digests of the values above, taken with the Fraction arithmetic that the
# integer core replaced; keyed by (route, depth, largest input denominator).
PINNED = {
    ('reciprocal', 12, 12): '3065de60cee8ffa6',
    ('mul', 12, 12): '9dcfa442b3e4d8d2',
    ('compose', 12, 12): '8b280b98477b6e55',
    ('comp_inverse', 12, 12): '36eb3c098ac404d3',
    ('s_transform', 12, 12): 'd3e58e93365bfe0a',
    ('t_transform', 12, 12): '54fbc23111b3bc4e',
    ('cumulants_from_moments', 12, 12): '267af672c2c6f597',
    ('moments_from_t', 12, 12): '5d0bb20195bbeafe',
    ('moments_from_cumulants', 12, 12): '82054ce6b1144f72',
    ('cumulants_from_t', 12, 12): 'ace9a0d4bfa549d9',
    ('reciprocal', 40, 12): 'aa8d2adb5376ea53',
    ('mul', 40, 12): '04405bb32e0b0001',
    ('compose', 40, 12): 'be968a22017bcf6d',
    ('comp_inverse', 40, 12): '610d10fda623d007',
    ('s_transform', 40, 12): '76339b143a2a389b',
    ('t_transform', 40, 12): 'a56817b46fdadd4b',
    ('cumulants_from_moments', 40, 12): 'c95b6ea531a2f818',
    ('moments_from_t', 40, 12): '9aa3ee18d5eb2afb',
    ('moments_from_cumulants', 40, 12): '9c5666f2fda98ce6',
    ('cumulants_from_t', 40, 12): '9b2f52bec62ff221',
    ('reciprocal', 100, 12): '0ab8665ee88dc558',
    ('mul', 100, 12): '4dd516b4d226918f',
    ('compose', 100, 12): '6bd4a06b35a59169',
    ('comp_inverse', 100, 12): '66d104e5ced4e3b0',
    ('s_transform', 100, 12): 'a486b6d2689aa397',
    ('t_transform', 100, 12): '4286ad12d3af4e5e',
    ('cumulants_from_moments', 100, 12): 'c2bcbe4647efc7a9',
    ('moments_from_t', 100, 12): '865d5f047f485d49',
    ('moments_from_cumulants', 100, 12): '81e2536d6fc40a11',
    ('cumulants_from_t', 100, 12): 'e29c0cc843d001b4',
    ('reciprocal', 40, 1000000): '284fbce812b07ada',
    ('mul', 40, 1000000): '910bf0ca6f092dc5',
    ('compose', 40, 1000000): '790c68f5fdaee6a0',
    ('comp_inverse', 40, 1000000): 'ce8a2c850a1d0279',
    ('s_transform', 40, 1000000): 'f39f783ec2cecb2b',
    ('t_transform', 40, 1000000): '729421768232167b',
    ('cumulants_from_moments', 40, 1000000): 'd910950bb81239b6',
    ('moments_from_t', 40, 1000000): '12d5ab32a3030cd7',
    ('moments_from_cumulants', 40, 1000000): 'a60c27ed3d430bbc',
    ('cumulants_from_t', 40, 1000000): 'ddcc9637f398cb22',
    ('reciprocal 3/7', 40, 12): 'e650275c06217c93',
    ('reciprocal -2', 40, 12): 'c51a026a5355883c',
    ('mul 3/7 by -2, orders differ', 40, 12): '333fe58aa04919bb',
    ('compose 3/7', 40, 12): 'b0c38cf168310ea0',
    ('comp_inverse -5/3', 40, 12): '0b9cd717f1bacbfd',
}


@pytest.mark.parametrize("key", PINNED, ids=lambda key: f"{key[0]}@{key[1]}/{key[2]}")
def test_outputs_pinned_before_the_integer_core(key):
    assert digest(series_route(*key)) == PINNED[key]


class TestArithmetic:
    def test_add_zero_and_mul_one(self):
        f = TruncatedSeries.of(2, -1, Fraction(1, 3))
        zero = TruncatedSeries.of(0, 0, 0)
        one = TruncatedSeries.of(1, 0, 0)
        assert f + zero == f
        assert f * one == f

    def test_difference_of_squares(self):
        f = TruncatedSeries.of(1, 1, 0)
        g = TruncatedSeries.of(1, -1, 0)
        assert (f * g).coeffs == (1, 0, -1)

    def test_hand_cauchy_product(self):
        for f, g, want in [
            ((0, 1, 1, 1), (0, 1, -1, 1), (0, 0, 1, 0)),
            # constant terms other than 1, orders 2 and 3
            (("3/7", 1, 1), (-2, "1/2", 0, 5), ("-6/7", "-25/14", "-3/2")),
        ]:
            product = TruncatedSeries.of(*f) * TruncatedSeries.of(*g)
            assert product == TruncatedSeries.of(*want)

    def test_min_order_propagation(self):
        f = TruncatedSeries.of(1, 2, 3, 4, 5)
        g = TruncatedSeries.of(1, 1)
        assert (f + g).order == 1
        assert (f * g).order == 1

    def test_coefficient_beyond_order_is_an_error(self):
        # coeffs holds exactly order + 1 entries: nothing past the order
        # reads as a silent zero
        f = TruncatedSeries.of(1, 2)
        assert f.coeffs == (1, 2) and f.order == 1
        with pytest.raises(IndexError):
            f.coeffs[2]

    def test_floats_rejected(self):
        with pytest.raises(TypeError, match="not exact"):
            TruncatedSeries.of(1.5)

    def test_truncate_cannot_extend(self):
        with pytest.raises(ValueError, match="^cannot extend order 1 to 2$"):
            TruncatedSeries.of(1, 2).truncate(2)

    def test_exactness(self):
        f = TruncatedSeries.of("1/3", "1/7")
        assert all(isinstance(c, Fraction) for c in (f * f).coeffs)
        assert (f * f).coeffs == (Fraction(1, 9), Fraction(2, 21))


class TestReciprocal:
    def test_one(self):
        one = TruncatedSeries.of(1, 0, 0, 0)
        assert one.reciprocal() == one

    def test_geometric(self):
        f = TruncatedSeries.of(1, 1, 0, 0, 0)
        assert f.reciprocal().coeffs == (1, -1, 1, -1, 1)

    def test_identity_property(self):
        rng = random.Random(3)
        one = TruncatedSeries.of(*([1] + [0] * 8))
        for constant in [None, Fraction(3, 7), Fraction(-2)]:
            for _ in range(25):
                f = TruncatedSeries.of(
                    *[constant or Fraction(rng.randint(1, 9), rng.randint(1, 9))]
                    + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
                )
                assert f * f.reciprocal() == one

    def test_zero_constant_rejected(self):
        with pytest.raises(ValueError, match="zero constant term"):
            TruncatedSeries.of(0, 1).reciprocal()


class TestComposeInverse:
    def test_identity_series(self):
        z = TruncatedSeries.of(0, 1, 0, 0)
        assert z.comp_inverse() == z

    def test_geometric_inverse(self):
        f = TruncatedSeries.of(0, 1, 1, 1, 1)  # z/(1-z)
        assert f.comp_inverse().coeffs == (0, 1, -1, 1, -1)

    def test_round_trip_random_order8(self):
        rng = random.Random(5)
        z = TruncatedSeries.of(*([0, 1] + [0] * 7))
        for linear in [None, Fraction(-5, 3)]:
            for _ in range(25):
                f = TruncatedSeries.of(
                    *[0, linear or Fraction(rng.randint(1, 6), rng.randint(1, 6))]
                    + [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(7)]
                )
                g = f.comp_inverse()
                assert f.compose(g) == z
                assert g.compose(f) == z

    def test_round_trip_random_order40(self):
        rng = random.Random(7)
        z = TruncatedSeries.of(*([0, 1] + [0] * 39))
        for _ in range(3):
            f = TruncatedSeries.of(
                *[0, Fraction(rng.randint(1, 9), rng.randint(1, 9))]
                + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(39)]
            )
            assert f.compose(f.comp_inverse()) == z

    def test_compose_needs_zero_constant_inner(self):
        with pytest.raises(ValueError) as info:
            TruncatedSeries.of(1, 1).compose(TruncatedSeries.of(1, 1))
        assert str(info.value) == "composition needs an inner series with zero constant term"

    def test_preconditions_distinct(self):
        with pytest.raises(ValueError, match="zero constant term"):
            TruncatedSeries.of(1, 1).comp_inverse()
        with pytest.raises(ValueError, match="nonzero linear coefficient"):
            TruncatedSeries.of(0, 0, 1).comp_inverse()


class TestSTransform:
    def test_all_ones_moments(self):
        m = MomentSequence.of([1, 1, 1, 1, 1])
        assert s_transform(m).coeffs == (1, 0, 0, 0, 0)

    def test_catalan_moments(self):
        m = MomentSequence.of([1, 2, 5, 14])
        s = s_transform(m)
        assert s.coeffs == (1, -1, 1, -1)
        assert s.reciprocal().coeffs == (1, 1, 0, 0)

    def test_constant_term_always_one(self):
        rng = random.Random(9)
        for _ in range(30):
            m = random_moments(rng, rng.randint(1, 8))
            s = s_transform(m)
            assert s.coeffs[0] == 1
            assert s.order == m.depth - 1

    def test_normalization_enforced(self):
        with pytest.raises(NormalizationError, match="first moment must be 1"):
            MomentSequence.of([2, 1, 1])

    def test_inverse_identity(self):
        rng = random.Random(13)
        for _ in range(20):
            m = random_moments(rng, 8)
            ms = moment_series(m)
            inv = ms.comp_inverse()
            z = TruncatedSeries.of(*([0, 1] + [0] * (m.depth - 1)))
            assert ms.compose(inv) == z


class TestTTransform:
    def test_all_ones(self):
        assert t_transform(MomentSequence.of([1, 1, 1, 1])).coeffs == (1, 0, 0, 0)

    def test_catalan(self):
        assert t_transform(MomentSequence.of([1, 2, 5, 14])).coeffs == (1, 1, 0, 0)

    def test_fourth_moment_polynomial_value(self):
        # with t = (1,1,0,0) the degree-4 formula collapses to
        # 1 + 6 + 6 + 1 = 14
        t = t_transform(MomentSequence.of([1, 2, 5, 14]))
        t1, t2, t3 = t.coeffs[1], t.coeffs[2], t.coeffs[3]
        assert t3 + 3 * t2 * t1 + t1**3 + 4 * t2 + 6 * t1**2 + 6 * t1 + 1 == 14

    def test_depth_two_inversion(self):
        rng = random.Random(17)
        for _ in range(20):
            q = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            m = MomentSequence.of([1, 1 + q])
            assert t_transform(m).coeffs == (1, q)

    def test_product_with_s_is_one(self):
        rng = random.Random(19)
        for _ in range(20):
            m = random_moments(rng, 7)
            one = TruncatedSeries.of(*([1] + [0] * (m.depth - 1)))
            assert s_transform(m) * t_transform(m) == one


class TestMomentsFromT:
    def test_trivial_t(self):
        m = moments_from_t([1, 0, 0, 0, 0, 0], 6)
        assert set(m.values) == {Fraction(1)}

    def test_catalan_t(self):
        assert moments_from_t([1, 1, 0, 0], 4).values == (1, 2, 5, 14)

    def test_matches_low_order_formulas(self):
        rng = random.Random(23)
        for _ in range(20):
            t = random_t(rng, 4)
            m = moments_from_t(t, 4)
            t1, t2, t3 = t[1], t[2], t[3]
            assert m.moment(1) == 1
            assert m.moment(2) == t1 + 1
            assert m.moment(3) == t2 + t1**2 + 3 * t1 + 1
            assert m.moment(4) == t3 + 3 * t2 * t1 + t1**3 + 4 * t2 + 6 * t1**2 + 6 * t1 + 1

    def test_round_trip_with_t_transform(self):
        rng = random.Random(29)
        for _ in range(20):
            m = random_moments(rng, 8)
            t = t_transform(m)
            assert moments_from_t(t.coeffs, 8) == m

    def test_t0_must_be_one(self):
        with pytest.raises(NormalizationError, match="t_0 must be 1"):
            moments_from_t([2, 1], 2)

    def test_insufficient_depth(self):
        with pytest.raises(ValueError, match="need coefficients"):
            moments_from_t([1, 1], 4)


class TestCumulants:
    def test_catalan_case(self):
        m = MomentSequence.of([1, 2, 5, 14])
        assert cumulants_from_moments(m) == (1, 1, 1, 1)

    def test_low_order_formulas(self):
        rng = random.Random(31)
        for _ in range(20):
            m = random_moments(rng, 3)
            k = cumulants_from_moments(m)
            m1, m2, m3 = m.moment(1), m.moment(2), m.moment(3)
            assert k[0] == m1
            assert k[1] == m2 - m1**2
            assert k[2] == m3 - 3 * m1 * m2 + 2 * m1**3

    def test_trivial_cumulants(self):
        m = moments_from_cumulants([1, 0, 0, 0, 0], 5)
        assert set(m.values) == {Fraction(1)}

    def test_all_one_cumulants_give_catalan(self):
        m = moments_from_cumulants([1] * 6, 6)
        assert list(m.values) == [catalan(k) for k in range(1, 7)]

    def test_round_trip_depth8(self):
        rng = random.Random(37)
        for _ in range(20):
            m = random_moments(rng, 8)
            k = cumulants_from_moments(m)
            assert moments_from_cumulants(k, 8) == m
        for _ in range(20):
            k = tuple(
                [Fraction(1)] + [
                    Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                    for _ in range(7)
                ]
            )
            assert cumulants_from_moments(moments_from_cumulants(k, 8)) == k

    def test_insufficient_depth(self):
        with pytest.raises(ValueError, match="need cumulants"):
            moments_from_cumulants([1, 1], 4)


class TestCumulantsFromT:
    def test_trivial(self):
        assert cumulants_from_t([1, 0, 0, 0], 4) == (1, 0, 0, 0)

    def test_catalan(self):
        assert cumulants_from_t([1, 1, 0, 0], 4) == (1, 1, 1, 1)

    def test_agrees_with_moment_route(self):
        rng = random.Random(41)
        for depth in range(1, 11):
            t = random_t(rng, max(depth, 1))
            direct = cumulants_from_t(t, depth)
            via_moments = cumulants_from_moments(moments_from_t(t, depth))
            assert direct == via_moments

    def test_t0_must_be_one(self):
        with pytest.raises(NormalizationError):
            cumulants_from_t([Fraction(1, 2), 1], 2)


FAST_AND_ORACLE = [
    (moments_from_t, moments_from_t_by_enumeration),
    (moments_from_cumulants, moments_from_cumulants_by_enumeration),
    (cumulants_from_t, cumulants_from_t_by_enumeration),
]


class TestEnumerationOracles:
    @pytest.mark.parametrize("fast, oracle", FAST_AND_ORACLE)
    def test_sequence_routes_match_depth_1_to_8(self, fast, oracle):
        rng = random.Random(47)
        for depth in range(1, 9):
            for _ in range(4):
                coeffs = sparse_coeffs(rng, depth)
                assert fast(coeffs, depth) == oracle(coeffs, depth)

    def test_cumulants_from_moments_matches_depth_1_to_8(self):
        rng = random.Random(53)
        for depth in range(1, 9):
            for _ in range(4):
                m = MomentSequence.of(sparse_coeffs(rng, depth)[:depth])
                assert cumulants_from_moments(m) == cumulants_from_moments_by_enumeration(m)

    @pytest.mark.parametrize("fast, oracle", FAST_AND_ORACLE)
    @pytest.mark.parametrize("coeffs, n_max", [
        ([2, 1, 0], 3),       # t_0 (or the first cumulant) is not 1
        ([], 2),              # nothing at all
        ([1, 1], 4),          # too short
        ([1, 1], 0),          # no moments asked for
    ])
    def test_errors_match(self, fast, oracle, coeffs, n_max):
        with pytest.raises(ValueError) as want:
            oracle(coeffs, n_max)
        with pytest.raises(ValueError) as got:
            fast(coeffs, n_max)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_first_cumulant_normalization(self):
        with pytest.raises(NormalizationError, match="first moment must be 1, got 2"):
            moments_from_cumulants([2, 1, 0], 3)
        with pytest.raises(NormalizationError, match="first moment must be 1, got 2"):
            moments_from_cumulants_by_enumeration([2, 1, 0], 3)

    def test_fast_routes_never_enumerate(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"enumerate_nc({n}) called by a fast route")

        # an enumerating route imports enumerate_nc from `partitions` when
        # it runs, so the control below meets the refusal
        monkeypatch.setattr(nclab.partitions, "enumerate_nc", refuse)
        coeffs = sparse_coeffs(random.Random(59), 12)
        m = moments_from_t(coeffs, 12)
        moments_from_cumulants(coeffs, 12)
        cumulants_from_t(coeffs, 12)
        cumulants_from_moments(m)
        t_transform(m)
        with pytest.raises(AssertionError, match="enumerate_nc"):
            moment_poly_pairs(4)

    def test_oracles_never_run_the_integer_core(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an oracle ran the integer core")

        for name in ("_lagrange", "_reciprocal", "_convolve"):
            monkeypatch.setattr(nclab.series, name, refuse)
        coeffs = sparse_coeffs(random.Random(83), 8)
        moments_from_t_by_enumeration(coeffs, 8)
        moments_from_cumulants_by_enumeration(coeffs, 8)
        cumulants_from_t_by_enumeration(coeffs, 8)
        cumulants_from_moments_by_enumeration(MomentSequence.of(coeffs[:8]))
        with pytest.raises(AssertionError, match="integer core"):
            moments_from_t(coeffs, 8)


class TestBlockTypeTally:
    def test_unit_weights_count_nc(self):
        # every partition of NC(m) weighs 1, so the sums are the sizes of NC(m)
        sums = nclab.partitions._nc_weight_sums(lambda size, inner: 1)
        assert list(islice(sums, 41)) == [catalan(m) for m in range(41)]

    def test_moments_from_t_oracle_is_the_per_partition_sum(self):
        rng = random.Random(61)
        for n_max in range(1, 8):
            t = sparse_coeffs(rng, n_max)

            def weight(size, inner):
                return t[size - 1] + t[size] if inner else t[size - 1]

            want = [per_partition_sum(n, weight) for n in range(1, n_max + 1)]
            assert list(moments_from_t_by_enumeration(t, n_max).values) == want

    def test_moments_from_cumulants_oracle_is_the_per_partition_sum(self):
        rng = random.Random(67)
        for n_max in range(1, 8):
            kappa = sparse_coeffs(rng, n_max)
            want = [per_partition_sum(n, lambda size, inner: kappa[size - 1])
                    for n in range(1, n_max + 1)]
            assert list(moments_from_cumulants_by_enumeration(kappa, n_max).values) == want

    def test_cumulants_from_t_oracle_is_the_per_partition_sum(self):
        rng = random.Random(71)
        for n_max in range(1, 8):
            t = sparse_coeffs(rng, n_max)
            want = [Fraction(1)] + [per_partition_sum(n - 1, lambda size, inner: t[size])
                                    for n in range(2, n_max + 1)]
            assert list(cumulants_from_t_by_enumeration(t, n_max)) == want

    def test_cumulants_from_moments_oracle_is_the_per_partition_sum(self):
        rng = random.Random(73)
        for depth in range(1, 8):
            m = MomentSequence.of(sparse_coeffs(rng, depth)[:depth])
            kappa = []
            for n in range(1, depth + 1):
                kappa.append(Fraction(0))  # the full partition left out
                kappa[-1] = m.moment(n) - per_partition_sum(
                    n, lambda size, inner: kappa[size - 1])
            assert cumulants_from_moments_by_enumeration(m) == tuple(kappa)

    def test_routes_and_oracles_never_enumerate(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"enumerate_nc({n}) called by a sum over NC(n)")

        fresh_families(monkeypatch)
        monkeypatch.setattr(nclab.partitions, "enumerate_nc", refuse)
        coeffs = sparse_coeffs(random.Random(79), 10)
        moments_from_t_by_enumeration(coeffs, 10)
        moments_from_cumulants_by_enumeration(coeffs, 10)
        cumulants_from_t_by_enumeration(coeffs, 10)
        cumulants_from_moments_by_enumeration(MomentSequence.of(coeffs[:10]))
        for n in range(1, 11):
            moment_poly_inner_outer(n)
            moment_poly_cumulants(n)
            cumulant_poly(n)
        with pytest.raises(AssertionError, match="enumerate_nc"):
            moment_poly_pairs(4)


rational = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(tail=st.lists(rational, max_size=6), kappa_tail=st.lists(rational, max_size=6))
def test_property_fast_routes_equal_oracles(tail, kappa_tail):
    t = [Fraction(1)] + tail
    kappa = [Fraction(1)] + kappa_tail
    assert moments_from_t(t, len(t)) == moments_from_t_by_enumeration(t, len(t))
    assert cumulants_from_t(t, len(t)) == cumulants_from_t_by_enumeration(t, len(t))
    m = moments_from_cumulants(kappa, len(kappa))
    assert m == moments_from_cumulants_by_enumeration(kappa, len(kappa))
    assert cumulants_from_moments(m) == cumulants_from_moments_by_enumeration(m) == tuple(kappa)


class TestComposedIdentity:
    def test_transform_chain_is_identity(self):
        # s-transform -> reciprocal -> moment recovery is the identity
        rng = random.Random(43)
        for depth in range(1, 11):
            m = random_moments(rng, depth)
            t = t_transform(m)
            assert moments_from_t(t.coeffs, depth) == m


class TestIO:
    def test_series_json(self):
        s = TruncatedSeries.of(1, "1/2", -3)
        assert s.to_json_dict() == {"order": 2, "coeffs": ["1", "1/2", "-3"]}

    def test_series_str(self):
        assert str(TruncatedSeries.of(1, "1/2")) == "1, 1/2"

    def test_moment_sequence_str(self):
        assert str(MomentSequence.of([1, 2, 5])) == "1, 2, 5"

    def test_moment_index_outside_depth(self):
        m = MomentSequence.of([1, 2])
        for k in (0, 3):
            with pytest.raises(IndexError) as info:
                m.moment(k)
            assert str(info.value) == f"moment index {k} outside 1..2"
