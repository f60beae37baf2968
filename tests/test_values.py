"""Value semantics of the library's record classes: equality by exact class
and fields, equal hashes for equal values, no assignment or deletion on
the immutable ones, the default reprs that name every field, and the
construction checks."""

import copy
import pickle
from fractions import Fraction

import pytest

from nclab import (
    LinkedPartition,
    MomentSequence,
    NormalizationError,
    Partition,
    Permutation,
    Polynomial,
    TruncatedSeries,
    act,
    block_cycles,
    endpoint_coarsenings,
    endpoint_floor,
    endpoint_refinements,
    enumerate_nc,
    enumerate_ncl,
    enumerate_ncl_direct,
    from_pair,
    generated_partition,
    make_linked,
    make_partition,
    to_pair,
    unlink,
)
from nclab.partitions import BlockFamily
from nclab.verify import CheckResult
from helpers import block_of, nc, ncl_direct

# (class, field names, a factory for one value, a factory for a different one)
FROZEN = [
    (BlockFamily, ("n", "blocks"),
     lambda: BlockFamily(3, ((1, 3), (2,))),
     lambda: BlockFamily(3, ((1,), (2, 3)))),
    (Partition, ("n", "blocks"),
     lambda: make_partition(3, [[1, 3], [2]]),
     lambda: make_partition(3, [[1], [2, 3]])),
    (LinkedPartition, ("n", "blocks"),
     lambda: make_linked(3, [[1, 2], [2, 3]]),
     lambda: make_linked(3, [[1, 3], [2]])),
    (Permutation, ("image",),
     lambda: Permutation((2, 1, 3)),
     lambda: Permutation((1, 3, 2))),
    (TruncatedSeries, ("coeffs",),
     lambda: TruncatedSeries.of(1, "1/2", 0),
     lambda: TruncatedSeries.of(1, "1/2")),
    (MomentSequence, ("values",),
     lambda: MomentSequence.of([1, 2, 5]),
     lambda: MomentSequence.of([1, 2, 6])),
    (Polynomial, ("terms",),
     lambda: Polynomial.variable(2) + Polynomial.one(),
     lambda: Polynomial.variable(2)),
]
IDS = [cls.__name__ for cls, *_ in FROZEN]


@pytest.mark.parametrize("cls, fields, make, make_other", FROZEN, ids=IDS)
class TestFrozen:
    def test_fields_are_the_declared_ones(self, cls, fields, make, make_other):
        # equality and hashing read only `_fields`: a field left out of it
        # would make values that differ in that field equal
        assert cls._fields == fields

    def test_equal_values_equal_hashes(self, cls, fields, make, make_other):
        a, b = make(), make()
        assert a is not b
        assert type(a) is cls
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b, make_other()}) == 2

    def test_different_fields_differ(self, cls, fields, make, make_other):
        assert make() != make_other()

    def test_equality_needs_the_exact_class(self, cls, fields, make, make_other):
        a = make()
        sub = type("Sub", (cls,), {})
        twin = sub.__new__(sub)
        twin.__dict__.update({name: getattr(a, name) for name in fields})
        assert a != twin and twin != a
        assert a != tuple(getattr(a, name) for name in fields)
        assert a.__eq__(object()) is NotImplemented

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, make, make_other):
        a, other = make(), make_other()
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(other, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == make()

    def test_copies_and_pickles_are_equal(self, cls, fields, make, make_other):
        a = make()
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b == a and hash(b) == hash(a)

    def test_keyword_construction(self, cls, fields, make, make_other):
        a = make()
        assert cls(**{name: getattr(a, name) for name in fields}) == a


# Every route that builds a block family, as n -> the objects it builds on {1..n}.
ROUTES = {
    "make_partition": lambda n: (make_partition(n, b.blocks) for b in nc(n)),
    "make_linked": lambda n: (make_linked(n, p.blocks) for p in ncl_direct(n)),
    "from_text": lambda n: (type(x).from_text(x.to_text()) for x in nc(n) + ncl_direct(n)),
    "from_json_dict": lambda n: (type(x).from_json_dict(x.to_json_dict())
                                 for x in nc(n) + ncl_direct(n)),
    "enumerate_nc": enumerate_nc,
    "endpoint_refinements": lambda n: (a for b in nc(n) for a in endpoint_refinements(b)),
    "endpoint_coarsenings": lambda n: (b for a in nc(n) for b, _ in endpoint_coarsenings(a)),
    "endpoint_floor": lambda n: map(endpoint_floor, nc(n)),
    "act": lambda n: (act(block_cycles(b), b) for b in nc(n)),
    "unlink": lambda n: map(unlink, ncl_direct(n)),
    "generated_partition": lambda n: map(generated_partition, ncl_direct(n)),
    "from_pair": lambda n: (from_pair(*to_pair(p)) for p in ncl_direct(n)),
    "enumerate_ncl": enumerate_ncl,
    "enumerate_ncl_direct": enumerate_ncl_direct,
}


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
def test_constructed_families_live_on_1_to_n(route):
    # each object carries its size n and equals the validated object with
    # its blocks; copies and pickles of it are equal values
    for n in range(1, 7):
        for obj in route(n):
            assert type(obj.n) is int and obj.n == n
            make = make_linked if type(obj) is LinkedPartition else make_partition
            canonical = make(obj.n, obj.blocks)
            assert obj == canonical and hash(obj) == hash(canonical)
            for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert twin == obj and hash(twin) == hash(obj)


def test_partition_never_equals_linked_partition():
    p = make_partition(3, [[1, 2], [3]])
    q = make_linked(3, [[1, 2], [3]])
    f = BlockFamily(p.n, p.blocks)
    assert p.blocks == q.blocks == f.blocks
    assert p != q and q != p and p != f and f != q


def test_cached_properties_on_frozen_values():
    p = make_partition(4, [[1, 4], [2, 3]])
    assert p.inner_indices == frozenset({1})
    assert block_of(p, 3) == (2, 3)


def test_default_reprs():
    assert repr(CheckResult("counts", "ncl-three-way", "n<=2", 2, True)) == (
        "CheckResult(suite='counts', identity='ncl-three-way', scope='n<=2', "
        "checked=2, passed=True, detail='', failures=[])")


def test_custom_reprs():
    assert repr(Permutation((2, 1, 3))) == "Permutation('(1,2)')"
    assert repr(TruncatedSeries.of(1, "1/2")) == "TruncatedSeries.of('1', '1/2')"
    assert repr(MomentSequence.of([1, 2])) == "MomentSequence.of(['1', '2'])"
    assert repr(Polynomial.variable(1)) == "Polynomial('t1')"


def test_zero_polynomial_text_and_repr():
    assert str(Polynomial(())) == "0"
    assert repr(Polynomial(())) == "Polynomial('0')"


class TestCheckResult:
    def test_fields_are_the_declared_ones(self):
        assert CheckResult._fields == ("suite", "identity", "scope", "checked", "passed",
                                       "detail", "failures")

    def test_mutable_and_unhashable(self):
        r = CheckResult("moments", "four-routes", "n<=3", 0, True)
        r.checked += 3
        r.fail("n=2: routes disagree")
        assert (r.checked, r.passed, r.failures) == (3, False, ["n=2: routes disagree"])
        with pytest.raises(TypeError):
            hash(r)

    def test_equality_by_fields(self):
        a = CheckResult("counts", "x", "n<=1", 1, True, "d")
        b = CheckResult("counts", "x", "n<=1", 1, True, detail="d", failures=[])
        assert a == b
        b.fail("boom")
        assert a != b

    def test_failures_list_not_shared(self):
        a = CheckResult("s", "i", "r", 0, True)
        b = CheckResult("s", "i", "r", 0, True)
        a.fail("only a")
        assert b.failures == []


class TestConstructionChecks:
    def test_series_needs_a_constant_term(self):
        with pytest.raises(ValueError, match="a series needs at least its constant term"):
            TruncatedSeries(())

    def test_moment_sequence_needs_depth(self):
        with pytest.raises(ValueError, match="a moment sequence needs depth at least 1"):
            MomentSequence(())

    def test_moment_sequence_normalization(self):
        with pytest.raises(NormalizationError, match="first moment must be 1, got 2"):
            MomentSequence((Fraction(2), Fraction(1)))
