import json
import random
from collections import Counter
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nclab.linked
import nclab.partitions
from nclab import (
    InvalidLinkedPartitionError,
    InvalidPairError,
    InvalidPartitionError,
    LinkedPartition,
    catalan,
    coloured_count,
    endpoint_refinements,
    endpoint_refines,
    enumerate_ncl,
    enumerate_ncl_direct,
    from_pair,
    generated_partition,
    is_noncrossing,
    make_linked,
    make_partition,
    ncl_count,
    refines,
    schroder,
    to_pair,
    unlink,
)
from helpers import (
    block_of,
    block_text,
    cover_counts,
    crossing_pairs,
    discrete,
    full,
    nc,
    ncl,
    ncl_direct,
    per_partition_sum,
    random_pair,
    restricted,
    sharing_faults,
)

PI_11 = make_linked(11, [[1, 2, 4], [2, 3], [4, 5, 6], [6, 7], [8, 9, 11], [9, 10]])
BETA_11 = make_partition(11, [[1, 2, 3, 4, 5, 6, 7], [8, 9, 10, 11]])
UNLINK_11 = make_partition(11, [[1, 2, 4], [3], [5, 6], [7], [8, 9, 11], [10]])
ALPHA_11 = make_partition(11, [[1, 3, 7], [2], [4, 5], [6], [8, 10, 11], [9]])

# Counts of non-crossing linked partitions for n = 1.. (Schroeder numbers)
COUNTS = (1, 2, 6, 22, 90, 394, 1806, 8558, 41586)


@st.composite
def linked_families(draw):
    """A block family covering {1..n}, n <= 9, its blocks in a drawn order:
    the blocks of a drawn set partition, some of them given a smaller least
    element, which another block then shares.  Many break the sharing
    rules; many cross."""
    n = draw(st.integers(1, 9))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = [[k for k in range(1, n + 1) if labels[k - 1] == label]
              for label in sorted(set(labels))]
    for blk in blocks:
        if blk[0] > 1 and draw(st.booleans()):
            blk.insert(0, draw(st.integers(1, blk[0] - 1)))
    return n, draw(st.permutations(blocks))


class TestMakeLinked:
    def test_worked_example_accepted(self):
        assert PI_11.blocks == (
            (1, 2, 4), (2, 3), (4, 5, 6), (6, 7), (8, 9, 11), (9, 10)
        )

    def test_plain_partitions_accepted(self):
        for p in nc(5):
            lp = make_linked(5, p.blocks)
            assert lp.blocks == p.blocks
            assert set(cover_counts(lp).values()) == {1}

    def test_simple_link_accepted(self):
        p = make_linked(3, [[1, 2], [2, 3]])
        assert p.blocks == ((1, 2), (2, 3))
        assert cover_counts(p)[2] == 2

    def test_shared_element_not_a_minimum(self):
        with pytest.raises(
            InvalidLinkedPartitionError,
            match="shared element 3 is the minimum of neither",
        ):
            make_linked(3, [[1, 3], [2, 3]])

    def test_triple_coverage(self):
        with pytest.raises(InvalidLinkedPartitionError, match="element 2 covered by 3"):
            make_linked(4, [[1, 2], [2, 3], [2, 4]])

    def test_overlap_of_two_elements(self):
        with pytest.raises(InvalidLinkedPartitionError, match="share 2 elements"):
            make_linked(4, [[1, 2, 3], [2, 3, 4]])

    def test_equal_minima(self):
        with pytest.raises(InvalidLinkedPartitionError, match="equal minima"):
            make_linked(3, [[1, 2], [1, 3]])

    def test_singleton_overlap(self):
        with pytest.raises(InvalidLinkedPartitionError, match="singleton block"):
            make_linked(2, [[1, 2], [2]])

    def test_crossing_blocks(self):
        with pytest.raises(InvalidLinkedPartitionError, match="cross"):
            make_linked(4, [[1, 3], [2, 4]])

    def test_crossing_with_link(self):
        # {1,2,4} and {2,3,5} overlap legally at 2 but interleave as
        # 1 < 3 < 4 < 5
        with pytest.raises(InvalidLinkedPartitionError, match="cross"):
            make_linked(5, [[1, 2, 4], [2, 3, 5]])

    def test_several_crossings_name_the_first_the_sweep_meets(self):
        # all three pairs cross; the sweep finds {1,4} and {3,6} at 4
        with pytest.raises(InvalidLinkedPartitionError) as exc:
            make_linked(6, [[2, 5], [1, 4], [3, 6]])
        assert str(exc.value) == "blocks {1,4} and {3,6} cross"

    @settings(max_examples=400, deadline=None)
    @given(linked_families())
    def test_crossing_verdict_matches_pairwise_oracle(self, family):
        n, blocks = family
        try:
            make_linked(n, blocks)
            message = None
        except InvalidLinkedPartitionError as exc:
            message = str(exc)
        # families that break a sharing rule are rejected before the
        # crossing test; every family covers {1..n}
        assume(message is None or message.endswith(" cross"))
        named = {f"blocks {block_text(blocks[i])} and {block_text(blocks[j])} cross"
                 for i, j in crossing_pairs(blocks)}
        if named:
            assert message in named
        else:
            assert message is None

    def test_sharing_fault_matches_pairwise_oracle(self):
        # seeded families whose blocks overlap often: make_linked names the
        # first faulty pair in input order, as the pairwise oracle does
        rng = random.Random(16)
        several = 0
        for _ in range(3000):
            n = rng.randint(2, 8)
            blocks = [sorted(rng.sample(range(1, n + 1), rng.randint(1, min(n, 4))))
                      for _ in range(rng.randint(2, 6))]
            if max(Counter(x for blk in blocks for x in blk).values()) > 2:
                continue
            faults = sharing_faults(blocks)
            if not faults:
                continue
            several += len(faults) > 1
            with pytest.raises(InvalidLinkedPartitionError) as exc:
                make_linked(n, blocks)
            assert str(exc.value) == faults[0]
        assert several > 100

    @pytest.mark.parametrize("n, blocks, message", [
        # the first faulty pair shares 5; a later one shares 1
        (6, [[3, 5], [4, 5], [1, 2], [1, 6]],
         "shared element 5 is the minimum of neither {3,5} nor {4,5}"),
        (7, [[2, 7], [1, 2, 3, 4], [3, 4, 6], [5], [5, 6]],
         "blocks {1,2,3,4} and {3,4,6} share 2 elements"),
        (6, [[4, 6], [6], [1, 3, 5], [2, 5]], "singleton block {6} overlaps {4,6}"),
        (8, [[6, 7, 8], [2, 8], [1, 2, 3], [1, 4]],
         "shared element 8 is the minimum of neither {6,7,8} nor {2,8}"),
    ])
    def test_several_sharing_faults_name_the_first_pair(self, n, blocks, message):
        assert sharing_faults(blocks)[0] == message
        with pytest.raises(InvalidLinkedPartitionError) as exc:
            make_linked(n, blocks)
        assert str(exc.value) == message

    def test_valid_link_with_nested_singleton(self):
        p = make_linked(4, [[1, 3], [3, 4], [2]])
        assert p.blocks == ((1, 3), (2,), (3, 4))

    def test_gap(self):
        with pytest.raises(InvalidLinkedPartitionError, match=r"elements \[3\]"):
            make_linked(3, [[1, 2]])

    def test_gap_diagnostic_is_bounded(self):
        with pytest.raises(InvalidLinkedPartitionError) as exc:
            make_linked(10_000_000, [[1, 2], [2, 10_000_000]])
        assert str(exc.value) == (
            "elements [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] and 9999987 more not covered"
        )

    def test_out_of_range_and_empty(self):
        with pytest.raises(InvalidLinkedPartitionError, match="out of range"):
            make_linked(2, [[1, 2, 3]])
        with pytest.raises(InvalidLinkedPartitionError, match="empty block"):
            make_linked(2, [[1, 2], []])


class TestTextJson:
    def test_text_round_trip(self):
        text = "{1,2,4}{2,3}{4,5,6}{6,7}{8,9,11}{9,10}"
        assert LinkedPartition.from_text(text).to_text() == text

    def test_json_round_trip(self):
        d = PI_11.to_json_dict()
        assert d["linked"] is True and d["n"] == 11
        assert LinkedPartition.from_json_dict(json.loads(json.dumps(d))) == PI_11


class TestSharedBlockFamily:
    # Partition and LinkedPartition share one base; each keeps its own class
    def test_same_blocks_never_equal(self):
        a = make_partition(3, [[1, 2], [3]])
        b = make_linked(3, [[1, 2], [3]])
        assert a.blocks == b.blocks and a.n == b.n
        assert a != b and b != a
        assert len({a, b}) == 2

    def test_repr_names_class(self):
        assert repr(make_linked(3, [[1, 2], [2, 3]])) == "LinkedPartition('{1,2}{2,3}')"
        assert repr(make_partition(3, [[1, 3], [2]])) == "Partition('{1,3}{2}')"


class TestCoverMap:
    # how many blocks cover each element, read off the blocks
    def test_element_1_always_singly_covered(self):
        for n in range(1, 7):
            for p in ncl_direct(n):
                assert cover_counts(p)[1] == 1


class TestGenerated:
    def test_worked_example(self):
        assert generated_partition(PI_11) == BETA_11

    def test_crossing_input_raises(self):
        # the unchecked constructor can hold what make_linked rejects
        crossing = LinkedPartition(4, ((1, 3), (2, 4)))
        with pytest.raises(InvalidLinkedPartitionError, match="is crossing"):
            generated_partition(crossing)

    def test_plain_fixed(self):
        for p in nc(5):
            assert generated_partition(make_linked(5, p.blocks)) == p

    def test_simple_link(self):
        assert generated_partition(make_linked(3, [[1, 2], [2, 3]])) == full(3)

    def test_coarsest_refining_property(self):
        # the generated partition is the least upper bound containing each
        # linked block inside one of its blocks
        for n in range(1, 7):
            for p in ncl_direct(n):
                beta = generated_partition(p)
                assert is_noncrossing(beta)
                assert all(
                    len({block_of(beta, x) for x in blk}) == 1 for blk in p.blocks
                )
                for other in nc(n):
                    if all(
                        len({block_of(other, x) for x in blk}) == 1
                        for blk in p.blocks
                    ):
                        assert refines(beta, other)


class TestUnlink:
    def test_worked_example(self):
        assert unlink(PI_11) == UNLINK_11

    def test_plain_fixed(self):
        for p in nc(5):
            assert unlink(make_linked(5, p.blocks)) == p

    def test_simple_link(self):
        assert unlink(make_linked(3, [[1, 2], [2, 3]])) == make_partition(3, [[1, 2], [3]])

    def test_unlink_refines_generated(self):
        for n in range(1, 8):
            for p in ncl_direct(n):
                u = unlink(p)
                assert is_noncrossing(u)
                assert refines(u, generated_partition(p))
                # by definition: drop each block minimum that two blocks cover
                count = cover_counts(p)
                assert u.blocks == tuple(sorted(
                    blk[1:] if count[blk[0]] == 2 else blk for blk in p.blocks))


class TestRestrict:
    def test_commutes_with_generated_and_unlink(self):
        # restriction to any saturated set, relabelled, commutes with both
        # maps; saturated sets are exactly unions of generated-partition blocks
        for n in range(1, 7):
            for p in ncl_direct(n):
                beta = generated_partition(p)
                for mask in range(1, 1 << len(beta.blocks)):
                    e = sorted(
                        x
                        for i, w in enumerate(beta.blocks)
                        if mask >> i & 1
                        for x in w
                    )
                    r = restricted(p, e)
                    assert generated_partition(r) == restricted(beta, e)
                    assert unlink(r) == restricted(unlink(p), e)


class TestCycledUnlink:
    def test_worked_example(self):
        assert to_pair(PI_11)[0] == ALPHA_11

    def test_discrete_fixed(self):
        d = make_linked(3, [[1], [2], [3]])
        assert to_pair(d)[0] == discrete(3)

    def test_simple_link(self):
        assert to_pair(make_linked(3, [[1, 2], [2, 3]]))[0] == make_partition(
            3, [[1, 3], [2]]
        )

    def test_always_endpoint_refines_generated(self):
        for n in range(1, 9):
            for p in ncl_direct(n):
                alpha = to_pair(p)[0]
                assert is_noncrossing(alpha)
                assert endpoint_refines(alpha, generated_partition(p))


class TestPairBijection:
    def test_worked_example_forward(self):
        assert to_pair(PI_11) == (ALPHA_11, BETA_11)

    def test_worked_example_backward(self):
        assert from_pair(ALPHA_11, BETA_11) == PI_11

    def test_discrete_pair(self):
        d = discrete(4)
        assert from_pair(d, d) == make_linked(4, d.blocks)
        assert to_pair(make_linked(4, d.blocks)) == (d, d)

    def test_simple_link_pair(self):
        assert to_pair(make_linked(3, [[1, 2], [2, 3]])) == (
            make_partition(3, [[1, 3], [2]]),
            full(3),
        )
        assert from_pair(
            make_partition(3, [[1, 3], [2]]), full(3)
        ) == make_linked(3, [[1, 2], [2, 3]])

    def test_precondition_named_block(self):
        with pytest.raises(ValueError, match=r"block \{1,2,3\}: min/max not together"):
            from_pair(discrete(3), full(3))

    def test_precondition_not_refining(self):
        a = make_partition(4, [[1, 2], [3, 4]])
        b = make_partition(4, [[1, 2, 3], [4]])
        with pytest.raises(ValueError, match="does not endpoint-refine"):
            from_pair(a, b)

    @pytest.mark.parametrize("a, b, message", [
        (discrete(3), full(3),
         "block {1,2,3}: min/max not together in alpha"),
        (make_partition(4, [[1, 2], [3, 4]]), make_partition(4, [[1, 2, 3], [4]]),
         "{1,2}{3,4} does not endpoint-refine {1,2,3}{4}"),
    ], ids=["min-max-apart", "not-refining"])
    def test_precondition_error_type(self, a, b, message):
        # a library type that callers can catch, still a ValueError
        with pytest.raises(InvalidPairError) as exc:
            from_pair(a, b)
        assert type(exc.value) is InvalidPairError
        assert issubclass(InvalidPairError, ValueError)
        assert str(exc.value) == message

    @pytest.mark.parametrize("a, b, error, message", [
        (make_partition(4, [[1, 3], [2, 4]]), full(4), InvalidPartitionError,
         "left partition {1,3}{2,4} is crossing"),
        (full(4), make_partition(4, [[1, 3], [2, 4]]), InvalidPartitionError,
         "right partition {1,3}{2,4} is crossing"),
        (discrete(2), full(3), InvalidPairError, "ground sets differ (2 vs 3 elements)"),
    ], ids=["left-crossing", "right-crossing", "ground-sets"])
    def test_input_error_types(self, a, b, error, message):
        # the two faults `map from-pair` meets before the pair is read
        with pytest.raises(error) as exc:
            from_pair(a, b)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_public_entry_point_still_validates(self):
        # the enumerator's unchecked core is not reachable through from_pair
        a = make_partition(4, [[1, 2], [3, 4]])
        b = make_partition(4, [[1, 2, 3], [4]])
        with pytest.raises(ValueError) as exc:
            from_pair(a, b)
        assert str(exc.value) == "{1,2}{3,4} does not endpoint-refine {1,2,3}{4}"

    def test_round_trip_from_to(self):
        # from_pair(to_pair(p)) = p over every object from the direct oracle
        for n in range(1, 9):
            for p in ncl_direct(n):
                a, b = to_pair(p)
                assert endpoint_refines(a, b)
                assert from_pair(a, b) == p

    def test_round_trip_to_from(self):
        # to_pair(from_pair(a, b)) = (a, b) over every related pair
        for n in range(1, 9):
            for b in nc(n):
                for a in endpoint_refinements(b):
                    assert to_pair(from_pair(a, b)) == (a, b)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_round_trip_n1000(self, seed):
        a, b = random_pair(random.Random(seed), 1000)
        p = from_pair(a, b)
        assert 2 in cover_counts(p).values()
        assert to_pair(p) == (a, b)
        assert make_linked(p.n, p.blocks) == p

    def test_round_trip_n9(self):
        count = 0
        for p in enumerate_ncl_direct(9):
            a, b = to_pair(p)
            assert from_pair(a, b) == p
            count += 1
        assert count == ncl_count(9)

    def test_generated_unlink_pair_injective(self):
        # distinct linked partitions have distinct (generated, unlinking)
        for n in range(1, 8):
            seen = {}
            for p in ncl_direct(n):
                key = (generated_partition(p), unlink(p))
                assert key not in seen, (p, seen[key])
                seen[key] = p

    def test_min_covered_iff_host_minimum(self):
        # a block minimum is singly covered exactly when it is the least
        # element of its generated-partition block
        for n in range(1, 9):
            for p in ncl_direct(n):
                covers = cover_counts(p)
                beta = generated_partition(p)
                for blk in p.blocks:
                    host = block_of(beta, blk[0])
                    assert (covers[blk[0]] == 1) == (blk[0] == host[0])


class TestRestrictionFactorization:
    def test_factors_through_generated_blocks(self):
        # fixing the generated partition, restriction to its blocks
        # (relabelled) is a bijection onto the product of one-generated-block
        # linked families
        for n in range(1, 7):
            by_beta = {}
            for p in ncl_direct(n):
                by_beta.setdefault(generated_partition(p), []).append(p)
            full_counts = {
                m: sum(
                    1
                    for q in ncl_direct(m)
                    if generated_partition(q) == full(m)
                )
                for m in range(1, n + 1)
            }
            for beta, ps in by_beta.items():
                tuples = set()
                for p in ps:
                    t = tuple(restricted(p, w) for w in beta.blocks)
                    for piece, w in zip(t, beta.blocks):
                        assert generated_partition(piece) == full(len(w))
                    tuples.add(t)
                assert len(tuples) == len(ps)
                expected = 1
                for w in beta.blocks:
                    expected *= full_counts[len(w)]
                assert len(ps) == expected


class TestOneBlockFamilies:
    def test_unlink_bijection_to_joined_12(self):
        # over linked partitions generating the full partition, unlinking is
        # injective with image the partitions having 1 and 2 in one block
        for n in range(2, 9):
            family = [
                p for p in ncl_direct(n)
                if generated_partition(p) == full(n)
            ]
            images = {unlink(p) for p in family}
            assert len(images) == len(family)
            expected = {a for a in nc(n) if block_of(a, 1) == block_of(a, 2)}
            assert images == expected
            assert len(images) == catalan(n - 1)


class TestEnumeration:
    def test_n1(self):
        assert [p.to_text() for p in enumerate_ncl(1)] == ["{1}"]

    def test_n3_elements(self):
        got = {p.to_text() for p in enumerate_ncl(3)}
        assert got == {
            "{1}{2}{3}", "{1,2}{3}", "{1}{2,3}", "{1,3}{2}", "{1,2,3}",
            "{1,2}{2,3}",
        }

    def test_n4_count(self):
        assert len(ncl(4)) == 22

    def test_generators_agree(self):
        for n in range(1, 9):
            assert set(ncl(n)) == set(ncl_direct(n))
            assert len(ncl(n)) == len(ncl_direct(n))

    def test_no_duplicates(self):
        for n in range(1, 8):
            assert len(set(ncl(n))) == len(ncl(n))

    def test_never_revalidates(self, monkeypatch):
        calls = Counter()

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(module, name, wrapper)

        counting(nclab.partitions, "endpoint_refines")
        for module in (nclab.linked, nclab.partitions):
            counting(module, "_endpoint_fault")
        counting(nclab.linked, "make_linked")
        for n in range(1, 8):
            assert sum(1 for _ in enumerate_ncl(n)) == COUNTS[n - 1]
        assert calls == Counter()

    def test_every_object_passes_make_linked(self):
        for n in range(1, 8):
            for p in enumerate_ncl(n):
                assert make_linked(n, p.blocks) == p

    def test_same_order_as_from_pair(self):
        # the validating whole-partition route against the blockwise one
        for n in range(1, 9):
            want = [from_pair(a, b) for b in nc(n) for a in endpoint_refinements(b)]
            assert list(enumerate_ncl(n)) == want

    def test_work_per_call(self, monkeypatch):
        calls = Counter()

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(module, name, wrapper)

        counting(nclab.linked, "_link")
        for module in (nclab.linked, nclab.partitions):
            for name in ("_require_noncrossing", "block_cycles", "endpoint_refinements"):
                if hasattr(module, name):
                    counting(module, name)
        assert sum(1 for _ in enumerate_ncl(8)) == COUNTS[7]
        # one `_link` per shape of each block size 1..8: the sum of C(m - 1)
        assert calls.pop("_link") <= sum(catalan(m - 1) for m in range(1, 9)) == 626
        assert calls == Counter()

    def test_block_shapes_enumerated_once_per_size(self, monkeypatch):
        calls = Counter()
        original = nclab.partitions.enumerate_nc

        def counting(m):
            calls[m] += 1
            return original(m)

        nclab.partitions._block_shapes.cache_clear()
        monkeypatch.setattr(nclab.partitions, "enumerate_nc", counting)
        for _ in range(50):
            assert sum(1 for _ in enumerate_ncl(7)) == COUNTS[6]
        assert set(calls) <= set(range(1, 7))
        assert max(calls.values()) == 1


class TestCounts:
    def test_sequence(self):
        for n, want in enumerate(COUNTS, start=1):
            assert ncl_count(n) == want

    def test_small_against_direct_oracle(self):
        for n in range(1, 8):
            assert len(ncl_direct(n)) == ncl_count(n)

    def test_ncl_count_5(self):
        assert ncl_count(5) == 90

    def test_three_way_to_n9(self):
        for n in range(1, 10):
            assert len(ncl(n)) == ncl_count(n) == coloured_count(n)

    def test_count_matches_enumeration_at_n10(self):
        assert sum(1 for _ in enumerate_ncl(10)) == ncl_count(10)

    def test_coloured_small(self):
        assert coloured_count(1) == 1
        assert coloured_count(3) == 6

    def test_counts_equal_per_partition_sums(self):
        for n in range(1, 10):
            by_pairs = 0
            by_colourings = 0
            for b in nc(n):
                term = 1
                for w in b.blocks:
                    term *= catalan(len(w) - 1)
                by_pairs += term
                by_colourings += 2 ** len(b.inner_indices)
            assert ncl_count(n) == by_pairs
            assert coloured_count(n) == by_colourings

    def test_weight_sum_against_block_type_oracle(self):
        # the O(n^3) recursion behind both counts, under weights that tell
        # inner from outer blocks, against the plain sum over NC(n)
        rng = random.Random(83)
        for n in range(1, 11):
            for _ in range(3):
                w_in = [rng.randint(-20, 20) for _ in range(n + 1)]
                w_out = [w + rng.randint(1, 20) for w in w_in]

                def weight(size, inner):
                    return w_in[size] if inner else w_out[size]

                assert (next(islice(nclab.partitions._nc_weight_sums(weight), n, None))
                        == per_partition_sum(n, weight))

    def test_counts_equal_schroder_to_n60(self):
        for n in range(1, 61):
            assert ncl_count(n) == coloured_count(n) == schroder(n - 1)

    def test_coloured_equals_formula_to_n10(self):
        for n in range(1, 11):
            assert coloured_count(n) == ncl_count(n)

    def test_schroder(self):
        assert [schroder(k) for k in range(7)] == list(COUNTS[:7])
        for n in range(1, 13):
            assert ncl_count(n) == schroder(n - 1)
