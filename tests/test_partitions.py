import hashlib
import json
import random

import pytest

from nclab import (
    InvalidPairError,
    InvalidPartitionError,
    ParseError,
    Partition,
    Permutation,
    SizeError,
    act,
    block_cycles,
    catalan,
    classify_blocks,
    count_endpoint_coarsenings,
    count_endpoint_refinements,
    endpoint_coarsenings,
    endpoint_floor,
    endpoint_refinements,
    endpoint_refines,
    enumerate_nc,
    is_noncrossing,
    make_partition,
    make_permutation,
    moment_poly,
    moments_from_t,
    ncl_count,
    refines,
    schroder,
)
from helpers import (
    all_set_partitions,
    block_of,
    crossing_pairs,
    discrete,
    full,
    nc,
    random_nc_blocks,
)

# The worked n = 11 example used throughout: a linked partition whose
# generated partition, unlinking and cycled unlinking are all known.
BETA_11 = make_partition(11, [[1, 2, 3, 4, 5, 6, 7], [8, 9, 10, 11]])
UNLINK_11 = make_partition(11, [[1, 2, 4], [3], [5, 6], [7], [8, 9, 11], [10]])
ALPHA_11 = make_partition(11, [[1, 3, 7], [2], [4, 5], [6], [8, 10, 11], [9]])


def compose(s: Permutation, t: Permutation) -> Permutation:
    """s after t: i -> s(t(i)), read off the image sequences."""
    return make_permutation(t.n, [s.image[v - 1] for v in t.image])


class TestMakePartition:
    def test_canonicalizes(self):
        p = make_partition(3, [[2], [1, 3]])
        assert p.blocks == ((1, 3), (2,))

    def test_idempotent_on_canonical(self):
        p = make_partition(3, [[1, 3], [2]])
        assert make_partition(3, p.blocks) == p

    def test_worked_example_blocks(self):
        assert UNLINK_11.blocks == ((1, 2, 4), (3,), (5, 6), (7,), (8, 9, 11), (10,))

    def test_overlap_rejected(self):
        with pytest.raises(InvalidPartitionError, match="element 2 repeated"):
            make_partition(4, [[1, 2], [2, 3], [4]])

    def test_gap_rejected(self):
        with pytest.raises(InvalidPartitionError, match=r"elements \[3\] not covered"):
            make_partition(3, [[1, 2]])

    def test_gap_diagnostic_is_bounded(self):
        with pytest.raises(InvalidPartitionError) as exc:
            make_partition(10_000_000, [[1, 10_000_000]])
        assert str(exc.value) == (
            "elements [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 9999988 more not covered"
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidPartitionError, match="element 5 out of range"):
            make_partition(4, [[1, 2, 3, 4, 5]])

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidPartitionError, match="empty block"):
            make_partition(2, [[1, 2], []])

    def test_bad_n_rejected(self):
        with pytest.raises(InvalidPartitionError):
            make_partition(0, [])


class TestTextJson:
    def test_text_round_trip(self):
        text = "{1,2,4}{3}{5,6}{7}{8,9,11}{10}"
        assert Partition.from_text(text).to_text() == text

    def test_text_is_canonical(self):
        assert Partition.from_text("{3}{1,2}").to_text() == "{1,2}{3}"

    def test_text_rejects_garbage(self):
        for bad in ["", "{1,2", "{ 1 }", "{1}{2},{3}", "{}"]:
            with pytest.raises(ParseError):
                Partition.from_text(bad)

    def test_text_bounds_label_digits_before_conversion(self):
        with pytest.raises(ParseError, match="a label has 4301 digits, more than 4300"):
            Partition.from_text("{1," + "9" * 4301 + "}")

    def test_json_round_trip(self):
        d = ALPHA_11.to_json_dict()
        assert d == {"n": 11, "blocks": [[1, 3, 7], [2], [4, 5], [6], [8, 10, 11], [9]]}
        assert Partition.from_json_dict(json.loads(json.dumps(d))) == ALPHA_11

    def test_json_malformed(self):
        with pytest.raises(ParseError):
            Partition.from_json_dict({"blocks": [[1]]})

    def test_json_missing_key_message(self):
        with pytest.raises(ParseError) as info:
            Partition.from_json_dict({"n": 2})
        assert str(info.value) == "partition JSON needs 'n' and 'blocks'"


class TestNoncrossing:
    def test_extremes(self):
        for n in (1, 2, 5):
            assert is_noncrossing(discrete(n))
            assert is_noncrossing(full(n))

    def test_minimal_crossing(self):
        assert not is_noncrossing(make_partition(4, [[1, 3], [2, 4]]))

    def test_count_over_all_set_partitions_of_4(self):
        all4 = list(all_set_partitions(4))
        assert len(all4) == 15
        assert sum(1 for p in all4 if is_noncrossing(p)) == 14

    def test_matches_brute_force_to_n6(self):
        for n in range(1, 7):
            expected = {p for p in all_set_partitions(n) if is_noncrossing(p)}
            assert set(nc(n)) == expected

    def test_sweep_matches_pairwise_oracle_to_n8(self):
        # every set partition of {1..n}, n <= 8: 5295 of them
        seen = 0
        for n in range(1, 9):
            for p in all_set_partitions(n):
                seen += 1
                assert is_noncrossing(p) == (not crossing_pairs(p.blocks)), p
        assert seen == 5295

    def test_seeded_large(self):
        rng = random.Random(3000)
        blocks = random_nc_blocks(rng, 3000)
        assert is_noncrossing(make_partition(3000, blocks))
        # a block c of two or more elements nested in the last gap of a
        # block b: swapping their greatest elements makes them cross
        b, c = next((b, c) for b in blocks for c in blocks
                    if len(b) > 1 and len(c) > 1 and b[-2] < c[0] < b[-1])
        rest = [blk for blk in blocks if blk is not b and blk is not c]
        swapped = rest + [b[:-1] + [c[-1]], c[:-1] + [b[-1]]]
        assert not is_noncrossing(make_partition(3000, swapped))


class TestInnerIndices:
    def test_span_definition_on_all_set_partitions_to_n7(self):
        # crossing partitions included: a block is inner when another block
        # has a smaller least and a greater greatest element
        for n in range(1, 8):
            for p in all_set_partitions(n):
                spans = [(blk[0], blk[-1]) for blk in p.blocks]
                want = {i for i, (lo, hi) in enumerate(spans)
                        if any(lo2 < lo and hi2 > hi for lo2, hi2 in spans)}
                assert p.inner_indices == want, p
                assert p.outer_indices == frozenset(range(len(spans))) - want


class TestRefines:
    def test_extremes(self):
        for p in nc(4):
            assert refines(discrete(4), p)
            assert refines(p, full(4))

    def test_worked_example(self):
        assert refines(UNLINK_11, BETA_11)

    def test_negative(self):
        a = make_partition(4, [[1, 2], [3, 4]])
        b = make_partition(4, [[1, 3], [2, 4]])
        assert not refines(a, b)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="ground sets differ"):
            refines(full(3), full(4))


class TestTypedErrors:
    # a crossing partition where a non-crossing one is needed, and a pair
    # on two ground sets, raise the library's classes; both stay ValueErrors
    CROSSING = make_partition(4, [[1, 3], [2, 4]])

    @pytest.mark.parametrize("call", [
        lambda p: endpoint_refines(p, full(4)),
        lambda p: endpoint_refines(discrete(4), p),
        lambda p: classify_blocks(p, full(4)),
        endpoint_floor,
        lambda p: list(endpoint_refinements(p)),
        count_endpoint_refinements,
        lambda p: list(endpoint_coarsenings(p)),
        count_endpoint_coarsenings,
    ])
    def test_crossing_input(self, call):
        with pytest.raises(InvalidPartitionError) as exc:
            call(self.CROSSING)
        assert str(exc.value).endswith("partition {1,3}{2,4} is crossing")

    @pytest.mark.parametrize("call", [refines, endpoint_refines, classify_blocks])
    def test_ground_sets_differ(self, call):
        with pytest.raises(InvalidPairError) as exc:
            call(discrete(2), full(3))
        assert str(exc.value) == "ground sets differ (2 vs 3 elements)"

    # the size and index checks raise one class, a ValueError, in one
    # wording; a size inside a block family keeps the family's class
    @pytest.mark.parametrize("call, message", [
        (lambda: next(enumerate_nc(0)), "ground-set size must be at least 1"),
        # its own id: the message-built one begins like the case above
        pytest.param(lambda: ncl_count("3"), "ground-set size must be an integer, got '3'",
                     id="<lambda>-ground-set size '3' is not an integer"),
        (lambda: catalan(-1), "catalan index must be at least 0"),
        (lambda: schroder(True), "schroder index must be an integer, got True"),
        (lambda: moment_poly(0), "n must be at least 1"),
        (lambda: moments_from_t([1], 1.0), "n_max must be an integer, got 1.0"),
    ])
    def test_size_and_index_errors(self, call, message):
        with pytest.raises(SizeError) as exc:
            call()
        assert type(exc.value) is SizeError
        assert issubclass(SizeError, ValueError)
        assert str(exc.value) == message

    def test_family_size_keeps_its_class(self):
        with pytest.raises(InvalidPartitionError, match="ground-set size must be at least 1"):
            make_partition(0, [])

    def test_both_are_value_errors(self):
        assert issubclass(InvalidPartitionError, ValueError)
        assert issubclass(InvalidPairError, ValueError)


class TestEndpointRefines:
    def test_reflexive(self):
        for n in range(1, 6):
            for a in nc(n):
                assert endpoint_refines(a, a)

    def test_discrete_below_full_fails(self):
        assert not endpoint_refines(discrete(3), full(3))

    def test_worked_example(self):
        assert endpoint_refines(ALPHA_11, BETA_11)

    def test_crossing_input_rejected(self):
        crossing = make_partition(4, [[1, 3], [2, 4]])
        with pytest.raises(ValueError, match="crossing"):
            endpoint_refines(crossing, full(4))
        with pytest.raises(ValueError, match="crossing"):
            endpoint_refines(discrete(4), crossing)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="ground sets differ"):
            endpoint_refines(full(3), full(4))

    def test_implies_refines_and_floor_interval(self):
        # endpoint_refines(a, b) is exactly: floor(b) <= a <= b
        for n in range(1, 8):
            for b in nc(n):
                floor = endpoint_floor(b)
                for a in nc(n):
                    lhs = endpoint_refines(a, b)
                    if lhs:
                        assert refines(a, b)
                    assert lhs == (refines(floor, a) and refines(a, b))

    def test_floor_interval_at_n8(self):
        nc8 = nc(8)
        for b in nc8:
            floor = endpoint_floor(b)
            for a in nc8:
                assert endpoint_refines(a, b) == (refines(floor, a) and refines(a, b))


class TestClassifyBlocks:
    def test_worked_example(self):
        blocks = ALPHA_11.blocks
        special = classify_blocks(ALPHA_11, BETA_11)
        assert {blocks[i] for i in special} == {(1, 3, 7), (8, 10, 11)}
        assert {blocks[i] for i in ALPHA_11.outer_indices} == {(1, 3, 7), (8, 10, 11)}
        assert {blocks[i] for i in ALPHA_11.inner_indices} == {(2,), (4, 5), (6,), (9,)}

    def test_self_pair_all_special(self):
        for a in nc(4):
            assert classify_blocks(a, a) == frozenset(range(len(a.blocks)))

    def test_nested_doubleton(self):
        a = make_partition(4, [[1, 4], [2, 3]])
        assert {a.blocks[i] for i in classify_blocks(a, full(4))} == {(1, 4)}
        assert {a.blocks[i] for i in a.outer_indices} == {(1, 4)}
        assert {a.blocks[i] for i in a.inner_indices} == {(2, 3)}

    def test_precondition_enforced(self):
        with pytest.raises(ValueError, match="does not endpoint-refine"):
            classify_blocks(discrete(3), full(3))

    @pytest.mark.parametrize("a, b", [
        (discrete(3), full(3)),
        (make_partition(4, [[1, 2], [3, 4]]), make_partition(4, [[1, 2, 3], [4]])),
    ], ids=["min-max-apart", "not-refining"])
    def test_precondition_error_type(self, a, b):
        # the error from_pair raises for the same pairs; one message for both
        with pytest.raises(InvalidPairError) as exc:
            classify_blocks(a, b)
        assert type(exc.value) is InvalidPairError
        assert str(exc.value) == f"{a} does not endpoint-refine {b}"

    def test_one_special_per_coarse_block(self):
        for n in range(1, 7):
            for b in nc(n):
                for a in endpoint_refinements(b):
                    special = classify_blocks(a, b)
                    assert len(special) == len(b.blocks)
                    assert a.outer_indices <= special
                    assert a.inner_indices | a.outer_indices == frozenset(range(len(a.blocks)))
                    assert not (a.inner_indices & a.outer_indices)


class TestEndpointFloor:
    def test_full_4(self):
        assert endpoint_floor(full(4)).blocks == ((1, 4), (2,), (3,))

    def test_small_blocks_intact(self):
        b = make_partition(4, [[1, 2], [3], [4]])
        assert endpoint_floor(b) == b

    def test_worked_example(self):
        expected = make_partition(
            11, [[1, 7], [2], [3], [4], [5], [6], [8, 11], [9], [10]]
        )
        assert endpoint_floor(BETA_11) == expected

    def test_floor_endpoint_refines(self):
        for n in range(1, 7):
            for b in nc(n):
                floor = endpoint_floor(b)
                assert max(len(w) for w in floor.blocks) <= 2
                assert refines(floor, b)
                assert endpoint_refines(floor, b)


class TestEnumerateNC:
    def test_n1(self):
        assert list(enumerate_nc(1)) == [full(1)]

    def test_documented_order_n3(self):
        texts = [p.to_text() for p in enumerate_nc(3)]
        assert texts == ["{1}{2}{3}", "{1,3}{2}", "{1}{2,3}", "{1,2}{3}", "{1,2,3}"]

    def test_documented_order_ascending_choice_codes(self):
        def choice_codes(p):
            # 0 opens a block; d >= 1 joins the d-th open block from the
            # outside and closes every block opened inside it
            codes, open_mins = [], []
            for k in range(1, p.n + 1):
                lo = block_of(p, k)[0]
                if lo == k:
                    codes.append(0)
                    open_mins.append(k)
                else:
                    depth = open_mins.index(lo)
                    codes.append(depth + 1)
                    del open_mins[depth + 1:]
            return codes

        for n in range(1, 9):
            codes = [choice_codes(p) for p in enumerate_nc(n)]
            assert codes == sorted(codes)
            assert len(codes) == len(set(map(tuple, codes))) == catalan(n)

    def test_counts_are_catalan(self):
        for n in range(1, 9):
            assert len(nc(n)) == catalan(n)

    def test_distinct_and_noncrossing(self):
        for n in range(1, 8):
            seen = set(nc(n))
            assert len(seen) == len(nc(n))
            assert all(is_noncrossing(p) for p in seen)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            list(enumerate_nc(0))

    def test_same_order_as_recursive_generator(self):
        def recursive(n):
            # the nested-generator form that the backtracking loop replaced
            blocks, open_idx = [], []

            def rec(k):
                if k > n:
                    yield tuple(blocks)
                    return
                blocks.append((k,))
                open_idx.append(len(blocks) - 1)
                yield from rec(k + 1)
                open_idx.pop()
                blocks.pop()
                for depth in range(len(open_idx)):
                    saved = open_idx[depth + 1:]
                    del open_idx[depth + 1:]
                    target = open_idx[depth]
                    old = blocks[target]
                    blocks[target] = old + (k,)
                    yield from rec(k + 1)
                    blocks[target] = old
                    open_idx.extend(saved)

            yield from rec(1)

        for n in range(1, 11):
            assert [p.blocks for p in enumerate_nc(n)] == list(recursive(n))


class TestEndpointRefinements:
    def test_discrete_is_fixed(self):
        for n in (1, 3, 5):
            assert list(endpoint_refinements(discrete(n))) == [
                discrete(n)
            ]

    def test_full_3(self):
        got = set(endpoint_refinements(full(3)))
        assert got == {full(3), make_partition(3, [[1, 3], [2]])}

    def test_worked_example_count(self):
        below = list(endpoint_refinements(BETA_11))
        assert len(below) == 660 == count_endpoint_refinements(BETA_11)
        assert len(set(below)) == 660

    def test_worked_example_against_filter(self):
        got = set(endpoint_refinements(BETA_11))
        expected = {a for a in enumerate_nc(11) if endpoint_refines(a, BETA_11)}
        assert got == expected

    def test_matches_filter_exhaustively(self):
        for n in range(1, 8):
            for b in nc(n):
                got = list(endpoint_refinements(b))
                expected = {a for a in nc(n) if endpoint_refines(a, b)}
                assert len(got) == len(set(got)) == count_endpoint_refinements(b)
                assert set(got) == expected

    def test_counts(self):
        assert count_endpoint_refinements(full(4)) == 5
        assert count_endpoint_refinements(discrete(6)) == 1
        assert count_endpoint_refinements(BETA_11) == 132 * 5


class TestEndpointCoarsenings:
    def test_full_is_fixed(self):
        for n in (1, 2, 4):
            got = list(endpoint_coarsenings(full(n)))
            assert len(got) == 1 == count_endpoint_coarsenings(full(n))
            assert got[0][0] == full(n)

    def test_nested_doubletons(self):
        a = make_partition(4, [[1, 4], [2, 3]])
        got = list(endpoint_coarsenings(a))
        assert [b for b, _ in got] == [a, full(4)]
        assert count_endpoint_coarsenings(a) == 2

    def test_discrete_3_by_oracle(self):
        # no block of the discrete partition spans another, so nothing is
        # inner and the only endpoint-coarsening is the partition itself
        a = discrete(3)
        got = list(endpoint_coarsenings(a))
        expected = {b for b in nc(3) if endpoint_refines(a, b)}
        assert {b for b, _ in got} == expected == {a}
        assert count_endpoint_coarsenings(a) == 1

    def test_matches_filter_exhaustively(self):
        for n in range(1, 8):
            for a in nc(n):
                got = list(endpoint_coarsenings(a))
                expected = {b for b in nc(n) if endpoint_refines(a, b)}
                assert {b for b, _ in got} == expected
                assert len(got) == count_endpoint_coarsenings(a)
                specials = [v for _, v in got]
                assert len(set(specials)) == len(specials)
                assert all(v >= a.outer_indices for v in specials)
                # the special sets are exactly the block subsets containing
                # every outer block
                assert {frozenset(v) for v in specials} == {
                    a.outer_indices | frozenset(extra)
                    for extra in _subsets(sorted(a.inner_indices))
                }

    def test_special_set_matches_classification(self):
        for n in range(1, 7):
            for a in nc(n):
                for b, special in endpoint_coarsenings(a):
                    assert classify_blocks(a, b) == special

    def test_worked_example_count(self):
        assert count_endpoint_coarsenings(ALPHA_11) == 16

    def test_yield_order_pinned(self):
        # every (a, b, special set) in yield order over NC(n), n <= 7
        digest = hashlib.sha256()
        for n in range(1, 8):
            for a in nc(n):
                for b, special in endpoint_coarsenings(a):
                    digest.update(f"{a} {b} {sorted(special)}\n".encode())
        assert digest.hexdigest() == (
            "74c769b21ba015655d10625ede434b5dc6fe8089a7ffd935cd1e044d614da2d0")


def _subsets(items):
    out = [frozenset()]
    for x in items:
        out += [s | {x} for s in out]
    return out


class TestPermutation:
    def test_block_cycles_worked_example(self):
        perm = block_cycles(BETA_11)
        assert perm.cycles() == ((1, 2, 3, 4, 5, 6, 7), (8, 9, 10, 11))
        assert perm.to_cycle_text() == "(1,2,3,4,5,6,7)(8,9,10,11)"

    def test_block_cycles_discrete_is_identity(self):
        assert block_cycles(discrete(5)) == make_permutation(5, range(1, 6))

    def test_block_cycles_two_cycle(self):
        assert block_cycles(make_partition(3, [[1, 3], [2]])).image == (3, 2, 1)

    def test_one_cycle_per_block(self):
        for n in range(1, 7):
            for a in nc(n):
                assert len(block_cycles(a).cycles()) == len(a.blocks)

    def test_make_permutation_validates(self):
        with pytest.raises(ValueError, match="not a bijection"):
            make_permutation(3, [1, 1, 2])

    def test_inverse_and_compose(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 9)
            img = list(range(1, n + 1))
            rng.shuffle(img)
            t = make_permutation(n, img)
            identity = make_permutation(n, range(1, n + 1))
            assert compose(t, t.inverse()) == identity
            assert compose(t.inverse(), t) == identity

    def test_json_round_trip(self):
        perm = block_cycles(BETA_11)
        assert Permutation.from_json_dict(perm.to_json_dict()) == perm

    def test_json_missing_key_message(self):
        for data in ({"n": 2}, None):
            with pytest.raises(ParseError) as info:
                Permutation.from_json_dict(data)
            assert str(info.value) == "permutation JSON needs 'n' and 'image'"

    @pytest.mark.parametrize("image, message", [
        (["x", 1], "image element 'x' is not an integer"),
        ([1, 1], "image [1, 1] is not a bijection of 1..2"),
    ])
    def test_json_bad_image_is_parse_error(self, image, message):
        with pytest.raises(ParseError) as info:
            Permutation.from_json_dict({"n": 2, "image": image})
        assert str(info.value) == message

    @pytest.mark.parametrize("point, message", [
        (0, "point must be at least 1"),
        (-1, "point must be at least 1"),
        (4, "point 4 outside 1..3"),
        (True, "point must be an integer, got True"),
        (1.5, "point must be an integer, got 1.5"),
    ])
    def test_call_outside_the_ground_set(self, point, message):
        # an image is read by its point, never by a wrapped-around position
        perm = make_permutation(3, [2, 3, 1])
        assert [perm(i) for i in (1, 2, 3)] == [2, 3, 1]
        with pytest.raises(IndexError) as info:
            perm(point)
        assert str(info.value) == message

    def test_identity_cycle_text(self):
        assert make_permutation(4, range(1, 5)).to_cycle_text() == "()"
        assert block_cycles(make_partition(3, [[1, 3], [2]])).to_cycle_text() == "(1,3)"


class TestAct:
    def test_identity(self):
        for a in nc(4):
            assert act(make_permutation(4, range(1, 5)), a) == a

    def test_worked_example(self):
        perm = block_cycles(BETA_11)
        assert act(perm.inverse(), UNLINK_11) == ALPHA_11

    def test_group_action_laws(self):
        rng = random.Random(11)
        partitions_5 = nc(5)
        for _ in range(100):
            a = rng.choice(partitions_5)
            s = make_permutation(5, rng.sample(range(1, 6), 5))
            t = make_permutation(5, rng.sample(range(1, 6), 5))
            assert act(t, act(t.inverse(), a)) == a
            assert act(compose(s, t), a) == act(s, act(t, a))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="sizes differ"):
            act(make_permutation(3, range(1, 4)), full(4))

    def test_cycle_action_preserves_order_ideal(self):
        # the inverse block-cycle permutation of b maps {a : a <= b} into itself
        for n in range(1, 8):
            for b in nc(n):
                inv = block_cycles(b).inverse()
                for a in nc(n):
                    if refines(a, b):
                        image = act(inv, a)
                        assert is_noncrossing(image)
                        assert refines(image, b)


class TestCatalan:
    def test_values(self):
        assert [catalan(k) for k in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]

    def test_matches_enumeration(self):
        for n in range(1, 8):
            assert catalan(n) == len(nc(n))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestCountDuality:
    def test_up_down_totals_agree(self):
        # both sides count the endpoint-refinement pairs
        for n in range(1, 11):
            below = 0
            above = 0
            for p in enumerate_nc(n):
                below += count_endpoint_refinements(p)
                above += count_endpoint_coarsenings(p)
            assert below == above

