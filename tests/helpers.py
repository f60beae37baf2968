"""Shared test oracles, seeded draws and cached enumerations.

The oracles here are deliberately naive: all set partitions by direct
block assignment, crossing by comparing every pair of blocks, and order
relations by definition chasing.  They exist so the library's cleverer
routes have something independent to answer to.
"""

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from random import Random
from typing import Iterable, Iterator

import nclab.polynomials
from nclab import (
    LinkedPartition,
    Partition,
    enumerate_nc,
    enumerate_ncl,
    enumerate_ncl_direct,
    make_linked,
    make_partition,
)


def all_set_partitions(n: int) -> Iterator[Partition]:
    """Every set partition of {1..n}, by assigning each element to an
    existing block or a new one (restricted-growth enumeration)."""
    blocks: list[list[int]] = []

    def rec(k: int) -> Iterator[Partition]:
        if k > n:
            yield make_partition(n, [list(b) for b in blocks])
            return
        for b in blocks:
            b.append(k)
            yield from rec(k + 1)
            b.pop()
        blocks.append([k])
        yield from rec(k + 1)
        blocks.pop()

    yield from rec(1)


def blocks_cross(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True if the two sorted blocks interleave as x < y < x' < y', with x,
    x' in one block and y, y' in the other.  Blocks may share elements, as
    those of a linked partition do: the four positions are distinct."""
    return _interleaves(a, b) or _interleaves(b, a)


def _interleaves(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    # x < y < x' < y' with x, x' in a and y, y' in b
    if a[0] >= b[-1]:
        return False
    for y in b:
        if y <= a[0]:
            continue
        i = bisect_right(a, y)
        if i < len(a) and b[-1] > a[i]:
            return True
    return False


def block_text(blk) -> str:
    return "{" + ",".join(map(str, blk)) + "}"


def sharing_faults(blocks) -> list[str]:
    """The `make_linked` diagnostic of every pair of blocks that breaks a
    sharing rule, pairs in `combinations` order over the input order.  The
    blocks are sorted, with no element twice in one block and none in
    three blocks.  Compares every pair of blocks by set intersection."""
    faults = []
    for a, b in combinations(blocks, 2):
        inter = set(a) & set(b)
        if not inter:
            continue
        if len(inter) >= 2:
            faults.append(f"blocks {block_text(a)} and {block_text(b)} share "
                          f"{len(inter)} elements")
        elif len(a) == 1 or len(b) == 1:
            small, big = (a, b) if len(a) == 1 else (b, a)
            faults.append(f"singleton block {block_text(small)} overlaps {block_text(big)}")
        elif a[0] == b[0]:
            faults.append(f"overlapping blocks {block_text(a)} and {block_text(b)} "
                          "have equal minima")
        elif inter.isdisjoint((a[0], b[0])):
            faults.append(f"shared element {min(inter)} is the minimum of neither "
                          f"{block_text(a)} nor {block_text(b)}")
    return faults


def crossing_pairs(blocks) -> list[tuple[int, int]]:
    """The positions (i, j), i < j, of every crossing pair of blocks."""
    return [(i, j) for (i, a), (j, b) in combinations(enumerate(blocks), 2)
            if blocks_cross(a, b)]


def random_nc_blocks(rng: Random, n: int) -> list[list[int]]:
    """A seeded non-crossing partition of {1..n} as increasing blocks in
    order of least element: each element opens a block or joins one of
    the open blocks, closing those opened inside it, each choice equally
    likely.  Not uniform over NC(n)."""
    blocks: list[list[int]] = []
    opened: list[int] = []  # indices of the open blocks, outermost first
    for k in range(1, n + 1):
        d = rng.randrange(len(opened) + 1)
        if d == len(opened):
            opened.append(len(blocks))
            blocks.append([k])
        else:
            del opened[d + 1:]
            blocks[opened[d]].append(k)
    return blocks


def random_pair(rng: Random, n: int) -> tuple[Partition, Partition]:
    """A seeded pair (a, b) with ``endpoint_refines(a, b)``: b from
    `random_nc_blocks`, and inside each block W of b a non-crossing
    partition of all of W but max(W), which then joins the block of min(W)."""
    b = random_nc_blocks(rng, n)
    a = []
    for w in b:
        shape = random_nc_blocks(rng, len(w) - 1) if len(w) > 1 else [[]]
        parts = [[w[x - 1] for x in blk] for blk in shape]
        parts[0].append(w[-1])
        a.extend(parts)
    return make_partition(n, a), make_partition(n, b)


def restricted(p, elements: Iterable[int]):
    """The blocks of ``p`` inside ``elements``, relabelled onto {1..m} in
    increasing order, m = |elements|, and validated as an object of p's
    class.  Every block of ``p`` that meets ``elements`` must lie inside
    it, else KeyError."""
    pos = {x: i for i, x in enumerate(sorted(elements), start=1)}
    make = make_linked if type(p) is LinkedPartition else make_partition
    return make(len(pos), [[pos[x] for x in blk] for blk in p.blocks
                           if any(x in pos for x in blk)])


def cover_counts(p) -> Counter:
    """Element -> number of blocks of ``p`` that contain it."""
    return Counter(x for blk in p.blocks for x in blk)


def discrete(n: int) -> Partition:
    """The bottom of NC(n): n singletons."""
    return make_partition(n, [[k] for k in range(1, n + 1)])


def full(n: int) -> Partition:
    """The top 1_n of NC(n): one block."""
    return make_partition(n, [range(1, n + 1)])


def block_of(p: Partition, element: int) -> tuple[int, ...]:
    """The block of ``p`` that holds ``element``, read from its cached
    element-to-block map."""
    return p.blocks[p._block_of[element]]


@lru_cache(maxsize=None)
def nc(n: int) -> tuple:
    return tuple(enumerate_nc(n))


def per_partition_sum(n: int, weight, zero=0, one=1) -> object:
    """The plain sum over NC(n) of the product of weight(|V|, V is inner)
    over the blocks V, one partition at a time; ``zero`` and ``one`` are
    the empty sum and the empty product."""
    total = zero
    for alpha in nc(n):
        term = one
        for i, block in enumerate(alpha.blocks):
            term *= weight(len(block), i in alpha.inner_indices)
        total += term
    return total


def evaluate(p: nclab.polynomials.Polynomial, t) -> Fraction:
    """The polynomial ``p`` at ti = t[i], term by term in `Fraction`s;
    t[0] is not read."""
    total = Fraction(0)
    for exps, c in p.terms:
        term = Fraction(c)
        for i, e in exps:
            term *= Fraction(t[i]) ** e
        total += term
    return total


def fresh_families(monkeypatch) -> None:
    """Give the polynomial routes summed over NC(n) new, empty families of
    sums, so that they run their recursion afresh instead of reading what
    an earlier test built."""
    for name in ("_INNER_OUTER", "_CUMULANTS", "_BY_CUMULANTS"):
        family = getattr(nclab.polynomials, name)
        monkeypatch.setattr(nclab.polynomials, name,
                            nclab.polynomials._NCSums(family._weight))


@lru_cache(maxsize=None)
def ncl(n: int) -> tuple:
    return tuple(enumerate_ncl(n))


@lru_cache(maxsize=None)
def ncl_direct(n: int) -> tuple:
    return tuple(enumerate_ncl_direct(n))
