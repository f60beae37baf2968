"""Shared test oracles and cached enumerations.

The oracles here are deliberately naive: all set partitions by direct
block assignment, and order relations by definition chasing.  They exist
so the library's cleverer routes have something independent to answer to.
"""

from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator

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


@lru_cache(maxsize=None)
def nc(n: int) -> tuple:
    return tuple(enumerate_nc(n))


def per_partition_sum(n: int, weight) -> object:
    """The plain sum over NC(n) of the product of weight(|V|, V is inner)
    over the blocks V, one partition at a time."""
    total = 0
    for alpha in nc(n):
        term = 1
        for i, block in enumerate(alpha.blocks):
            term *= weight(len(block), i in alpha.inner_indices)
        total += term
    return total


@lru_cache(maxsize=None)
def ncl(n: int) -> tuple:
    return tuple(enumerate_ncl(n))


@lru_cache(maxsize=None)
def ncl_direct(n: int) -> tuple:
    return tuple(enumerate_ncl_direct(n))
