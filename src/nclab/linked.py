"""Linked partitions: block families whose blocks may share single elements.

A linked partition of {1..n} covers every element once or twice.  Two
distinct blocks are either disjoint or share exactly one element, in which
case both blocks have at least two elements, their minima differ, and the
shared element is the minimum of exactly one of them: of the later one in
order of least element, as the earlier one holds a smaller element.  So
`generated_partition`, `unlink` and `from_pair` each read the blocks once,
in that order.  Only non-crossing linked partitions are modeled here; the
crossing test is the sweep that plain partitions use, `partitions._crossing`.

The central pair of maps:

* ``generated_partition(p)`` -- the coarsest-refining plain partition with
  each block of ``p`` inside one block;
* ``unlink(p)`` -- the plain partition obtained by deleting each
  doubly-covered element from the block it is least in;

combine into ``to_pair`` / ``from_pair``, a bijection between non-crossing
linked partitions of {1..n} and pairs (a, b) of non-crossing partitions
with ``endpoint_refines(a, b)``.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from typing import Iterable, Iterator

from ._base import InvalidLinkedPartitionError, _clipped, _int_text, _require_int
from .partitions import (
    BlockFamily,
    InvalidPairError,  # raised by from_pair, and importable from here
    Partition,
    _block_shapes,
    _blockwise,
    _crossing,
    _endpoint_fault,
    _fmt_block,
    _nc_weight_sums,
    _not_covered,
    _pair_error,
    _read_raw_blocks,
    act,
    block_cycles,
    catalan,
    enumerate_nc,
)


class LinkedPartition(BlockFamily):
    """A non-crossing linked partition of {1..n}.

    Instances are assumed canonical: blocks sorted by least element (block
    minima are pairwise distinct), elements increasing inside each block.
    Build them via `make_linked`, `from_pair`, the enumerators or the
    `BlockFamily` readers, which call `make_linked` and skip ``"linked"``.
    """

    _json_tag = {"linked": True}

    @staticmethod
    def _make(n: int, raw_blocks: Iterable[Iterable[int]]) -> LinkedPartition:
        return make_linked(n, raw_blocks)


def make_linked(n: int, raw_blocks: Iterable[Iterable[int]]) -> LinkedPartition:
    """Validate and canonicalize a linked-partition block family on {1..n}.

    Every plain non-crossing partition is accepted unchanged.  Violations
    get distinct diagnostics: triple coverage, overlap of two or more
    elements, a shared element that is the minimum of neither block, equal
    minima of overlapping blocks, overlap involving a singleton, crossing
    blocks, and coverage gaps.  Of several pairs of blocks that break a
    sharing rule, the first in input order is named.
    """
    blocks: list[tuple[int, ...]] = []
    where: dict[int, list[int]] = {}  # element -> positions of its blocks
    for i, blk in enumerate(_read_raw_blocks(n, raw_blocks, InvalidLinkedPartitionError)):
        for x in blk:
            at = where.setdefault(x, [])
            if at and at[-1] == i:
                raise InvalidLinkedPartitionError(
                    f"element {_int_text(x)} repeated inside block {_fmt_block(set(blk))}"
                )
            at.append(i)
        blocks.append(blk)

    over = [x for x, at in where.items() if len(at) > 2]
    if over:
        x = min(over)
        raise InvalidLinkedPartitionError(
            f"element {_int_text(x)} covered by {len(where[x])} blocks")

    shared: dict[tuple[int, int], list[int]] = {}  # pair of positions -> elements
    for x, at in where.items():
        if len(at) == 2:
            shared.setdefault((at[0], at[1]), []).append(x)
    for i, j in sorted(shared):
        a, b, inter = blocks[i], blocks[j], shared[i, j]
        if len(inter) >= 2:
            raise InvalidLinkedPartitionError(
                f"blocks {_fmt_block(a)} and {_fmt_block(b)} share {len(inter)} elements"
            )
        if len(a) == 1 or len(b) == 1:
            small, big = (a, b) if len(a) == 1 else (b, a)
            raise InvalidLinkedPartitionError(
                f"singleton block {_fmt_block(small)} overlaps {_fmt_block(big)}"
            )
        if a[0] == b[0]:
            raise InvalidLinkedPartitionError(
                f"overlapping blocks {_fmt_block(a)} and {_fmt_block(b)} have equal minima"
            )
        m = inter[0]
        if m != a[0] and m != b[0]:
            raise InvalidLinkedPartitionError(
                f"shared element {_int_text(m)} is the minimum of neither "
                f"{_fmt_block(a)} nor {_fmt_block(b)}"
            )

    crossing = _crossing(blocks)
    if crossing:
        a, b = (_fmt_block(blocks[i]) for i in crossing)
        raise InvalidLinkedPartitionError(f"blocks {a} and {b} cross")

    if len(where) != n:
        raise InvalidLinkedPartitionError(_not_covered(n, where))

    blocks.sort(key=lambda blk: blk[0])
    return LinkedPartition(n, tuple(blocks))


def generated_partition(p: LinkedPartition) -> Partition:
    """The coarsest-refining plain partition with every block of ``p``
    inside one block: the transitive closure of block overlap.

    One pass over the blocks in order: a block whose least element an
    earlier block holds joins that block's group, any other block opens a
    group.  Groups open in order of their least element."""
    group: dict[int, list[int]] = {}  # element -> the group holding it
    groups = []
    for blk in p.blocks:
        g = group.get(blk[0])
        if g is None:
            g = []
            groups.append(g)
        g.extend(blk)
        for x in blk:
            group[x] = g
    result = Partition(p.n, tuple(tuple(sorted(set(g))) for g in groups))
    # a theorem for valid input; an unchecked constructor call can break it
    if not result._noncrossing:
        raise InvalidLinkedPartitionError(f"generated partition of {_clipped(p)} is crossing")
    return result


def unlink(p: LinkedPartition) -> Partition:
    """The plain partition obtained by dropping each doubly-covered element
    from the block it is least in: in one pass over the blocks in order,
    that is the later of its two blocks, so a block loses its least element
    exactly when an earlier block holds it.  Every element ends up in
    exactly one block."""
    seen: set[int] = set()
    out = []
    for blk in p.blocks:
        out.append(blk[1:] if blk[0] in seen else blk)
        seen.update(blk)
    out.sort(key=lambda blk: blk[0])
    return Partition(p.n, tuple(out))


def to_pair(p: LinkedPartition) -> tuple[Partition, Partition]:
    """Map a non-crossing linked partition to its (cycled unlinking,
    generated partition) pair.  The inverse is `from_pair`."""
    beta = generated_partition(p)
    alpha = act(block_cycles(beta).inverse(), unlink(p))
    return alpha, beta


def from_pair(a: Partition, b: Partition) -> LinkedPartition:
    """Reconstruct the unique linked partition mapping to (a, b) under
    `to_pair`; requires ``endpoint_refines(a, b)``.

    Construction (`_link`): push ``a`` forward through the block-cycle
    permutation of ``b`` (giving the unlinking), then give back to each
    block that misses the least element of its block of ``b`` the element
    just before its own least element, which an earlier block holds.  A
    pair that is not so related raises `InvalidPairError`.  `enumerate_ncl`
    trusts `_link` too, and Tier-1 checks both routes with `make_linked`,
    so nothing is re-checked.
    """
    fault = _endpoint_fault(a, b)
    if fault is not None:
        raise _pair_error(a, b, fault)
    return _link(a, block_cycles(b).image)


def _link(a: Partition, cycle: tuple[int, ...]) -> LinkedPartition:
    """The construction of `from_pair`, unchecked: ``a`` must
    endpoint-refine the partition b whose block cycles have the image
    sequence ``cycle``.

    Inside a block W of b, the block of ``a`` that holds min(W) holds
    max(W) too, so its image keeps min(W) as least element.  Any other
    block of ``a`` inside W misses max(W), so the cycle moves each of its
    elements to the next one in W: its image's least element comes just
    after ``blk[0]``, which the image gets back as its shared least
    element."""
    out = []
    for blk in a.blocks:
        v = sorted([cycle[x - 1] for x in blk])
        if blk[0] < v[0]:
            v.insert(0, blk[0])
        out.append(tuple(v))
    out.sort()
    return LinkedPartition(a.n, tuple(out))


def enumerate_ncl(n: int) -> Iterator[LinkedPartition]:
    """Yield every non-crossing linked partition of {1..n} exactly once.

    Primary generator: `from_pair` over every endpoint-refinement pair
    (a, b), b in `enumerate_nc` order and a in `endpoint_refinements(b)`
    order, built block by block.  Inside each block W of b, a is one
    `_block_shapes` shape, and `_link` maps it into W by the block cycle of
    b, which keeps to W.  So each shape's image is made once per call, by
    `_link` against the one-block partition of its size, and each result is
    the union of the images relabelled onto the blocks of b.  Nothing is
    re-checked: `verify bijection` runs the validating `from_pair` over the
    same pairs, and Tier-1 checks this generator against `from_pair` over
    `endpoint_refinements` in order, `make_linked` and
    `enumerate_ncl_direct`.  The count is `ncl_count(n)`, the (n-1)-th
    large Schroeder number.
    """
    images = cache(_linked_shapes)  # for this call only
    for beta in enumerate_nc(n):
        for blocks in _blockwise(beta.blocks, images):
            yield LinkedPartition(beta.n, blocks)


def _linked_shapes(m: int) -> list[list[tuple[int, ...]]]:
    """The `_link` images of the `_block_shapes(m)` against the one-block
    partition of {1..m}, in that order, as 0-based positions.  Its block
    cycle sends each element to the next one and m to 1, so every block of
    a shape but the one holding 1 and m gets its least element back."""
    cycle = (*range(2, m + 1), 1)
    out = []
    for shape in _block_shapes(m):
        alpha = Partition(m, tuple(tuple(x + 1 for x in blk) for blk in shape))
        out.append([tuple(x - 1 for x in blk) for blk in _link(alpha, cycle).blocks])
    return out


def enumerate_ncl_direct(n: int) -> Iterator[LinkedPartition]:
    """Independent generator for the non-crossing linked partitions of
    {1..n}, by direct backtracking over the validity rules.

    Each element joins an open block (closing any blocks opened inside
    it), opens a fresh block, or does both at once, becoming the shared
    element: non-minimal in the joined block and the minimum of the new
    one.  Blocks opened by the combined move must grow past one element.
    Exists to cross-validate the pair-based generator; do not change one
    without the other.
    """
    _require_int(n, "ground-set size")
    blocks: list[list[int]] = []
    must_grow: list[bool] = []
    open_idx: list[int] = []

    def rec(k: int) -> Iterator[LinkedPartition]:
        if k > n:
            if all(not must_grow[i] or len(blocks[i]) >= 2 for i in open_idx):
                yield LinkedPartition(n, tuple(tuple(b) for b in blocks))
            return
        for depth in range(len(open_idx)):
            closing = open_idx[depth + 1:]
            if any(must_grow[i] and len(blocks[i]) < 2 for i in closing):
                continue
            del open_idx[depth + 1:]
            target = open_idx[depth]
            blocks[target].append(k)
            yield from rec(k + 1)  # plain join
            blocks.append([k])  # join and open a linked block
            must_grow.append(True)
            open_idx.append(len(blocks) - 1)
            yield from rec(k + 1)
            open_idx.pop()
            must_grow.pop()
            blocks.pop()
            blocks[target].pop()
            open_idx.extend(closing)
        blocks.append([k])  # open a plain block
        must_grow.append(False)
        open_idx.append(len(blocks) - 1)
        yield from rec(k + 1)
        open_idx.pop()
        must_grow.pop()
        blocks.pop()

    yield from rec(1)


def ncl_count(n: int) -> int:
    """Number of non-crossing linked partitions of {1..n}: the sum over
    non-crossing partitions of the per-block Catalan products C(|W| - 1),
    one term per endpoint-refinement pair, computed in polynomial time."""
    _require_int(n, "ground-set size")
    return next(islice(_nc_weight_sums(lambda k, inner: catalan(k - 1)), n, None))


def coloured_count(n: int) -> int:
    """Number of red/blue colourings of non-crossing partitions of {1..n}
    with all outer blocks red: the sum of 2**(inner blocks), computed in
    polynomial time.  Equals `ncl_count(n)`."""
    _require_int(n, "ground-set size")
    return next(islice(_nc_weight_sums(lambda k, inner: 2 if inner else 1), n, None))


def schroder(k: int) -> int:
    """The k-th large Schroeder number: 1, 2, 6, 22, 90, 394, 1806, ...

    Satisfies (k+1) r_k = (6k-3) r_{k-1} - (k-2) r_{k-2}; r_{n-1} counts
    the non-crossing linked partitions of {1..n}.
    """
    _require_int(k, "schroder index", 0)
    r0, r1 = 1, 2
    if k == 0:
        return r0
    for i in range(2, k + 1):
        r0, r1 = r1, ((6 * i - 3) * r1 - (i - 2) * r0) // (i + 1)
    return r1
