"""Linked partitions: block families whose blocks may share single elements.

A linked partition of {1..n} covers every element once or twice.  Two
distinct blocks are either disjoint or share exactly one element, in which
case both blocks have at least two elements, their minima differ, and the
shared element is the minimum of exactly one of them.  Only non-crossing
linked partitions are modeled here; the crossing test is the sweep that
plain partitions use, `partitions._crossing`.

The central pair of maps:

* ``generated_partition(p)`` -- the coarsest-refining plain partition with
  each block of ``p`` inside one block;
* ``unlink(p)`` -- the plain partition obtained by deleting each
  doubly-covered block minimum from the block it is minimal in;

combine into ``to_pair`` / ``from_pair``, a bijection between non-crossing
linked partitions of {1..n} and pairs (a, b) of non-crossing partitions
with ``endpoint_refines(a, b)``.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator

from ._base import _clipped, _int_text
from .partitions import (
    BlockFamily,
    InvalidPairError,  # raised by from_pair, and importable from here
    Partition,
    _block_shapes,
    _blockwise,
    _crossing,
    _endpoint_fault,
    _fmt_block,
    _not_covered,
    _pair_error,
    _parse_blocks_json,
    _read_raw_blocks,
    _require_index,
    _require_size,
    act,
    block_cycles,
    catalan,
    enumerate_nc,
    parse_blocks_text,
)


class InvalidLinkedPartitionError(ValueError):
    """A block family does not form a valid non-crossing linked partition."""


class LinkedPartition(BlockFamily):
    """A non-crossing linked partition of {1..n}.

    Instances are assumed canonical: blocks sorted by least element (block
    minima are pairwise distinct), elements increasing inside each block.
    Build them via `make_linked`, `from_text`, `from_json_dict`,
    `from_pair` or the enumerators.
    """

    @cached_property
    def _cover_count(self) -> dict[int, int]:
        out = dict.fromkeys(range(1, self.n + 1), 0)
        for blk in self.blocks:
            for x in blk:
                out[x] += 1
        return out

    @classmethod
    def from_text(cls, text: str) -> LinkedPartition:
        return make_linked(*parse_blocks_text(text))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "blocks": [list(b) for b in self.blocks], "linked": True}

    @classmethod
    def from_json_dict(cls, data: dict) -> LinkedPartition:
        n, blocks = _parse_blocks_json(data)
        return make_linked(n, blocks)


def make_linked(n: int, raw_blocks: Iterable[Iterable[int]]) -> LinkedPartition:
    """Validate and canonicalize a linked-partition block family on {1..n}.

    Every plain non-crossing partition is accepted unchanged.  Violations
    get distinct diagnostics: triple coverage, overlap of two or more
    elements, a shared element that is the minimum of neither block, equal
    minima of overlapping blocks, overlap involving a singleton, crossing
    blocks, and coverage gaps.
    """
    blocks: list[tuple[int, ...]] = []
    for blk in _read_raw_blocks(n, raw_blocks, InvalidLinkedPartitionError):
        for u, v in zip(blk, blk[1:]):
            if u == v:
                raise InvalidLinkedPartitionError(
                    f"element {_int_text(u)} repeated inside block {_fmt_block(set(blk))}"
                )
        blocks.append(blk)

    count: dict[int, int] = {}
    for blk in blocks:
        for x in blk:
            count[x] = count.get(x, 0) + 1
    over = [x for x, c in count.items() if c > 2]
    if over:
        x = min(over)
        raise InvalidLinkedPartitionError(
            f"element {_int_text(x)} covered by {count[x]} blocks")

    for a, b in combinations(blocks, 2):
        inter = set(a) & set(b)
        if not inter:
            continue
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
        m = inter.pop()
        if m != a[0] and m != b[0]:
            raise InvalidLinkedPartitionError(
                f"shared element {_int_text(m)} is the minimum of neither "
                f"{_fmt_block(a)} nor {_fmt_block(b)}"
            )

    crossing = _crossing(blocks)
    if crossing:
        a, b = (_fmt_block(blocks[i]) for i in crossing)
        raise InvalidLinkedPartitionError(f"blocks {a} and {b} cross")

    if len(count) != n:
        raise InvalidLinkedPartitionError(_not_covered(n, count))

    blocks.sort(key=lambda blk: blk[0])
    return LinkedPartition(n, tuple(blocks))


def generated_partition(p: LinkedPartition) -> Partition:
    """The coarsest-refining plain partition with every block of ``p``
    inside one block: the transitive closure of block overlap."""
    parent = list(range(len(p.blocks)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[int, int] = {}
    for i, blk in enumerate(p.blocks):
        for x in blk:
            if x in owner:
                ri, rj = find(i), find(owner[x])
                if ri != rj:
                    parent[ri] = rj
            else:
                owner[x] = i

    groups: dict[int, set[int]] = {}
    for i, blk in enumerate(p.blocks):
        groups.setdefault(find(i), set()).update(blk)
    out = sorted((tuple(sorted(g)) for g in groups.values()), key=lambda blk: blk[0])
    result = Partition(p.n, tuple(out))
    # a theorem for valid input; an unchecked constructor call can break it
    if not result._noncrossing:
        raise InvalidLinkedPartitionError(f"generated partition of {_clipped(p)} is crossing")
    return result


def unlink(p: LinkedPartition) -> Partition:
    """The plain partition obtained by dropping each doubly-covered block
    minimum from the block it is minimal in.  A doubly-covered element is
    the minimum of exactly one of its two blocks (checked by `make_linked`),
    so every element ends up in exactly one block."""
    count = p._cover_count
    out = []
    for blk in p.blocks:
        out.append(blk[1:] if count[blk[0]] == 2 else blk)
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
    permutation of ``b`` (giving the unlinking), then re-link each block
    whose minimum is not its host-block minimum by prepending the host
    element immediately preceding it.  A pair that is not so related
    raises `InvalidPairError`.  `enumerate_ncl` trusts `_link` too, and
    Tier-1 checks both routes with `make_linked`, so nothing is re-checked.
    """
    fault = _endpoint_fault(a, b)
    if fault is not None:
        raise _pair_error(a, b, fault)
    return _link(a, b.blocks, block_cycles(b).image, b._block_of)


def _link(
    a: Partition,
    b_blocks: tuple[tuple[int, ...], ...],
    cycle: tuple[int, ...],
    host: dict[int, int],
) -> LinkedPartition:
    """The construction of `from_pair`, unchecked: ``a`` must
    endpoint-refine the standard partition b with blocks ``b_blocks``,
    ``cycle`` is the image sequence of ``block_cycles(b)`` and ``host`` is
    ``b._block_of``."""
    out = []
    for blk in a.blocks:
        v = sorted([cycle[x - 1] for x in blk])
        w = b_blocks[host[v[0]]]
        if v[0] != w[0]:
            v.insert(0, w[w.index(v[0]) - 1])
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
    partition of {1..m}, in that order, as 0-based positions."""
    one = Partition.full(m)
    cycle = (*range(2, m + 1), 1)  # the image of block_cycles(one)
    out = []
    for shape in _block_shapes(m):
        alpha = Partition(m, tuple(tuple(x + 1 for x in blk) for blk in shape))
        image = _link(alpha, one.blocks, cycle, one._block_of)
        out.append([tuple(x - 1 for x in blk) for blk in image.blocks])
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
    _require_size(n)
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


def _nc_weight_sum(n: int, weight: Callable[[int, bool], int]) -> int:
    """The sum over NC(n) of the product over blocks V of
    ``weight(|V|, V is inner)``, in O(n^3) integer operations.

    Split by the block V of element 1, |V| = k: each of its k - 1 gaps
    holds a non-crossing partition whose blocks are all inner, and the
    stretch after max(V) stays at the outer level.  ``inner[m]`` is the
    sum over NC(m) with every block weighted as inner, ``gaps[k][m]`` the
    sum over the ways to fill k consecutive gaps with m elements in all,
    and ``outer[m]`` the sum over NC(m) itself.
    """
    w_in = [0] + [weight(k, True) for k in range(1, n + 1)]
    w_out = [0] + [weight(k, False) for k in range(1, n + 1)]
    inner = [1] + [0] * n
    gaps = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
    for m in range(n + 1):
        if m:
            # the block of the first element has k elements and k - 1 gaps
            # inside; the stretch after it is inner too
            inner[m] = sum(w_in[k] * gaps[k][m - k] for k in range(1, m + 1))
        for k in range(1, n + 1):
            prev = gaps[k - 1]
            gaps[k][m] = sum(inner[i] * prev[m - i] for i in range(m + 1))
    outer = [1] + [0] * n
    for m in range(1, n + 1):
        outer[m] = sum(
            w_out[k] * gaps[k - 1][j] * outer[m - k - j]
            for k in range(1, m + 1)
            for j in range(m - k + 1)
        )
    return outer[n]


def ncl_count(n: int) -> int:
    """Number of non-crossing linked partitions of {1..n}: the sum over
    non-crossing partitions of the per-block Catalan products C(|W| - 1),
    one term per endpoint-refinement pair, computed in polynomial time."""
    _require_size(n)
    return _nc_weight_sum(n, lambda k, inner: catalan(k - 1))


def coloured_count(n: int) -> int:
    """Number of red/blue colourings of non-crossing partitions of {1..n}
    with all outer blocks red: the sum of 2**(inner blocks), computed in
    polynomial time.  Equals `ncl_count(n)`."""
    _require_size(n)
    return _nc_weight_sum(n, lambda k, inner: 2 if inner else 1)


def schroder(k: int) -> int:
    """The k-th large Schroeder number: 1, 2, 6, 22, 90, 394, 1806, ...

    Satisfies (k+1) r_k = (6k-3) r_{k-1} - (k-2) r_{k-2}; r_{n-1} counts
    the non-crossing linked partitions of {1..n}.
    """
    _require_index(k, "schroder")
    r0, r1 = 1, 2
    if k == 0:
        return r0
    for i in range(2, k + 1):
        r0, r1 = r1, ((6 * i - 3) * r1 - (i - 2) * r0) // (i + 1)
    return r1
