"""Set partitions in canonical form, the two refinement orders, and their
enumeration.

A partition is stored with its blocks sorted by least element and the
elements increasing inside each block, so equal partitions are equal as
values and can be hashed.  Two orders are provided:

* ``refines(a, b)`` -- reverse refinement: every block of ``b`` is a union
  of blocks of ``a``.
* ``endpoint_refines(a, b)`` -- the stronger order: ``a`` refines ``b`` and
  every block of ``b`` has its least and greatest element together in a
  single block of ``a``.

All values are immutable; all operations are pure functions and safe to
share between threads.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache
from itertools import chain, count, islice, product
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence

from ._base import (
    MAX_DIGITS,
    Frozen,
    InvalidPairError,
    InvalidPartitionError,
    ParseError,
    SizeError,
    _clipped,
    _int_text,
    _is_int,
    _quoted,
    _set_field,
)


_TEXT_RE = re.compile(r"(?:\{\d+(?:,\d+)*\})+\Z")
_BLOCK_RE = re.compile(r"\{(\d+(?:,\d+)*)\}")
_DIGITS_RE = re.compile(r"\d+")

def _fmt_block(block: Iterable[int]) -> str:
    """A block as text for a diagnostic, its elements as `_int_text`
    gives them, cut by `_clipped`."""
    return _clipped("{" + ",".join(map(_int_text, block)) + "}")


# The text form of one block; one cache entry per distinct block: at most
# 2**n - 1 for objects on {1..n}.  `BlockFamily.to_text` looks up every
# block of each object it writes; ``enumerate nc`` only those of each state
# of `_nc_lines`, whose lines share them.
@lru_cache(maxsize=1 << 16)
def _block_text(block: tuple[int, ...]) -> str:
    return "{" + ",".join(map(str, block)) + "}"


def _crossing(blocks: Sequence[tuple[int, ...]]) -> tuple[int, int] | None:
    """The positions, ascending, of two sorted blocks that interleave as
    x < y < x' < y', or None.  Blocks may share elements under the rules of
    `linked.make_linked`.  One sweep over the elements in order: one that
    is not the least of its block must lie in the innermost open block,
    else the two blocks cross.  At an element two blocks share, the block
    that continues through it goes before the block it opens."""
    opened: list[int] = []  # positions of the open blocks, innermost last
    for x, opens, i in sorted([(x, x == blk[0], i)
                               for i, blk in enumerate(blocks) for x in blk]):
        if opens:
            opened.append(i)
        elif opened[-1] != i:
            return min(i, opened[-1]), max(i, opened[-1])
        if x == blocks[i][-1]:
            opened.pop()
    return None


class BlockFamily(Frozen):
    """A canonical family of blocks on {1..n}: blocks sorted by least
    element, elements increasing inside each block.

    `Partition` and `LinkedPartition` share this code, the readers and
    writer of the text and JSON forms included: a subclass states only its
    validating constructor `_make` and the keys `_json_tag` its JSON form
    adds.  Equality compares the class as well, so a partition never
    equals a linked partition with the same blocks.
    """

    _fields = ("n", "blocks")
    _json_tag: dict = {}

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...]) -> None:
        _set_field(self, "n", n)
        _set_field(self, "blocks", blocks)

    def to_text(self) -> str:
        return "".join(map(_block_text, self.blocks))

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def from_text(cls, text: str) -> BlockFamily:
        return cls._make(*parse_blocks_text(text))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "blocks": [list(b) for b in self.blocks], **self._json_tag}

    @classmethod
    def from_json_dict(cls, data: dict) -> BlockFamily:
        n, blocks = _json_record(data, "partition", "blocks")
        if not all(isinstance(b, list) and all(_is_int(x) for x in b) for b in blocks):
            raise ParseError("malformed partition JSON")
        return cls._make(n, blocks)


class Partition(BlockFamily):
    """A set partition of {1..n}.

    Instances are assumed canonical; build them via `make_partition`, the
    readers `from_text` and `from_json_dict` of `BlockFamily`, which call
    it, or the enumerators rather than the constructor with untrusted data.
    """

    @staticmethod
    def _make(n: int, raw_blocks: Iterable[Iterable[int]]) -> Partition:
        return make_partition(n, raw_blocks)

    @cached_property
    def _block_of(self) -> dict[int, int]:
        """Element -> index of its block."""
        out: dict[int, int] = {}
        for i, blk in enumerate(self.blocks):
            for x in blk:
                out[x] = i
        return out

    @cached_property
    def _noncrossing(self) -> bool:
        return _crossing(self.blocks) is None

    @cached_property
    def inner_indices(self) -> frozenset[int]:
        """Indices of inner blocks: blocks strictly spanned by another block,
        so by an earlier one that reaches past their greatest element."""
        inner = []
        reach = 0  # the greatest element of the blocks so far
        for i, blk in enumerate(self.blocks):
            if blk[-1] < reach:
                inner.append(i)
            else:
                reach = blk[-1]
        return frozenset(inner)

    @property
    def outer_indices(self) -> frozenset[int]:
        return frozenset(range(len(self.blocks))) - self.inner_indices


def parse_blocks_text(text: str) -> tuple[int, list[list[int]]]:
    """Read block text such as ``{1,2,4}{3}`` into its largest label and
    its raw blocks, unvalidated.  Callers can bound the label before
    `make_partition` or `make_linked` builds anything of that size."""
    if not _TEXT_RE.fullmatch(text):
        raise ParseError(f"cannot parse partition text {_quoted(text)}")
    longest = max(len(run) for run in _DIGITS_RE.findall(text))
    if longest > MAX_DIGITS:
        raise ParseError(f"a label has {longest} digits, more than {MAX_DIGITS}")
    blocks = [[int(x) for x in grp.split(",")] for grp in _BLOCK_RE.findall(text)]
    n = max(max(b) for b in blocks)
    return n, blocks


def _json_record(data: dict, kind: str, key: str) -> tuple[int, list]:
    """The integer ``n`` and the list ``key``, unchecked, of a JSON ``kind``."""
    try:
        n, items = data["n"], data[key]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"{kind} JSON needs 'n' and '{key}'") from exc
    if not _is_int(n) or not isinstance(items, list):
        raise ParseError(f"malformed {kind} JSON")
    return n, items


_MAX_LISTED = 10


def _not_covered(n: int, covered: Collection[int]) -> str:
    """The diagnostic for the elements of {1..n} missing from ``covered``
    (a subset of {1..n}).  It lists at most _MAX_LISTED of them, so neither
    its length nor the work to build it grows with n."""
    missing = []
    for x in range(1, n + 1):
        if x not in covered:
            missing.append(x)
            if len(missing) > _MAX_LISTED:
                more = n - len(covered) - _MAX_LISTED
                return (f"elements {missing[:_MAX_LISTED]} and {_int_text(more)} "
                        "more not covered")
    return f"elements {missing} not covered"


def _require_size(n: object, error: type[ValueError] = SizeError) -> None:
    """Raise ``error`` unless ``n`` is an integer, not ``bool``, of at least 1."""
    if not _is_int(n):
        raise error(f"ground-set size {_quoted(n)} is not an integer")
    if n < 1:
        raise error("ground-set size must be at least 1")


def _iterate(items: object, role: str, error: type[ValueError]) -> Iterator:
    try:
        return iter(items)
    except TypeError:
        raise error(f"{role} {_quoted(items)} is not iterable") from None


def _read_raw_blocks(
    n: int, raw_blocks: Iterable[Iterable[int]], error: type[ValueError]
) -> Iterator[tuple[int, ...]]:
    """Yield the blocks of a raw block family on {1..n} one by one, each
    sorted, raising ``error`` for a size that is not an integer or is below
    1, a family or block that is not iterable, an empty block, a non-integer
    element or an element outside 1..n.  ``bool`` is not an integer here.
    Elements are type-checked before a block is sorted, so values that
    cannot be ordered against integers are rejected too.  Overlap, crossing
    and coverage are left to the caller."""
    _require_size(n, error)
    for raw in _iterate(raw_blocks, "block family", error):
        blk = list(_iterate(raw, "block", error))
        for x in blk:
            if not _is_int(x):
                raise error(f"element {_quoted(x)} is not an integer")
        if not blk:
            raise error("empty block")
        blk.sort()
        for x in blk:
            if not 1 <= x <= n:
                raise error(f"element {_int_text(x)} out of range 1..{_int_text(n)}")
        yield tuple(blk)


def make_partition(n: int, raw_blocks: Iterable[Iterable[int]]) -> Partition:
    """Validate and canonicalize a block family covering {1..n} exactly once.

    Idempotent on canonical input.  Overlaps, gaps, out-of-range elements
    and empty blocks are rejected with distinct diagnostics.
    """
    seen: set[int] = set()
    blocks: list[tuple[int, ...]] = []
    for blk in _read_raw_blocks(n, raw_blocks, InvalidPartitionError):
        for x in blk:
            if x in seen:
                raise InvalidPartitionError(f"element {_int_text(x)} repeated")
            seen.add(x)
        blocks.append(blk)
    if len(seen) != n:
        raise InvalidPartitionError(_not_covered(n, seen))
    blocks.sort(key=lambda b: b[0])
    return Partition(n, tuple(blocks))


def is_noncrossing(p: Partition) -> bool:
    """True iff no two blocks interleave as a < b < a' < b'."""
    return p._noncrossing


def _require_noncrossing(p: Partition, role: str) -> None:
    if not p._noncrossing:
        raise InvalidPartitionError(f"{role} partition {_clipped(p)} is crossing")


def _require_same_ground(a: Partition, b: Partition) -> None:
    if a.n != b.n:
        raise InvalidPairError(f"ground sets differ ({a.n} vs {b.n} elements)")


def refines(a: Partition, b: Partition) -> bool:
    """Reverse refinement: every block of ``a`` lies inside a block of ``b``."""
    _require_same_ground(a, b)
    bo = b._block_of
    for blk in a.blocks:
        w = bo[blk[0]]
        for x in blk[1:]:
            if bo[x] != w:
                return False
    return True


def endpoint_refines(a: Partition, b: Partition) -> bool:
    """The stronger order: ``refines(a, b)`` and, for every block W of ``b``,
    some block of ``a`` contains both min(W) and max(W).

    Both partitions must be non-crossing.
    """
    return _endpoint_fault(a, b) is None


def _endpoint_fault(a: Partition, b: Partition) -> tuple[int, ...] | None:
    """None if ``endpoint_refines(a, b)``, else its first fault: ``()`` if
    ``a`` does not refine ``b``, else the first block of ``b`` whose min and
    max ``a`` keeps apart.  Unworded, as `endpoint_refines` filters many
    pairs; `_pair_error` words it.  Crossing input or differing ground sets
    raise."""
    _require_same_ground(a, b)
    _require_noncrossing(a, "left")
    _require_noncrossing(b, "right")
    if not refines(a, b):
        return ()
    ao = a._block_of
    for w in b.blocks:
        if ao[w[0]] != ao[w[-1]]:
            return w
    return None


def _pair_error(a: Partition, b: Partition, fault: tuple[int, ...] = ()) -> InvalidPairError:
    """The error for a fault of ``_endpoint_fault(a, b)``: the block of ``b``
    it names, or, for ``()``, the whole pair."""
    if fault:
        return InvalidPairError(f"block {_fmt_block(fault)}: min/max not together in alpha")
    return InvalidPairError(f"{_clipped(a)} does not endpoint-refine {_clipped(b)}")


def classify_blocks(a: Partition, b: Partition) -> frozenset[int]:
    """The 0-based indices of the blocks of ``a`` special for ``b``, one
    per block of ``b`` and every outer block of ``a`` among them (see
    `Partition.inner_indices` and `outer_indices`); requires
    ``endpoint_refines(a, b)``, else raises `InvalidPairError`."""
    if _endpoint_fault(a, b) is not None:
        raise _pair_error(a, b)
    return frozenset(_special_blocks(a, b))


def _special_blocks(a: Partition, b: Partition) -> set[int]:
    """The indices of the blocks of ``a`` that hold the least element of a
    block of ``b``: the blocks special for ``b`` when ``endpoint_refines(a,
    b)``.  Unchecked: the pair routes take ``a`` from
    `endpoint_refinements(b)`, and `classify_blocks` checks first."""
    ao = a._block_of
    return {ao[w[0]] for w in b.blocks}


def endpoint_floor(b: Partition) -> Partition:
    """The finest partition endpoint-refining ``b``: each block of size >= 3
    is broken into its {min, max} doubleton plus singletons; smaller blocks
    are left intact."""
    _require_noncrossing(b, "input")
    out: list[tuple[int, ...]] = []
    for w in b.blocks:
        if len(w) <= 2:
            out.append(w)
        else:
            out.append((w[0], w[-1]))
            out.extend((x,) for x in w[1:-1])
    out.sort(key=lambda blk: blk[0])
    return Partition(b.n, tuple(out))


def _require_index(k: object, name: str) -> None:
    """Raise SizeError unless ``k`` is an integer, not ``bool``, of at
    least 0: the index of the number sequence ``name``."""
    if not _is_int(k):
        raise SizeError(f"{name} index {_quoted(k)} is not an integer")
    if k < 0:
        raise SizeError(f"{name} is defined for k >= 0")


def catalan(k: int) -> int:
    """The k-th Catalan number (2k)! / (k! (k+1)!)."""
    _require_index(k, "catalan")
    return math.comb(2 * k, k) // (k + 1)


def enumerate_nc(n: int) -> Iterator[Partition]:
    """Yield every non-crossing partition of {1..n} exactly once.

    Each element k of 1..n either opens a new block (choice code 0) or
    joins the d-th currently open block counted from the outside (choice
    code d >= 1), permanently closing all blocks opened inside it.  The
    partitions appear in ascending lexicographic order of their choice-code
    sequences; for n = 3 this is

        {1}{2}{3}, {1,3}{2}, {1}{2,3}, {1,2}{3}, {1,2,3}

    The count is the n-th Catalan number.  Element n completes each state
    of `_nc_states(n - 1)`, as `_nc_lines` completes shorter ones.  ``n``
    not an integer of at least 1 raises SizeError at the first object.
    """
    _require_size(n)
    last = (n,)
    for blocks, opened in _nc_states(n - 1):
        yield Partition(n, (*blocks, last))
        for i in opened:  # n joins an open block
            saved = blocks[i]
            blocks[i] = saved + last
            yield Partition(n, tuple(blocks))
            blocks[i] = saved


def _nc_states(size: int) -> Iterator[tuple[list[tuple[int, ...]], list[int]]]:
    """Walk the choice codes of 1..size, size >= 0, in `enumerate_nc` order
    by one backtracking loop, yielding per state its blocks and the indices
    of its open blocks, outermost first.  The blocks are one live list:
    restore what you change in it before the walk resumes."""
    blocks: list[tuple[int, ...]] = []
    # indices of the open blocks, outermost first; a new list on each change,
    # so that ``arrived[k]`` keeps those open when element k came
    opened: list[int] = []
    arrived: list[list[int]] = [opened] * (size + 1)
    code = [0] * (size + 1)  # the choice code of each element k
    k = 1
    while True:
        while k <= size:  # elements k..size open new blocks
            arrived[k], code[k] = opened, 0
            opened = [*opened, len(blocks)]
            blocks.append((k,))
            k += 1
        yield blocks, opened
        k = size  # undo choices back to the last element k with one left
        while k:
            d, opened = code[k], arrived[k]
            if d:
                j = opened[d - 1]
                blocks[j] = blocks[j][:-1]
            else:
                blocks.pop()
            if d < len(opened):
                code[k] = d + 1
                j = opened[d]
                blocks[j] += (k,)
                opened = opened[:d + 1]
                k += 1
                break
            k -= 1
        else:
            return


# The most lines of one chunk that ``enumerate`` writes: one write per line
# is slow, and one for the whole output would hold all of it in memory.
_CHUNK_LINES = 2048


def _json_lines(text: str, head: str, tail: str) -> str:
    """Lines of block text as JSON, each in ``head`` + "[" and "]" + ``tail``:
    for '{"n":n,"blocks":[' and "]}", the compact form of `to_json_dict`."""
    return text.replace("}{", "],[").replace("{", head + "[").replace("}", "]" + tail)


def _text_chunks(texts: Iterator[str], head: str | None, tail: str) -> Iterator[tuple[int, str]]:
    """Lines in chunks of at most _CHUNK_LINES, each with its line count,
    in JSON by `_json_lines` unless ``head`` is None."""
    while batch := list(islice(texts, _CHUNK_LINES)):
        text = "\n".join(batch) + "\n"
        yield len(batch), text if head is None else _json_lines(text, head, tail)


def _nc_lines(n: int, json: bool = False) -> Iterator[tuple[int, str]]:
    """The lines of `enumerate_nc(n)`, n >= 1, as text or compact JSON, in
    chunks as `_text_chunks` yields them, with no Python code per line: the
    last m elements complete each state of `_nc_states(n - m)` with j open
    blocks by the template for j of `_completions`, whose marks `str.replace`
    fills with the j + 1 pieces of the state's text, cut before the closing
    brace of each open block, less its first and last brace.  m is the
    largest up to 4, and below n, whose templates fit in a chunk; past
    n = 63, where it is below 2, each line is written from its object."""
    m = min(4, n - 1)
    # the lines of the largest template, for n - m open blocks: a ballot number
    while math.comb(n + m, m) * (n - m + 1) > _CHUNK_LINES * (n + 1):
        m -= 1
    head = f'{{"n":{n},"blocks":[' if json else None
    if m < 2 < n:
        yield from _text_chunks(map(Partition.to_text, enumerate_nc(n)), head, "]}")
        return
    marks = [chr(c) for c in range(n + 97) if c != 10 and not 32 <= c < 127]
    templates = [_json_lines(t, head, "]}") if json else t for t in _completions(n - m, n, marks)]
    counts = [t.count("\n") for t in templates]
    for blocks, opened in _nc_states(n - m):
        texts = list(map(_block_text, blocks))
        for i in opened:
            texts[i] = texts[i][:-1] + "\n}"
        text = "".join(texts)[1:-1]
        chunk = templates[len(opened)]
        for mark, piece in zip(marks, (_json_lines(text, "", "") if json else text).split("\n")):
            chunk = chunk.replace(mark, piece)
        yield counts[len(opened)], chunk


def _completions(size: int, n: int, marks: Sequence[str]) -> list[str]:
    """For j = 0..size, the lines that complete a state of 1..size with j
    open blocks by size+1..n, in choice-code order: "{", ``marks[i]`` and
    what open block i gets for each i < j, ``marks[j]``, "}", new blocks.
    Built from element n down: x opens block j, which ``marks[j + 1]``
    closes, or joins block d - 1 and closes blocks d..j - 1."""
    rows = ["{" + "".join(marks[:j + 1]) + "}\n" for j in range(n + 1)]  # no element left
    for x in range(n, size, -1):
        rows = [rows[j + 1].replace(marks[j], f"{marks[j]}}}{{{x}").replace(marks[j + 1], "")
                + "".join(rows[d].replace(marks[d - 1], f"{marks[d - 1]},{x}")
                          .replace(marks[d], "".join(marks[d:j + 1])) for d in range(1, j + 1))
                for j in range(x)]
    return rows


def _nc_weight_sums(weight: Callable[[int, bool], Any]) -> Iterator:
    """Yield, for m = 0, 1, 2, ..., the sum over NC(m) of the product over
    blocks V of ``weight(|V|, V is inner)``, 1 for m = 0.  Weights need only
    add and multiply, with ints too; up to m = n this takes O(n^3) of those
    operations and enumerates nothing.

    Split by the block V of element 1, |V| = k: its k - 1 gaps hold
    partitions with all blocks inner, and the stretch after max(V) stays
    at V's level.  ``inner[m]`` sums over NC(m) with every block inner,
    ``gaps[k][j]`` over the fillings of k gaps with j elements in all, and
    ``first[m]`` over an outer block of element 1 with its gaps, m elements
    in all.  Step m makes gaps[k][j] for k + j = m, then inner[m], first[m]
    and outer[m], each from values made before it.
    """
    inner, outer, first, gaps = [1], [1], [0], [[1]]
    w_in, w_out = [0], [0]
    yield 1
    for m in count(1):
        w_in.append(weight(m, True))
        w_out.append(weight(m, False))
        gaps[0].append(0)
        gaps.append([])
        for k in range(1, m + 1):  # k + j = m
            prev, j = gaps[k - 1], m - k
            gaps[k].append(sum(inner[i] * prev[j - i] for i in range(j + 1)))
        inner.append(sum(w_in[k] * gaps[k][m - k] for k in range(1, m + 1)))
        first.append(sum(w_out[k] * gaps[k - 1][m - k] for k in range(1, m + 1)))
        outer.append(sum(first[r] * outer[m - r] for r in range(1, m + 1)))
        yield outer[m]


@lru_cache(maxsize=32)
def _block_shapes(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The ways to partition a block of m elements so that the result
    endpoint-refines the block, as 0-based positions: NC(m - 1) in
    `enumerate_nc` order, with position m - 1 adjoined to the first block."""
    if m == 1:
        return (((0,),),)
    return tuple(
        ((*(x - 1 for x in g.blocks[0]), m - 1),)
        + tuple(tuple(x - 1 for x in blk) for blk in g.blocks[1:])
        for g in enumerate_nc(m - 1)
    )


def _blockwise(
    blocks: tuple[tuple[int, ...], ...], shapes: Callable[[int], Iterable]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The block tuples made of one shape per block W of ``blocks``, where
    ``shapes(m)`` gives the shapes of a block of size m as 0-based
    positions: the shapes are relabelled onto W, united and sorted, later
    blocks varying fastest."""
    per_block = [[[tuple([w[i] for i in blk]) for blk in shape] for shape in shapes(len(w))]
                 for w in blocks]
    return map(tuple, map(sorted, map(chain.from_iterable, product(*per_block))))


def endpoint_refinements(b: Partition) -> Iterator[Partition]:
    """Yield every non-crossing ``a`` with ``endpoint_refines(a, b)``, once.

    Built blockwise: choices for each block of ``b`` are independent, so
    the results are the products of the per-block `_block_shapes` (order as
    in `enumerate_nc`, later blocks varying fastest).  The count is
    `count_endpoint_refinements(b)`.
    """
    _require_noncrossing(b, "input")
    for blocks in _blockwise(b.blocks, _block_shapes):
        yield Partition(b.n, blocks)


def count_endpoint_refinements(b: Partition) -> int:
    """Product over blocks W of Catalan(|W| - 1)."""
    _require_noncrossing(b, "input")
    out = 1
    for w in b.blocks:
        out *= catalan(len(w) - 1)
    return out


def endpoint_coarsenings(a: Partition) -> Iterator[tuple[Partition, frozenset[int]]]:
    """Yield every non-crossing ``b`` endpoint-coarsening ``a`` (that is,
    with ``endpoint_refines(a, b)``), paired with the 0-based indices of the
    blocks of ``a`` that are special for it.

    The special sets are exactly the block subsets containing every outer
    block; each non-special block is merged into the nearest enclosing
    special block.  Subsets are visited from the full set downwards
    (bitmask over inner blocks, descending), so ``b = a`` comes first.
    The count is 2 ** (number of inner blocks).
    """
    _require_noncrossing(a, "input")
    inner = sorted(a.inner_indices)
    outer = a.outer_indices
    k = len(inner)
    for mask in range((1 << k) - 1, -1, -1):
        special = outer.union(inner[i] for i in range(k) if mask >> i & 1)
        out: list[list[int]] = []  # the blocks of b
        stack: list[tuple[int, list[int]]] = []  # (max, elements) of the open ones
        for j, blk in enumerate(a.blocks):
            while stack and stack[-1][0] < blk[0]:
                stack.pop()
            if j in special:
                elems = list(blk)
                out.append(elems)
                stack.append((blk[-1], elems))
            else:  # inner, so inside an outer block, which is special
                stack[-1][1].extend(blk)
        yield Partition(a.n, tuple(tuple(sorted(elems)) for elems in out)), special


def count_endpoint_coarsenings(a: Partition) -> int:
    """2 ** (number of inner blocks of ``a``)."""
    _require_noncrossing(a, "input")
    return 1 << len(a.inner_indices)


class Permutation(Frozen):
    """A permutation of {1..n}, stored as its image sequence."""

    _fields = ("image",)

    def __init__(self, image: tuple[int, ...]) -> None:
        _set_field(self, "image", image)

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def inverse(self) -> Permutation:
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its least element, ordered by it."""
        seen = [False] * len(self.image)
        out = []
        for i in range(1, len(self.image) + 1):
            if seen[i - 1]:
                continue
            cyc = [i]
            seen[i - 1] = True
            j = self(i)
            while j != i:
                cyc.append(j)
                seen[j - 1] = True
                j = self(j)
            out.append(tuple(cyc))
        return tuple(out)

    def to_cycle_text(self) -> str:
        """Cycle notation, fixed points omitted; '()' for the identity."""
        parts = ["(" + ",".join(map(str, c)) + ")" for c in self.cycles() if len(c) > 1]
        return "".join(parts) if parts else "()"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "image": list(self.image)}

    @classmethod
    def from_json_dict(cls, data: dict) -> Permutation:
        n, image = _json_record(data, "permutation", "image")
        try:
            return make_permutation(n, image)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def __str__(self) -> str:
        return self.to_cycle_text()


def make_permutation(n: int, image: Iterable[int]) -> Permutation:
    """The permutation of {1..n} with the given image sequence.  ``bool``
    is not an integer here, for the size or an element."""
    if not _is_int(n):
        raise ValueError(f"permutation size {_quoted(n)} is not an integer")
    img = tuple(image)
    for x in img:
        if not _is_int(x):
            raise ValueError(f"image element {_quoted(x)} is not an integer")
    if len(img) != n or sorted(img) != list(range(1, n + 1)):
        text = _clipped("[" + ", ".join(map(_int_text, img)) + "]")
        raise ValueError(f"image {text} is not a bijection of 1..{_int_text(n)}")
    return Permutation(img)


def block_cycles(a: Partition) -> Permutation:
    """The permutation with one cycle per block: each block {i1 < ... < im}
    maps i1 -> i2, ..., i(m-1) -> im, im -> i1."""
    image = [0] * a.n
    for blk in a.blocks:
        for u, v in zip(blk, blk[1:]):
            image[u - 1] = v
        image[blk[-1] - 1] = blk[0]
    return Permutation(tuple(image))


def act(t: Permutation, a: Partition) -> Partition:
    """Apply a permutation to a partition blockwise (a left group action)."""
    if t.n != a.n:
        raise ValueError(f"sizes differ ({t.n} vs {a.n})")
    blocks = [tuple(sorted(t(x) for x in blk)) for blk in a.blocks]
    blocks.sort(key=lambda blk: blk[0])
    return Partition(a.n, tuple(blocks))
