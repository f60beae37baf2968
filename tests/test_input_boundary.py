"""Property tests over the input boundary: block text and raw block lists
go into `parse_blocks_text`, `make_partition` and `make_linked`.  Every
rejection is a library error with a short message, and every accepted
object round-trips through its text and JSON forms."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from nclab import (
    InvalidLinkedPartitionError,
    InvalidPartitionError,
    ParseError,
    make_linked,
    make_partition,
)
from nclab.partitions import parse_blocks_text
from helpers import nc, ncl_direct

MAKERS = ((make_partition, InvalidPartitionError), (make_linked, InvalidLinkedPartitionError))

raw_lists = st.lists(st.lists(st.integers(-2, 9), max_size=5), max_size=5)


@st.composite
def shuffled_valid(draw):
    """A valid partition or linked partition of {1..n}, n <= 5, with its
    blocks and their elements in a drawn order."""
    n = draw(st.integers(1, 5))
    obj = draw(st.sampled_from(nc(n) + ncl_direct(n)))
    blocks = draw(st.permutations(obj.blocks))
    return n, [draw(st.permutations(b)) for b in blocks]


def block_text(raw):
    return "".join("{" + ",".join(map(str, b)) + "}" for b in raw)


texts = st.one_of(
    st.text(alphabet="{},0123456789", max_size=30),
    raw_lists.map(block_text),
    shuffled_valid().map(lambda nr: block_text(nr[1])),
)
raw_inputs = st.one_of(st.tuples(st.integers(-1, 9), raw_lists), shuffled_valid())


def check_make(n, raw):
    for make, error in MAKERS:
        try:
            obj = make(n, raw)
        except error as exc:
            assert len(str(exc).encode()) < 1024
            continue
        cls = type(obj)
        assert cls.from_text(obj.to_text()) == obj
        assert cls.from_json_dict(json.loads(json.dumps(obj.to_json_dict()))) == obj


@settings(max_examples=150, deadline=None)
@given(text=texts)
def test_block_text(text):
    try:
        n, raw = parse_blocks_text(text)
    except ParseError as exc:
        assert len(str(exc).encode()) < 1024
        return
    check_make(n, raw)


@settings(max_examples=150, deadline=None)
@given(nr=raw_inputs)
def test_raw_blocks(nr):
    check_make(*nr)
