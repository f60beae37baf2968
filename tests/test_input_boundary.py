"""Property tests over the input boundary: block text and raw block lists
go into `parse_blocks_text`, `make_partition` and `make_linked`.  Every
rejection is a library error with a short message, and every accepted
object round-trips through its text and JSON forms.  Raw blocks and sizes
also draw values that are not integers: ``bool``, strings and ``None``.
The CLI's rational parser reads exactly what `Fraction` reads, or rejects
the text as a usage error."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab import (
    InvalidLinkedPartitionError,
    InvalidPairError,
    InvalidPartitionError,
    LinkedPartition,
    ParseError,
    Partition,
    Permutation,
    SizeError,
    TruncatedSeries,
    catalan,
    classify_blocks,
    coloured_count,
    cumulant_poly,
    cumulant_product_identity,
    cumulants_from_t,
    cumulants_from_t_by_enumeration,
    endpoint_refines,
    enumerate_nc,
    enumerate_ncl,
    enumerate_ncl_direct,
    from_pair,
    make_linked,
    make_partition,
    make_permutation,
    moment_poly,
    moment_poly_cumulants,
    moment_poly_inner_outer,
    moment_poly_linked,
    moment_poly_pairs,
    moments_from_cumulants,
    moments_from_cumulants_by_enumeration,
    moments_from_t,
    moments_from_t_by_enumeration,
    ncl_count,
    schroder,
)
from nclab.cli import UsageError, _parse_rational, _parse_rational_list
from nclab.partitions import parse_blocks_text
from helpers import discrete, nc, ncl_direct

MAKERS = ((make_partition, InvalidPartitionError), (make_linked, InvalidLinkedPartitionError))

not_integers = st.one_of(st.booleans(), st.text(max_size=3), st.none())
elements = st.one_of(st.integers(-2, 9), st.integers(-2, 9), not_integers)
raw_lists = st.lists(st.lists(elements, max_size=5), max_size=5)
sizes = st.one_of(st.integers(-1, 9), st.integers(-1, 9), not_integers)


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
raw_inputs = st.one_of(st.tuples(sizes, raw_lists), shuffled_valid())


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


@settings(max_examples=150, deadline=None)
@given(nr=raw_inputs)
def test_raw_blocks_as_json(nr):
    n, raw = nr
    data = json.loads(json.dumps({"n": n, "blocks": raw}))
    for cls, error in ((Partition, InvalidPartitionError),
                       (LinkedPartition, InvalidLinkedPartitionError)):
        try:
            obj = cls.from_json_dict(data)
        except (ParseError, error) as exc:
            assert len(str(exc).encode()) < 1024
            continue
        assert cls.from_text(obj.to_text()) == obj


@pytest.mark.parametrize("data", [
    {"n": 1, "blocks": [[True]]},
    {"n": 2, "blocks": [[1], [False, 2]]},
    {"n": True, "blocks": [[1]]},
])
def test_json_bool_is_not_an_integer(data):
    for cls in (Partition, LinkedPartition):
        with pytest.raises(ParseError, match="malformed partition JSON"):
            cls.from_json_dict(data)


def test_permutation_json_bool_size():
    with pytest.raises(ParseError, match="malformed permutation JSON"):
        Permutation.from_json_dict({"n": True, "image": [1]})


@pytest.mark.parametrize("n, raw, message", [
    (2, [[1, "a"]], "element 'a' is not an integer"),
    (2, [["a", 1]], "element 'a' is not an integer"),
    (2, [[2, None], [1]], "element None is not an integer"),
    (1, [[True]], "element True is not an integer"),
    (True, [[1]], "ground-set size must be an integer, got True"),
    ("2", [[1, 2]], "ground-set size must be an integer, got '2'"),
])
def test_rejected_before_sorting(n, raw, message):
    for make, error in MAKERS:
        with pytest.raises(error) as exc:
            make(n, raw)
        assert str(exc.value) == message


SIZES = pytest.mark.parametrize("n, message", [
    (0, "ground-set size must be at least 1"),
    (True, "ground-set size must be an integer, got True"),
    (2.0, "ground-set size must be an integer, got 2.0"),
], ids=["zero", "bool", "float"])


@SIZES
@pytest.mark.parametrize("enumerate_", [enumerate_nc, enumerate_ncl, enumerate_ncl_direct],
                         ids=["nc", "ncl", "ncl_direct"])
def test_enumerator_size(enumerate_, n, message):
    # checked when the first object is asked for
    with pytest.raises(ValueError) as exc:
        next(enumerate_(n))
    assert str(exc.value) == message


@SIZES
@pytest.mark.parametrize("count", [ncl_count, coloured_count], ids=["ncl", "coloured"])
def test_count_size(count, n, message):
    with pytest.raises(ValueError) as exc:
        count(n)
    assert str(exc.value) == message


@pytest.mark.parametrize("n, message", [
    (0, "n must be at least 1"),
    (-1, "n must be at least 1"),
    (True, "n must be an integer, got True"),
    (2.0, "n must be an integer, got 2.0"),
    ("3", "n must be an integer, got '3'"),
    ([3], "n must be an integer, got [3]"),
], ids=["zero", "negative", "bool", "float", "str", "list"])
@pytest.mark.parametrize("route", [
    moment_poly, moment_poly_linked, moment_poly_pairs, moment_poly_inner_outer,
    moment_poly_cumulants, cumulant_poly,
], ids=lambda route: route.__name__)
def test_polynomial_size(route, n, message):
    # the cached routes hold n = 1 first: True must not read as that entry
    assert route(1) == moment_poly(1)
    with pytest.raises(ValueError) as exc:
        route(n)
    assert str(exc.value) == message


@pytest.mark.parametrize("n_max, message", [
    (0, "n_max must be at least 1"),
    (-1, "n_max must be at least 1"),
    (True, "n_max must be an integer, got True"),
    (2.0, "n_max must be an integer, got 2.0"),
    ("2", "n_max must be an integer, got '2'"),
    ([2], "n_max must be an integer, got [2]"),
], ids=["zero", "negative", "bool", "float", "str", "list"])
@pytest.mark.parametrize("route", [
    moments_from_t, moments_from_cumulants, cumulants_from_t,
    moments_from_t_by_enumeration, moments_from_cumulants_by_enumeration,
    cumulants_from_t_by_enumeration,
], ids=lambda route: route.__name__)
def test_series_depth(route, n_max, message):
    # the coefficients are valid for every route at depth 1 and 2
    with pytest.raises(ValueError) as exc:
        route([1, 1], n_max)
    assert str(exc.value) == message


@pytest.mark.parametrize("order, message", [
    (-2, "order must be at least 0"),
    (1.5, "order must be an integer, got 1.5"),
    (True, "order must be an integer, got True"),
], ids=["negative", "float", "bool"])
def test_truncate_order(order, message):
    # a negative order would slice from the end, and True would read as 1
    with pytest.raises(SizeError) as exc:
        TruncatedSeries.of(1, 2, 3, 4).truncate(order)
    assert str(exc.value) == message


@pytest.mark.parametrize("k, message", [
    (-1, "{} index must be at least 0"),
    (True, "{} index must be an integer, got True"),
    (2.0, "{} index must be an integer, got 2.0"),
], ids=["negative", "bool", "float"])
@pytest.mark.parametrize("number", [catalan, schroder], ids=["catalan", "schroder"])
def test_sequence_index(number, k, message):
    with pytest.raises(ValueError) as exc:
        number(k)
    assert str(exc.value) == message.format(number.__name__)


@pytest.mark.parametrize("raw, message", [
    ([1], "block 1 is not iterable"),
    ([[1], 2], "block 2 is not iterable"),
    (None, "block family None is not iterable"),
    (7, "block family 7 is not iterable"),
])
def test_not_iterable(raw, message):
    for make, error in MAKERS:
        with pytest.raises(error) as exc:
            make(2, raw)
        assert str(exc.value) == message


@pytest.mark.parametrize("element, message", [
    ("a" * 100000, f"element {'a' * 60!r}... (100000 characters) is not an integer"),
    ([0] * 100000, "element [" + "0, " * 19 + "0,... (300000 characters) is not an integer"),
], ids=["string", "list"])
def test_long_element_quoted_bounded(element, message):
    for make, error in MAKERS:
        with pytest.raises(error) as exc:
            make(2, [[1, element]])
        assert str(exc.value) == message
        assert len(str(exc.value).encode()) < 1024


HUGE = 10**5000  # past CPython's 4300-digit limit for int -> str


@pytest.mark.parametrize("n, raw, message", [
    (2, [[1, HUGE]], "element <16610-bit integer> out of range 1..2"),
    (3, [[1, -HUGE]], "element -<16610-bit integer> out of range 1..3"),
    (HUGE, [[0]], "element 0 out of range 1..<16610-bit integer>"),
    (HUGE, [[1]], "elements [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and "
                  "<16610-bit integer> more not covered"),
], ids=["element", "negative-element", "size", "coverage"])
def test_huge_integers_bounded(n, raw, message):
    for make, error in MAKERS:
        with pytest.raises(error) as exc:
            make(n, raw)
        assert str(exc.value) == message


def test_huge_repeated_element_bounded():
    x = HUGE - 1
    with pytest.raises(InvalidPartitionError) as exc:
        make_partition(HUGE, [[1, x], [x]])
    assert str(exc.value) == "element <16610-bit integer> repeated"
    with pytest.raises(InvalidLinkedPartitionError) as exc:
        make_linked(HUGE, [[1, x, x]])
    assert str(exc.value) == ("element <16610-bit integer> repeated inside block "
                              "{1,<16610-bit integer>}")
    with pytest.raises(InvalidLinkedPartitionError) as exc:
        make_linked(HUGE, [[1, x], [2, x], [3, x]])
    assert str(exc.value) == "element <16610-bit integer> covered by 3 blocks"


def test_integers_up_to_sixty_digits_in_full():
    n = 10**60 - 1
    for make, error in MAKERS:
        with pytest.raises(error) as exc:
            make(n, [[-n]])
        assert str(exc.value) == f"element {-n} out of range 1..{n}"
        with pytest.raises(error) as exc:
            make(n, [[n + 1]])
        assert str(exc.value) == f"element <200-bit integer> out of range 1..{n}"


N_LONG = 3000  # a block of {1..3000} is 13894 characters of text
LONG = make_partition(N_LONG, [list(range(1, N_LONG + 1))])
LONG_HEAD = "{" + ",".join(map(str, range(1, 24))) + "... (13894 characters)"


@pytest.mark.parametrize("build, error, message", [
    (lambda: make_linked(N_LONG, [list(range(1, N_LONG + 1)), [1, 2]]),
     InvalidLinkedPartitionError, f"blocks {LONG_HEAD} and {{1,2}} share 2 elements"),
    (lambda: from_pair(LONG, discrete(N_LONG)),
     InvalidPairError, f"{LONG_HEAD} does not endpoint-refine {{1}}{{2}}{{3}}{{4}}{{5}}{{6}}"
                 "{7}{8}{9}{10}{11}{12}{13}{14}{15}{16}{17}{... (16893 characters)"),
    (lambda: classify_blocks(discrete(N_LONG), LONG),
     InvalidPairError, "{1}{2}{3}{4}{5}{6}{7}{8}{9}{10}{11}{12}{13}{14}{15}{16}{17}{... "
                 f"(16893 characters) does not endpoint-refine {LONG_HEAD}"),
    (lambda: endpoint_refines(make_partition(N_LONG, [range(1, N_LONG, 2),
                                                      range(2, N_LONG + 1, 2)]), LONG),
     InvalidPartitionError, "left partition {1,3,5,7,9,11,13,15,17,19,21,23,25,27,29,31,33,35,37,39,41,4"
                 "... (13895 characters) is crossing"),
    (lambda: cumulant_product_identity(make_partition(N_LONG, [range(1, N_LONG, 2),
                                                               range(2, N_LONG + 1, 2)])),
     InvalidPartitionError, "input partition {1,3,5,7,9,11,13,15,17,19,21,23,25,27,29,31,33,35,37,39,41,4"
                 "... (13895 characters) is crossing"),
], ids=["make_linked", "from_pair", "classify_blocks", "crossing", "cumulant_identity"])
def test_long_blocks_quoted_bounded(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert len(str(exc.value).encode()) < 1024


def test_short_block_quotes_unchanged():
    with pytest.raises(InvalidLinkedPartitionError) as exc:
        make_linked(4, [[1, 2, 3], [2, 3, 4]])
    assert str(exc.value) == "blocks {1,2,3} and {2,3,4} share 2 elements"


LONG_IMAGE = "[" + ", ".join(["1"] * 20) + ",... (9000 characters)"


@pytest.mark.parametrize("build", [
    lambda: make_permutation(N_LONG, [1] * N_LONG),
    lambda: Permutation.from_json_dict({"n": N_LONG, "image": [1] * N_LONG}),
], ids=["make_permutation", "from_json_dict"])
def test_long_image_quoted_bounded(build):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == f"image {LONG_IMAGE} is not a bijection of 1..3000"
    assert len(str(exc.value).encode()) < 1024


def test_short_image_quote_unchanged():
    with pytest.raises(ValueError) as exc:
        make_permutation(3, [1, 1, 2])
    assert str(exc.value) == "image [1, 1, 2] is not a bijection of 1..3"


HUGE = 10**5000  # past CPython's 4300-digit limit for str(int)


@pytest.mark.parametrize("build, message", [
    (lambda: make_permutation(HUGE, [1]),
     "image [1] is not a bijection of 1..<16610-bit integer>"),
    (lambda: make_permutation(3, [1, 2, HUGE]),
     "image [1, 2, <16610-bit integer>] is not a bijection of 1..3"),
    (lambda: Permutation.from_json_dict({"n": HUGE, "image": [1]}),
     "image [1] is not a bijection of 1..<16610-bit integer>"),
    (lambda: make_permutation(2, [True, 2]), "image element True is not an integer"),
    (lambda: make_permutation(2, [1.0, 2]), "image element 1.0 is not an integer"),
    (lambda: make_permutation(2, [1, "b"]), "image element 'b' is not an integer"),
    (lambda: make_permutation("2", [1, 2]), "permutation size must be an integer, got '2'"),
], ids=["huge-size", "huge-element", "json-huge-size", "bool", "float", "str", "str-size"])
def test_permutation_rejects_with_a_short_message(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
    assert len(str(exc.value).encode()) < 1024


fifty_digits = st.integers(-(10**50 - 1), 10**50 - 1)
positive_fifty_digits = st.integers(1, 10**50 - 1)


@settings(max_examples=200, deadline=None)
@given(p=fifty_digits, q=positive_fifty_digits)
def test_rational_reads_p_over_q(p, q):
    assert _parse_rational(f"{p}/{q}") == Fraction(p, q)
    assert _parse_rational(str(p)) == p
    assert _parse_rational_list(f"{p},{p}/{q}") == [p, Fraction(p, q)]


rational_texts = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="0123456789+-/.eE_ ", max_size=12),
    # past the digit bound, and long rejects
    st.builds(str.__mul__, st.sampled_from(["9", "1/", "x", "1."]), st.integers(2000, 5000)),
)


@settings(max_examples=300, deadline=None)
@given(text=rational_texts)
def test_rational_text_parses_exactly_or_is_a_usage_error(text):
    try:
        value = _parse_rational(text)
    except UsageError as exc:
        assert "\n" not in str(exc)
        assert len(str(exc).encode()) < 1024
    else:
        assert value == Fraction(text)


@settings(max_examples=100, deadline=None)
@given(p=fifty_digits, q=positive_fifty_digits, k=st.integers(0, 99), data=st.data())
def test_rational_rejects(p, q, k, data):
    # decimals, exponents and zero denominators, which `Fraction` reads or
    # fails on with its own error, are usage errors; so is an empty item
    for text in (f"{p}.{q}", f"{p}/{q}.5", f"{p}e{k}", f"{p}E-{k}", f"{p}/{q}e{k}",
                 f"{p}/0", f"{p}/{'0' * (k + 1)}"):
        with pytest.raises(UsageError):
            _parse_rational(text)
    items = [f"{p}/{q}"] * data.draw(st.integers(0, 3))
    items.insert(data.draw(st.integers(0, len(items))), "")
    with pytest.raises(UsageError):
        _parse_rational_list(",".join(items))
