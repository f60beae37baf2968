"""Seeded request decks and the expected result of every request.

A workload is a deck: a fixed list of request templates (command, size,
output mode) whose random content -- rationals, partitions, linked
partitions, which variant of a template -- is drawn from the seed, then
shuffled by the seed.  Sizes are fixed per template, so every seed costs
about the same and the spread between seeds measures the program, not the
draw.  Every expectation is computed here, before any request runs, by
`reference` (never by nclab).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import reference as ref

OVERSIZED_LABEL = 1_000_000

# Digests of the sorted object lines of `enumerate KIND N`, computed with
# `reference.nc_partitions` / `reference.ncl_partitions`; the benchmark's
# tests recompute them.  Pinned so that no run pays for the reference
# enumeration of NC(12).
ENUM_DIGESTS = {
    ("nc", 10):
        "41b673d8d81150bea910aa80c72a40e2cd89e1dfe4931d7807a9dbc843cec7c5",
    ("nc", 11):
        "53c8a7be39de9b9244cbd442c1a2a421fc86e8d5e9d32b8043010595e99b0d00",
    ("nc", 12):
        "a3b02286c706f907ad7d135093e8fa0ad56c31273fd19f1c8a55bca436c367d4",
    ("ncl", 7):
        "32fce9ca7a721336177c079d6211d498431b736414809b985f9ed25eddc6806a",
    ("ncl", 8):
        "486b3d799a52871333be879ad5366d9134b957d9efc5f512d81d3aa6420beab3",
}


@dataclass(frozen=True)
class Expect:
    """What a correct run of one request looks like.

    Exactly one of `stdout`, `enum` and `verify` is set for a request that
    must succeed; a reject sets none of them and requires empty stdout.
    """

    exit_codes: frozenset[int] = frozenset({0})
    stdout: str | None = None
    enum: tuple[str, int, bool] | None = None  # kind, n, json
    verify: tuple[str, int, bool] | None = None  # suite, n, json


@dataclass(frozen=True)
class Request:
    """One CLI request."""

    template: str
    args: tuple[str, ...]
    expect: Expect


REJECT_USAGE = frozenset({2})
REJECT_DOMAIN = frozenset({3})
# An oversized label is both over the size limit (usage) and a gap-ridden
# block family (domain); either code tells the truth.
REJECT_OVERSIZED = frozenset({2, 3})


# ------------------------------------------------------------ random objects

def rand_nc(rng: random.Random, n: int) -> ref.Blocks:
    """A random non-crossing partition: each element opens a block or joins
    an open one, closing the blocks opened inside it."""
    blocks: list[list[int]] = []
    stack: list[int] = []
    for k in range(1, n + 1):
        c = rng.randrange(len(stack) + 1)
        if c == len(stack):
            blocks.append([k])
            stack.append(len(blocks) - 1)
        else:
            blocks[stack[c]].append(k)
            del stack[c + 1:]
    return ref.canonical(blocks)


def rand_ncl(rng: random.Random, n: int) -> ref.Blocks:
    """A random non-crossing linked partition with at least one shared
    element when n >= 3 (rejection sampling over the backtracking moves
    of `reference.ncl_partitions`)."""
    while True:
        blocks: list[list[int]] = []
        linked_open: list[bool] = []
        stack: list[int] = []
        for k in range(1, n + 1):
            moves = [("open", None)]
            for d in range(len(stack)):
                closed = stack[d + 1:]
                if all(not linked_open[i] or len(blocks[i]) >= 2 for i in closed):
                    moves += [("join", d), ("link", d)]
            kind, d = rng.choice(moves)
            if kind != "open":
                host = stack[d]
                del stack[d + 1:]
                blocks[host].append(k)
            if kind != "join":
                blocks.append([k])
                linked_open.append(kind == "link")
                stack.append(len(blocks) - 1)
        alive = all(not linked_open[i] or len(blocks[i]) >= 2 for i in stack)
        if alive and (n < 3 or any(linked_open)):
            return ref.canonical(blocks)


def rand_rational(rng: random.Random) -> str:
    """A nonzero rational p/q in lowest-term-agnostic text form."""
    p = rng.choice((-1, 1)) * rng.randint(1, 9)
    q = rng.randint(1, 6)
    return str(p) if q == 1 else f"{p}/{q}"


def _line(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


# --------------------------------------------------------------- bijection

README_TO_PAIR = (
    "unlinking: {1,2,4}{3}{5,6}{7}{8,9,11}{10}\n"
    "permutation: (1,2,3,4,5,6,7)(8,9,10,11)\n"
    "alpha: {1,3,7}{2}{4,5}{6}{8,10,11}{9}\n"
    "beta: {1,2,3,4,5,6,7}{8,9,10,11}\n"
)


def to_pair_request(rng: random.Random, n: int) -> Request:
    linked = rand_ncl(rng, n)
    alpha, beta = ref.to_pair(linked, n)
    unl = ref.unlinking(linked)
    details = rng.random() < 0.5
    as_json = rng.random() < 0.5
    args = ["map", "to-pair", ref.fmt_blocks(linked)]
    if as_json:
        record = {}
        if details:
            record["unlinking"] = ref.partition_json(n, unl)
            record["permutation"] = {"n": n, "image": ref.cycle_image(beta, n)}
        record["alpha"] = ref.partition_json(n, alpha)
        record["beta"] = ref.partition_json(n, beta)
        out = _line(record)
    elif details:
        out = (f"unlinking: {ref.fmt_blocks(unl)}\n"
               f"permutation: {ref.cycle_text(beta)}\n"
               f"alpha: {ref.fmt_blocks(alpha)}\nbeta: {ref.fmt_blocks(beta)}\n")
    else:
        out = f"{ref.fmt_blocks(alpha)}\n{ref.fmt_blocks(beta)}\n"
    args += ["--details"] * details + ["--json"] * as_json
    return Request("map-to-pair", tuple(args), Expect(stdout=out))


def from_pair_request(rng: random.Random, n: int) -> Request:
    linked = rand_ncl(rng, n)
    alpha, beta = ref.to_pair(linked, n)
    details = rng.random() < 0.5
    as_json = rng.random() < 0.5
    args = ["map", "from-pair", ref.fmt_blocks(alpha), ref.fmt_blocks(beta)]
    unl = ref.unlinking(linked)
    if as_json:
        record = {}
        if details:
            record["permutation"] = {"n": n, "image": ref.cycle_image(beta, n)}
            record["unlinking"] = ref.partition_json(n, unl)
        record.update(ref.partition_json(n, linked, linked=True))
        out = _line(record)
    elif details:
        out = (f"permutation: {ref.cycle_text(beta)}\n"
               f"unlinking: {ref.fmt_blocks(unl)}\nlinked: {ref.fmt_blocks(linked)}\n")
    else:
        out = ref.fmt_blocks(linked) + "\n"
    args += ["--details"] * details + ["--json"] * as_json
    return Request("map-from-pair", tuple(args), Expect(stdout=out))


def count_request(kind: str, argument: str, value: int, as_json: bool) -> Request:
    args = ("count", kind, argument) + ("--json",) * as_json
    out = _line({"count": value}) if as_json else f"{value}\n"
    return Request(f"count-{kind}", args, Expect(stdout=out))


def interval_request(rng: random.Random, kind: str, n: int) -> Request:
    blocks = rand_nc(rng, n)
    value = ref.count_below(blocks) if kind == "below-ll" else ref.count_above(blocks)
    return count_request(kind, ref.fmt_blocks(blocks), value, rng.random() < 0.5)


def enumerate_request(kind: str, n: int, as_json: bool) -> Request:
    args = ("enumerate", kind, str(n)) + ("--json",) * as_json
    return Request(f"enumerate-{kind}-{n}", args, Expect(enum=(kind, n, as_json)))


def malformed_request(rng: random.Random) -> Request:
    a, b = rng.randint(1, 9), rng.randint(1, 9)
    text = rng.choice([
        f"{{{a},{b}", f"{{{a},,{b}}}", "{}", f"{a},{b}", f"{{{a};{b}}}",
        f"{{{a}}}{{x}}", f"{{{a}}} {{{b}}}", f"{{{a},{b}}}}}",
    ])
    args = rng.choice([
        ("map", "to-pair", text), ("map", "from-pair", text, "{1}"),
        ("count", "below-ll", text), ("count", "above-ll", text),
    ])
    return Request("reject-malformed", args, Expect(exit_codes=REJECT_USAGE))


def crossing_request(rng: random.Random, n: int) -> Request:
    a, b, c, d = sorted(rng.sample(range(1, n + 1), 4))
    blocks = [[a, c], [b, d]] + [[x] for x in range(1, n + 1) if x not in (a, b, c, d)]
    rng.shuffle(blocks)
    return Request("reject-crossing", ("map", "to-pair", ref.fmt_blocks(blocks)),
                   Expect(exit_codes=REJECT_DOMAIN))


def overshared_request(rng: random.Random, n: int) -> Request:
    linked = rand_ncl(rng, n)
    extra = rng.choice([b for b in linked if len(b) >= 2])
    blocks = list(linked) + [extra]
    rng.shuffle(blocks)
    return Request("reject-overshared", ("map", "to-pair", ref.fmt_blocks(blocks)),
                   Expect(exit_codes=REJECT_DOMAIN))


def non_refinement_request(rng: random.Random, n: int) -> Request:
    while True:
        beta = rand_nc(rng, n)
        alpha = rand_nc(rng, n)
        if not ref.endpoint_refines(alpha, beta):
            break
    args = ("map", "from-pair", ref.fmt_blocks(alpha), ref.fmt_blocks(beta))
    return Request("reject-non-refinement", args, Expect(exit_codes=REJECT_DOMAIN))


def bijection_deck(rng: random.Random) -> list[Request]:
    deck = [
        enumerate_request("nc", 12, False),
        enumerate_request("nc", 11, True),
        enumerate_request("nc", 10, False),
        enumerate_request("ncl", 8, False),
        enumerate_request("ncl", 8, True),
        enumerate_request("ncl", 7, True),
        count_request("ncl", "12", ref.ncl_count(12), rng.random() < 0.5),
        count_request("ncl", "11", ref.ncl_count(11), rng.random() < 0.5),
        count_request("coloured", "11", ref.ncl_count(11), rng.random() < 0.5),
        Request("reject-oversized", ("count", "below-ll", f"{{1,{OVERSIZED_LABEL}}}"),
                Expect(exit_codes=REJECT_OVERSIZED)),
        Request("reject-oversized", ("map", "to-pair", f"{{1,2}}{{2,{OVERSIZED_LABEL}}}"),
                Expect(exit_codes=REJECT_OVERSIZED)),
    ]
    deck += [
        Request("readme-to-pair", ("map", "to-pair",
                "{1,2,4}{2,3}{4,5,6}{6,7}{8,9,11}{9,10}", "--details"),
                Expect(stdout=README_TO_PAIR)),
        Request("readme-from-pair", ("map", "from-pair",
                "{1,3,7}{2}{4,5}{6}{8,10,11}{9}", "{1,2,3,4,5,6,7}{8,9,10,11}"),
                Expect(stdout="{1,2,4}{2,3}{4,5,6}{6,7}{8,9,11}{9,10}\n")),
        Request("readme-below-ll", ("count", "below-ll", "{1,2,3,4,5,6,7}{8,9,10,11}"),
                Expect(stdout="660\n")),
    ]
    for _ in range(7):
        deck.append(to_pair_request(rng, rng.randint(4, 12)))
        deck.append(from_pair_request(rng, rng.randint(4, 12)))
    for _ in range(2):
        deck.append(interval_request(rng, "below-ll", rng.randint(4, 12)))
        deck.append(interval_request(rng, "above-ll", rng.randint(4, 12)))
        deck.append(malformed_request(rng))
    deck += [
        crossing_request(rng, rng.randint(4, 12)),
        overshared_request(rng, rng.randint(3, 12)),
        non_refinement_request(rng, rng.randint(3, 12)),
    ]
    return deck


# -------------------------------------------------------------- transforms

def _fractions(texts) -> list[Fraction]:
    return [Fraction(t) for t in texts]


def _values_line(values) -> str:
    return ", ".join(str(v) for v in values) + "\n"


def moments_request(rng: random.Random, source: str, depth: int) -> Request:
    # t_0 and the first cumulant (the first moment) are 1 by normalization
    coeffs = ["1"] + [rand_rational(rng) for _ in range(depth - 1)]
    fracs = _fractions(coeffs)
    if source == "t":
        values = ref.moments_from_t(fracs, depth)
    else:
        values = ref.moments_from_cumulants(fracs, depth)
    as_json = rng.random() < 0.5
    out = _line({"moments": [str(v) for v in values]}) if as_json else _values_line(values)
    args = ("moments", f"--{'t' if source == 't' else 'cumulants'}", ",".join(coeffs),
            "--n", str(depth)) + ("--json",) * as_json
    return Request(f"moments-{source}-{depth}", args, Expect(stdout=out))


def transform_request(rng: random.Random, to: str, depth: int) -> Request:
    texts = ["1"] + [rand_rational(rng) for _ in range(depth - 1)]
    m = _fractions(texts)
    if to == "r":  # the R-transform's JSON form carries its zero constant term
        values = ref.cumulants_from_moments(m)
        record = {"order": len(values), "coeffs": ["0"] + [str(v) for v in values]}
    else:
        values = ref.s_coeffs(m) if to == "s" else ref.t_coeffs(m)
        record = {"order": len(values) - 1, "coeffs": [str(v) for v in values]}
    as_json = rng.random() < 0.5
    out = _line(record) if as_json else _values_line(values)
    limit = ("--limit", str(depth)) if depth > 12 else ()
    args = limit + ("transform", "--moments", ",".join(texts), "--to", to) \
        + ("--json",) * as_json
    family = "r" if to == "r" else "st"  # the seed picks s or t; they cost the same
    return Request(f"transform-{family}-{depth}", args, Expect(stdout=out))


def transforms_deck(rng: random.Random) -> list[Request]:
    deck = [Request("readme-transform", ("transform", "--moments", "1,2,5,14", "--to", "t"),
                    Expect(stdout="1, 1, 0, 0\n")),
            transform_request(rng, rng.choice("st"), 16)]
    for depth in range(2, 12):
        for req in (moments_request(rng, "t", depth),
                    moments_request(rng, "cumulants", depth),
                    transform_request(rng, "r", depth)):
            deck.append(req)
    for depth in (24, 32, 40):
        deck.append(transform_request(rng, rng.choice("st"), depth))
    return deck


# ----------------------------------------------------------------- oracles

def symbolic_request(n: int, as_json: bool) -> Request:
    poly = ref.moment_poly(n)
    out = _line(ref.poly_json(poly)) if as_json else ref.poly_text(poly) + "\n"
    args = ("moments", "--symbolic", str(n)) + ("--json",) * as_json
    return Request(f"symbolic-{n}", args, Expect(stdout=out))


def verify_request(suite: str, n: int, as_json: bool, template: str = "") -> Request:
    args = ("verify", suite, str(n)) + ("--json",) * as_json
    return Request(template or f"verify-{suite}-{n}", args,
                   Expect(verify=(suite, n, as_json)))


def oracles_deck(rng: random.Random) -> list[Request]:
    # `verify moments N` pays the moments suite's fixed cost (seeded
    # transform round trips at depth 8) whatever N is.  `verify all N` pays
    # it too, plus the other suites, so it is left out: a seed choosing
    # between the two would change the cost of the deck.
    deck = [verify_request("moments", rng.randint(1, 3), rng.random() < 0.5,
                           template="verify-fixed-cost")]
    # The other requests are kept under a second (`verify` up to 6,
    # `--symbolic` up to 9): the fixed-cost request fills a third of a run
    # on its own, and the light requests need the rest for several tries.
    for suite in ("bijection", "counts"):
        for n in range(2, 7):
            deck.append(verify_request(suite, n, rng.random() < 0.5))
    for n in range(1, 10):
        deck.append(symbolic_request(n, rng.random() < 0.5))
    return deck


WORKLOADS = {
    "transforms": transforms_deck,
    "bijection": bijection_deck,
    "oracles": oracles_deck,
}


def build_deck(workload: str, seed: int) -> list[Request]:
    """The seeded request list of one pass over a workload."""
    rng = random.Random(f"{workload}:{seed}")
    deck = WORKLOADS[workload](rng)
    rng.shuffle(deck)
    return deck
