"""Exact references the benchmark checks the CLI against.

Nothing here imports nclab: every expected output is computed by
independent code, so a defect in the library cannot also produce the
answer it is checked against.  The routes differ on purpose from the
library's:

* counts come from closed forms (Catalan, Schroeder, Catalan products,
  powers of two);
* enumerations come from a recursive first-block decomposition (plain
  partitions) and an element-by-element backtracking (linked partitions),
  compared as digests of the sorted output lines;
* `to_pair` / `from_pair` are rebuilt from the definitions (union of
  overlapping blocks, dropped doubly-covered minima, block cycles);
* the moment calculus uses Lagrange inversion instead of sums over
  non-crossing partitions, and the moment polynomial a multinomial
  expansion of the same formula.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Iterator, Sequence

Blocks = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------- counts

def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def schroder(k: int) -> int:
    """Large Schroeder number r_k = sum_j C(k+j, k-j) * Catalan(j)."""
    return sum(math.comb(k + j, k - j) * catalan(j) for j in range(k + 1))


def ncl_count(n: int) -> int:
    return schroder(n - 1)


def inner_block_count(blocks: Blocks) -> int:
    spans = [(b[0], b[-1]) for b in blocks]
    return sum(
        any(lo2 < lo and hi2 > hi for lo2, hi2 in spans) for lo, hi in spans
    )


def count_below(blocks: Blocks) -> int:
    return math.prod(catalan(len(w) - 1) for w in blocks)


def count_above(blocks: Blocks) -> int:
    return 1 << inner_block_count(blocks)


# ---------------------------------------------------------- text and JSON

def fmt_blocks(blocks: Blocks) -> str:
    return "".join("{" + ",".join(map(str, b)) + "}" for b in blocks)


def canonical(blocks) -> Blocks:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def partition_json(n: int, blocks: Blocks, linked: bool = False) -> dict:
    out = {"n": n, "blocks": [list(b) for b in blocks]}
    if linked:
        out["linked"] = True
    return out


def lines_digest(lines: Sequence[str]) -> str:
    """Order-free digest of an enumeration: the sorted lines, hashed."""
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


# ---------------------------------------------------------- enumerations

def nc_partitions(n: int) -> Iterator[Blocks]:
    """All non-crossing partitions of {1..n}: the block of the least
    element splits the rest into independent intervals."""

    def interval(lo: int, hi: int) -> Iterator[list[tuple[int, ...]]]:
        if lo > hi:
            yield []
            return
        # choose the block of lo as lo < a_1 < ... < a_k <= hi; gaps between
        # consecutive members and the tail after a_k are filled independently
        def grow(last: int, block: list[int]) -> Iterator[list[tuple[int, ...]]]:
            for tail in interval(last + 1, hi):
                yield [tuple(block)] + tail
            for nxt in range(last + 1, hi + 1):
                for gap in interval(last + 1, nxt - 1):
                    block.append(nxt)
                    for rest in grow(nxt, block):
                        yield gap + rest
                    block.pop()

        yield from grow(lo, [lo])

    for blocks in interval(1, n):
        yield tuple(sorted(blocks))


def ncl_partitions(n: int) -> Iterator[Blocks]:
    """All non-crossing linked partitions of {1..n}, element by element:
    each element opens a block, joins the innermost-but-d open block
    (closing the ones inside it), or joins one and opens a block it is
    the minimum of.  A block opened that way must get a second element."""
    blocks: list[list[int]] = []
    linked_open: list[bool] = []
    stack: list[int] = []

    def ok_to_close(idx: list[int]) -> bool:
        return all(not linked_open[i] or len(blocks[i]) >= 2 for i in idx)

    def rec(k: int) -> Iterator[Blocks]:
        if k > n:
            if ok_to_close(stack):
                yield tuple(tuple(b) for b in sorted(blocks))
            return
        for depth in range(len(stack) - 1, -1, -1):
            closed = stack[depth + 1:]
            if not ok_to_close(closed):
                continue
            del stack[depth + 1:]
            host = stack[depth]
            blocks[host].append(k)
            yield from rec(k + 1)
            blocks.append([k])
            linked_open.append(True)
            stack.append(len(blocks) - 1)
            yield from rec(k + 1)
            stack.pop()
            linked_open.pop()
            blocks.pop()
            blocks[host].pop()
            stack.extend(closed)
        blocks.append([k])
        linked_open.append(False)
        stack.append(len(blocks) - 1)
        yield from rec(k + 1)
        stack.pop()
        linked_open.pop()
        blocks.pop()

    yield from rec(1)


# ------------------------------------------------------------- bijection

def generated(blocks: Blocks) -> Blocks:
    """Unions of overlapping blocks (the generated partition)."""
    groups: list[set[int]] = []
    for b in blocks:
        merged = set(b)
        rest = []
        for g in groups:
            if g & merged:
                merged |= g
            else:
                rest.append(g)
        groups = rest + [merged]
    return canonical(groups)


def unlinking(blocks: Blocks) -> Blocks:
    cover: dict[int, int] = {}
    for b in blocks:
        for x in b:
            cover[x] = cover.get(x, 0) + 1
    return canonical(b[1:] if cover[b[0]] == 2 else b for b in blocks)


def cycle_image(beta: Blocks, n: int) -> list[int]:
    """Image of the block-cycle permutation: i_1 -> i_2 -> ... -> i_1."""
    image = [0] * n
    for w in beta:
        for u, v in zip(w, w[1:] + w[:1]):
            image[u - 1] = v
    return image


def cycle_text(beta: Blocks) -> str:
    text = "".join("(" + ",".join(map(str, w)) + ")" for w in beta if len(w) > 1)
    return text or "()"


def to_pair(linked: Blocks, n: int) -> tuple[Blocks, Blocks]:
    beta = generated(linked)
    image = cycle_image(beta, n)
    inverse = {v: i + 1 for i, v in enumerate(image)}
    alpha = canonical([inverse[x] for x in v] for v in unlinking(linked))
    return alpha, beta


def is_noncrossing(blocks: Blocks) -> bool:
    """No x < y < x' < y' with x, x' in one block and y, y' in another."""
    for a in blocks:
        for b in blocks:
            if a is b:
                continue
            for y in b:
                if a[0] < y and any(x > y and b[-1] > x for x in a):
                    return False
    return True


def endpoint_refines(alpha: Blocks, beta: Blocks) -> bool:
    host = {x: i for i, w in enumerate(beta) for x in w}
    owner = {x: i for i, a in enumerate(alpha) for x in a}
    if any(len({host[x] for x in a}) != 1 for a in alpha):
        return False
    return all(owner[w[0]] == owner[w[-1]] for w in beta)


# ------------------------------------------------------ the moment calculus

def _mul(a: Sequence[Fraction], b: Sequence[Fraction], deg: int) -> list[Fraction]:
    out = [Fraction(0)] * (deg + 1)
    for i, x in enumerate(a[: deg + 1]):
        if x:
            for j, y in enumerate(b[: deg + 1 - i]):
                out[i + j] += x * y
    return out


def _recip(a: Sequence[Fraction], deg: int) -> list[Fraction]:
    out = [Fraction(1) / a[0]]
    for k in range(1, deg + 1):
        acc = sum((a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1)),
                  Fraction(0))
        out.append(-acc / a[0])
    return out


def _lagrange(phi: Sequence[Fraction], n: int) -> list[Fraction]:
    """[w^(k-1)] phi(w)^k / k for k = 1..n."""
    power = [Fraction(1)]
    out = []
    for k in range(1, n + 1):
        power = _mul(power, phi, n - 1)
        out.append(power[k - 1] / k)
    return out


def revert(f: Sequence[Fraction], n: int) -> list[Fraction]:
    """Compositional inverse g of f = f_1 z + f_2 z^2 + ..., coefficients
    0..n, by Lagrange inversion: [z^k] g = [w^(k-1)] (w/f(w))^k / k."""
    phi = _recip(list(f[1:]), n - 1)
    return [Fraction(0)] + _lagrange(phi, n)


def moments_from_t(t: Sequence[Fraction], n: int) -> list[Fraction]:
    """m_k = [w^(k-1)] ((1+w) T(w))^k / k, the inverse of the T-transform."""
    tt = list(t[:n]) + [Fraction(0)] * (n - len(t))
    phi = _mul([Fraction(1), Fraction(1)], tt, n - 1)
    return _lagrange(phi, n)


def moments_from_cumulants(kappa: Sequence[Fraction], n: int) -> list[Fraction]:
    """m_k = [w^k] C(w)^(k+1) / (k+1) with C = 1 + sum kappa_j w^j."""
    c = [Fraction(1)] + list(kappa[:n]) + [Fraction(0)] * (n - len(kappa))
    power = c
    out = []
    for k in range(1, n + 1):
        power = _mul(power, c, n)
        out.append(power[k] / (k + 1))
    return out


def cumulants_from_moments(m: Sequence[Fraction]) -> list[Fraction]:
    """C(w) = w / h^{-1}(w) with h(z) = z (1 + m_1 z + m_2 z^2 + ...)."""
    d = len(m)
    h = [Fraction(0), Fraction(1)] + list(m)
    hinv = revert(h, d + 1)
    return _recip(hinv[1:], d)[1:]


def s_coeffs(m: Sequence[Fraction]) -> list[Fraction]:
    """(1+z)/z times the compositional inverse of the moment series."""
    d = len(m)
    shifted = revert([Fraction(0)] + list(m), d)[1:]
    return [shifted[k] + (shifted[k - 1] if k else 0) for k in range(d)]


def t_coeffs(m: Sequence[Fraction]) -> list[Fraction]:
    s = s_coeffs(m)
    return _recip(s, len(s) - 1)


# ---------------------------------------------------- the moment polynomial

Monomial = tuple[tuple[int, int], ...]  # (index, exponent), index ascending


def _int_partitions(r: int, max_part: int) -> Iterator[list[int]]:
    if r == 0:
        yield []
        return
    for p in range(min(r, max_part), 0, -1):
        for rest in _int_partitions(r - p, p):
            yield [p] + rest


def moment_poly(n: int) -> dict[Monomial, int]:
    """m_n = [w^(n-1)] (1+w)^n T(w)^n / n with T = 1 + t1 w + t2 w^2 + ...,
    expanded by the binomial and multinomial theorems."""
    acc: dict[Monomial, int] = {}
    for j in range(n):
        for parts in _int_partitions(n - 1 - j, n - 1):
            if len(parts) > n:
                continue
            exps: dict[int, int] = {}
            for p in parts:
                exps[p] = exps.get(p, 0) + 1
            coeff = math.comb(n, j) * math.factorial(n) // math.factorial(n - len(parts))
            for e in exps.values():
                coeff //= math.factorial(e)
            mono = tuple(sorted(exps.items()))
            acc[mono] = acc.get(mono, 0) + coeff
    out = {}
    for mono, c in acc.items():
        if c % n:
            raise ArithmeticError(f"moment polynomial {n}: {c} not divisible")
        out[mono] = c // n
    return out


def _ordered_terms(poly: dict[Monomial, int]) -> list[tuple[Monomial, int]]:
    def key(item):
        mono = item[0]
        return (sum(i * e for i, e in mono), tuple(sorted(mono, reverse=True)))

    return sorted(((m, c) for m, c in poly.items() if c), key=key, reverse=True)


def poly_text(poly: dict[Monomial, int]) -> str:
    parts = []
    for idx, (mono, c) in enumerate(_ordered_terms(poly)):
        name = "*".join(
            f"t{i}" if e == 1 else f"t{i}^{e}" for i, e in sorted(mono, reverse=True)
        )
        mag = abs(c)
        body = str(mag) if not mono else name if mag == 1 else f"{mag}*{name}"
        if idx == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {'-' if c < 0 else '+'} {body}")
    return "".join(parts) or "0"


def poly_json(poly: dict[Monomial, int]) -> dict:
    return {
        "terms": [
            {"coeff": str(c), "monomial": {str(i): e for i, e in sorted(m, reverse=True)}}
            for m, c in _ordered_terms(poly)
        ]
    }
