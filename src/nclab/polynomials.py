"""Sparse integer polynomials in the coefficient variables t1, t2, ...

The variable t0 is never materialized: it is the constant 1 everywhere.
A monomial is its exponents: a tuple of (index, exponent) pairs, indices
>= 1 ascending and exponents positive, with ``()`` for 1.  A polynomial's
terms are kept in a fixed order (total weight sum(i * e_i) descending,
then lexicographic with higher indices first), which reproduces the
conventional way these moment polynomials are written, e.g.

    t3 + 3*t2*t1 + t1^3 + 4*t2 + 6*t1^2 + 6*t1 + 1

The moment polynomial that ``moments --symbolic`` prints is the closed
form `moment_poly`, by Lagrange inversion: one term per integer partition
of each k < n.  Four enumerative routes compute the same polynomial and
serve as its oracles.  The sums over linked partitions and over
endpoint-refinement pairs are separate enumerations; the inner-outer and
cumulant routes are sums over NC(n) by block weights, in O(n^3) products
by `partitions._nc_weight_sums`, and the transform oracles of `series`
evaluate them.  The partition code is imported inside the routes that
use it, so the closed form loads no other module of the package.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import comb, factorial
from threading import Lock
from typing import TYPE_CHECKING, Callable, Container, Iterable, Iterator, Mapping, Sequence

from ._base import Frozen, _require_positive, _set_field

if TYPE_CHECKING:
    from fractions import Fraction

    from .partitions import Partition


def _mono_product(a: tuple, b: tuple) -> tuple:
    """The exponents of the product of two monomials given by theirs."""
    if not (a and b):
        return a or b
    merged = dict(a)
    for i, e in b:
        merged[i] = merged.get(i, 0) + e
    return tuple(sorted(merged.items()))


class _Terms(dict):
    """A polynomial while it is summed, exponents -> coefficient; adds
    and multiplies with ints too, as `partitions._nc_weight_sums` needs."""

    def __add__(self, other: _Terms | int) -> _Terms:
        out = _Terms(self)
        for mono, c in _as_terms(other).items():
            out[mono] = out.get(mono, 0) + c
        return out

    __radd__ = __add__

    def __mul__(self, other: _Terms | int) -> _Terms:
        out = _Terms()
        theirs = _as_terms(other).items()
        for a, c in self.items():
            for b, d in theirs:
                mono = _mono_product(a, b)
                out[mono] = out.get(mono, 0) + c * d
        return out

    __rmul__ = __mul__


def _as_terms(x: _Terms | int) -> _Terms:
    return x if isinstance(x, _Terms) else _Terms({(): x} if x else {})


def _mono_from_sizes(indices: Iterable[int]) -> tuple:
    counts: dict[int, int] = {}
    for i in indices:
        if i >= 1:  # index 0 is the constant 1
            counts[i] = counts.get(i, 0) + 1
    return tuple(sorted(counts.items()))


def _mono_text(exps: tuple) -> str:
    """A monomial other than 1 as it is printed, highest index first:
    ``t2*t1^3``."""
    return "*".join(f"t{i}" if e == 1 else f"t{i}^{e}" for i, e in reversed(exps))


class Polynomial(Frozen):
    """Integer-coefficient polynomial in t1, t2, ...: ``terms`` holds
    (exponents, coefficient) pairs, nonzero and in canonical order."""

    _fields = ("terms",)

    def __init__(self, terms: tuple[tuple[tuple, int], ...]) -> None:
        _set_field(self, "terms", terms)

    @classmethod
    def _of(cls, terms: Mapping[tuple, int]) -> Polynomial:
        """The polynomial of the nonzero ``terms``, keyed by exponents."""
        items = sorted((mc for mc in terms.items() if mc[1]), reverse=True, key=lambda mc: (
            sum(i * e for i, e in mc[0]), sorted(mc[0], reverse=True)))
        return cls(tuple(items))

    def _terms(self) -> _Terms:
        return _Terms(self.terms)

    @classmethod
    def constant(cls, c: int) -> Polynomial:
        return cls._of({(): c})

    @classmethod
    def one(cls) -> Polynomial:
        return cls.constant(1)

    @classmethod
    def variable(cls, i: int) -> Polynomial:
        if i < 0:
            raise ValueError(f"bad variable power t{i}^1")
        return cls._of({((i, 1),) if i else (): 1})

    def __add__(self, other: Polynomial) -> Polynomial:
        return Polynomial._of(self._terms() + other._terms())

    def __mul__(self, other: Polynomial) -> Polynomial:
        return Polynomial._of(self._terms() * other._terms())

    @cached_property
    def _graded_terms(self) -> tuple[int, tuple]:
        """The top degree D and, per term, its exponents, its coefficient
        and D less its degree."""
        degrees = [sum(e for _, e in exps) for exps, _ in self.terms]
        top = max(degrees, default=0)
        return top, tuple((exps, c, top - g) for (exps, c), g in zip(self.terms, degrees))

    def evaluate(self, t: Sequence) -> Fraction:
        """Substitute t[i] for ti (t[0] is unused; indices must exist).  With
        ti = Ni / d, a term c * prod ti^ei of degree g adds c * prod Ni^ei *
        d^(D-g) to an integer sum over d^D, D the top degree: one `Fraction`."""
        from fractions import Fraction

        from .series import _common_denominator, _frac

        d, nums = _common_denominator([_frac(x) for x in t])
        top, terms = self._graded_terms
        powers = [1]
        for _ in range(top):
            powers.append(powers[-1] * d)
        total = 0
        for exps, c, rest in terms:
            for i, e in exps:
                if i >= len(nums):
                    raise ValueError(f"missing value for t{i}")
                c *= nums[i] ** e
            total += c * powers[rest]
        return Fraction(total, powers[top])

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx, (exps, c) in enumerate(self.terms):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if not exps:
                body = str(mag)
            elif mag == 1:
                body = _mono_text(exps)
            else:
                body = f"{mag}*{_mono_text(exps)}"
            if idx == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {
                    "coeff": str(c),
                    "monomial": {str(i): e for i, e in reversed(exps)},
                }
                for exps, c in self.terms
            ]
        }

    def __str__(self) -> str:
        return self.to_text()


def _tally(monomials: Iterable[tuple]) -> Polynomial:
    """The sum of the given monomials, each with coefficient 1."""
    return Polynomial._of(Counter(monomials))


def _pair_monomial(a: Partition, special: Container[int]) -> tuple:
    """The monomial of an endpoint-refinement pair (a, b): t_{|U|-1} over
    the blocks U of ``a`` special for ``b``, whose indices ``special`` are,
    t_{|V|} over the others.  Both callers take ``a`` from
    `endpoint_refinements(b)` and ``special`` from
    `partitions._special_blocks(a, b)`, so the pair is not re-checked."""
    return _mono_from_sizes(
        len(blk) - 1 if i in special else len(blk)
        for i, blk in enumerate(a.blocks)
    )


def _integer_partitions(k: int, smallest: int = 1) -> Iterator[tuple[tuple[int, int], ...]]:
    """The partitions of k into parts of at least ``smallest``, each as
    (part, multiplicity) pairs with the parts ascending."""
    if k == 0:
        yield ()
        return
    for part in range(smallest, k + 1):
        for mult in range(1, k // part + 1):
            for rest in _integer_partitions(k - part * mult, part + 1):
                yield ((part, mult), *rest)


class _NCSums:
    """`partitions._nc_weight_sums` under one polynomial weight, run on as
    far as a call needs and kept, so a family's sizes are built in one
    pass, asked for in any order: the sum over NC(m) is ``self(m)``."""

    def __init__(self, weight: Callable[[int, bool], Polynomial]) -> None:
        self._weight, self._lock = weight, Lock()
        self._polys: list[Polynomial] = []

    def __call__(self, m: int) -> Polynomial:
        with self._lock:
            if not self._polys:
                from .partitions import _nc_weight_sums

                self._sums = _nc_weight_sums(lambda k, inner: self._weight(k, inner)._terms())
            while len(self._polys) <= m:
                self._polys.append(Polynomial._of(_as_terms(next(self._sums))))
        return self._polys[m]


def _exact_quotient(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


def moment_poly(n: int) -> Polynomial:
    """Moment polynomial in closed form.  Lagrange inversion of
    M^{<-1>}(z) = z / ((1 + z) T(z)), with T = 1 + t1 z + t2 z^2 + ...,
    gives m_n = (1/n) [w^(n-1)] (1 + w)^n T(w)^n.  By the binomial and
    multinomial theorems, the monomial prod t_i^(e_i) of weight k <= n - 1
    and degree d has coefficient C(n, n-1-k) n! / ((n-d)! prod e_i!) / n."""
    _require_positive(n, "n")
    fact = [factorial(i) for i in range(n + 1)]
    terms = {}
    for k in range(n):
        binom = comb(n, n - 1 - k)
        for exps in _integer_partitions(k):
            den = fact[n - sum(e for _, e in exps)]
            for _, e in exps:
                den *= fact[e]
            multinomial = _exact_quotient(fact[n], den)
            terms[exps] = _exact_quotient(binom * multinomial, n)
    return Polynomial._of(terms)


def moment_poly_linked(n: int) -> Polynomial:
    """Moment polynomial as the sum over non-crossing linked partitions of
    the products t_{|A|-1} over blocks A."""
    _require_positive(n, "n")
    from .linked import enumerate_ncl

    return _tally(
        _mono_from_sizes(len(a) - 1 for a in p.blocks) for p in enumerate_ncl(n)
    )


def moment_poly_pairs(n: int) -> Polynomial:
    """Moment polynomial as the sum over endpoint-refinement pairs (a, b) of
    t_{|U|-1} over special blocks U times t_{|V|} over the rest."""
    _require_positive(n, "n")
    from .partitions import _special_blocks, endpoint_refinements, enumerate_nc

    return _tally(
        _pair_monomial(a, _special_blocks(a, b))
        for b in enumerate_nc(n) for a in endpoint_refinements(b)
    )


_t = Polynomial.variable
_INNER_OUTER = _NCSums(lambda size, inner: _t(size - 1) + _t(size) if inner else _t(size - 1))
_CUMULANTS = _NCSums(lambda size, inner: _t(size))


def moment_poly_inner_outer(n: int) -> Polynomial:
    """Moment polynomial as a single sum over non-crossing partitions:
    outer blocks contribute t_{|U|-1}, inner blocks (t_{|V|-1} + t_{|V|}),
    expanded."""
    _require_positive(n, "n")
    return _INNER_OUTER(n)


def cumulant_poly(n: int) -> Polynomial:
    """The n-th free cumulant as a polynomial in t1, t2, ...: for n >= 2
    the sum over non-crossing partitions of {1..n-1} of the products
    t_{|V|}; the first cumulant is the constant 1."""
    _require_positive(n, "n")
    return _CUMULANTS(n - 1)


_BY_CUMULANTS = _NCSums(lambda size, inner: cumulant_poly(size))


def moment_poly_cumulants(n: int) -> Polynomial:
    """Moment polynomial via cumulants: sum over non-crossing partitions of
    the products of per-block cumulant polynomials, expanded."""
    _require_positive(n, "n")
    return _BY_CUMULANTS(n)


def cumulant_product_identity(b: Partition) -> bool:
    """Check, for one non-crossing partition, that the product of its
    per-block cumulant polynomials equals the classified sum over its
    endpoint refinements."""
    from .partitions import _require_noncrossing, _special_blocks, endpoint_refinements

    _require_noncrossing(b, "input")
    lhs = Polynomial.one()
    for w in b.blocks:
        lhs = lhs * cumulant_poly(len(w))
    return lhs == _tally(_pair_monomial(a, _special_blocks(a, b))
                         for a in endpoint_refinements(b))
