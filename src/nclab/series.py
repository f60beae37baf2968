"""Exact truncated power series over rationals and the moment transforms.

Coefficients are `fractions.Fraction`; nothing is ever rounded.  A series
carries an explicit truncation order: ``coeffs`` holds exactly order + 1
coefficients, and arithmetic results carry the minimum order of their
inputs, so nothing beyond the order is ever read as a silent zero.

The moment calculus assumes the standing normalization: the first moment
is 1.  Inputs violating it raise `NormalizationError`.

The products, reciprocals, compositions and the conversions between
moment, t- and cumulant sequences run on one integer core, the graded
series below: no `Fraction` is built inside their loops, only for the
coefficients they return.  The conversions solve their functional
equations by Lagrange inversion, in O(n^3) integer operations at depth n.
Each keeps its defining sum over non-crossing partitions as a
``*_by_enumeration`` oracle.  The oracles take these sums at their own
numbers, in integers, by `partitions._nc_weight_sums` on the block of
element 1: O(n^3) operations rather than Catalan time, with no Lagrange
inversion and no use of the core.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from ._base import Frozen, NormalizationError, _require_int, _set_field


def _frac(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("float coefficients are not exact; pass Fraction, int or 'p/q'")
    return Fraction(x)


def _common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The least common denominator d of ``values`` and their numerators
    over it: value i is numerators[i] / d."""
    d = lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


# The graded core.  A graded series is a triple (nums, e, c) of integers,
# e and c positive: coefficient j is nums[j] / (c * e**j).  A series read
# from fractions has grade 1 and c their common denominator; the grade
# grows where the denominators compound, by the constant term of a
# reciprocal, so that products, reciprocals with constant term 1 and
# Lagrange powers stay in integers, and a route passes its graded steps on
# without reducing them.
_Graded = tuple[list[int], int, int]


def _graded(coeffs: Sequence[Fraction]) -> _Graded:
    """``coeffs`` over their common denominator, at grade 1."""
    c, nums = _common_denominator(coeffs)
    return nums, 1, c


def _fractions(g: _Graded) -> tuple[Fraction, ...]:
    """The coefficients of a graded series, one `Fraction` each."""
    nums, e, scale = g
    out = []
    for a in nums:
        out.append(Fraction(a, scale))
        scale *= e
    return tuple(out)


def _rescaled(nums: list[int], r: int, first: int = 1) -> list[int]:
    """nums[j] * first * r**j: the same series over grade e*r when first is 1."""
    if r == 1 and first == 1:
        return nums
    out = []
    for a in nums:
        out.append(a * first)
        first *= r
    return out


def _convolve(a: list[int], b: list[int], n: int) -> list[int]:
    """The first n + 1 coefficients of the product of two integer series,
    b given to at least z^n."""
    return [sum(map(mul, a[: k + 1], reversed(b[: k + 1]))) for k in range(n + 1)]


def _reciprocal(g: _Graded) -> _Graded:
    """1/g.  With g = (a_0/c) u, u_0 = 1, the reciprocal of u has b_k =
    -sum_{j>=1} u_j b_{k-j}: no division.  u_j = a_j / (a_0 e^j) is on
    grade |a_0| e, which is e when a_0 is 1."""
    a, e, c = g
    a0 = a[0]
    u = [1] + _rescaled(a[1:], abs(a0), 1 if a0 > 0 else -1)
    v = [1]
    for k in range(1, len(u)):
        v.append(-sum(map(mul, u[1 : k + 1], reversed(v))))
    d = gcd(c, a0) if a0 > 0 else -gcd(c, a0)  # 1/g = (c/a_0) / u
    return _rescaled(v, 1, c // d), e * abs(a0), a0 // d


def _lagrange(h: _Graded, n: int) -> _Graded:
    """g/z for the series g = z*h(g) at order n, i.e. the compositional
    inverse of z/h(z); h needs a nonzero constant term and order at least
    n - 1.

    Lagrange inversion: [z^k] g = [w^(k-1)] h^k / k.  With h_j = a_j /
    (c e^j), that is [w^(k-1)] a^k / (k c^k e^(k-1)), and k divides the
    integer [w^(k-1)] a^k (by the cycle lemma it is k times a sum over
    plane trees), so g/z has grade c*e and factor c.  Each power a^k is
    built up to w^(k-1) by Miller's recurrence m a_0 p_m = sum_j ((k+1)j -
    m) a_j p_(m-j), whose divisions are exact: n^3/6 products in all.
    """
    a, e, c = h
    a0, tail = a[0], a[1:n]
    q = []
    for k in range(1, n + 1):
        p = [a0**k]
        for m in range(1, k):
            weighted = map(mul, range(k + 1 - m, k * m + 1, k + 1), tail)
            p.append(sum(map(mul, weighted, reversed(p))) // (m * a0))
        q.append(p[-1] // k)
    return q, c * e, c


def _one_plus_z(g: _Graded) -> _Graded:
    """(1 + z) g, at the order of g."""
    nums, e, c = g
    return [nums[0]] + [a + e * b for a, b in zip(nums[1:], nums)], e, c


class TruncatedSeries(Frozen):
    """A power series known exactly up to z**order."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        if not coeffs:
            raise ValueError("a series needs at least its constant term")
        _set_field(self, "coeffs", coeffs)

    @classmethod
    def of(cls, *coeffs) -> TruncatedSeries:
        return cls(tuple(_frac(c) for c in coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, order: int) -> TruncatedSeries:
        _require_int(order, "order", 0)
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(self.coeffs[: order + 1])

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        # zip stops at the shorter series: the lower truncation order
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.order, other.order)
        a, _, ca = _graded(self.coeffs[: n + 1])
        b, _, cb = _graded(other.coeffs[: n + 1])
        return TruncatedSeries(_fractions((_convolve(a, b, n), 1, ca * cb)))

    def reciprocal(self) -> TruncatedSeries:
        """Multiplicative inverse up to the truncation order."""
        if self.coeffs[0] == 0:
            raise ValueError("series with zero constant term has no reciprocal")
        return TruncatedSeries(_fractions(_reciprocal(_graded(self.coeffs))))

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """self(inner(z)); the inner series must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        n = min(self.order, inner.order)
        a, _, ca = _graded(self.coeffs[: n + 1])
        b, _, cb = _graded(inner.coeffs[: n + 1])
        v = [0] + _rescaled(b[1:], cb)  # inner over grade cb: b_k cb^(k-1) / cb^k
        result = [a[n]]
        for c in reversed(a[:n]):  # Horner: result * v + c
            result = _convolve(result, v, n)
            result[0] += c
        return TruncatedSeries(_fractions((result, cb, ca)))

    def comp_inverse(self) -> TruncatedSeries:
        """Compositional inverse g with self(g(z)) = z up to the order.

        Needs zero constant term and nonzero linear coefficient; Lagrange
        inversion on h = z/self(z), exactly, in O(order^3) operations.
        """
        f = self.coeffs
        if f[0] != 0:
            raise ValueError("compositional inverse needs zero constant term")
        if self.order < 1 or f[1] == 0:
            raise ValueError("compositional inverse needs a nonzero linear coefficient")
        g = _lagrange(_reciprocal(_graded(f[1:])), self.order)
        return TruncatedSeries((Fraction(0),) + _fractions(g))

    def __str__(self) -> str:
        return ", ".join(str(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries.of({', '.join(repr(str(c)) for c in self.coeffs)})"

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


class MomentSequence(Frozen):
    """Moments m_1..m_depth of a normalized variable (m_1 = 1)."""

    _fields = ("values",)

    def __init__(self, values: tuple[Fraction, ...]) -> None:
        if not values:
            raise ValueError("a moment sequence needs depth at least 1")
        if values[0] != 1:
            raise NormalizationError(f"first moment must be 1, got {values[0]}")
        _set_field(self, "values", values)

    @classmethod
    def of(cls, values: Iterable) -> MomentSequence:
        return cls(tuple(_frac(v) for v in values))

    @property
    def depth(self) -> int:
        return len(self.values)

    def moment(self, k: int) -> Fraction:
        _require_int(k, "moment index", 1, IndexError)
        if k > self.depth:
            raise IndexError(f"moment index {k} outside 1..{self.depth}")
        return self.values[k - 1]

    def __str__(self) -> str:
        return ", ".join(str(v) for v in self.values)

    def __repr__(self) -> str:
        return f"MomentSequence.of([{', '.join(repr(str(v)) for v in self.values)}])"

    def to_json_dict(self) -> dict:
        return {"moments": [str(v) for v in self.values]}


def moment_series(m: MomentSequence) -> TruncatedSeries:
    """The series m_1 z + m_2 z^2 + ... at order depth."""
    return TruncatedSeries((Fraction(0),) + m.values)


def _s_graded(m: MomentSequence) -> _Graded:
    """The s-transform as a graded series: (1+z) times the compositional
    inverse of z*M(z) over z, with M(z) = m_1 + m_2 z + ..."""
    return _one_plus_z(_lagrange(_reciprocal(_graded(m.values)), m.depth))


def s_transform(m: MomentSequence) -> TruncatedSeries:
    """(1+z)/z times the compositional inverse of the moment series,
    truncated at order depth - 1.  The constant term is always 1."""
    return TruncatedSeries(_fractions(_s_graded(m)))


def t_transform(m: MomentSequence) -> TruncatedSeries:
    """Reciprocal of the s-transform; its constant coefficient is 1."""
    return TruncatedSeries(_fractions(_reciprocal(_s_graded(m))))


def _t_coeffs(t: Sequence, n_max: int) -> list[Fraction]:
    ts = [_frac(x) for x in t]
    if not ts or ts[0] != 1:
        raise NormalizationError("t_0 must be 1")
    _require_int(n_max, "n_max")
    if len(ts) < n_max:
        raise ValueError(f"need coefficients t_0..t_{n_max - 1}, got {len(ts)}")
    return ts


def _cumulant_coeffs(kappa: Sequence, n_max: int) -> list[Fraction]:
    ks = [_frac(x) for x in kappa]
    _require_int(n_max, "n_max")
    if len(ks) < n_max:
        raise ValueError(f"need cumulants 1..{n_max}, got {len(ks)}")
    return ks


def moments_from_t(t: Sequence, n_max: int) -> MomentSequence:
    """Recover moments 1..n_max from reciprocal-s coefficients t_0..t_{n_max-1}.

    Inverse of `t_transform`: M^{<-1>}(z) = z/(1+z) * 1/T(z), so the moment
    series is the compositional inverse of z/((1+z)T(z)), found by Lagrange
    inversion on h = (1+z)T(z).  `moments_from_t_by_enumeration` is the
    defining sum over non-crossing partitions.
    """
    h = _one_plus_z(_graded(_t_coeffs(t, n_max)[:n_max]))
    return MomentSequence(_fractions(_lagrange(h, n_max)))


def moments_from_cumulants(kappa: Sequence, n_max: int) -> MomentSequence:
    """Moments 1..n_max from free cumulants 1..n_max.

    M(z) = C(zM(z)) with C(w) = 1 + sum kappa_n w^n, so zM(z) is the
    compositional inverse of w/C(w), found by Lagrange inversion on h = C.
    `moments_from_cumulants_by_enumeration` is the defining sum over
    non-crossing partitions.
    """
    c = _graded([Fraction(1), *_cumulant_coeffs(kappa, n_max)[:n_max]])
    return MomentSequence(_fractions(_lagrange(c, n_max + 1))[1:])


def cumulants_from_moments(m: MomentSequence) -> tuple[Fraction, ...]:
    """Free cumulants 1..depth: C(w) = w / P^{<-1>}(w) with P(z) = zM(z),
    from M(z) = C(zM(z)).  Two-sided inverse of `moments_from_cumulants`;
    `cumulants_from_moments_by_enumeration` is the defining recursion."""
    p_inv = _lagrange(_reciprocal(_graded((Fraction(1),) + m.values)), m.depth + 1)
    return _fractions(_reciprocal(p_inv))[1:]


def cumulants_from_t(t: Sequence, n_max: int) -> tuple[Fraction, ...]:
    """Free cumulants straight from reciprocal-s coefficients.

    The cumulant series K(z) = sum kappa_n z^n satisfies K^{<-1>}(z) =
    z S(z) = z/T(z), found by Lagrange inversion on h = T; the first
    cumulant is 1.  Agrees with `cumulants_from_moments` composed with
    `moments_from_t`; `cumulants_from_t_by_enumeration` is the sum over
    non-crossing partitions.
    """
    return _fractions(_lagrange(_graded(_t_coeffs(t, n_max)[:n_max]), n_max))


# The defining sums over non-crossing partitions: the oracles that the tests
# and `verify` check the routes above against.  Each sums over NC(n) at its
# own numbers, in integers, by `partitions._nc_weight_sums`: no Lagrange
# inversion and no step of the integer core.  The recursion is imported when
# an oracle runs, so that a transform request does not load the partition code.


def _nc_sums(values: Sequence[Fraction], n: int, outer: tuple, inner: tuple) -> list:
    """For m = 0..n, the sum over NC(m) of the products over blocks V of
    the sum of values[|V| + o] over the offsets o in ``inner`` if V is
    inner, else in ``outer``.  Over the values' common denominator d a
    weight is an integer over d, scaled here by d^(|V|-1): a partition of
    m weighs d^m times its weight, so the sums stay integers."""
    from .partitions import _nc_weight_sums

    d, nums = _common_denominator(values)
    sums = _nc_weight_sums(lambda k, is_inner: d ** (k - 1) * sum(
        nums[k + o] for o in (inner if is_inner else outer)))
    return [Fraction(s, d**m) for m, s in enumerate(islice(sums, n + 1))]


def moments_from_t_by_enumeration(t: Sequence, n_max: int) -> MomentSequence:
    """`moments_from_t` by its definition, which `moment_poly_inner_outer`
    expands: m_n sums over NC(n) the product of t_{|U|-1} over outer blocks
    U and (t_{|V|-1} + t_{|V|}) over inner blocks V, |V| <= n - 2, so the
    t_{n_max} that the recursion reads is never used: it is set to 0."""
    ts = [*_t_coeffs(t, n_max)[:n_max], 0]
    return MomentSequence(tuple(_nc_sums(ts, n_max, (-1,), (-1, 0))[1:]))


def moments_from_cumulants_by_enumeration(kappa: Sequence, n_max: int) -> MomentSequence:
    """`moments_from_cumulants` by its definition, which `cumulant_poly`
    expands: m_n sums over NC(n) the product of kappa_{|V|} over blocks V."""
    ks = [0, *_cumulant_coeffs(kappa, n_max)[:n_max]]
    return MomentSequence(tuple(_nc_sums(ks, n_max, (0,), (0,))[1:]))


def cumulants_from_moments_by_enumeration(m: MomentSequence) -> tuple[Fraction, ...]:
    """`cumulants_from_moments` by its definition, solved recursively:
    kappa_n is m_n less the sum over NC(n) of the products of kappa_{|V|}
    with kappa_n = 0, the one-block partition's only term.  Each n sums
    afresh, O(depth^4) in all, on kappa_s d^s, d the moments' common denominator."""
    from .partitions import _nc_weight_sums

    d, ks = _common_denominator(m.values)[0], [0]
    for n in range(1, m.depth + 1):
        ks.append(0)
        total = next(islice(_nc_weight_sums(lambda k, inner: ks[k]), n, None))
        ks[n] = int(m.moment(n) * d**n) - total
    return tuple(Fraction(k, d**s) for s, k in enumerate(ks) if s)


def cumulants_from_t_by_enumeration(t: Sequence, n_max: int) -> tuple[Fraction, ...]:
    """`cumulants_from_t` by its definition, which `cumulant_poly` expands:
    1 for n = 1, and the products of t_{|V|} summed over NC(n-1) for n >= 2."""
    return tuple(_nc_sums(_t_coeffs(t, n_max)[:n_max], n_max - 1, (0,), (0,)))
