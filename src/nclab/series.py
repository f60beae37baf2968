"""Exact truncated power series over rationals and the moment transforms.

Coefficients are `fractions.Fraction`; nothing is ever rounded.  A series
carries an explicit truncation order: ``coeffs`` holds exactly order + 1
coefficients, and arithmetic results carry the minimum order of their
inputs, so nothing beyond the order is ever read as a silent zero.

The moment calculus assumes the standing normalization: the first moment
is 1.  Inputs violating it raise `NormalizationError`.

The conversions between moment, t- and cumulant sequences solve their
functional equations by Lagrange inversion, in O(n^3) exact operations at
depth n.  Each keeps its defining sum over non-crossing partitions as a
``*_by_enumeration`` oracle, which costs Catalan time.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from ._base import Frozen, NormalizationError, _require_positive, _set_field


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("float coefficients are not exact; pass Fraction, int or 'p/q'")
    return Fraction(x)


def _common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The least common denominator d of ``values`` and their numerators
    over it: value i is numerators[i] / d."""
    d = lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


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
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(self.coeffs[: order + 1])

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        # zip stops at the shorter series: the lower truncation order
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return TruncatedSeries(tuple(out))

    def reciprocal(self) -> TruncatedSeries:
        """Multiplicative inverse up to the truncation order."""
        f = self.coeffs
        if f[0] == 0:
            raise ValueError("series with zero constant term has no reciprocal")
        n = self.order
        g = [1 / f[0]] + [Fraction(0)] * n
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += f[j] * g[k - j]
            g[k] = -acc / f[0]
        return TruncatedSeries(tuple(g))

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """self(inner(z)); the inner series must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        n = min(self.order, inner.order)
        zeros = (Fraction(0),) * n
        result = TruncatedSeries((self.coeffs[n],) + zeros)
        for c in reversed(self.coeffs[:n]):  # Horner: result * inner + c
            result = result * inner + TruncatedSeries((c,) + zeros)
        return result

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
        return _lagrange(TruncatedSeries(f[1:]).reciprocal(), self.order)

    def __str__(self) -> str:
        return ", ".join(str(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries.of({', '.join(repr(str(c)) for c in self.coeffs)})"

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


def _lagrange(h: TruncatedSeries, n: int) -> TruncatedSeries:
    """The series g = z*h(g) at order n, i.e. the compositional inverse of
    z/h(z); h needs a nonzero constant term and order at least n - 1.

    Lagrange inversion: [z^k] g = [w^(k-1)] h^k / k, with the powers of h
    built one after another -- n products of order n - 1, O(n^3) in all.
    The powers are kept as integer numerators over d^k, d the common
    denominator of h, so the products need no gcd per operation.
    """
    d, power = _common_denominator(h.truncate(n - 1).coeffs)  # h^k = power / d^k
    base = [(j, b) for j, b in enumerate(power) if b]
    g = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        g[k] = Fraction(power[k - 1], k * d**k)
        if k < n:
            nxt = [0] * n
            for i, a in enumerate(power):
                if a:
                    for j, b in base:
                        if i + j >= n:
                            break
                        nxt[i + j] += a * b
            power = nxt
    return TruncatedSeries(tuple(g))


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
        if not 1 <= k <= self.depth:
            raise IndexError(f"moment index {k} outside 1..{self.depth}")
        return self.values[k - 1]

    def __str__(self) -> str:
        return ", ".join(str(v) for v in self.values)

    def __repr__(self) -> str:
        return f"MomentSequence.of([{', '.join(repr(str(v)) for v in self.values)}])"


def moment_series(m: MomentSequence) -> TruncatedSeries:
    """The series m_1 z + m_2 z^2 + ... at order depth."""
    return TruncatedSeries((Fraction(0),) + m.values)


def s_transform(m: MomentSequence) -> TruncatedSeries:
    """(1+z)/z times the compositional inverse of the moment series,
    truncated at order depth - 1.  The constant term is always 1."""
    inv = moment_series(m).comp_inverse()
    shifted = inv.coeffs[1:]  # divide by z
    n = len(shifted)
    out = list(shifted)
    for k in range(1, n):
        out[k] += shifted[k - 1]
    return TruncatedSeries(tuple(out))


def t_transform(m: MomentSequence) -> TruncatedSeries:
    """Reciprocal of the s-transform; its constant coefficient is 1."""
    return s_transform(m).reciprocal()


def _t_coeffs(t: Sequence, n_max: int) -> list[Fraction]:
    ts = [_frac(x) for x in t]
    if not ts or ts[0] != 1:
        raise NormalizationError("t_0 must be 1")
    _require_positive(n_max, "n_max")
    if len(ts) < n_max:
        raise ValueError(f"need coefficients t_0..t_{n_max - 1}, got {len(ts)}")
    return ts


def _cumulant_coeffs(kappa: Sequence, n_max: int) -> list[Fraction]:
    ks = [_frac(x) for x in kappa]
    _require_positive(n_max, "n_max")
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
    ts = _t_coeffs(t, n_max)
    h = (ts[0],) + tuple(ts[k] + ts[k - 1] for k in range(1, n_max))
    return MomentSequence(_lagrange(TruncatedSeries(h), n_max).coeffs[1:])


def moments_from_cumulants(kappa: Sequence, n_max: int) -> MomentSequence:
    """Moments 1..n_max from free cumulants 1..n_max.

    M(z) = C(zM(z)) with C(w) = 1 + sum kappa_n w^n, so zM(z) is the
    compositional inverse of w/C(w), found by Lagrange inversion on h = C.
    `moments_from_cumulants_by_enumeration` is the defining sum over
    non-crossing partitions.
    """
    ks = _cumulant_coeffs(kappa, n_max)
    c = TruncatedSeries((Fraction(1),) + tuple(ks[:n_max]))
    return MomentSequence(_lagrange(c, n_max + 1).coeffs[2:])


def cumulants_from_moments(m: MomentSequence) -> tuple[Fraction, ...]:
    """Free cumulants 1..depth: C(w) = w / P^{<-1>}(w) with P(z) = zM(z),
    from M(z) = C(zM(z)).  Two-sided inverse of `moments_from_cumulants`;
    `cumulants_from_moments_by_enumeration` is the defining recursion."""
    p_inv = TruncatedSeries((Fraction(0), Fraction(1)) + m.values).comp_inverse()
    return TruncatedSeries(p_inv.coeffs[1:]).reciprocal().coeffs[1:]


def cumulants_from_t(t: Sequence, n_max: int) -> tuple[Fraction, ...]:
    """Free cumulants straight from reciprocal-s coefficients.

    The cumulant series K(z) = sum kappa_n z^n satisfies K^{<-1>}(z) =
    z S(z) = z/T(z), found by Lagrange inversion on h = T; the first
    cumulant is 1.  Agrees with `cumulants_from_moments` composed with
    `moments_from_t`; `cumulants_from_t_by_enumeration` is the sum over
    non-crossing partitions.
    """
    ts = _t_coeffs(t, n_max)
    return _lagrange(TruncatedSeries(tuple(ts[:n_max])), n_max).coeffs[1:]


# The defining sums over non-crossing partitions: Catalan-time oracles that
# the tests and `verify` check the routes above against.  Each evaluates the
# polynomial of `polynomials` with the same definition, imported here so
# that a transform request does not load that module.


def moments_from_t_by_enumeration(t: Sequence, n_max: int) -> MomentSequence:
    """`moments_from_t` by its definition, `moment_poly_inner_outer(n)` at t:
    m_n sums over NC(n) the product of t_{|U|-1} over outer blocks U and
    (t_{|V|-1} + t_{|V|}) over inner blocks V."""
    from .polynomials import moment_poly_inner_outer

    ts = _t_coeffs(t, n_max)
    return MomentSequence(tuple(
        moment_poly_inner_outer(n).evaluate(ts) for n in range(1, n_max + 1)))


def moments_from_cumulants_by_enumeration(kappa: Sequence, n_max: int) -> MomentSequence:
    """`moments_from_cumulants` by its definition, `cumulant_poly(n + 1)` at
    t_i = kappa_i: m_n sums over NC(n) the product of kappa_{|V|} over
    blocks V."""
    from .polynomials import cumulant_poly

    ks = (0, *_cumulant_coeffs(kappa, n_max))
    return MomentSequence(tuple(
        cumulant_poly(n + 1).evaluate(ks) for n in range(1, n_max + 1)))


def cumulants_from_moments_by_enumeration(m: MomentSequence) -> tuple[Fraction, ...]:
    """`cumulants_from_moments` by its definition, solved recursively:
    kappa_n is m_n less `cumulant_poly(n + 1)` at t_i = kappa_i, kappa_n = 0,
    as the one-block partition of {1..n} gives its only term in kappa_n."""
    from .polynomials import cumulant_poly

    ks = [Fraction(0)]  # t0 is not read
    for n in range(1, m.depth + 1):
        ks.append(Fraction(0))
        ks[n] = m.moment(n) - cumulant_poly(n + 1).evaluate(ks)
    return tuple(ks[1:])


def cumulants_from_t_by_enumeration(t: Sequence, n_max: int) -> tuple[Fraction, ...]:
    """`cumulants_from_t` by its definition, `cumulant_poly(n)` at t: the
    products of t_{|V|} summed over NC(n-1) for n >= 2, and 1 for n = 1."""
    from .polynomials import cumulant_poly

    ts = _t_coeffs(t, n_max)
    return tuple(cumulant_poly(n).evaluate(ts) for n in range(1, n_max + 1))
