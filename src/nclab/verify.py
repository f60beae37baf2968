"""Exhaustive verification suites over desk-scale ranges.

Each check pits an implementation against an independent route: the
pair-based linked-partition generator against the direct backtracking one,
closed-form counts against filtered enumeration, the closed-form moment
polynomial against the four enumerative routes, and the transform round
trips, on seeded random rational data, through both the functional-equation
routes and their enumeration oracles.  Everything is exact; a check either
holds or fails.  Each suite imports what only it uses, so ``verify
bijection`` and ``verify counts`` load neither `series` nor `polynomials`.

These suites are the one implementation of the headline identities: ``nclab
verify`` prints their results, and the acceptance tests run them at the
acceptance ranges and compare each ``checked`` count with its closed form.
`check_transform_roundtrips` takes the moment sequences it checks, so the
acceptance tests feed it a seeded draw of their own.
"""

from __future__ import annotations

from . import linked, partitions
from ._base import Record

# Low-order moment polynomials in their conventional printed form; the
# symbolic route must reproduce these strings byte for byte.
LOW_ORDER_MOMENT_TEXTS = {
    1: "1",
    2: "t1 + 1",
    3: "t2 + t1^2 + 3*t1 + 1",
    4: "t3 + 3*t2*t1 + t1^3 + 4*t2 + 6*t1^2 + 6*t1 + 1",
}

# Counts of non-crossing linked partitions for n = 1..7 (large Schroeder
# numbers r_0..r_6), pinned independently of both generators.
NCL_COUNT_PREFIX = (1, 2, 6, 22, 90, 394, 1806)

RANDOM_SEED = 20240911


class CheckResult(Record):
    """The outcome of one check: what it covered, how many objects it
    checked, and up to five failure messages.  Mutable while the check
    runs, so it is not hashable."""

    _fields = ("suite", "identity", "scope", "checked", "passed", "detail", "failures")

    def __init__(self, suite: str, identity: str, scope: str, checked: int,
                 passed: bool, detail: str = "", failures: list[str] | None = None) -> None:
        self.suite = suite
        self.identity = identity
        self.scope = scope
        self.checked = checked
        self.passed = passed
        self.detail = detail
        self.failures = [] if failures is None else failures

    def fail(self, message: str) -> None:
        self.passed = False
        if len(self.failures) < 5:
            self.failures.append(message)


def verify_bijection(n_max: int) -> list[CheckResult]:
    """Round trips of to_pair / from_pair over every object, both ways."""
    out = []

    res = CheckResult("bijection", "roundtrip-linked", f"n<={n_max}", 0, True)
    for n in range(1, n_max + 1):
        for p in linked.enumerate_ncl_direct(n):
            res.checked += 1
            a, b = linked.to_pair(p)
            if not partitions.endpoint_refines(a, b):
                res.fail(f"to_pair({p}) not an endpoint-refinement pair")
            if linked.from_pair(a, b) != p:
                res.fail(f"from_pair(to_pair({p})) != {p}")
    res.detail = f"round-trips={res.checked}"
    out.append(res)

    res = CheckResult("bijection", "roundtrip-pairs", f"n<={n_max}", 0, True)
    for n in range(1, n_max + 1):
        for b in partitions.enumerate_nc(n):
            for a in partitions.endpoint_refinements(b):
                res.checked += 1
                p = linked.from_pair(a, b)
                if linked.to_pair(p) != (a, b):
                    res.fail(f"to_pair(from_pair({a}, {b})) != ({a}, {b})")
    res.detail = f"round-trips={res.checked}"
    out.append(res)
    return out


def verify_counts(n_max: int) -> list[CheckResult]:
    """Counting identities: generators against closed forms and each other."""
    out = []

    res = CheckResult("counts", "ncl-three-way", f"n<={n_max}", 0, True)
    seq = []
    for n in range(1, n_max + 1):
        enumerated = sum(1 for _ in linked.enumerate_ncl(n))
        formula = linked.ncl_count(n)
        coloured = linked.coloured_count(n)
        rec = linked.schroder(n - 1)
        seq.append(formula)
        res.checked += 1
        if not enumerated == formula == coloured == rec:
            res.fail(
                f"n={n}: enumerate={enumerated} formula={formula} "
                f"coloured={coloured} schroder={rec}"
            )
    res.detail = "counts=" + ",".join(map(str, seq))
    out.append(res)

    res = CheckResult(
        "counts", "ncl-direct-oracle", f"n<={min(n_max, 7)}", 0, True
    )
    oracle_seq = []
    for n in range(1, min(n_max, 7) + 1):
        direct = sum(1 for _ in linked.enumerate_ncl_direct(n))
        oracle_seq.append(direct)
        res.checked += 1
        if direct != NCL_COUNT_PREFIX[n - 1] or direct != linked.ncl_count(n):
            res.fail(f"n={n}: direct oracle count {direct}")
    res.detail = "oracle-counts=" + ",".join(map(str, oracle_seq))
    out.append(res)

    # a << b on NC(n) by filtering, once per n, read both ways
    cap = min(n_max, 7)
    ncs = [list(partitions.enumerate_nc(n)) for n in range(1, cap + 1)]
    refining = {b: {a for a in ncn if partitions.endpoint_refines(a, b)}
                for ncn in ncs for b in ncn}
    coarsening = {a: set() for a in refining}
    for b, lower in refining.items():
        for a in lower:
            coarsening[a].add(b)

    res = CheckResult("counts", "interval-products", f"n<={cap}", 0, True)
    for b, filtered in refining.items():
        res.checked += 1
        if len(filtered) != partitions.count_endpoint_refinements(b):
            res.fail(f"{b}: filter={len(filtered)}")
        below = list(partitions.endpoint_refinements(b))
        if len(below) != len(filtered) or set(below) != filtered:
            res.fail(f"{b}: blockwise enumeration mismatch")
    out.append(res)

    res = CheckResult("counts", "boolean-coarsenings", f"n<={cap}", 0, True)
    for a, filtered in coarsening.items():
        res.checked += 1
        if len(filtered) != partitions.count_endpoint_coarsenings(a):
            res.fail(f"{a}: filter count {len(filtered)}")
        produced = list(partitions.endpoint_coarsenings(a))
        if {b for b, _ in produced} != filtered:
            res.fail(f"{a}: constructed coarsenings differ from filter")
        specials = [v for _, v in produced]
        if len(set(specials)) != len(specials):
            res.fail(f"{a}: special sets not distinct")
        outer = a.outer_indices
        if any(not v >= outer for v in specials):
            res.fail(f"{a}: a special set misses an outer block")
        if any(partitions._special_blocks(a, b) != v for b, v in produced):
            res.fail(f"{a}: a special set differs from its definition")
    out.append(res)
    return out


def check_transform_roundtrips(sequences: list) -> CheckResult:
    """The transform calculus on the given moment sequences: S * (1/S) = 1,
    the functional-equation routes against their enumeration oracles, and
    the round trips through T and through the cumulants.  The scope names
    the depths and the number of sequences, as ``depth=8 x100``."""
    from . import series

    depths = ",".join(map(str, sorted({m.depth for m in sequences})))
    res = CheckResult("moments", "transform-roundtrips",
                      f"depth={depths} x{len(sequences)}", 0, True)
    for m in sequences:
        res.checked += 1
        depth = m.depth
        s = series.s_transform(m)
        t = series.t_transform(m)
        if s * t != series.TruncatedSeries.of(1, *[0] * (depth - 1)):
            res.fail(f"S*(1/S) != 1 for {m}")
        if series.moments_from_t(t.coeffs, depth) != m:
            res.fail(f"moments_from_t(t_transform) != id for {m}")
        if series.moments_from_t_by_enumeration(t.coeffs, depth) != m:
            res.fail(f"moments_from_t_by_enumeration(t_transform) != id for {m}")
        kappa = series.cumulants_from_moments(m)
        if series.cumulants_from_t(t.coeffs, depth) != kappa:
            res.fail(f"cumulant routes disagree for {m}")
        if (series.cumulants_from_t_by_enumeration(t.coeffs, depth) != kappa
                or series.cumulants_from_moments_by_enumeration(m) != kappa):
            res.fail(f"cumulant oracles disagree with the fast routes for {m}")
        if series.moments_from_cumulants(kappa, depth) != m:
            res.fail(f"moments_from_cumulants(cumulants_from_moments) != id for {m}")
    return res


def verify_moments(n_max: int) -> list[CheckResult]:
    """Moment-polynomial routes, the per-partition cumulant identity, and
    the transform calculus on seeded random data."""
    import random
    from fractions import Fraction

    from . import polynomials, series

    out = []

    # the identity keeps its name: the four enumerative routes, p1..p4, are
    # the oracles of the closed form p0
    cap = min(n_max, 8)
    res = CheckResult("moments", "four-routes", f"n<={cap}", 0, True)
    for n in range(1, cap + 1):
        res.checked += 1
        p0 = polynomials.moment_poly(n)
        p1 = polynomials.moment_poly_linked(n)
        p2 = polynomials.moment_poly_pairs(n)
        p3 = polynomials.moment_poly_inner_outer(n)
        p4 = polynomials.moment_poly_cumulants(n)
        if not p0 == p1 == p2 == p3 == p4:
            res.fail(f"n={n}: routes disagree")
        if any(c <= 0 for _, c in p1.terms):
            res.fail(f"n={n}: non-positive coefficient")
        if n in LOW_ORDER_MOMENT_TEXTS and p1.to_text() != LOW_ORDER_MOMENT_TEXTS[n]:
            res.fail(f"n={n}: text {p1.to_text()!r}")
    out.append(res)

    cap = min(n_max, 6)
    res = CheckResult("moments", "per-partition-identity", f"n<={cap}", 0, True)
    for n in range(1, cap + 1):
        for b in partitions.enumerate_nc(n):
            res.checked += 1
            if not polynomials.cumulant_product_identity(b):
                res.fail(f"identity fails at {b}")
    out.append(res)

    rng = random.Random(RANDOM_SEED)
    out.append(check_transform_roundtrips([
        series.MomentSequence.of([1] + [
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(7)
        ])
        for _ in range(100)
    ]))

    res = CheckResult("moments", "special-cases", "depth=8", 0, True)
    depth = 8
    cat = [partitions.catalan(k) for k in range(1, depth + 1)]
    m = series.moments_from_t([1, 1] + [0] * (depth - 2), depth)
    res.checked += 1
    if list(m.values) != cat:
        res.fail(f"t=(1,1,0,...) moments {m}")
    if set(series.cumulants_from_moments(m)) != {Fraction(1)}:
        res.fail("t=(1,1,0,...) cumulants not all 1")
    m = series.moments_from_t([1] + [0] * (depth - 1), depth)
    res.checked += 1
    if set(m.values) != {Fraction(1)}:
        res.fail(f"t=(1,0,...) moments {m}")
    out.append(res)
    return out


SUITES = {
    "bijection": verify_bijection,
    "counts": verify_counts,
    "moments": verify_moments,
}


def run_suite(name: str, n_max: int) -> list[CheckResult]:
    if name == "all":
        results = []
        for fn in SUITES.values():
            results.extend(fn(n_max))
        return results
    return SUITES[name](n_max)
