"""Judging one request's exit code and standard output against its
`workloads.Expect`."""

from __future__ import annotations

import json
import re

import reference as ref
from workloads import ENUM_DIGESTS, Expect

SUITE_IDENTITIES = {
    "bijection": ("roundtrip-linked", "roundtrip-pairs"),
    "counts": ("ncl-three-way", "ncl-direct-oracle", "interval-products",
               "boolean-coarsenings"),
    "moments": ("four-routes", "per-partition-identity", "transform-roundtrips",
                "special-cases"),
}

_RESULT_RE = re.compile(r"(PASS|FAIL) (\w+)\.([\w-]+) .+? checked=(\d+)(?: .*)?\Z")


def expected_checked(identity: str, n: int) -> int | None:
    """How many objects an identity must visit at size n, from closed
    forms; None where the count is not a function of n (seeded data)."""
    nc_up_to = lambda cap: sum(ref.catalan(k) for k in range(1, min(n, cap) + 1))
    return {
        "roundtrip-linked": sum(ref.ncl_count(k) for k in range(1, n + 1)),
        "roundtrip-pairs": sum(ref.ncl_count(k) for k in range(1, n + 1)),
        "ncl-three-way": n,
        "ncl-direct-oracle": min(n, 7),
        "interval-products": nc_up_to(7),
        "boolean-coarsenings": nc_up_to(7),
        "four-routes": min(n, 8),
        "per-partition-identity": nc_up_to(6),
    }.get(identity)


def _check_enum(kind: str, n: int, as_json: bool, text: str) -> str | None:
    lines = text.splitlines()
    if not lines:
        return "empty output"
    want = ref.catalan(n) if kind == "nc" else ref.ncl_count(n)
    if as_json:
        try:
            records = [json.loads(line) for line in lines]
        except ValueError:
            return "output is not JSON lines"
        if records[-1] != {"count": want}:
            return f"last line {lines[-1]!r}, expected count {want}"
        extra = {"linked": True} if kind == "ncl" else {}
        objects = []
        for r in records[:-1]:
            blocks = r.get("blocks") if isinstance(r, dict) else None
            if r != {"n": n, "blocks": blocks, **extra} or not isinstance(blocks, list) \
                    or not all(isinstance(b, list) for b in blocks):
                return f"malformed object {r!r}"
            objects.append(ref.fmt_blocks(blocks))
    else:
        if lines[-1] != f"count={want}":
            return f"last line {lines[-1]!r}, expected count={want}"
        objects = lines[:-1]
    if len(objects) != want:
        return f"{len(objects)} objects, expected {want}"
    if ref.lines_digest(objects) != ENUM_DIGESTS[(kind, n)]:
        return "enumerated objects differ from the reference set"
    return None


def _check_verify(suite: str, n: int, as_json: bool, text: str) -> str | None:
    lines = text.splitlines()
    results = []
    if as_json:
        try:
            records = [json.loads(line) for line in lines]
        except ValueError:
            return "output is not JSON lines"
        if not all(isinstance(r, dict) for r in records):
            return "output is not JSON objects"
        summary = records.pop() if records else {}
        for r in records:
            results.append((r.get("pass") is True, r.get("suite"), r.get("identity"),
                            r.get("checked")))
        want_summary = {"summary": {"checks": len(results), "passed": len(results),
                                    "failed": 0}}
        if summary != want_summary:
            return f"summary {summary!r}"
    else:
        if not lines or lines[-1] != f"summary: {len(lines) - 1} checks, {len(lines) - 1} passed":
            return f"summary line {lines[-1] if lines else ''!r}"
        for line in lines[:-1]:
            m = _RESULT_RE.fullmatch(line)
            if not m:
                return f"unexpected line {line!r}"
            results.append((m[1] == "PASS", m[2], m[3], int(m[4])))
    names = tuple(identity for _, _, identity, _ in results)
    if names != SUITE_IDENTITIES[suite]:
        return f"identities {names}, expected {SUITE_IDENTITIES[suite]}"
    for passed, _, identity, checked in results:
        if not passed:
            return f"{identity} failed"
        want = expected_checked(identity, n)
        if not isinstance(checked, int) or checked < 1 or want not in (None, checked):
            return f"{identity} checked={checked}, expected {want}"
    return None


def check(expect: Expect, code: int, stdout: bytes) -> str | None:
    """None when the request behaved as expected, else what went wrong."""
    if code not in expect.exit_codes:
        return f"exit code {code}, expected {sorted(expect.exit_codes)}"
    try:
        text = stdout.decode()
    except UnicodeDecodeError:
        return "output is not UTF-8"
    if expect.stdout is not None:
        return None if text == expect.stdout else f"output {text[:200]!r}, expected {expect.stdout[:200]!r}"
    if expect.enum is not None:
        return _check_enum(*expect.enum, text)
    if expect.verify is not None:
        return _check_verify(*expect.verify, text)
    return None if text == "" else f"a rejected request printed {text[:200]!r}"
