"""Spans around the calls into nclab's public functions, recorded from the
benchmark's side (the library is not modified).

`Tracer.install` replaces every public function of the nclab modules --
as bound in every nclab module that imports it, so `series.enumerate_nc`
and `partitions.enumerate_nc` are both covered -- and the public methods
of their classes with wrappers that open a span on entry and close it on
exit.  For a generator function the span is each `next()`, so its time is
the time spent producing items.  A name called more than
`AGGREGATE_AFTER` times in one process is folded into one record per
(parent, name) from then on.

`self_times` and `summarize` turn the records into per-name self time
(duration minus the durations of direct children) and counts.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter
from time import perf_counter

MODULES = ("partitions", "linked", "series", "polynomials", "verify", "cli")
AGGREGATE_AFTER = 10_000

# Return values that carry counts: the verification results, and the number
# of coefficients a series conversion hands back.
_CHECK_RESULT_FUNCS = {"verify.verify_bijection", "verify.verify_counts",
                       "verify.verify_moments"}
_COEFF_FUNCS = {"series.moments_from_t", "series.moments_from_cumulants",
                "series.cumulants_from_moments", "series.cumulants_from_t"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, parent, start, end, yielded)
        self.aggregates: dict[tuple, list] = {}  # (parent, name) -> [id, n, dur, yielded]
        self.stack: list[int | None] = [None]
        self.opened: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.checked: Counter = Counter()
        self.coefficients = 0
        self._raised: list[BaseException] = []
        self._next_id = 0
        self.origin = perf_counter()

    # ----------------------------------------------------------- recording

    def _open(self, name: str):
        parent = self.stack[-1]
        self.opened[name] += 1
        agg = None
        if self.opened[name] > AGGREGATE_AFTER:
            agg = self.aggregates.get((parent, name))
            if agg is None:
                agg = self.aggregates[(parent, name)] = [self._next_id, 0, 0.0, 0]
                self._next_id += 1
            sid = agg[0]
        else:
            sid = self._next_id
            self._next_id += 1
        self.stack.append(sid)
        return sid, agg, perf_counter()

    def _close(self, name: str, handle, yielded: bool = False) -> None:
        end = perf_counter()
        self.stack.pop()
        sid, agg, start = handle
        if agg is None:
            self.spans.append((sid, name, self.stack[-1], start - self.origin,
                               end - self.origin, yielded))
        else:
            agg[1] += 1
            agg[2] += end - start
            agg[3] += yielded

    def _error(self, name: str, exc: BaseException) -> None:
        # count each exception once, in the layer it first escaped from
        if not any(exc is seen for seen in self._raised):
            self._raised.append(exc)
            self.errors[name.split(".")[0]] += 1

    def _record_result(self, name: str, result) -> None:
        if name in _CHECK_RESULT_FUNCS:
            for r in result:
                self.checked[r.identity] += r.checked
        elif name in _COEFF_FUNCS:
            self.coefficients += len(getattr(result, "values", result))

    # ------------------------------------------------------------ wrapping

    def wrap(self, name: str, func):
        tracer = self
        if inspect.isgeneratorfunction(func):
            def generator_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return tracer._iterate(name, func(*args, **kwargs))

            return generator_wrapper

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            handle = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer._error(name, exc)
                raise
            finally:
                tracer._close(name, handle)
            tracer._record_result(name, result)
            return result

        return wrapper

    def _iterate(self, name: str, gen):
        while True:
            handle = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                self._close(name, handle)
                return
            except BaseException as exc:
                self._error(name, exc)
                self._close(name, handle)
                raise
            self._close(name, handle, yielded=True)
            yield item

    def install(self, package: str = "nclab") -> None:
        """Wrap the public functions and methods of the nclab modules."""
        mods = [importlib.import_module(package)] + [
            importlib.import_module(f"{package}.{m}") for m in MODULES
        ]
        replaced: dict[int, object] = {}  # id of the original -> its wrapper
        for short, mod in zip(MODULES, mods[1:]):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_methods(f"{short}.{attr}", obj)
                elif callable(obj):
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):  # dispatch tables such as verify.SUITES
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(f"{prefix}.{attr}", obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(f"{prefix}.{attr}", obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", obj))

    # -------------------------------------------------------------- output

    def records(self, request: str) -> dict:
        """Spans and counts of this process, JSON-ready: names are indices
        into `names`, times are integer nanoseconds since the tracer began."""
        index: dict[str, int] = {}
        code = lambda name: index.setdefault(name, len(index))
        ns = lambda t: round(t * 1e9)
        spans = [[sid, code(name), parent, ns(start), ns(end), int(y)]
                 for sid, name, parent, start, end, y in self.spans]
        aggregates = [[sid, code(name), parent, n, ns(dur), y]
                      for (parent, name), (sid, n, dur, y) in self.aggregates.items()]
        return {
            "request": request,
            "names": list(index),
            "spans": spans,
            "aggregates": aggregates,
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "checked": dict(self.checked),
            "coefficients": self.coefficients,
        }


# ----------------------------------------------------------------- analysis
#
# A node is [id, name, parent, duration, count, yielded]: one span, or the
# folded calls of one name under one parent.

def nodes(rec: dict) -> list[list]:
    names = rec["names"]
    out = [[sid, names[code], parent, (end - start) / 1e9, 1, y]
           for sid, code, parent, start, end, y in rec["spans"]]
    out += [[sid, names[code], parent, dur / 1e9, n, y]
            for sid, code, parent, n, dur, y in rec["aggregates"]]
    return out


def self_times(nodes: list) -> dict[int, float]:
    """Node id -> its duration minus the durations of its direct children."""
    own = {node[0]: node[3] for node in nodes}
    for _, _, parent, dur, _, _ in nodes:
        if parent is not None:
            own[parent] -= dur
    return own


def _under(by_id: dict, node, prefix: str, memo: dict) -> bool:
    """Whether some ancestor of `node` has a name starting with `prefix`."""
    parent = node[2]
    if parent is None:
        return False
    if parent not in memo:
        pnode = by_id[parent]
        memo[parent] = pnode[1].startswith(prefix) or _under(by_id, pnode, prefix, memo)
    return memo[parent]


def summarize(rec: dict) -> dict:
    """Per-request figures from one process's records.

    `self_s` is keyed by span name and `module_self_s` by module; the
    module self times sum to `wall_s`, the duration of the root spans.
    """
    ns = nodes(rec)
    own = self_times(ns)
    by_id = {node[0]: node for node in ns}
    self_s: Counter = Counter()
    yielded: Counter = Counter()
    module_self: Counter = Counter()
    for sid, name, _, _, _, y in ns:
        self_s[name] += own[sid]
        yielded[name] += y
        module_self[name.split(".")[0]] += own[sid]
    memo_series: dict = {}
    memo_from_pair: dict = {}
    return {
        "request": rec["request"],
        "wall_s": sum(node[3] for node in ns if node[2] is None),
        "self_s": dict(self_s),
        "module_self_s": dict(module_self),
        "calls": rec["calls"],
        "yielded": dict(yielded),
        "errors": rec["errors"],
        "checked": rec["checked"],
        "coefficients": rec["coefficients"],
        "nc_under_series": sum(
            node[5] for node in ns if node[1] == "partitions.enumerate_nc"
            and _under(by_id, node, "series.", memo_series)),
        "make_linked_under_from_pair": sum(
            node[4] for node in ns if node[1] == "linked.make_linked"
            and _under(by_id, node, "linked.from_pair", memo_from_pair)),
    }
