"""Command-line front end.

Subcommands: enumerate, map, count, moments, transform, verify.  Human
output is meant for eyes; ``--json`` emits one JSON object per line and is
byte-deterministic.  Each handler computes its result once and hands both
forms to one writer, `_emit`, which picks one; ``enumerate`` writes past
it the line chunks of `partitions._nc_lines` or `_text_chunks`.  Exit
codes: 0 success, 1 verification failure, 2 usage error, 3 domain
precondition failure, 4 normalization failure, 70 a fault of the program
(an exception other than the library's errors, which `_base` defines so
that catching them loads nothing), 141 a closed stdout.

`main` runs one command line and returns its exit code.  `run` ends every
CLI process: it calls `main`, flushes stdout and stderr and skips the
interpreter's teardown, which costs about 10 ms of every request.

Sizes are guarded by a limit (default 12) to prevent accidental
combinatorial explosion; override with ``--limit`` or the NCLAB_LIMIT
environment variable.

The command line's grammar is one table, `_GRAMMAR`.  `_fast_args` reads
a command line in its canonical form straight from the table: the
options of ``nclab`` itself, the command, all of its positionals, then
its options, each once and spelled in full.  Any other command line goes
to the argparse parser that `build_parser` builds from the table, so
argparse alone writes help and usage errors, and a well-formed request
does not pay for importing argparse and building its parsers.

Each command loads only the library modules it uses, inside its handler:
a request is mostly interpreter start-up and import, so ``moments --t``,
``moments --cumulants`` and ``transform`` load `series` alone, and
``enumerate``, ``map`` and ``count`` load `partitions` and `linked`, and
``moments --symbolic`` loads `polynomials` alone.
"""

from __future__ import annotations

import os
import re
import sys
from functools import cache
from types import SimpleNamespace

from ._base import (
    MAX_DIGITS,
    InvalidLinkedPartitionError,
    InvalidPairError,
    InvalidPartitionError,
    NormalizationError,
    ParseError,
    SizeError,
    _clipped,
    _quoted,
    _require_int,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NORMALIZATION = 4
EXIT_FAULT = 70  # EX_SOFTWARE
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

# the library's errors of a domain precondition; any other ValueError is a
# fault of the program
_DOMAIN_ERRORS = (SizeError, InvalidPairError, InvalidPartitionError,
                  InvalidLinkedPartitionError, ParseError)

DEFAULT_LIMIT = 12

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


class UsageError(Exception):
    pass


def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text):
        raise UsageError(f"cannot parse rational {_quoted(text)} "
                         "(use p or p/q, no decimals)")
    longest = max(len(part) for part in text.lstrip("+-").split("/"))
    if longest > MAX_DIGITS:
        raise UsageError(f"a rational has {longest} digits in one part, "
                         f"more than {MAX_DIGITS}")
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"rational {_quoted(text)} has a zero denominator") from None


def _parse_rational_list(text: str) -> list[Fraction]:
    return [_parse_rational(part) for part in text.split(",")]


@cache
def _json_encoder():
    """The ``encode`` of one encoder for every JSON line, built on first
    use: only ``--json`` output loads `json`.  An object of the library
    is encoded as its ``to_json_dict()``, so a handler can pass the object
    and only the form written is built.  What it encodes holds no cycles,
    so the circular-reference check is skipped."""
    import json

    return json.JSONEncoder(separators=(",", ":"), check_circular=False,
                            default=lambda obj: obj.to_json_dict()).encode


def _emit(args, record, text) -> None:
    """Write one result: ``record`` as a compact JSON line under ``--json``,
    else ``text``: a string, an object whose ``str`` is the text, or a
    function that returns it.  Neither form is formatted unless it is
    written, and it is written with CPython's int-to-str digit limit lifted:
    input is bounded by MAX_DIGITS before it is parsed, but an answer such
    as the Catalan number of 8000 has more digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        print(_json_encoder()(record) if args.json else text() if callable(text) else text)
    finally:
        sys.set_int_max_str_digits(limit)


def _resolve_limit(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("NCLAB_LIMIT")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"NCLAB_LIMIT={_quoted(env)} is not an integer") from None
    return DEFAULT_LIMIT


def _check_size(n: int, limit: int, what: str = "n") -> None:
    _require_int(n, what, 1, UsageError)
    if n > limit:
        raise UsageError(f"{what}={n} exceeds the size limit {limit} "
                         f"(raise it with --limit or NCLAB_LIMIT)")


def _read_blocks(text: str, limit: int, make):
    """Parse block text, bound its largest label by the size limit, then
    build the object with `make`: a size over the limit is a usage error
    (exit 2) and must win over the domain error (exit 3) that `make` raises
    on the same text.  Text that does not parse is a usage error."""
    from .partitions import ParseError, parse_blocks_text

    try:
        n, blocks = parse_blocks_text(text)
    except ParseError as exc:
        raise UsageError(str(exc)) from None
    _check_size(n, limit)
    return make(n, blocks)


_MAX_MESSAGE = 200

# The grammar of the command line, written once: under None the top-level
# parser's description and its options, which come before the command;
# then each command, in the order of the help text, with its help and its
# arguments in order.  An argument is a positional's dest or an option's
# flag, with its `add_argument` settings.  `build_parser` builds argparse's
# parser from it, and `_fast_args` reads canonical command lines by it.
_FLAG = dict(action="store_true")
_GRAMMAR = {
    None: ("Non-crossing (linked) partition combinatorics and the exact "
           "moment-transform calculus built on them.", [
        ("--limit", dict(type=int, default=None,
                         help=f"size guard for all n arguments (default {DEFAULT_LIMIT}; "
                         "env NCLAB_LIMIT)")),
    ]),
    "enumerate": ("list all objects of a given size", [
        ("kind", dict(choices=["nc", "ncl"],
                      help="nc: non-crossing partitions; ncl: non-crossing linked")),
        ("n", dict(type=int)),
        ("--json", _FLAG),
    ]),
    "map": ("apply the linked-partition bijection", [
        ("direction", dict(choices=["to-pair", "from-pair"])),
        ("objects", dict(nargs="+", metavar="OBJECT",
                         help="to-pair: one linked partition; from-pair: alpha beta")),
        ("--details", dict(action="store_true",
                           help="also print the unlinking and the block-cycle permutation")),
        ("--json", _FLAG),
    ]),
    "count": ("exact counts", [
        ("kind", dict(choices=["nc", "ncl", "coloured", "below-ll", "above-ll"])),
        ("argument", dict(help="a size for nc/ncl/coloured, a partition for the rest")),
        ("--json", _FLAG),
    ]),
    "moments": ("moment sequences and moment polynomials", [
        ("--t", dict(dest="t_coeffs", metavar="LIST",
                     help="reciprocal-s coefficients t0,t1,... (t0 must be 1; "
                     "missing tail coefficients are taken as 0)")),
        ("--cumulants", dict(metavar="LIST",
                             help="free cumulants k1,k2,... (missing tail taken as 0)")),
        ("--symbolic", dict(type=int, metavar="N",
                            help="print the N-th moment polynomial in t1, t2, ...")),
        ("--n", dict(dest="n_max", type=int, help="number of moments")),
        ("--json", _FLAG),
    ]),
    "transform": ("convert a moment sequence", [
        ("--moments", dict(required=True, metavar="LIST")),
        ("--to", dict(required=True, choices=["s", "t", "r"])),
        ("--order", dict(type=int, default=None)),
        ("--json", _FLAG),
    ]),
    "verify": ("run the exhaustive identity suites", [
        ("suite", dict(choices=["bijection", "counts", "moments", "all"])),
        ("n", dict(type=int, help="largest ground-set size to check")),
        ("--json", _FLAG),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    """argparse's parser of `_GRAMMAR`.  It reads every command line that
    `_fast_args` leaves, so it alone writes help and usage errors; it is
    also the oracle that `_fast_args` is tested against."""
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        """argparse quotes a rejected argument whole; a message longer than
        _MAX_MESSAGE characters is cut to that prefix plus its length, so
        that stderr does not grow with the input.  The help is written
        without argparse's `_print_message`, which ignores a failed write,
        so that a closed stdout reaches `run`.  Subparsers use the same
        class."""

        def error(self, message: str):
            super().error(_clipped(message, _MAX_MESSAGE))

        def print_help(self, file=None) -> None:
            (file or sys.stdout).write(self.format_help())

    description, options = _GRAMMAR[None]
    parser = _ArgumentParser(prog="nclab", description=description)
    for flag, settings in options:
        parser.add_argument(flag, **settings)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments) in _GRAMMAR.items():
        if command is not None:
            p = sub.add_parser(command, help=help_text)
            for name, settings in arguments:
                p.add_argument(name, **settings)
    return parser


def _fast_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser`'s parser makes of ``argv``, read by
    `_GRAMMAR` without argparse, when ``argv`` has the canonical form: the
    top-level options, the command, all of its positionals, then its
    options.  Each option comes at most once and spelled in full, no value
    starts with "-", every value converts to its type and is among its
    choices, and every required option is there.  Else None, and argparse
    reads ``argv``."""
    args: dict = {}
    at = _fast_options(_GRAMMAR[None][1], argv, 0, args)
    if at is None or at == len(argv) or argv[at] not in _GRAMMAR:
        return None
    args["command"] = command = argv[at]
    arguments = _GRAMMAR[command][1]
    at += 1
    for name, settings in arguments:
        if name.startswith("-"):
            continue
        end = at + 1
        if settings.get("nargs") == "+":
            while end < len(argv) and not argv[end].startswith("-"):
                end += 1
        values = [_fast_value(settings, word) for word in argv[at:end]]
        if not values or None in values:
            return None
        args[name] = values if "nargs" in settings else values[0]
        at = end
    if _fast_options(arguments, argv, at, args) != len(argv):
        return None
    return SimpleNamespace(**args)


def _fast_options(arguments, argv: list[str], at: int, args: dict) -> int | None:
    """Set in ``args`` the options among ``arguments``, to their defaults
    and then to the words of ``argv`` from ``at`` on up to the first word
    that does not start with "-"; return that word's index, or None where
    argparse might read the options otherwise."""
    options = {}
    for name, settings in arguments:
        if name.startswith("-"):
            dest = settings.get("dest", name.lstrip("-").replace("-", "_"))
            options[name] = dest, settings
            flag = settings.get("action") == "store_true"
            args[dest] = False if flag else settings.get("default")
    while at < len(argv) and argv[at].startswith("-"):
        dest, settings = options.pop(argv[at], (None, None))  # each option once
        if dest is None:
            return None
        if settings.get("action") == "store_true":
            args[dest] = True
            at += 1
            continue
        value = _fast_value(settings, argv[at + 1]) if at + 1 < len(argv) else None
        if value is None:
            return None
        args[dest] = value
        at += 2
    if any(settings.get("required") for _, settings in options.values()):
        return None
    return at


def _fast_value(settings: dict, word: str):
    """``word`` converted as argparse converts an argument with these
    settings, or None where argparse would read it otherwise or reject it."""
    if word.startswith("-"):
        return None
    if "type" in settings:
        try:
            word = settings["type"](word)
        except ValueError:
            return None
    return word if word in settings.get("choices", (word,)) else None


def _cmd_enumerate(args, limit: int) -> int:
    _check_size(args.n, limit)
    from .partitions import _nc_lines, _text_chunks

    if args.kind == "nc":
        chunks = _nc_lines(args.n, args.json)
    else:
        from .linked import LinkedPartition, enumerate_ncl

        chunks = _text_chunks(map(LinkedPartition.to_text, enumerate_ncl(args.n)),
                              f'{{"n":{args.n},"blocks":[' if args.json else None,
                              '],"linked":true}')
    count = 0
    for lines, chunk in chunks:
        count += lines
        sys.stdout.write(chunk)
    _emit(args, {"count": count}, f"count={count}")
    return EXIT_OK


def _cmd_map(args, limit: int) -> int:
    from . import linked, partitions

    if args.direction == "to-pair":
        if len(args.objects) != 1:
            raise UsageError("to-pair takes exactly one linked partition")
        p = _read_blocks(args.objects[0], limit, linked.make_linked)
        alpha, beta = linked.to_pair(p)
        result = record = {"alpha": alpha, "beta": beta}
        details = {"unlinking": linked.unlink(p),
                   "permutation": partitions.block_cycles(beta)} if args.details else {}
    else:
        if len(args.objects) != 2:
            raise UsageError("from-pair takes exactly two partitions: alpha beta")
        a, b = (_read_blocks(text, limit, partitions.make_partition) for text in args.objects)
        p = linked.from_pair(a, b)
        result = {"linked": p}
        record = p.to_json_dict()  # a linked partition's JSON form carries "linked": true
        details = {"permutation": partitions.block_cycles(b),
                   "unlinking": linked.unlink(p)} if args.details else {}
    text = "\n".join(f"{label}: {obj}" if args.details else str(obj)
                     for label, obj in {**details, **result}.items())
    _emit(args, {**details, **record}, text)
    return EXIT_OK


def _cmd_count(args, limit: int) -> int:
    from . import partitions

    if args.kind in ("nc", "ncl", "coloured"):
        try:
            n = int(args.argument)
        except ValueError:
            raise UsageError(f"{args.kind} needs an integer size, "
                             f"got {_quoted(args.argument)}") from None
        _check_size(n, limit)
        if args.kind == "nc":
            value = partitions.catalan(n)
        else:
            from . import linked

            value = linked.ncl_count(n) if args.kind == "ncl" else linked.coloured_count(n)
    else:
        p = _read_blocks(args.argument, limit, partitions.make_partition)
        if args.kind == "below-ll":
            value = partitions.count_endpoint_refinements(p)
        else:
            value = partitions.count_endpoint_coarsenings(p)
    _emit(args, {"count": value}, value)
    return EXIT_OK


def _cmd_moments(args, limit: int) -> int:
    sources = [s for s in (args.t_coeffs, args.cumulants) if s is not None]
    if args.symbolic is not None:
        if sources or args.n_max is not None:
            raise UsageError("--symbolic excludes --t/--cumulants/--n")
        _check_size(args.symbolic, limit)
        from .polynomials import moment_poly

        poly = moment_poly(args.symbolic)
        _emit(args, poly, poly)
        return EXIT_OK
    if len(sources) != 1:
        raise UsageError("pass exactly one of --t, --cumulants, --symbolic")
    if args.n_max is None:
        raise UsageError("--n is required with --t/--cumulants")
    _check_size(args.n_max, limit)
    from fractions import Fraction

    from . import series

    coeffs = _parse_rational_list(sources[0])
    coeffs += [Fraction(0)] * (args.n_max - len(coeffs))
    if args.t_coeffs is not None:
        m = series.moments_from_t(coeffs, args.n_max)
    else:
        m = series.moments_from_cumulants(coeffs, args.n_max)
    _emit(args, m, m)
    return EXIT_OK


def _cmd_transform(args, limit: int) -> int:
    from . import series

    values = _parse_rational_list(args.moments)
    _check_size(len(values), limit, "depth")
    m = series.MomentSequence.of(values)
    if args.to == "r":
        s = series.TruncatedSeries.of(0, *series.cumulants_from_moments(m))
    else:
        s = series.s_transform(m) if args.to == "s" else series.t_transform(m)
    if args.order is not None:
        if not 0 <= args.order <= s.order:
            raise UsageError(f"--order must be 0..{s.order} "
                             + ("for r" if args.to == "r" else f"for depth {m.depth}"))
        s = s.truncate(args.order)
    # the R-transform's text leaves out its zero constant term
    _emit(args, s, (lambda: ", ".join(map(str, s.coeffs[1:]))) if args.to == "r" else s)
    return EXIT_OK


def _cmd_verify(args, limit: int) -> int:
    _check_size(args.n, limit)
    from .verify import run_suite

    results = run_suite(args.suite, args.n)
    failed = sum(not r.passed for r in results)
    for r in results:
        record = {"suite": r.suite, "identity": r.identity, "range": r.scope,
                  "checked": r.checked, "pass": r.passed}
        line = (f"{'PASS' if r.passed else 'FAIL'} {r.suite}.{r.identity} "
                f"{r.scope} checked={r.checked}")
        if r.detail:
            record["detail"] = r.detail
            line += f" {r.detail}"
        if r.failures:
            record["failures"] = r.failures
        _emit(args, record, "\n".join([line, *(f"    {msg}" for msg in r.failures)]))
    _emit(args, {"summary": {"checks": len(results), "passed": len(results) - failed,
                             "failed": failed}},
          f"summary: {len(results)} checks, {len(results) - failed} passed")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


_DISPATCH = {
    "enumerate": _cmd_enumerate,
    "map": _cmd_map,
    "count": _cmd_count,
    "moments": _cmd_moments,
    "transform": _cmd_transform,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.  A usage, domain or
    normalization error is written to stderr as one line; any other
    exception propagates, as a fault of the program."""
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv) or build_parser().parse_args(argv)
    try:
        limit = _resolve_limit(args.limit)
        return _DISPATCH[args.command](args, limit)
    except UsageError as exc:
        code, message = EXIT_USAGE, exc
    except NormalizationError as exc:
        code, message = EXIT_NORMALIZATION, exc
    except _DOMAIN_ERRORS as exc:
        code, message = EXIT_DOMAIN, exc
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:  # a closed stderr loses the line, not the exit code
        pass
    return code


def run() -> NoReturn:
    """The end of ``python -m nclab``, ``python -m nclab.cli`` and the
    ``nclab`` console script: run `main`, flush stdout and stderr, and end
    the process with `os._exit`, skipping the interpreter's teardown.  The
    flushes are all that teardown does for nclab, which registers no
    `atexit` handler, starts no thread and writes only stdout and stderr.
    A closed stdout exits 141 with nothing on stderr; an exception that
    escapes `main` prints its traceback and exits 70.  A closed stderr
    leaves the exit code as it is.  Code that embeds the CLI calls
    `main`, which returns."""
    try:
        code = main()
    except SystemExit as exc:  # argparse, after help or a usage error
        code = exc.code
    except BrokenPipeError:  # what stdout still buffers cannot be written either
        os._exit(EXIT_BROKEN_PIPE)
    except Exception:
        import traceback

        code = EXIT_FAULT
        try:
            traceback.print_exc()
        except OSError:
            pass
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
