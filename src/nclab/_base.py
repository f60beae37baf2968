"""Pieces shared by modules that must not load one another: the bound on
integers read from text, the integer test and the one check of a size,
an index, a depth or an order, the bounded quoting of rejected input for
diagnostics, the bases of the record classes, and the library's error
classes: `SizeError`, which that check raises by default, the classes
that `partitions` and `linked` raise for rejected input, and
`NormalizationError`, which `series` raises.  The CLI maps each to its
exit code without loading the module that raises it.  It imports only
`operator`, which `re` has already loaded at start-up, so any module can
use it without slowing its own import."""

from __future__ import annotations

from operator import attrgetter

# Integers read from text are bounded by their digit count before any
# conversion: 4300 is CPython's default limit for int <-> str conversion.
MAX_DIGITS = 4300


class NormalizationError(ValueError):
    """First moment or constant coefficient differs from the required 1."""


class SizeError(ValueError):
    """A size, an index, a depth or an order given to the library is not
    an integer, or is below its least value."""


class InvalidPartitionError(ValueError):
    """A block family does not form a valid partition, or a partition
    given where a non-crossing one is required is crossing."""


class ParseError(ValueError):
    """A textual or JSON encoding could not be read."""


class InvalidPairError(ValueError):
    """A pair (a, b) of partitions on different ground sets, or one where a
    does not endpoint-refine b given to a map that requires it:
    `classify_blocks` or `linked.from_pair`."""


class InvalidLinkedPartitionError(ValueError):
    """A block family does not form a valid non-crossing linked partition."""


def _is_int(x: object) -> bool:
    """True for integers other than ``bool``: JSON ``true`` is not 1."""
    return isinstance(x, int) and not isinstance(x, bool)


_MAX_QUOTED = 60
_INT_BOUND = 10**_MAX_QUOTED


def _clipped(value: object, bound: int = _MAX_QUOTED) -> str:
    """``str(value)`` for a diagnostic: whole up to ``bound`` characters,
    else its first ``bound`` and its length, so the message does not grow
    with the input."""
    text = str(value)
    if len(text) <= bound:
        return text
    return f"{text[:bound]}... ({len(text)} characters)"


def _quoted(value: object) -> str:
    """``repr(value)`` for a diagnostic, cut as `_clipped` cuts text; a
    string is cut before it is quoted, so what shows is still quoted."""
    if not isinstance(value, str):
        return _clipped(repr(value))
    if len(value) <= _MAX_QUOTED:
        return repr(value)
    return f"{value[:_MAX_QUOTED]!r}... ({len(value)} characters)"


def _require_int(value: object, name: str, least: int = 1,
                 error: type[Exception] = SizeError) -> None:
    """Raise ``error`` unless ``value``, the size, index, depth or order
    ``name``, is an integer, not ``bool``, of at least ``least``."""
    if not _is_int(value):
        raise error(f"{name} must be an integer, got {_quoted(value)}")
    if value < least:
        raise error(f"{name} must be at least {least}")


def _int_text(x: int) -> str:
    """``str(x)`` for a diagnostic; an integer of more than _MAX_QUOTED
    digits is named by its sign and bit length instead.  ``str`` of an
    integer past MAX_DIGITS digits raises, and the message must not grow
    with the input."""
    if -_INT_BOUND < x < _INT_BOUND:
        return str(x)
    return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit integer>"


# How the immutable value classes set their fields in ``__init__``.  Unlike
# writing ``self.__dict__``, it keeps the attributes in the object's inline
# storage, which attribute reads are faster on.
_set_field = object.__setattr__


class Record:
    """Base of the record classes, which name their fields in ``_fields``.
    Records are equal when they have the same exact class and equal fields,
    so never a tuple or an instance of a subclass; the default repr is
    ``Name(field=value, ...)``.  Mutable and unhashable unless `Frozen`."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:  # one getter per class; a tuple for several fields
            cls._field_values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._field_values(self) == self._field_values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """Base of the immutable value classes: assigning or deleting an
    attribute raises AttributeError, and equal values hash equal.
    Subclasses set their fields in ``__init__`` with `_set_field`;
    `functools.cached_property` still works, as it writes ``__dict__``.
    Each defines ``__str__``; its repr is ``Name('<str>')`` unless overridden."""

    def __hash__(self) -> int:
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
