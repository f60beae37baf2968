"""Pieces shared by modules that must not load one another: the bound on
integers read from text, the bounded quoting of rejected input for
diagnostics, and the base of the immutable value classes.  It imports
nothing, so any module can use it without slowing its own import."""

from __future__ import annotations

# Integers read from text are bounded by their digit count before any
# conversion: 4300 is CPython's default limit for int <-> str conversion.
MAX_DIGITS = 4300


_MAX_QUOTED = 60
_INT_BOUND = 10**_MAX_QUOTED


def _quoted(value: object) -> str:
    """``repr(value)`` for a diagnostic; a string longer than _MAX_QUOTED
    characters is quoted by its first _MAX_QUOTED and its length, and a
    longer repr of any other value is cut the same way, so the message
    does not grow with the rejected input."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _MAX_QUOTED:
        return repr(value)
    head = repr(text[:_MAX_QUOTED]) if isinstance(value, str) else text[:_MAX_QUOTED]
    return f"{head}... ({len(text)} characters)"


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


class Frozen:
    """Base of the immutable value classes: assigning or deleting an
    attribute raises AttributeError.  Subclasses set their fields in
    ``__init__`` with `_set_field` and define ``__eq__`` (same class,
    equal fields) and ``__hash__`` over the tuple of their fields;
    `functools.cached_property` still works, as it writes ``__dict__``."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
