"""Exception types, input checks and the request-sequence families: every other module imports this one."""

from enum import Enum
from functools import cache

__all__ = [
    "Family",
    "SolistError",
    "ItemNotInListError",
    "InvalidParameterError",
    "ParseError",
]


class SolistError(Exception):
    """Base class for every error raised by this library."""


class ItemNotInListError(SolistError, LookupError):
    """A requested item is not a member of the list.

    ``item`` is the offending id; ``request_index`` is the 0-based position
    of the request inside a served sequence, when the error comes from one.
    """

    def __init__(self, item, request_index=None):
        self.item = item
        self.request_index = request_index
        msg = f"item {shown(item)} is not in the list"
        super().__init__(msg if request_index is None else f"request {request_index}: {msg}")


class InvalidParameterError(SolistError, ValueError):
    """A parameter is outside its documented domain (e.g. n < 1)."""


class ParseError(SolistError, ValueError):
    """A list or sequence text input is malformed."""


def shown(value) -> str:
    """``repr(value)`` for a message, or, for an int past the int-to-str
    digit limit, its sign and bit length."""
    try:
        return repr(value)
    except ValueError:
        return f"{'-' * (value < 0)}<{value.bit_length()}-bit int>"


def check_int(value, name: str, minimum: int = 1) -> None:
    """Raise InvalidParameterError naming ``name`` unless ``value`` is an
    int (not a bool) of at least ``minimum``, which is 0 or 1."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        kind = "positive" if minimum else "nonnegative"
        raise InvalidParameterError(f"{name} must be a {kind} integer, got {shown(value)}")


def check_ids(values, name: str) -> None:
    """Raise InvalidParameterError unless every one of ``values`` is a
    positive int (not a bool). One pass in C; only if it fails, a second,
    value by value, so that the error names ``name`` and the first bad one."""
    if not (set(map(type, values)) <= {int} and min(values, default=1) >= 1):
        for value in values:
            check_int(value, name)


def check_range(bounds: tuple[int, int], name: str) -> tuple[int, int]:
    """Return ``bounds`` as (lo, hi), or raise InvalidParameterError unless 1 <= lo <= hi."""
    lo, hi = bounds
    check_int(lo, f"{name} lower bound")
    check_int(hi, f"{name} upper bound")
    if lo > hi:
        raise InvalidParameterError(f"{name} range is empty: {shown(lo)}..{shown(hi)}")
    return lo, hi


def choose(table: dict, name, kind: str):
    """``table[name.lower()]`` for a str ``name``, or InvalidParameterError naming ``name`` as given."""
    if isinstance(name, str) and name.lower() in table:
        return table[name.lower()]
    raise InvalidParameterError(f"unknown {kind} {shown(name)}; expected one of {list(table)}")


def by_value(kind: str) -> classmethod:
    """An enum's ``_missing_``: ``choose`` over its members by lower-case
    value, a table built once per enum, naming ``kind`` in the error."""
    return classmethod(lambda enum, name: choose(_members_by_value(enum), name, kind))


def member(enum, value):
    """``enum(value)``, refusing first a value that is neither a member nor a str: ``Enum`` cannot show a huge int."""
    return enum(value) if isinstance(value, (enum, str)) else enum._missing_(value)


@cache
def _members_by_value(enum) -> dict:
    return {member.value.lower(): member for member in enum}


class Family(Enum):
    """The generated request-sequence families."""

    T1 = "T1"  # the initial list order, repeated k times
    T2 = "T2"  # the reversed list order, repeated k times

    _missing_ = by_value("family")
