"""Exception types, input checks and the request-sequence families: every other module imports this one."""

from enum import Enum

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
        if request_index is None:
            msg = f"item {item} is not in the list"
        else:
            msg = f"request {request_index}: item {item} is not in the list"
        super().__init__(msg)


class InvalidParameterError(SolistError, ValueError):
    """A parameter is outside its documented domain (e.g. n < 1)."""


class ParseError(SolistError, ValueError):
    """A list or sequence text input is malformed."""


def check_int(value, name: str, minimum: int = 1) -> None:
    """Raise InvalidParameterError naming ``name`` unless ``value`` is an
    int (not a bool) of at least ``minimum``, which is 0 or 1."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        kind = "positive" if minimum else "nonnegative"
        raise InvalidParameterError(f"{name} must be a {kind} integer, got {value!r}")


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
        raise InvalidParameterError(f"{name} range is empty: {lo}..{hi}")
    return lo, hi


def choose(table: dict, name, kind: str):
    """``table[str(name).lower()]``, or InvalidParameterError naming ``name`` as given."""
    try:
        return table[str(name).lower()]
    except KeyError:
        raise InvalidParameterError(f"unknown {kind} {name!r}; expected one of {list(table)}") from None


class Family(Enum):
    """The generated request-sequence families."""

    T1 = "T1"  # the initial list order, repeated k times
    T2 = "T2"  # the reversed list order, repeated k times


def as_family(value: Family | str) -> Family:
    if isinstance(value, Family):
        return value
    return choose({family.value.lower(): family for family in Family}, value, "family")
