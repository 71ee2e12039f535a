"""Request-sequence construction, :class:`PeriodicView`, the 1..n start order and the check of an arrangement.

The two generated families repeat one fixed permutation of the list k
times: t1 repeats the list's own order (an ascending scan), t2 repeats
the reversed order (a descending scan). Both are deliberately free of
locality of reference: within a pass every item is requested exactly
once. ``RequestSequence.repeat`` repeats any block. Explicit sequences
and lists are read from text by one reader, which ``simulate`` runs on
its files: the library reads a text exactly as a file of its UTF-8 bytes,
so a leading byte-order mark is skipped and a lone surrogate is not UTF-8.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
import sys
from collections.abc import Sequence
from itertools import chain, islice
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator

from .errors import Family, InvalidParameterError, ParseError, check_ids, check_int, shown

if TYPE_CHECKING:
    from .list_core import ListState

__all__ = [
    "PeriodicView",
    "RequestSequence",
    "gen_t1",
    "gen_t2",
    "explicit_sequence",
    "parse_list_file",
    "parse_sequence_file",
]


class _Value:
    """An immutable value of the fields its ``__init__`` sets: equal to one of its exact class with equal fields,
    hashed by its fields (so unhashable if one is), shown as its class called with them, and never assigned to."""

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in vars(self).items())})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class PeriodicView(Sequence):
    """A read-only sequence of ``length`` elements: the elements of
    ``head``, then those of ``cycle`` repeated for as long as it takes.

    It stores only ``head`` and one copy of ``cycle``, so a run of k
    repeated passes costs memory for its preperiod and one period, not
    for k passes. ``len`` and indexing are O(1); a slice is returned as a
    tuple; ``in``, ``index`` and ``count`` read only the stored elements.
    It compares equal to a tuple of the same elements and to any view of
    them, however split into head and cycle, so it is not hashable.
    ``head`` and ``cycle`` are read-only: a view may hold a caller's list.
    """

    __slots__ = ("_head", "_cycle", "_length")

    def __init__(self, head: Sequence = (), cycle: Sequence = (), length: int | None = None) -> None:
        if length is None:
            length = len(head)
        check_int(length, "sequence length", minimum=0)
        if length < len(head) or (length > len(head) and not cycle):
            raise InvalidParameterError(
                f"cannot make {shown(length)} elements from a head of {len(head)} and a cycle of {len(cycle)}"
            )
        if length > sys.maxsize:
            raise InvalidParameterError(f"sequence length {shown(length)} exceeds the maximum {sys.maxsize}")
        self._head, self._cycle, self._length = head, cycle, length

    @property
    def head(self) -> Sequence:
        return self._head

    @property
    def cycle(self) -> Sequence:
        return self._cycle

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(*index.indices(self._length))))
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("sequence index out of range")
        skip = len(self._head)
        if index < skip:
            return self._head[index]
        return self._cycle[(index - skip) % len(self._cycle)]

    def __iter__(self) -> Iterator:
        return chain(self._head, islice(itertools.cycle(self._cycle), self._length - len(self._head)))

    def stored(self) -> Iterator:
        """The elements held in memory that lie within the sequence."""
        return chain(self._head, islice(self._cycle, self._length - len(self._head)))

    def __contains__(self, value) -> bool:
        return any(v is value or v == value for v in self.stored())

    def index(self, value, start: int = 0, stop: int | None = None) -> int:
        # Past the head each element recurs one period on, so the first
        # occurrence from start lies within the head and one period.
        start, stop, _ = slice(start, stop).indices(self._length)
        return super().index(value, start, min(stop, max(start, len(self._head)) + len(self._cycle)))

    def count(self, value) -> int:
        # The sum of a view of the same shape holding 1 where an element matches.
        hits = [v is value or v == value for v in self.stored()]
        skip = len(self._head)
        return PeriodicView(tuple(hits[:skip]), tuple(hits[skip:]), self._length).total()

    def total(self, stop: int | None = None):
        """Sum of the first ``stop`` elements (of all of them by default),
        in O(stored elements) for any ``stop``."""
        stop = self._length if stop is None else max(0, min(stop, self._length))
        skip = len(self._head)
        if stop <= skip:
            return sum(islice(self._head, stop))
        cycles, rest = divmod(stop - skip, len(self._cycle))
        return sum(self._head) + cycles * sum(self._cycle) + sum(islice(self._cycle, rest))

    def __eq__(self, other) -> bool:
        if isinstance(other, tuple):
            other = PeriodicView(other)
        if not isinstance(other, PeriodicView):
            return NotImplemented
        return self._length == len(other) and self.first_difference(other) is None

    def first_difference(self, other: "PeriodicView") -> int | None:
        """Index of the first element, within the shorter of the two views,
        at which this view and ``other`` differ, or None. Reads at most the
        longer head plus the lcm of the two periods."""
        # Past both heads, both repeat with the lcm of their periods, so the
        # elements up to there decide.
        stop = max(len(self._head), len(other._head)) + math.lcm(len(self._cycle) or 1, len(other._cycle) or 1)
        differs = map(operator.ne, islice(self, stop), islice(other, stop))
        return next(itertools.compress(itertools.count(), differs), None)

    def __repr__(self) -> str:
        return f"PeriodicView({self._head!r}, {self._cycle!r}, {self._length})"


def as_view(values: Sequence) -> PeriodicView:
    """``values`` as a view: a view unchanged, anything else as a tuple."""
    return values if isinstance(values, PeriodicView) else PeriodicView(tuple(values))


def _initial_order(n: int) -> tuple[int, ...]:
    """The canonical starting arrangement of n items: (1, 2, ..., n)."""
    check_int(n, "list size")
    if n > sys.maxsize:
        raise InvalidParameterError(f"list size must be at most {sys.maxsize}, got {shown(n)}")
    return tuple(range(1, n + 1))


def _check_order(order: tuple) -> None:
    """Raise InvalidParameterError unless ``order`` is an arrangement: distinct positive-int item ids."""
    check_ids(order, "each item id")
    if len(set(order)) != len(order):
        first: dict[int, int] = {}  # item -> its first 1-based position
        at, item = next((at, item) for at, item in enumerate(order, 1) if first.setdefault(item, at) != at)
        raise InvalidParameterError(
            f"item ids must be distinct, got item {shown(item)} at positions {first[item]} and {at}")


class RequestSequence(_Value):
    """A stream of item requests.

    ``requests`` is a :class:`PeriodicView`: an explicit stream keeps its
    tuple as the view's head, and a repeated block is held once, as the
    view's cycle, however often it repeats (see :meth:`repeat`). A
    sequence has passes exactly when it is whole repetitions of one block
    (:attr:`block`); that turns on per-pass accounting in
    :func:`solist.policies.serve`. Like its view, it is not hashable.
    """

    def __init__(self, requests: Sequence[int]) -> None:
        requests = as_view(requests)
        check_ids(requests.head, "each request")
        check_ids(requests.cycle, "each request")
        object.__setattr__(self, "requests", requests)

    @classmethod
    def repeat(cls, block: Sequence[int], k: int) -> "RequestSequence":
        """``block`` requested k times over, one pass per repetition."""
        check_int(k, "k", minimum=0)
        block = tuple(block)
        check_int(len(block), "block length")
        return cls(PeriodicView((), block, len(block) * k))

    @property
    def block(self) -> tuple[int, ...] | None:
        """The block that every pass requests: the view's cycle when the
        view has no head and is whole repetitions of a nonempty cycle;
        None otherwise."""
        requests = self.requests
        if requests.head or not requests.cycle or len(requests) % len(requests.cycle):
            return None
        return requests.cycle

    def __len__(self) -> int:
        return len(self.requests)


def gen_t1(n: int, k: int) -> RequestSequence:
    """(1, 2, ..., n) repeated k times."""
    check_int(n, "n")
    return RequestSequence.repeat(_initial_order(n), k)


def gen_t2(n: int, k: int) -> RequestSequence:
    """(n, n-1, ..., 1) repeated k times."""
    check_int(n, "n")
    return RequestSequence.repeat(_initial_order(n)[::-1], k)


def explicit_sequence(items: Iterable[int]) -> RequestSequence:
    """Wrap a literal request stream. It has no passes: ``serve`` serves
    it slice by slice."""
    return RequestSequence(tuple(items))


GENERATORS: dict[Family, Callable[[int, int], RequestSequence]] = {
    Family.T1: gen_t1,
    Family.T2: gen_t2,
}


# Text ingestion. Tokens are integers separated by whitespace or commas;
# a '#' starts a comment that runs to the end of the line.
_TABLE_IDS = 4096  # ids a line or chunk enters into the token table; past this size it starts over
_CHUNK = 1 << 12  # request text is read, parsed and checked this many bytes of whole lines at a time


def _chunks(stream: BinaryIO, size: int, parse: Callable[[str], list]) -> Iterator[list]:
    """``parse`` of a UTF-8 stream's text, about ``size`` bytes of whole lines at a time."""
    try:
        first = 1  # the number of the chunk's first line
        for lines in iter(lambda: stream.readlines(size), []):
            try:
                yield parse(b"".join(lines).decode("utf-8-sig" if first == 1 else "utf-8"))
            except (UnicodeDecodeError, ParseError):  # again line by line: the lines before the error come first
                for number, line in enumerate(lines, first):  # utf-8-sig skips a byte-order mark on line 1
                    yield from map(parse, line.decode("utf-8-sig" if number == 1 else "utf-8").splitlines())
            first += len(lines)
    except UnicodeDecodeError as exc:
        raise ParseError(f"input file is not valid UTF-8: line {number}: {exc}") from None


def _tokens(text: str) -> list[str]:
    if "#" in text:  # a line or a chunk of lines: each comment runs to the end of its own line
        text = " ".join(line.partition("#")[0] for line in text.splitlines())
    return text.replace(",", " ").split()


def _ints(tokens: list[str]) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:  # one at a time: the first bad token raises a ParseError naming it
        return list(map(_parse_int, tokens))


def _read_requests(stream: BinaryIO) -> Iterator[list[int]]:
    # A stream's checked ids, a chunk at a time, each chunk parsed as one line. The table maps tokens only to checked
    # ids, so a chunk of known tokens shares the table's ints. Any other chunk is parsed and checked first; then it
    # starts the table over if it has no known token or the table is full, and enters at most _TABLE_IDS tokens.
    known: dict[str, int] = {}

    def parse(line: str) -> list[int]:
        tokens = _tokens(line)
        try:
            return list(map(known.__getitem__, tokens))
        except KeyError:
            found = _checked(_ints(tokens))
        if known.keys().isdisjoint(tokens) or len(known) > _TABLE_IDS:
            known.clear()
        found[:_TABLE_IDS] = map(known.setdefault, tokens[:_TABLE_IDS], found)
        return found

    return _chunks(stream, _CHUNK, parse)


def _checked(requests: list[int]) -> list[int]:
    if min(requests, default=1) < 1:  # parsed tokens are ints: check_ids's type pass would double a line's check
        try:
            check_ids(requests, "each request")
        except InvalidParameterError as exc:
            raise ParseError(f"bad sequence file: {exc}") from None
    return requests


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        # A long token is quoted by its start and its length, so the message stays short.
        shown = repr(token) if len(token) <= 400 else f"{token[:40]!r}... ({len(token)} characters)"
        raise ParseError(f"expected an integer, got {shown}") from None


def _read_list(stream: BinaryIO) -> tuple[int, ...]:
    # A line per chunk, so the stream is read only up to its list. Plain ints: list ids are distinct and share nothing.
    tokens = next(filter(None, map(_tokens, chain.from_iterable(_chunks(stream, 1, str.splitlines)))), None)
    if tokens is None:
        raise ParseError("list file has no items")
    order = tuple(_ints(tokens))
    try:
        _check_order(order)
    except InvalidParameterError as exc:
        raise ParseError(f"bad list file: {exc}") from None
    return order


def parse_list_file(text: str) -> ListState:
    """Parse an initial list, as ``simulate`` reads a list file: the first line that holds an item is the list."""
    from .list_core import ListState  # imported here, so that simulate, which runs on the checked order, never loads it
    return ListState._unchecked(_read_list(io.BytesIO(text.encode("utf-8", "surrogatepass"))))


def parse_sequence_file(text: str) -> RequestSequence:
    """Parse a request stream, as ``simulate`` reads a sequence file: every token in the text is one request.
    The text is parsed and checked a chunk of lines at a time, so the error raised is the first in text order."""
    requests = _read_requests(io.BytesIO(text.encode("utf-8", "surrogatepass")))
    sequence = object.__new__(RequestSequence)  # the reader has checked every id: not checked again
    object.__setattr__(sequence, "requests", PeriodicView(tuple(chain.from_iterable(requests))))
    return sequence
