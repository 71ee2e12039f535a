"""Request-sequence construction.

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
from dataclasses import dataclass
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from .errors import Family, InvalidParameterError, ParseError, check_ids, check_int
from .list_core import ListState, PeriodicView, as_view

__all__ = [
    "RequestSequence",
    "gen_t1",
    "gen_t2",
    "explicit_sequence",
    "parse_list_file",
    "parse_sequence_file",
]


@dataclass(frozen=True)
class RequestSequence:
    """A stream of item requests.

    ``requests`` is a :class:`~solist.list_core.PeriodicView`: an explicit
    stream keeps its tuple as the view's head, and a repeated block is
    held once, as the view's cycle, however often it repeats (see
    :meth:`repeat`). A sequence has passes exactly when it is whole
    repetitions of one block (:attr:`block`); that turns on per-pass
    accounting in :func:`solist.policies.serve`.
    """

    requests: PeriodicView

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", as_view(self.requests))
        check_ids(self.requests.head, "each request")
        check_ids(self.requests.cycle, "each request")

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
    return RequestSequence.repeat(ListState.initial(n).order, k)


def gen_t2(n: int, k: int) -> RequestSequence:
    """(n, n-1, ..., 1) repeated k times."""
    check_int(n, "n")
    return RequestSequence.repeat(ListState.initial(n).order[::-1], k)


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


def _read_list(stream: BinaryIO) -> ListState:
    # A line per chunk, so the stream is read only up to its list. Plain ints: list ids are distinct and share nothing.
    tokens = next(filter(None, map(_tokens, chain.from_iterable(_chunks(stream, 1, str.splitlines)))), None)
    if tokens is None:
        raise ParseError("list file has no items")
    try:
        return ListState(tuple(_ints(tokens)))
    except InvalidParameterError as exc:
        raise ParseError(f"bad list file: {exc}") from None


def parse_list_file(text: str) -> ListState:
    """Parse an initial list, as ``simulate`` reads a list file: the first line that holds an item is the list."""
    return _read_list(io.BytesIO(text.encode("utf-8", "surrogatepass")))


def parse_sequence_file(text: str) -> RequestSequence:
    """Parse a request stream, as ``simulate`` reads a sequence file: every token in the text is one request.
    The text is parsed and checked a chunk of lines at a time, so the error raised is the first in text order."""
    requests = _read_requests(io.BytesIO(text.encode("utf-8", "surrogatepass")))
    sequence = object.__new__(RequestSequence)  # the reader has checked every id: built as ListState._unchecked builds
    object.__setattr__(sequence, "requests", PeriodicView(tuple(chain.from_iterable(requests))))
    return sequence
