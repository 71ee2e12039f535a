"""Request-sequence construction.

The two generated families repeat one fixed permutation of the list k
times: t1 repeats the list's own order (an ascending scan), t2 repeats
the reversed order (a descending scan). Both are deliberately free of
locality of reference: within a pass every item is requested exactly
once. ``RequestSequence.repeat`` repeats any block, and explicit
sequences can be ingested from text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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


def _tokens(text: str) -> list[str]:
    if "#" in text:  # a line or a chunk of lines: each comment runs to the end of its own line
        text = " ".join(line.partition("#")[0] for line in text.splitlines())
    return text.replace(",", " ").split()


def _ints(tokens: list[str]) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:  # one at a time: the first bad token raises a ParseError naming it
        return list(map(_parse_int, tokens))


def _line_ints() -> Callable[[str], list[int]]:
    # A parser of a line's ints, or a chunk's, as one line. A line of known tokens shares the table's ints; any other
    # line starts the table over if it has no known token or the table is full, and enters at most _TABLE_IDS tokens.
    known: dict[str, int] = {}

    def parse(line: str) -> list[int]:
        tokens = _tokens(line)
        found = list(map(known.get, tokens))
        if None in found:
            if found.count(None) == len(found) or len(known) > _TABLE_IDS:
                known.clear()
            found = _ints(tokens)
            found[:_TABLE_IDS] = map(known.setdefault, tokens[:_TABLE_IDS], found)
        return found

    return parse


def _tokenize(text: str) -> list[int]:
    return [value for values in map(_line_ints(), text.splitlines()) for value in values]


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


def parse_list_file(text: str) -> ListState:
    """Parse an initial list: the first line that holds an item is the list."""
    return _list_from_lines(text.splitlines())


def _list_from_lines(lines: Iterable[str]) -> ListState:
    tokens = next(filter(None, map(_tokens, lines)), None)
    if tokens is None:
        raise ParseError("list file has no items")
    try:
        # Plain int: list ids are distinct, so there is nothing to share.
        return ListState(tuple(_ints(tokens)))
    except InvalidParameterError as exc:
        raise ParseError(f"bad list file: {exc}") from None


def parse_sequence_file(text: str) -> RequestSequence:
    """Parse a request stream: every token in the file is one request."""
    return explicit_sequence(_checked(_tokenize(text)))
