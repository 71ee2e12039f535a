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

    @classmethod
    def repeat(cls, block: Sequence[int], k: int) -> "RequestSequence":
        """``block`` requested k times over, one pass per repetition."""
        check_int(k, "k", minimum=0)
        block = tuple(block)
        check_ids(block, "each item")
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
    it as one."""
    items = tuple(items)
    check_ids(items, "each request")
    return RequestSequence(items)


GENERATORS: dict[Family, Callable[[int, int], RequestSequence]] = {
    Family.T1: gen_t1,
    Family.T2: gen_t2,
}


# Text ingestion. Tokens are integers separated by whitespace or commas;
# a '#' starts a comment that runs to the end of the line.

def _tokenize(text: str) -> list[int]:
    # Line by line, so that only one line's token strings exist at a time.
    values: list[int] = []
    for line in text.splitlines():
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.replace(",", " ").split()
        try:
            values += map(int, tokens)
        except ValueError:
            # Redo the line one token at a time: the first bad one raises
            # a ParseError that names it.
            values += map(_parse_int, tokens)
    return values


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}") from None


def parse_list_file(text: str) -> ListState:
    """Parse an initial list: the first line that holds an item is the list."""
    items = next(filter(None, map(_tokenize, text.splitlines())), None)
    if items is None:
        raise ParseError("list file has no items")
    try:
        return ListState(tuple(items))
    except InvalidParameterError as exc:
        raise ParseError(f"bad list file: {exc}") from None


def parse_sequence_file(text: str) -> RequestSequence:
    """Parse a request stream: every token in the file is one request."""
    try:
        return explicit_sequence(_tokenize(text))
    except InvalidParameterError as exc:
        raise ParseError(f"bad sequence file: {exc}") from None
