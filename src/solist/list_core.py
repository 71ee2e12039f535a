"""List state: item arrangement, the full and partial cost models, and
cost accounting.

Positions are 1-based throughout: the front of the list is position 1.
A :class:`ListState` is immutable; the reorganization rules that produce
new arrangements live in :mod:`solist.policies`. A :class:`PeriodicView`
holds a long sequence that repeats as a head plus one cycle.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice

from .errors import InvalidParameterError, by_value, check_ids, check_int, shown

__all__ = ["CostModel", "ListState", "PeriodicView", "CostLedger"]


class CostModel(Enum):
    """How an access at position i is charged.

    FULL charges i (the item itself is touched); PARTIAL charges i - 1
    (only the comparisons made before the hit). Forward moves of the
    just-accessed item are free under both models; any other adjacent
    swap is a paid exchange costing 1.
    """

    FULL = "full"
    PARTIAL = "partial"

    _missing_ = by_value("cost model")

    @classmethod
    def discount(cls, model: "CostModel") -> int:
        """The one cost rule: under ``model`` an access at position i costs
        i less this discount (0 or 1), so any m requests cost exactly m less
        under PARTIAL than under FULL. Raises InvalidParameterError for
        anything that is not a CostModel."""
        if not isinstance(model, cls):
            raise InvalidParameterError(f"unknown cost model {shown(model)}")
        return 1 if model is cls.PARTIAL else 0


@dataclass(frozen=True)
class ListState:
    """An arrangement of n distinct positive-integer items.

    ``order[0]`` is the item at position 1 (the front). The item set is
    fixed: reorganization permutes it, never inserts or deletes.
    """

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        check_ids(self.order, "each item id")
        if len(set(self.order)) != len(self.order):
            first: dict[int, int] = {}  # item -> its first 1-based position
            at, item = next((at, item) for at, item in enumerate(self.order, 1) if first.setdefault(item, at) != at)
            raise InvalidParameterError(
                f"item ids must be distinct, got item {shown(item)} at positions {first[item]} and {at}")

    @classmethod
    def initial(cls, n: int) -> "ListState":
        """The canonical starting arrangement (1, 2, ..., n)."""
        check_int(n, "list size")
        if n > sys.maxsize:
            raise InvalidParameterError(f"list size must be at most {sys.maxsize}, got {shown(n)}")
        return cls._unchecked(tuple(range(1, n + 1)))

    @classmethod
    def _unchecked(cls, order: tuple[int, ...]) -> "ListState":
        """Wrap an arrangement known to be valid, such as a permutation of
        an already validated one, without checking it again."""
        state = object.__new__(cls)
        object.__setattr__(state, "order", order)
        return state

    @property
    def n(self) -> int:
        return len(self.order)


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


@dataclass(frozen=True)
class CostLedger:
    """Cost accounting for one served request sequence.

    ``per_request`` holds the access cost of each request in order, as 8-byte
    machine ints where ``serve`` made it (its ``head`` and ``cycle`` may be
    ``array('q')``s). When the sequence is repetitions of one block,
    ``pass_totals`` and ``pass_end_configs`` record the access-cost subtotal
    and the configuration snapshot at every pass boundary. All three are
    :class:`PeriodicView` objects, so a ledger of repeating passes holds only
    the passes before the repetition and one period, and validation reads only
    what is stored.
    """

    per_request: PeriodicView
    final_state: ListState
    pass_totals: PeriodicView | None = None
    pass_end_configs: PeriodicView | None = None

    def __post_init__(self) -> None:
        for name in ("per_request", "pass_totals", "pass_end_configs"):
            values = getattr(self, name)
            if values is not None:
                object.__setattr__(self, name, as_view(values))
        if not set(map(type, self.per_request.stored())) <= {int} or min(self.per_request.stored(), default=0) < 0:
            raise InvalidParameterError("per-request costs must be nonnegative integers")
        if self.pass_totals is not None and self.pass_totals.total() != self.grand_total:
            raise InvalidParameterError(
                f"pass totals sum to {self.pass_totals.total()}, "
                f"expected the per-request total {self.grand_total}"
            )

    @property
    def grand_total(self) -> int:
        """Total cost charged: the sum of the per-request access costs. The
        shipped rules make no paid exchange, so nothing else is charged."""
        return self.per_request.total()
