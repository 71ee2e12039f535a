"""List state: item arrangement, position lookup, and cost accounting
under the full and partial cost models.

Positions are 1-based throughout: the front of the list is position 1.
A :class:`ListState` is immutable; the reorganization rules that produce
new arrangements live in :mod:`solist.policies`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParameterError, ItemNotInListError, check_int

__all__ = ["CostModel", "ListState", "CostLedger"]


class CostModel(Enum):
    """How an access at position i is charged.

    FULL charges i (the item itself is touched); PARTIAL charges i - 1
    (only the comparisons made before the hit). Forward moves of the
    just-accessed item are free under both models; any other adjacent
    swap is a paid exchange costing 1.
    """

    FULL = "full"
    PARTIAL = "partial"


def _check_items(items: tuple[int, ...]) -> None:
    for item in items:
        check_int(item, "each item id")
    if len(set(items)) != len(items):
        raise InvalidParameterError(f"item ids must be distinct, got {items!r}")


@dataclass(frozen=True)
class ListState:
    """An arrangement of n distinct positive-integer items.

    ``order[0]`` is the item at position 1 (the front). The item set is
    fixed: reorganization permutes it, never inserts or deletes.
    """

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        _check_items(self.order)

    @classmethod
    def initial(cls, n: int) -> "ListState":
        """The canonical starting arrangement (1, 2, ..., n)."""
        check_int(n, "list size")
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

    def __contains__(self, item: int) -> bool:
        return item in self.order

    def position_of(self, item: int) -> int:
        """1-based position of ``item``; raises ItemNotInListError if absent."""
        try:
            return self.order.index(item) + 1
        except ValueError:
            raise ItemNotInListError(item) from None

    def access_cost(self, item: int, model: CostModel = CostModel.FULL) -> int:
        """Cost of accessing ``item`` where it currently sits.

        Position i costs i under FULL and i - 1 under PARTIAL. The state
        is not changed; reorganization is a separate (free) operation.
        """
        pos = self.position_of(item)
        return pos if model is CostModel.FULL else pos - 1


@dataclass(frozen=True)
class CostLedger:
    """Cost accounting for one served request sequence.

    ``per_request`` holds the access cost of each request in order. When
    the sequence declares a pass structure, ``pass_totals`` and
    ``pass_end_configs`` record the access-cost subtotal and the
    configuration snapshot at every pass boundary.
    """

    per_request: tuple[int, ...]
    access_total: int
    final_state: ListState
    pass_totals: tuple[int, ...] | None = None
    pass_end_configs: tuple[ListState, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_request", tuple(self.per_request))
        if min(self.per_request, default=0) < 0:
            raise InvalidParameterError("per-request costs must be nonnegative")
        if self.access_total != sum(self.per_request):
            raise InvalidParameterError(
                f"access_total {self.access_total} != sum of per-request costs "
                f"{sum(self.per_request)}"
            )
        if self.pass_totals is not None:
            object.__setattr__(self, "pass_totals", tuple(self.pass_totals))
            if sum(self.pass_totals) != self.access_total:
                raise InvalidParameterError(
                    f"pass totals sum to {sum(self.pass_totals)}, "
                    f"expected access_total {self.access_total}"
                )
        if self.pass_end_configs is not None:
            object.__setattr__(self, "pass_end_configs", tuple(self.pass_end_configs))

    @property
    def grand_total(self) -> int:
        """Total cost charged. The shipped rules move only the accessed item
        forward, which is free, so this is the access total."""
        return self.access_total
