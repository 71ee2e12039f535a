"""List state and cost accounting, for library callers.

Positions are 1-based throughout: the front of the list is position 1.
A :class:`ListState` is immutable; the rules that produce new arrangements,
and the cost models, live in :mod:`solist.policies`; :class:`PeriodicView`
and the check of an arrangement in :mod:`solist.seqgen`. The command line
runs on tuples of items and loads neither this module nor ``dataclasses``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError
from .seqgen import PeriodicView, _check_order, _initial_order, as_view

__all__ = ["ListState", "CostLedger"]


@dataclass(frozen=True)
class ListState:
    """An arrangement of n distinct positive-integer items.

    ``order[0]`` is the item at position 1 (the front). The item set is
    fixed: reorganization permutes it, never inserts or deletes.
    """

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        _check_order(self.order)

    @classmethod
    def initial(cls, n: int) -> "ListState":
        """The canonical starting arrangement (1, 2, ..., n)."""
        return cls._unchecked(_initial_order(n))

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
