"""The three reorganization policies: move-to-front, transpose, and
frequency count.

Each policy maps (state, requested item) to (access cost, new state).
Cost is charged at the pre-reorganization position; the reorganization
itself uses only free exchanges, so no policy ever pays for a move.
``step`` performs one access as a pure function; ``serve`` folds a whole
request sequence into a :class:`CostLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import InvalidParameterError, ItemNotInListError, check_int
from .list_core import CostLedger, CostModel, ListState
from .seqgen import RequestSequence

__all__ = [
    "AccessOutcome",
    "Policy",
    "MoveToFront",
    "Transpose",
    "FrequencyCount",
    "make_policy",
    "serve",
]

# In-place advance function used by serve's inner loop: moves the item
# inside a working list and returns its 1-based pre-access position.
# A closure is bound to the one working list that holds the state given
# to ``_start_run``: transpose keeps a map of positions in that list, so
# it finds an item in O(1); move-to-front and frequency count scan to it.
_Advance = Callable[[list, int], int]


@dataclass(frozen=True)
class AccessOutcome:
    """Result of serving one request: the charged cost, the reorganized
    list, and the policy value to use for the next request (carries the
    updated counters for frequency count)."""

    cost: int
    new_state: ListState
    new_policy: "Policy"


class Policy:
    """Base class for reorganization rules. Policies are immutable values;
    stateful rules (frequency count) return an updated copy from ``step``.

    A rule is defined once, by ``_start_run``: it returns the in-place
    advance function plus, for rules that keep counters, the counter dict
    that advance updates. ``step`` and ``serve`` are both built on it.
    """

    kind: str = ""

    def step(self, state: ListState, item: int, model: CostModel = CostModel.FULL) -> AccessOutcome:
        """Serve one request as a pure function of (policy, state, item)."""
        order = list(state.order)
        advance, counts = self._start_run(state)
        try:
            pos = advance(order, item)
        except (ValueError, KeyError):
            raise ItemNotInListError(item) from None
        cost = pos - 1 if model is CostModel.PARTIAL else pos
        new_policy = self if counts is None else FrequencyCount(counts)
        return AccessOutcome(cost, ListState._unchecked(tuple(order)), new_policy)

    def _start_run(self, initial: ListState) -> tuple[_Advance, dict[int, int] | None]:
        raise NotImplementedError


@dataclass(frozen=True)
class MoveToFront(Policy):
    """After accessing an item, move it to the front of the list."""

    kind = "mtf"

    def _start_run(self, initial: ListState) -> tuple[_Advance, None]:
        def advance(order: list, item: int) -> int:
            pos = order.index(item)
            if pos:
                order.insert(0, order.pop(pos))
            return pos + 1

        return advance, None


@dataclass(frozen=True)
class Transpose(Policy):
    """After accessing an item, swap it with its immediate predecessor.

    A run keeps a map from each item to its 0-based index in the working
    list, so an access costs O(1) rather than a scan to the item: the swap
    changes the index of exactly two items.
    """

    kind = "trans"

    def _start_run(self, initial: ListState) -> tuple[_Advance, None]:
        where = {member: index for index, member in enumerate(initial.order)}

        def advance(order: list, item: int) -> int:
            pos = where[item]
            if pos:
                ahead = order[pos - 1]
                order[pos - 1] = item
                order[pos] = ahead
                where[item] = pos - 1
                where[ahead] = pos
            return pos + 1

        return advance, None


@dataclass(frozen=True)
class FrequencyCount(Policy):
    """Keep the list in non-increasing order of per-item access counters.

    Counters start at 0 unless given. On access the item's counter is
    incremented and the item moves forward past every consecutive
    predecessor whose counter is strictly smaller, stopping at the first
    predecessor with a counter greater than or equal to its own. Ties are
    therefore stable: among equal counters the earlier-promoted item keeps
    its position.
    """

    kind = "fc"
    counters: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for item, count in self.counters.items():
            check_int(count, f"counter for item {item}", minimum=0)
        object.__setattr__(self, "counters", dict(self.counters))

    def counter(self, item: int) -> int:
        return self.counters.get(item, 0)

    def _start_run(self, initial: ListState) -> tuple[_Advance, dict[int, int]]:
        counts = {member: self.counters.get(member, 0) for member in initial.order}

        def advance(order: list, item: int) -> int:
            src = order.index(item)
            c = counts[item] + 1
            counts[item] = c
            dest = src
            while dest > 0 and counts[order[dest - 1]] < c:
                dest -= 1
            if dest != src:
                order.insert(dest, order.pop(src))
            return src + 1

        return advance, counts


_FACTORIES = {
    "mtf": MoveToFront,
    "trans": Transpose,
    "fc": FrequencyCount,
}


def make_policy(name: str) -> Policy:
    """Build a fresh policy from its short name ('mtf', 'trans', 'fc')."""
    try:
        factory = _FACTORIES[name.lower()]
    except (KeyError, AttributeError):
        raise InvalidParameterError(
            f"unknown policy {name!r}; expected one of {sorted(_FACTORIES)}"
        ) from None
    return factory()


def serve(
    policy: Policy,
    initial: ListState,
    sequence: RequestSequence,
    model: CostModel = CostModel.FULL,
) -> CostLedger:
    """Serve a whole request sequence and return its cost ledger.

    Behaves exactly like folding ``policy.step`` over the requests, but
    runs on a single working copy of the arrangement so that large
    verification grids stay fast. When ``sequence`` declares a pass
    structure, the ledger also records per-pass subtotals and the
    configuration snapshot at every pass boundary.

    When every pass requests the same block, a pass is a fixed map of the
    list state, so once a pass-end state repeats, the passes since its
    first occurrence repeat forever. ``serve`` then copies that cycle's
    costs and snapshots into the remaining passes instead of simulating
    them. The result is the same ledger, request for request.
    """
    if not isinstance(model, CostModel):
        raise InvalidParameterError(f"unknown cost model {model!r}")
    requests = sequence.requests
    order = list(initial.order)
    advance, counts = policy._start_run(initial)
    partial = model is CostModel.PARTIAL
    # A sequence without a pass structure is served as a single pass.
    pass_len = sequence.pass_length or len(requests) or 1
    num_passes = len(requests) // pass_len
    block = requests[:pass_len]
    periodic = all(
        requests[start:start + pass_len] == block
        for start in range(pass_len, len(requests), pass_len)
    )
    # Pass-end state -> index of the first pass that ended in it. For fc
    # the state includes the counters less their minimum: the rule only
    # compares counters, so a common offset does not change what it does.
    seen: dict = {}
    per_request: list[int] = []
    pass_totals: list[int] = []
    pass_configs: list[ListState] = []
    for p in range(num_passes):
        if not periodic:
            block = requests[p * pass_len:(p + 1) * pass_len]
        total = 0
        for item in block:
            try:
                pos = advance(order, item)
            except (ValueError, KeyError):
                raise ItemNotInListError(item, request_index=len(per_request)) from None
            cost = pos - 1 if partial else pos
            per_request.append(cost)
            total += cost
        pass_totals.append(total)
        config = tuple(order)
        pass_configs.append(ListState._unchecked(config))
        if not periodic:
            continue
        if counts is None:
            key = config
        else:
            low = min(counts.values())
            key = (config, tuple(counts[item] - low for item in config))
        first = seen.setdefault(key, p)
        if first != p:
            # Passes first+1..p form a cycle; replay it for the rest.
            cycles, extra = divmod(num_passes - p - 1, p - first)
            for done, width in ((per_request, pass_len), (pass_totals, 1), (pass_configs, 1)):
                cycle = done[(first + 1) * width:]
                done += cycle * cycles + cycle[:extra * width]
            break
    has_passes = bool(sequence.pass_length)
    return CostLedger(
        per_request=tuple(per_request),
        access_total=sum(pass_totals),
        final_state=pass_configs[-1] if pass_configs else initial,
        pass_totals=tuple(pass_totals) if has_passes else None,
        pass_end_configs=tuple(pass_configs) if has_passes else None,
    )
