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
from typing import Callable, Mapping, NamedTuple

from .errors import InvalidParameterError, ItemNotInListError, check_ids, check_int, choose
from .list_core import CostLedger, CostModel, ListState, PeriodicView
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

# A run of a rule owns its working arrangement. ``_start_run`` returns
#   advance(item) -> the item's 1-based position before the access, after
#       which the rule has reorganized the arrangement;
#   snapshot() -> (the current arrangement as a tuple of items, the
#       counters in the same order for frequency count, or None).
# An item not in the list makes advance raise KeyError.
_Run = tuple[Callable[[int], int], Callable[[], tuple[tuple, tuple | None]]]

# Move-to-front and frequency count hold the arrangement as a str in which
# each item is a token: chr(its index in the initial order). Finding an
# item is then ``str.find``, a memchr-style scan in C. Lists with more
# items than there are code points get two-code-point tokens, a high one
# from [_LOW, 0x110000) then a low one from [0, _LOW), so a token can only
# match where an item starts. The kernels take the width as data.
_ONE_CODE_POINT_ITEMS = 0x110000
_LOW = 0x400


def _encode(order: tuple[int, ...]) -> tuple[dict[int, str], int, Callable[[str], tuple]]:
    """Return the map from each item of ``order`` to its token, the token
    width, and the function that decodes a str of tokens into items."""
    n = len(order)
    if n <= _ONE_CODE_POINT_ITEMS:
        tokens, width = map(chr, range(n)), 1
    else:
        tokens, width = (chr(_LOW + i // _LOW) + chr(i % _LOW) for i in range(n)), 2
    token_of = dict(zip(order, tokens))
    item_of = dict(zip(token_of.values(), order))

    def decode(s: str) -> tuple:
        # Cut s into width-long tokens and map each back to its item.
        return tuple(map(item_of.__getitem__, map("".join, zip(*[iter(s)] * width))))

    return token_of, width, decode


class AccessOutcome(NamedTuple):
    """Result of serving one request: the charged cost, the reorganized
    list, and the policy value to use for the next request (carries the
    updated counters for frequency count)."""

    cost: int
    new_state: ListState
    new_policy: "Policy"


class Policy:
    """Base class for reorganization rules. Policies are immutable values;
    stateful rules (frequency count) return an updated copy from ``step``.

    A rule is defined once, by ``_start_run``: it starts a run from a
    state and returns the run's advance function and its snapshot
    function, which reads the arrangement and, for rules that keep them,
    the counters.
    ``step`` and ``serve`` are both built on it.
    """

    def step(self, state: ListState, item: int, model: CostModel = CostModel.FULL) -> AccessOutcome:
        """Serve one request as a pure function of (policy, state, item)."""
        discount = CostModel.discount(model)
        advance, snapshot = self._start_run(state)
        try:
            pos = advance(item)
        except KeyError:
            raise ItemNotInListError(item) from None
        order, along = snapshot()
        new_policy = self if along is None else FrequencyCount(dict(zip(order, along)))
        return AccessOutcome(pos - discount, ListState._unchecked(order), new_policy)

    def _start_run(self, initial: ListState) -> _Run:
        raise NotImplementedError


@dataclass(frozen=True)
class MoveToFront(Policy):
    """After accessing an item, move it to the front of the list.

    A run holds the arrangement as a str of one token per item, so an
    access is one ``str.find`` for the item's token and one re-slice that
    puts the token first.
    """

    def _start_run(self, initial: ListState) -> _Run:
        token_of, width, decode = _encode(initial.order)
        s = "".join(token_of.values())

        def advance(item: int) -> int:
            nonlocal s
            token = token_of[item]
            at = s.find(token)
            if at:
                s = token + s[:at] + s[at + width:]
            return at // width + 1

        return advance, lambda: (decode(s), None)


@dataclass(frozen=True)
class Transpose(Policy):
    """After accessing an item, swap it with its immediate predecessor.

    A run keeps its working list and a map from each item to its 0-based
    index in it, so an access costs O(1) rather than a scan to the item:
    the swap changes the index of exactly two items.
    """

    def _start_run(self, initial: ListState) -> _Run:
        order = list(initial.order)
        where = {member: index for index, member in enumerate(order)}

        def advance(item: int) -> int:
            pos = where[item]
            if pos:
                ahead = order[pos - 1]
                order[pos - 1] = item
                order[pos] = ahead
                where[item] = pos - 1
                where[ahead] = pos
            return pos + 1

        return advance, lambda: (tuple(order), None)


@dataclass(frozen=True)
class FrequencyCount(Policy):
    """Keep the list in non-increasing order of per-item access counters.

    Counters start at 0 unless given. On access the item's counter is
    incremented and the item moves forward past every consecutive
    predecessor whose counter is strictly smaller, stopping at the first
    predecessor with a counter greater than or equal to its own. Ties are
    therefore stable: among equal counters the earlier-promoted item keeps
    its position.

    A run holds the arrangement as a str of one token per item, and the
    counters in a list in the same order: an access finds the item with
    ``str.find``, walks back over the counters of its predecessors, and
    re-slices the str once to move the item.
    """

    counters: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_ids(self.counters, "each counted item")
        for item, count in self.counters.items():
            check_int(count, f"counter for item {item}", minimum=0)
        object.__setattr__(self, "counters", dict(self.counters))

    def counter(self, item: int) -> int:
        return self.counters.get(item, 0)

    def _start_run(self, initial: ListState) -> _Run:
        token_of, width, decode = _encode(initial.order)
        stray = self.counters.keys() - token_of.keys()
        if stray:
            raise InvalidParameterError(f"counted item {min(stray)} is not in the list")
        s = "".join(token_of.values())
        along = [self.counters.get(item, 0) for item in initial.order]

        def advance(item: int) -> int:
            nonlocal s
            token = token_of[item]
            at = s.find(token)
            pos = at // width
            c = along[pos] + 1
            dest = pos
            while dest and along[dest - 1] < c:
                dest -= 1
            if dest == pos:
                along[pos] = c
            else:
                del along[pos]
                along.insert(dest, c)
                cut = dest * width
                s = s[:cut] + token + s[cut:at] + s[at + width:]
            return pos + 1

        return advance, lambda: (decode(s), tuple(along))


_FACTORIES = {
    "mtf": MoveToFront,
    "trans": Transpose,
    "fc": FrequencyCount,
}


def make_policy(name: str) -> Policy:
    """Build a fresh policy from its short name ('mtf', 'trans', 'fc')."""
    return choose(_FACTORIES, name, "policy")()


def serve(
    policy: Policy,
    initial: ListState,
    sequence: RequestSequence,
    model: CostModel = CostModel.FULL,
) -> CostLedger:
    """Serve a whole request sequence and return its cost ledger.

    Behaves exactly like folding ``policy.step`` over the requests, but
    runs on a single working copy of the arrangement so that large
    verification grids stay fast. A sequence has passes when it is
    repetitions of one block (``RequestSequence.repeat``, which ``gen_t1``
    and ``gen_t2`` build on); the ledger then also records per-pass
    subtotals and the configuration snapshot at every pass boundary. Any
    other sequence is served as one pass over all of its requests.

    A pass of a block is a fixed map of the list state, so once a pass-end
    state repeats, the passes since its first occurrence repeat forever.
    ``serve`` stops there: the ledger's views hold the passes before that
    cycle and one copy of it, and read as the same ledger, request for
    request, at any number of passes.
    """
    discount = CostModel.discount(model)
    advance, snapshot = policy._start_run(initial)
    block = sequence.block
    has_passes = block is not None
    if not has_passes:
        block = sequence.requests
    num_passes = len(sequence) // (len(block) or 1)
    # Pass-end state -> index of the first pass that ended in it. For fc
    # the state includes the counters less their minimum: the rule only
    # compares counters, so a common offset does not change what it does.
    seen: dict = {}
    per_request: list[int] = []
    pass_totals: list[int] = []
    pass_configs: list[ListState] = []
    # From pass cycle_start on, the stored passes repeat as one cycle.
    cycle_start = num_passes
    for p in range(num_passes):
        total = 0
        for item in block:
            try:
                cost = advance(item) - discount
            except KeyError:
                raise ItemNotInListError(item, request_index=len(per_request)) from None
            per_request.append(cost)
            total += cost
        pass_totals.append(total)
        config, along = snapshot()
        pass_configs.append(ListState._unchecked(config))
        if along is not None:
            low = min(along)
            along = tuple(count - low for count in along)
        first = seen.setdefault((config, along), p)
        if first != p:
            cycle_start = first + 1
            break

    def view(stored: list, width: int = 1) -> PeriodicView:
        cut = cycle_start * width
        cycle = tuple(stored[cut:])
        del stored[cut:]
        return PeriodicView(tuple(stored), cycle, num_passes * width)

    totals = view(pass_totals)
    configs = view(pass_configs)
    return CostLedger(
        per_request=view(per_request, len(block)),
        final_state=configs[-1] if num_passes else initial,
        pass_totals=totals if has_passes else None,
        pass_end_configs=configs if has_passes else None,
    )
