"""The cost models and the three reorganization policies: move-to-front,
transpose, and frequency count.

Each policy maps (state, requested item) to (access cost, new state).
Cost is charged at the pre-reorganization position; the reorganization
itself uses only free exchanges, so no policy ever pays for a move.
``step`` performs one access as a pure function; ``serve`` folds a whole
request sequence into a :class:`CostLedger`. A run starts from a tuple of
items, so only those two load :mod:`solist.list_core`.
"""

from __future__ import annotations

from enum import Enum
from itertools import islice, repeat
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InvalidParameterError, ItemNotInListError, by_value, check_ids, check_int, choose, shown
from .seqgen import PeriodicView, RequestSequence, _Value

if TYPE_CHECKING:
    from .list_core import CostLedger, ListState

__all__ = [
    "CostModel",
    "AccessOutcome",
    "Policy",
    "MoveToFront",
    "Transpose",
    "FrequencyCount",
    "make_policy",
    "serve",
]

# A run of a rule owns its working arrangement. ``_start_run(items)`` returns
#   advance(block, costs, first) -> serves the requests of ``block`` in
#       turn, appending to ``costs`` each one's position before its access,
#       counting the front as ``first``; the rule reorganizes after each;
#   state() -> the run's exact state, hashable: two runs from one initial
#       list in equal states serve every later request alike;
#   arrangement(state) -> that state's arrangement, as a tuple of items.
# An item not in the list makes advance raise KeyError, with ``costs``
# holding the costs of the requests before it; the run is then spent.
_Run = tuple[Callable[[Sequence[int], list, int], None], Callable[[], Hashable], Callable[[Hashable], tuple]]

# Move-to-front and frequency count hold the arrangement as a str in which
# each item is a token: chr(its index in the initial order). Finding an
# item is then ``str.find``, a memchr-style scan in C. Lists with more
# items than there are code points get two-code-point tokens, a high one
# from [_LOW, 0x110000) then a low one from [0, _LOW), so a token can only
# match where an item starts. The kernels take the width as data.
_ONE_CODE_POINT_ITEMS = 0x110000
_LOW = 0x400

_SLICE = 4096  # serve runs a stream without passes this many requests at a time: only their costs are int objects


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


def _encode(order: tuple[int, ...]) -> tuple[dict[int, str], int, str, Callable[[str], tuple]]:
    """Return the map from each item of ``order`` to its token, the token
    width, the str of those tokens in order, and the function that decodes
    a str of tokens into items."""
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

    return token_of, width, "".join(token_of.values()), decode


class AccessOutcome(NamedTuple):
    """Result of serving one request: the charged cost, the reorganized
    list, and the policy value to use for the next request (carries the
    updated counters for frequency count)."""

    cost: int
    new_state: ListState
    new_policy: "Policy"


class Policy(_Value):
    """Base class for reorganization rules. Policies are immutable values;
    stateful rules (frequency count) return an updated copy from ``step``.

    A rule is defined once, by ``_start_run``, which starts a run from a
    tuple of items and returns its advance, state and arrangement functions,
    and by ``_after``, the policy for the next request. ``step`` and
    ``serve`` are both built on these and name no rule.
    """

    def step(self, state: ListState, item: int, model: CostModel = CostModel.FULL) -> AccessOutcome:
        """Serve one request as a pure function of (policy, state, item)."""
        from .list_core import ListState  # imported here, so that loading the rules loads no dataclasses
        check_ids((item,), "each request")
        first = 1 - CostModel.discount(model)
        advance, run_state, arrangement = self._start_run(state.order)
        costs: list[int] = []
        try:
            advance((item,), costs, first)
        except KeyError:
            raise ItemNotInListError(item) from None
        return AccessOutcome(costs[0], ListState._unchecked(arrangement(run_state())), self._after(item))

    def _start_run(self, initial: tuple[int, ...]) -> _Run:
        raise NotImplementedError

    def _after(self, item: int) -> "Policy":
        return self  # a rule without counters is the same policy after any access


class MoveToFront(Policy):
    """After accessing an item, move it to the front of the list.

    A run holds the arrangement as a str of one token per item, so an
    access is one ``str.find`` for the item's token and one re-slice that
    puts the token first.
    """

    def _start_run(self, initial: tuple[int, ...]) -> _Run:
        token_of, width, s, decode = _encode(initial)

        def advance(block: Sequence[int], costs: list, first: int) -> None:
            nonlocal s
            arranged, append = s, costs.append
            for token in map(token_of.__getitem__, block):
                at = arranged.find(token)
                if at:
                    arranged = token + arranged[:at] + arranged[at + width:]
                append(at // width + first)
            s = arranged

        return advance, lambda: s, decode


class Transpose(Policy):
    """After accessing an item, swap it with its immediate predecessor.

    A run keeps its working list and a map from each item to its 0-based
    index in it, so an access costs O(1) rather than a scan to the item:
    the swap changes the index of exactly two items.
    """

    def _start_run(self, initial: tuple[int, ...]) -> _Run:
        order = list(initial)
        where = {member: index for index, member in enumerate(order)}

        def advance(block: Sequence[int], costs: list, first: int) -> None:
            append = costs.append
            for item in block:
                pos = where[item]
                if pos:
                    ahead = order[pos - 1]
                    order[pos - 1] = item
                    order[pos] = ahead
                    where[item] = pos - 1
                    where[ahead] = pos
                append(pos + first)

        return advance, lambda: tuple(order), tuple


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

    def __init__(self, counters: Mapping[int, int] = {}) -> None:  # the default is only read: it is copied below
        check_ids(counters, "each counted item")
        for item, count in counters.items():
            if type(count) is not int or count < 0:  # name the item only for a counter check_int may reject
                check_int(count, f"counter for item {shown(item)}", minimum=0)
        object.__setattr__(self, "counters", dict(counters))

    def counter(self, item: int) -> int:
        return self.counters.get(item, 0)

    def _after(self, item: int) -> "FrequencyCount":
        return FrequencyCount({**self.counters, item: self.counter(item) + 1})

    def _start_run(self, initial: tuple[int, ...]) -> _Run:
        token_of, width, s, decode = _encode(initial)
        stray = self.counters.keys() - token_of.keys()
        if stray:
            raise InvalidParameterError(f"counted item {shown(min(stray))} is not in the list")
        along = [self.counters.get(item, 0) for item in initial]

        def advance(block: Sequence[int], costs: list, first: int) -> None:
            nonlocal s
            arranged, append = s, costs.append
            for token in map(token_of.__getitem__, block):
                at = arranged.find(token)
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
                    arranged = arranged[:cut] + token + arranged[cut:at] + arranged[at + width:]
                append(pos + first)
            s = arranged

        def state() -> tuple[str, tuple[int, ...]]:
            low = min(along, default=0)  # the rule only compares counters: a common offset changes nothing
            return s, tuple(map(low.__rsub__, along))

        return advance, state, lambda key: decode(key[0])


_FACTORIES = {
    "mtf": MoveToFront,
    "trans": Transpose,
    "fc": FrequencyCount,
}


def make_policy(name: str) -> Policy:
    """Build a fresh policy from its short name ('mtf', 'trans', 'fc')."""
    return choose(_FACTORIES, name, "policy")()


def _costs(advance: Callable, first: int, blocks: Iterable[Sequence[int]]) -> Iterator[list[int]]:
    """The one request-to-cost step: the costs of each of ``blocks`` in turn, requests counted from the first block."""
    served = 0
    for block in blocks:
        costs: list[int] = []
        try:
            advance(block, costs, first)
        except KeyError:  # advance keeps the costs it appended before the error
            raise ItemNotInListError(block[len(costs)], request_index=served + len(costs)) from None
        served += len(block)
        yield costs


def _serve_stream(policy: Policy, initial: tuple, blocks: Iterable[Sequence[int]], model: CostModel) -> int:
    """The total cost of serving ``blocks`` one after another, holding one block's costs at a time."""
    advance = policy._start_run(initial)[0]
    return sum(map(sum, _costs(advance, 1 - CostModel.discount(model), blocks)))


def _passes(policy: Policy, initial: tuple, sequence: RequestSequence, model: CostModel,
            keep: Callable[[list[int], tuple], None] | None = None) -> PeriodicView:
    """The one pass loop: start a run of ``policy`` from ``initial`` and serve the block of ``sequence`` pass after
    pass until a pass-end run state repeats. Return the pass totals up to the first pass that ended in that state, and
    one cycle after it. Hand ``keep``, if given, each of those passes' costs and decoded pass-end arrangement."""
    first = 1 - CostModel.discount(model)
    advance, state, arrangement = policy._start_run(initial)
    num_passes, totals = len(sequence) // len(sequence.block), []
    seen: dict = {}  # pass-end run state -> index of the first pass that ended in it
    for index, costs in enumerate(_costs(advance, first, repeat(sequence.block, num_passes))):
        key = state()
        totals.append(sum(costs))
        if keep is not None:
            keep(costs, arrangement(key))  # from the key: a transpose arrangement is the key itself, not a copy
        del costs  # so that two passes' costs are never held at once
        start = seen.setdefault(key, index)
        if start < index:
            return PeriodicView(totals[:start + 1], totals[start + 1:], num_passes)
    return PeriodicView(totals, (), num_passes)


def _pass_ends(policy: Policy, initial: tuple, sequence: RequestSequence, model: CostModel, wrap: Callable = tuple,
               store: Callable[[list[int]], object] = lambda costs: None) -> tuple[PeriodicView, PeriodicView]:
    """``_passes``'s totals, and a view of ``wrap`` of each pass-end arrangement, which repeats where the totals
    do. Hand ``store`` each stored pass's costs."""
    ends: list = []

    def keep(costs: list[int], order: tuple) -> None:
        store(costs)
        ends.append(wrap(order))

    totals = _passes(policy, initial, sequence, model, keep)
    cut = len(totals.head)
    return totals, PeriodicView(ends[:cut], ends[cut:], len(totals))


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
    other sequence is served slice by slice, with both pass fields None.

    A pass of a block is a fixed map of the run state that each rule
    defines, so once a pass-end state repeats, the passes since its first
    occurrence repeat forever. ``serve`` stops there: the ledger's views
    hold the passes before that cycle and one copy of it, and read as the
    same ledger, request for request, at any number of passes.
    """
    from array import array  # imported here, so that simulate, which stores no costs, never loads it
    from .list_core import CostLedger, ListState
    per_request = array("q")  # a cost is a position in a list held in memory: 8 bytes hold it
    if sequence.block is None:
        first = 1 - CostModel.discount(model)
        advance, state, arrangement = policy._start_run(initial.order)
        requests = iter(sequence.requests)
        for costs in _costs(advance, first, iter(lambda: tuple(islice(requests, _SLICE)), ())):
            per_request.fromlist(costs)
        return CostLedger(PeriodicView(per_request), ListState._unchecked(arrangement(state())))
    totals, configs = _pass_ends(policy, initial.order, sequence, model, ListState._unchecked, per_request.fromlist)
    cut = len(totals.head) * len(sequence.block)  # the costs repeat from where the totals do: split them in place
    cycle = per_request[cut:]
    del per_request[cut:]
    return CostLedger(PeriodicView(per_request, cycle, len(sequence)), configs[-1] if configs else initial, totals,
                      configs)
