"""Exact per-pass costs of move-to-front and frequency count at any number
of passes, from pairs of items. Used only as an oracle.

Both rules have the pairwise property: whether item x is ahead of item y
depends only on their starting order, their starting counters and the
requests for x and y. Under the partial model a request costs the number
of items ahead of it, one for each other item, so a run's cost is the sum
over pairs of what the rule charges on the two-item list of that pair;
the full model adds one per request. This is the list factoring of
J. L. Bentley and C. C. McGeoch, "Amortized analyses of self-organizing
sequential search heuristics", CACM 28(4), 1985.

Frequency count has the property when its counters do not increase along
the list, zero counters among them. The list then stays in non-increasing
counter order, and an accessed item passes exactly the items whose counter
its new counter exceeds. Where counters rise somewhere along the list the
rule's walk can stop at a third item, and this oracle refuses them.
Transpose lacks the property; ``reference.py`` stays its oracle.

Nothing here shares code with the library.
"""

from itertools import combinations
from math import lcm


def pass_totals(rule, order, block, model="full", counters=None):
    """The cost of each pass when ``block`` is requested over and over from
    the list ``order``, as (head, cycle): pass i (from 0) costs head[i]
    while i < len(head), and cycle[(i - len(head)) % len(cycle)] after.
    ``rule`` is "mtf" or "fc"; ``counters`` maps items to frequency count's
    starting counters, an absent item counting 0."""
    counters = counters or {}
    if rule == "fc":
        along = [counters.get(item, 0) for item in order]
        assert along == sorted(along, reverse=True), "counters must not increase along the list"
    else:
        assert rule == "mtf" and not counters, f"no pairwise oracle for {rule} with counters {counters}"
    pairs = [_pair_passes(rule, block, x, y, counters.get(x, 0) - counters.get(y, 0))
             for x, y in combinations(order, 2)]
    # Past the longest pair head, every pair repeats with the lcm of their cycles.
    length = max((len(head) for head, _ in pairs), default=0)
    period = lcm(*(len(cycle) for _, cycle in pairs))
    totals = [0 if model == "partial" else len(block)] * (length + period)  # the full model's one per request
    for head, cycle in pairs:
        for i in range(length + period):
            totals[i] += head[i] if i < len(head) else cycle[(i - len(head)) % len(cycle)]
    return tuple(totals[:length]), tuple(totals[length:])


def _pair_passes(rule, block, x, y, lead):
    """The per-pass cost of the two-item list (x, y), x in front and its
    counter ``lead`` above y's, as (head, cycle)."""
    requests = [item for item in block if item == x or item == y]
    drift = requests.count(x) - requests.count(y)  # what one pass adds to the lead
    # A lead of more than one pass's requests keeps its item in front for
    # the whole pass, and if the drift favours that item the lead never
    # shrinks again: from there every pass costs the same, whatever the lead.
    bound = len(requests) + 1
    x_ahead, costs, seen = True, [], {}
    while True:
        if rule == "mtf":
            state = x_ahead
        else:
            state = x_ahead, min(lead, bound) if drift > 0 else max(lead, -bound) if drift < 0 else lead
        if state in seen:
            start = seen[state]
            return tuple(costs[:start]), tuple(costs[start:])
        seen[state] = len(costs)
        cost = 0
        for item in requests:
            if item == x:
                cost += not x_ahead
                lead += 1
                x_ahead = x_ahead or rule == "mtf" or lead > 0
            else:
                cost += x_ahead
                lead -= 1
                x_ahead = x_ahead and rule == "fc" and lead >= 0
        costs.append(cost)
