"""What several test modules share: ``check_serve``, which checks
``serve``'s whole contract on one case against the naive oracles;
Zipf-like request streams and the list/sequence files that hold them, a
fast transpose walk that totals them; and a ``python -m solist`` child
run under an address-space limit.

The walk is an oracle like ``reference.run``, but it keeps a position
dict, so it takes O(1) a request where ``reference.run`` rebuilds the
list: the request files here hold up to 200,000 requests and lists of
up to 190,000 ids.
"""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from solist import CostModel, FrequencyCount, MoveToFront, Transpose, serve

import reference

SRC = Path(__file__).resolve().parent.parent / "src"

# RLIMIT_AS bounds a child's address space on Linux; elsewhere it is not enforced.
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")


def fold_steps(policy, state, requests, model=CostModel.FULL):
    """Serve ``requests`` one ``policy.step`` at a time: the costs, last state and last policy."""
    costs = []
    for item in requests:
        outcome = policy.step(state, item, model)
        costs.append(outcome.cost)
        state = outcome.new_state
        policy = outcome.new_policy
    return tuple(costs), state, policy


def fc_by_definition(order, counters, requests, model):
    """Frequency count as its docstring states it, from any counters:
    rebuild the list with the item moved past the run of predecessors
    whose counters are strictly smaller than its new counter."""
    order, counters = list(order), dict(counters)
    costs, trace = [], []
    for item in requests:
        costs.append(reference.walk_cost(order, item, model.value))
        at = order.index(item)
        counters[item] = counters.get(item, 0) + 1
        ahead = order[:at]
        while ahead and counters.get(ahead[-1], 0) < counters[item]:
            ahead.pop()
        order = ahead + [item] + [x for x in order[len(ahead):] if x != item]
        trace.append(tuple(order))
    return costs, trace, counters


def check_serve(policy, state, sequence, model=CostModel.FULL):
    """Check ``serve(policy, state, sequence, model)`` against the oracle
    (``reference.run``, or ``fc_by_definition`` for seeded counters) and
    against folding ``policy.step``: its costs, total, final state and,
    for a repeated block, its per-pass totals and pass-end arrangements.
    Return the ledger, the oracle's costs and its arrangement after each
    request."""
    requests = list(sequence.requests)
    ledger = serve(policy, state, sequence, model)
    costs, final, after = fold_steps(policy, state, requests, model)
    name = {MoveToFront: "mtf", Transpose: "trans", FrequencyCount: "fc"}[type(policy)]
    if name == "fc" and policy.counters:  # reference.run starts frequency count from zero counters
        oracle_costs, trace, _ = fc_by_definition(state.order, policy.counters, requests, model)
    else:
        oracle_costs, trace = reference.run(name, state.order, requests, model.value)
    assert ledger.per_request == costs == tuple(oracle_costs)
    assert ledger.grand_total == sum(costs)
    assert ledger.final_state == final
    assert final.order == (trace[-1] if trace else state.order)
    if name == "fc":
        counted = Counter(policy.counters) + Counter(requests)
        assert all(after.counter(item) == counted[item] for item in state.order)
    block = sequence.block
    if block is None:
        assert ledger.pass_totals is None and ledger.pass_end_configs is None
    else:
        n = len(block)
        assert ledger.pass_totals == tuple(sum(costs[i:i + n]) for i in range(0, len(costs), n))
        assert [c.order for c in ledger.pass_end_configs] == trace[n - 1::n]
    return ledger, costs, trace


def zipf_requests(count, seed):
    """The ids 1..1000 in a seeded shuffle, and ``count`` requests over
    them that ask for the shuffle's r-th id with weight 1/r."""
    rng = random.Random(seed)
    order = list(range(1, 1001))
    rng.shuffle(order)
    return order, rng.choices(order, weights=[1 / rank for rank in range(1, 1001)], k=count)


def write_request_files(directory, order, lines):
    """Write ``order`` as ``directory``'s list file and each of ``lines`` as
    one line of its sequence file; return the two paths."""
    list_file, seq_file = directory / "list.txt", directory / "seq.txt"
    list_file.write_text(" ".join(map(str, order)) + "\n")
    seq_file.write_text("".join(" ".join(map(str, line)) + "\n" for line in lines))
    return list_file, seq_file


def zipf_files(directory, count, seed):
    """``zipf_requests(count, seed)`` written 20 requests a line; returns the
    two paths and the stream's transpose total."""
    order, requests = zipf_requests(count, seed)
    list_file, seq_file = write_request_files(directory, order, (requests[i:i + 20] for i in range(0, count, 20)))
    return list_file, seq_file, transpose_total(order, requests)


def transpose_total(order, requests):
    """The full-model cost of serving ``requests`` by transpose from ``order``."""
    order = list(order)
    where = {item: at for at, item in enumerate(order)}
    total = 0
    for item in requests:
        at = where[item]
        total += at + 1
        if at:
            ahead = order[at - 1]
            order[at - 1], order[at] = item, ahead
            where[item], where[ahead] = at - 1, at
    return total


def child_env():
    """The environment with this checkout's ``src`` first on the path."""
    return dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))


def solist_child(*argv, limit_mb=None, **options):
    """Run ``python -m solist *argv`` and return the completed process, its
    output captured as text unless ``options`` say otherwise. With
    ``limit_mb``, the child's address space is limited to that many MiB."""

    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (limit_mb * 2**20, limit_mb * 2**20))

    options = {"capture_output": True, "text": True, "timeout": 120, **options}
    return subprocess.run([sys.executable, "-m", "solist", *argv], env=child_env(),
                          preexec_fn=limit if limit_mb else None, **options)
