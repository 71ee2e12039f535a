"""Policy behaviour, checked three ways: frozen examples, a naive
independent oracle, and the pure step/serve equivalence."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from solist import (
    CostModel,
    FrequencyCount,
    InvalidParameterError,
    ItemNotInListError,
    ListState,
    MoveToFront,
    RequestSequence,
    Transpose,
    explicit_sequence,
    gen_t1,
    gen_t2,
    make_policy,
    predict,
    serve,
)
from solist import policies
from solist.list_core import PeriodicView

import pairwise
import reference
from helpers import check_serve, fc_by_definition, zipf_requests

POLICIES = {
    "mtf": MoveToFront(),
    "trans": Transpose(),
    "fc": FrequencyCount(),
}


@st.composite
def instance(draw, max_n=6, max_m=24):
    n = draw(st.integers(min_value=1, max_value=max_n))
    perm = draw(st.permutations(list(range(1, n + 1))))
    m = draw(st.integers(min_value=0, max_value=max_m))
    requests = draw(st.lists(st.sampled_from(perm), min_size=m, max_size=m))
    return ListState(tuple(perm)), tuple(requests)


@pytest.mark.parametrize(
    "name, start, item, expected",
    [
        ("mtf", (1, 2, 3, 4), 3, (3, 1, 2, 4)),
        ("mtf", (4, 3, 2, 1), 1, (1, 4, 3, 2)),
        ("trans", (1, 2, 3, 4), 3, (1, 3, 2, 4)),
        ("trans", (2, 3, 4, 1), 1, (2, 3, 1, 4)),
    ],
    ids=["mtf-middle", "mtf-tail", "trans-middle", "trans-tail"],
)
def test_step_examples(name, start, item, expected):
    outcome = POLICIES[name].step(ListState(start), item)
    assert outcome.new_state.order == expected
    assert reference.run(name, start, [item])[1] == [expected]


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
@given(inst=instance())
@settings(max_examples=30)
def test_step_on_head_item_is_noop(name, inst):
    state, _ = inst
    outcome = POLICIES[name].step(state, state.order[0])
    assert outcome.cost == 1
    assert outcome.new_state == state


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
def test_step_rejects_missing_item(name):
    with pytest.raises(ItemNotInListError) as exc_info:
        POLICIES[name].step(ListState((1, 2, 3)), 9)
    assert exc_info.value.item == 9
    assert exc_info.value.request_index is None


def test_trans_step_on_tail_item():
    outcome = Transpose().step(ListState((2, 3, 4, 1)), 1, CostModel.FULL)
    assert outcome.cost == 4
    assert outcome.new_state.order == (2, 3, 1, 4)
    assert outcome.new_policy == Transpose()


def test_mtf_step_on_tail_item():
    outcome = MoveToFront().step(ListState((1, 2, 3, 4)), 4, CostModel.FULL)
    assert outcome.cost == 4
    assert outcome.new_state.order == (4, 1, 2, 3)


def test_fc_step_promotes_past_zero_counters():
    outcome = FrequencyCount().step(ListState((1, 2, 3)), 3, CostModel.FULL)
    assert outcome.cost == 3
    assert outcome.new_state.order == (3, 1, 2)
    assert outcome.new_policy.counter(3) == 1
    assert outcome.new_policy.counter(1) == 0


def test_fc_step_respects_equal_counters():
    # Equal counters block promotion: the accessed item stays behind
    # items whose counter now ties its own.
    policy = FrequencyCount(counters={1: 1, 2: 0, 3: 0})
    outcome = policy.step(ListState((1, 2, 3)), 2, CostModel.FULL)
    assert outcome.new_state.order == (1, 2, 3)
    assert outcome.new_policy.counter(2) == 1


def test_fc_step_rejects_a_counter_for_an_item_not_in_the_list():
    with pytest.raises(InvalidParameterError, match="99"):
        FrequencyCount({99: 5}).step(ListState.initial(3), 1)


def test_fc_serve_rejects_a_counter_for_an_item_not_in_the_list():
    with pytest.raises(InvalidParameterError, match="99"):
        serve(FrequencyCount({1: 2, 99: 5}), ListState.initial(3), gen_t1(3, 2))


def test_fc_preseeded_counters_control_placement():
    policy = FrequencyCount(counters={1: 5, 2: 0, 3: 0})
    outcome = policy.step(ListState((1, 2, 3)), 3, CostModel.FULL)
    assert outcome.new_state.order == (1, 3, 2)


def test_serve_trans_one_ascending_pass():
    ledger = serve(Transpose(), ListState.initial(4), gen_t1(4, 1))
    assert ledger.grand_total == 10
    assert ledger.per_request == (1, 2, 3, 4)
    assert ledger.final_state.order == (2, 3, 4, 1)


def test_serve_trans_one_descending_pass():
    ledger = serve(Transpose(), ListState.initial(4), gen_t2(4, 1))
    assert ledger.grand_total == 12
    assert ledger.per_request == (4, 4, 2, 2)
    assert ledger.final_state.order == (1, 2, 3, 4)


def test_serve_mtf_two_ascending_passes():
    ledger = serve(MoveToFront(), ListState.initial(4), gen_t1(4, 2))
    assert ledger.grand_total == 26
    assert ledger.pass_totals == (10, 16)
    assert ledger.final_state.order == (4, 3, 2, 1)


def test_serve_empty_sequence_costs_nothing():
    ledger = serve(MoveToFront(), ListState.initial(3), explicit_sequence(()))
    assert ledger.grand_total == 0
    assert ledger.per_request == ()
    assert ledger.final_state.order == (1, 2, 3)


def test_serve_records_pass_end_configs():
    ledger = serve(Transpose(), ListState.initial(4), gen_t2(4, 2))
    assert ledger.pass_end_configs is not None
    assert [s.order for s in ledger.pass_end_configs] == [(1, 2, 3, 4), (1, 2, 3, 4)]


def test_serve_rejects_unknown_model():
    with pytest.raises(InvalidParameterError):
        serve(MoveToFront(), ListState.initial(3), gen_t1(3, 1), model="half")


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
@pytest.mark.parametrize("model", ["partial", "full", None])
def test_step_rejects_unknown_model(name, model):
    # The same check as serve's: a model name is not a CostModel.
    with pytest.raises(InvalidParameterError, match="unknown cost model"):
        POLICIES[name].step(ListState.initial(4), 3, model)


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
def test_serve_reports_missing_item_with_request_index(name):
    # The missing item comes mid-stream, after requests that moved items.
    seq = explicit_sequence((3, 2, 3, 9, 1, 2))
    with pytest.raises(ItemNotInListError) as exc_info:
        serve(POLICIES[name], ListState.initial(3), seq)
    assert exc_info.value.item == 9
    assert exc_info.value.request_index == 3
    assert "request 3" in str(exc_info.value)


def test_make_policy_accepts_known_names():
    assert make_policy("mtf") == MoveToFront()
    assert make_policy("trans") == Transpose()
    assert make_policy("fc") == FrequencyCount()
    with pytest.raises(InvalidParameterError):
        make_policy("lru")


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
@given(inst=instance())
@settings(max_examples=60)
def test_serve_equals_folded_steps(name, inst):
    state, requests = inst
    for model in CostModel:
        check_serve(POLICIES[name], state, explicit_sequence(requests), model)


@st.composite
def sparse_seeded(draw, max_n=6, max_m=24):
    # Distinct ids from a wide range, most of them above 256, requests over
    # them, and frequency-count counters for some of them.
    n = draw(st.integers(min_value=1, max_value=max_n))
    ids = draw(st.lists(st.integers(min_value=1, max_value=10**9), min_size=n, max_size=n, unique=True))
    m = draw(st.integers(min_value=0, max_value=max_m))
    requests = draw(st.lists(st.sampled_from(ids), min_size=m, max_size=m))
    counters = draw(st.dictionaries(st.sampled_from(ids), st.integers(min_value=0, max_value=4)))
    return ListState(tuple(ids)), tuple(requests), counters


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
@given(inst=sparse_seeded())
@settings(max_examples=60)
def test_serve_matches_naive_oracle(name, inst):
    # What test_serve_equals_folded_steps leaves out: sparse ids, counters
    # that frequency count starts from, and the same requests as a block
    # served three times over.
    state, requests, counters = inst
    policy = FrequencyCount(counters) if name == "fc" else POLICIES[name]
    sequences = [explicit_sequence(requests)] + ([RequestSequence.repeat(requests, 3)] if requests else [])
    for sequence, model in itertools.product(sequences, CostModel):
        check_serve(policy, state, sequence, model)


@st.composite
def pass_runs(draw):
    # A shuffled list of the ids 1..n or of sparse ones, counters for some of
    # them, and a block over them served k times: an unequal block (items
    # repeated or missing) or a balanced one (every item equally often).
    n = draw(st.integers(min_value=1, max_value=6))
    sparse = st.lists(st.integers(min_value=1, max_value=10**9), min_size=n, max_size=n, unique=True)
    ids = draw(st.one_of(st.just(list(range(1, n + 1))), sparse))
    state = ListState(tuple(draw(st.permutations(ids))))
    balanced = draw(st.booleans())
    if balanced:
        block = draw(st.permutations(ids * draw(st.integers(min_value=1, max_value=2))))
    else:
        block = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=8))
    counters = draw(st.dictionaries(st.sampled_from(ids), st.integers(min_value=0, max_value=4)))
    k = draw(st.sampled_from([0, 1, 10**12]) | st.integers(min_value=2, max_value=12))
    return state, counters, tuple(block), balanced, k


def oracle_passes(name, order, counters, block, k, model):
    """The pass totals that a run stores, from the oracles one pass at a
    time: those up to the first pass that ends in an earlier pass's state,
    split into the passes before that earlier pass's successor and the
    cycle from there. A state is the arrangement, with frequency count's
    counters less their minimum."""
    totals, seen = [], {}
    for index in range(k):
        if name == "fc":
            costs, trace, counters = fc_by_definition(order, counters, block, model)
            low = min(counters.get(item, 0) for item in order)
            key = trace[-1], tuple(counters.get(item, 0) - low for item in trace[-1])
        else:
            costs, trace = reference.run(name, order, block, model.value)
            key = trace[-1]
        order = trace[-1]
        totals.append(sum(costs))
        start = seen.setdefault(key, index)
        if start < index:
            return tuple(totals[:start + 1]), tuple(totals[start + 1:])
    return tuple(totals), ()


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
@given(inst=pass_runs())
@settings(max_examples=80)
def test_pass_totals_equal_serve_and_the_oracle(name, inst):
    # The totals reader runs serve's pass loop keeping only each pass's
    # total. It returns serve's pass_totals, stored as the oracle's passes
    # up to the first repeated state, at every k.
    state, counters, block, balanced, k = inst
    if name == "fc" and not balanced:
        k = min(k, 12)  # no pass-end state of frequency count repeats on an unequal block: serve would run every pass
    policy = FrequencyCount(counters) if name == "fc" else POLICIES[name]
    sequence = RequestSequence.repeat(block, k)
    for model in CostModel:
        totals = policies._passes(policy, state, sequence, model)
        ledger = serve(policy, state, sequence, model)
        head, cycle = oracle_passes(name, state.order, counters if name == "fc" else {}, block, k, model)
        assert (tuple(totals.head), tuple(totals.cycle), len(totals)) == (head, cycle, k)
        assert totals == ledger.pass_totals
        assert totals.total() == ledger.grand_total


@st.composite
def pairwise_runs(draw, max_k=12):
    # A shuffled list of the ids 1..n or of sparse ones, frequency-count
    # counters that do not increase along it (often all zero), and an
    # unequal or a balanced block over them served k times.
    n = draw(st.integers(min_value=1, max_value=6))
    sparse = st.lists(st.integers(min_value=1, max_value=10**9), min_size=n, max_size=n, unique=True)
    order = draw(st.permutations(draw(st.one_of(st.just(list(range(1, n + 1))), sparse))))
    counts = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n) | st.just([0] * n))
    balanced = draw(st.booleans())
    if balanced:
        block = draw(st.permutations(order * draw(st.integers(min_value=1, max_value=2))))
    else:
        block = draw(st.lists(st.sampled_from(order), min_size=1, max_size=8))
    k = draw(st.integers(min_value=1, max_value=max_k) | st.just(10**12))
    return ListState(tuple(order)), dict(zip(order, sorted(counts, reverse=True))), tuple(block), balanced, k


def pairwise_view(name, order, block, model, counters, k):
    head, cycle = pairwise.pass_totals(name, order, block, model.value, counters if name == "fc" else None)
    return PeriodicView(head[:k], cycle, k)


@pytest.mark.parametrize("name", ["mtf", "fc"])
@given(inst=pairwise_runs(max_k=30))
@settings(max_examples=60)
def test_pairwise_oracle_equals_the_naive_one(name, inst):
    # The pairwise oracle against one that walks the whole list, pass by
    # pass, far enough for an unequal frequency-count pair to settle.
    state, counters, block, _, k = inst
    k = min(k, 30)
    for model in CostModel:
        if name == "fc":
            costs, _, _ = fc_by_definition(state.order, counters, block * k, model)
        else:
            costs, _ = reference.run(name, state.order, block * k, model.value)
        width = len(block)
        expected = tuple(sum(costs[i * width:(i + 1) * width]) for i in range(k))
        assert pairwise_view(name, state.order, block, model, counters, k) == expected


@pytest.mark.parametrize("family", ["T1", "T2"])
def test_pairwise_oracle_equals_the_mtf_closed_forms(family):
    for n, k in itertools.product(range(1, 9), (1, 2, 7, 10**12)):
        order = tuple(range(1, n + 1))  # T1 scans it in order, T2 in reverse
        view = pairwise_view("mtf", order, order if family == "T1" else order[::-1], CostModel.FULL, None, k)
        assert view.total() == predict("mtf", family, n, k).total


@pytest.mark.parametrize("name", ["mtf", "fc"])
@given(inst=pairwise_runs())
@settings(max_examples=60)
def test_pass_totals_equal_the_pairwise_oracle(name, inst):
    # The pass loop, alone and through serve, against the pairwise oracle,
    # at k up to 12 and at k = 10**12.
    state, counters, block, balanced, k = inst
    if name == "fc" and not balanced:
        k = min(k, 12)  # no pass-end state of frequency count repeats on an unequal block: serve would run every pass
    policy = FrequencyCount(counters) if name == "fc" else MoveToFront()
    sequence = RequestSequence.repeat(block, k)
    for model in CostModel:
        expected = pairwise_view(name, state.order, block, model, counters, k)
        totals = policies._passes(policy, state, sequence, model)
        assert totals == expected
        assert totals.total() == expected.total()
        assert serve(policy, state, sequence, model).pass_totals == expected


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
def test_pass_totals_name_a_missing_item_as_serve_does(name):
    sequence = RequestSequence.repeat((2, 3, 9, 1), 3)
    raised = []
    for read in (serve, policies._passes):
        with pytest.raises(ItemNotInListError) as caught:
            read(POLICIES[name], ListState.initial(3), sequence, CostModel.FULL)
        raised.append((caught.value.item, caught.value.request_index, str(caught.value)))
    assert raised[0] == raised[1] == (9, 2, "request 2: item 9 is not in the list")


@pytest.mark.parametrize("family", [gen_t1, gen_t2])
@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
def test_keep_is_handed_each_stored_pass_in_order(name, family):
    # k runs past the cycle: keep sees the stored passes, each once, with the
    # costs and the arrangement that the oracle gives at that pass's end.
    n, k = 6, 12
    sequence = family(n, k)
    width = len(sequence.block)
    for model in CostModel:
        kept = []
        totals = policies._passes(POLICIES[name], ListState.initial(n), sequence, model,
                                  lambda costs, order: kept.append((list(costs), order)))
        costs, trace = reference.run(name, range(1, n + 1), sequence.requests, model.value)
        stored = len(totals.head) + len(totals.cycle)
        assert stored < k
        assert kept == [(costs[i * width:(i + 1) * width], trace[(i + 1) * width - 1]) for i in range(stored)]
        assert all(type(order) is tuple for _, order in kept)
        assert [sum(pass_costs) for pass_costs, _ in kept] == list(totals[:stored])


class _Undecodable(Transpose):
    """Transpose whose runs cannot decode an arrangement."""

    def _start_run(self, initial):
        advance, state, _ = super()._start_run(initial)

        def arrangement(key):
            raise AssertionError("an arrangement was decoded")

        return advance, state, arrangement


def test_pass_totals_decode_no_arrangement():
    # Only a reader that keeps the arrangements decodes them: the totals
    # come out of a rule that cannot decode one, serve's ledger does not.
    initial, sequence = ListState.initial(7), gen_t1(7, 20)
    for model in CostModel:
        totals = policies._passes(_Undecodable(), initial, sequence, model)
        assert totals == serve(Transpose(), initial, sequence, model).pass_totals
        with pytest.raises(AssertionError, match="an arrangement was decoded"):
            serve(_Undecodable(), initial, sequence, model)


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
@given(inst=instance())
@settings(max_examples=40)
def test_partial_cost_is_full_minus_request_count(name, inst):
    state, requests = inst
    seq = explicit_sequence(requests)
    full = serve(POLICIES[name], state, seq, model=CostModel.FULL)
    partial = serve(POLICIES[name], state, seq, model=CostModel.PARTIAL)
    assert partial.grand_total == full.grand_total - len(requests)
    assert partial.final_state == full.final_state


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
@given(inst=instance())
@settings(max_examples=40)
def test_no_paid_exchanges_are_charged(name, inst):
    # All three rules only ever move the accessed item forward, which is
    # free under the full model: every other item keeps its relative order.
    state, requests = inst
    policy = POLICIES[name]
    for item in requests:
        outcome = policy.step(state, item)
        before, after = state.order, outcome.new_state.order
        assert after.index(item) <= before.index(item)
        assert [x for x in after if x != item] == [x for x in before if x != item]
        state, policy = outcome.new_state, outcome.new_policy


@st.composite
def repeated_blocks(draw):
    # Any nonempty block over the list, items repeated or missing, 0-5 times.
    state, block = draw(instance(max_m=4).filter(lambda inst: inst[1]))
    return state, RequestSequence.repeat(block, draw(st.integers(min_value=0, max_value=5)))


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
@given(inst=repeated_blocks())
@settings(max_examples=40)
def test_serve_snapshots_are_valid_states(name, inst):
    # serve builds its snapshots without re-validating them; each must
    # still be exactly what the validating constructor would build.
    state, seq = inst
    ledger = serve(POLICIES[name], state, seq)
    for snapshot in (*ledger.pass_end_configs, ledger.final_state):
        assert snapshot == ListState(tuple(snapshot.order))
        assert type(snapshot.order) is tuple


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
@given(inst=instance())
@settings(max_examples=40)
def test_serve_is_deterministic(name, inst):
    state, requests = inst
    seq = explicit_sequence(requests)
    assert serve(POLICIES[name], state, seq) == serve(POLICIES[name], state, seq)


def test_fc_small_trace():
    # Requests 2,2,3 on (1,2,3): costs 2,1,3 then 3 sits behind 2.
    ledger = serve(FrequencyCount(), ListState.initial(3), explicit_sequence((2, 2, 3)))
    assert ledger.per_request == (2, 1, 3)
    assert ledger.grand_total == 6
    assert ledger.final_state.order == (2, 3, 1)


@given(inst=instance())
@settings(max_examples=60)
def test_fc_counters_never_decrease(inst):
    state, requests = inst
    policy = FrequencyCount()
    members = state.order
    for item in requests:
        before = {x: policy.counter(x) for x in members}
        outcome = policy.step(state, item, CostModel.FULL)
        state, policy = outcome.new_state, outcome.new_policy
        assert policy.counter(item) == before[item] + 1
        assert all(policy.counter(x) >= before[x] for x in members)


@given(inst=instance())
@settings(max_examples=60)
def test_fc_keeps_counters_non_increasing_along_list(inst):
    # Starting from all-zero counters the arrangement stays sorted by
    # non-increasing counter after every single access.
    state, requests = inst
    policy = FrequencyCount()
    for item in requests:
        outcome = policy.step(state, item, CostModel.FULL)
        state, policy = outcome.new_state, outcome.new_policy
        along = [policy.counter(x) for x in state.order]
        assert along == sorted(along, reverse=True)


def test_step_does_not_mutate_inputs():
    state = ListState((1, 2, 3, 4))
    policy = FrequencyCount()
    policy.step(state, 4, CostModel.FULL)
    assert state.order == (1, 2, 3, 4)
    assert policy.counter(4) == 0


@st.composite
def perm_powers(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    start = draw(st.permutations(list(range(1, n + 1))))
    perm = draw(st.permutations(list(range(1, n + 1))))
    k = draw(st.integers(min_value=0, max_value=3 * n))
    return ListState(tuple(start)), RequestSequence.repeat(perm, k)


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
@given(inst=perm_powers())
@settings(max_examples=60)
def test_fast_forward_equals_plain_simulation(name, inst):
    # A repeated permutation is served with the pass-end fast-forward; the
    # same requests without a pass structure are simulated one by one.
    state, seq = inst
    for served, model in itertools.product((seq, explicit_sequence(seq.requests)), CostModel):
        check_serve(POLICIES[name], state, served, model)


def test_serve_fast_forwards_repeating_passes():
    # mtf on ascending scans reverses the list every pass from the first
    # on, so every later pass is a replay and shares one snapshot object.
    ledger = serve(MoveToFront(), ListState.initial(5), gen_t1(5, 6))
    configs = ledger.pass_end_configs
    assert configs[0].order == (5, 4, 3, 2, 1)
    assert all(config is configs[1] for config in configs[1:])


def test_fast_forward_replays_a_two_pass_cycle():
    # Under transpose this block alternates between two pass-end states
    # from the second pass on; every k cuts the cycle at a different point.
    start, block = (2, 1, 4, 3), (1, 1, 2, 3, 3, 1, 2)
    for k in range(1, 10):
        ledger, _, _ = check_serve(Transpose(), ListState(start), RequestSequence.repeat(block, k))
        assert ledger.pass_totals == (16, 16, 18, 15, 18, 15, 18, 15, 18)[:k]


def test_stored_costs_are_machine_ints():
    # Transpose on ascending scans of 700 items first repeats a pass-end
    # state at pass 351, so serve stores 351 passes: 245,700 costs and as
    # many config entries. An 8-byte cost and an 8-byte config pointer come
    # to about 17 bytes a request; a list of int objects comes to about 37.
    # The bound is on the peak, so it also holds the pass-end run states
    # that serve keys its fast-forward on while it runs: a transpose state
    # must be the stored arrangement itself, not a second tuple beside it.
    n, k = 700, 400
    policy, initial, sequence = Transpose(), ListState.initial(n), gen_t1(n, k)
    tracemalloc.start()
    try:
        ledger = serve(policy, initial, sequence)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stored = len(ledger.per_request.head) + len(ledger.per_request.cycle)
    assert stored == 351 * n
    assert ledger.grand_total == predict("trans", "T1", n, k).total
    assert peak / stored <= 24


def test_repeated_state_with_different_passes_is_not_replayed():
    # Two descending scans end in the same state, but the third scan is
    # ascending: with the first two as the view's head, the sequence has
    # no block, and the third scan is simulated, not copied.
    for name, n, model in itertools.product(POLICIES, (2, 3, 6), CostModel):
        down, up = tuple(range(n, 0, -1)), tuple(range(1, n + 1))
        check_serve(POLICIES[name], ListState.initial(n), RequestSequence(PeriodicView(down + down, up, 3 * n)), model)


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
def test_sequence_ending_partway_through_its_cycle_is_one_pass(name):
    # Five requests from a cycle of two: the trailing request is served.
    for model in CostModel:
        check_serve(POLICIES[name], ListState.initial(3), RequestSequence(PeriodicView((), (1, 2), 5)), model)


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
@pytest.mark.parametrize(
    "seq, index",
    [
        (RequestSequence.repeat((1, 9), 3), 1),
        (RequestSequence(PeriodicView((1, 2, 3) * 2, (1, 9, 3), 9)), 7),
        (RequestSequence.repeat((1, 2, 3, 4), 3), 3),
    ],
    ids=["periodic", "last-pass", "whole-perm"],
)
def test_pass_structure_keeps_missing_item_index(name, seq, index):
    # Served pass by pass (a repeated block), as one pass over a view with
    # a head, and as the same requests in a plain tuple.
    for served in (seq, explicit_sequence(seq.requests)):
        with pytest.raises(ItemNotInListError) as exc_info:
            serve(POLICIES[name], ListState.initial(3), served)
        assert exc_info.value.request_index == index
        assert exc_info.value.item == seq.requests[index]


SLICE = policies._SLICE


@pytest.mark.parametrize("length", [0, 1, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 3])
@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
def test_stream_slices_match_the_oracle(name, length):
    # A stream without passes is served a slice at a time: lengths on
    # either side of a slice boundary lose no request and repeat none.
    rng = random.Random(length)
    order = list(range(1, 8))
    rng.shuffle(order)
    requests = tuple(rng.choices(order, weights=range(7, 0, -1), k=length))
    for model in CostModel:
        check_serve(POLICIES[name], ListState(tuple(order)), explicit_sequence(requests), model)


@pytest.mark.parametrize("index", [0, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE - 1, 2 * SLICE, 2 * SLICE + 2])
@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
def test_missing_item_index_counts_from_the_stream_start(name, index):
    # The index of a request for an id not in the list counts every
    # request of the earlier slices, at and next to each boundary.
    rng = random.Random(index)
    requests = [rng.randint(1, 5) for _ in range(2 * SLICE + 3)]
    requests[index] = 6
    for model in CostModel:
        with pytest.raises(ItemNotInListError) as exc_info:
            serve(POLICIES[name], ListState.initial(5), explicit_sequence(requests), model)
        assert (exc_info.value.item, exc_info.value.request_index) == (6, index)


@pytest.mark.parametrize("length", [6, 2 * SLICE + 1])
@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
def test_head_and_cycle_without_passes_match_the_oracle(name, length):
    # A head makes the view no repetition of one block, so it has no
    # passes; its slices run across the head and cycle alike.
    for model in CostModel:
        check_serve(POLICIES[name], ListState.initial(3), RequestSequence(PeriodicView((1,), (2, 3), length)), model)


def test_stream_without_passes_holds_one_slice_of_int_costs():
    # 200k Zipf-like requests over 1000 shuffled ids: the ledger's 8-byte
    # costs take 1.6 MB. Holding the stream's costs as a list of int
    # objects as well peaked at 4.58 MB.
    order, requests = zipf_requests(200_000, seed=1)
    sequence = explicit_sequence(requests)
    policy, initial = make_policy("trans"), ListState(tuple(order))
    tracemalloc.start()
    try:
        ledger = serve(policy, initial, sequence)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ledger.per_request) == 200_000
    assert peak <= 2.5e6


def test_fc_fast_forward_keys_on_counter_gaps():
    # Item 2 passes item 1 (preseeded at 5) only on its sixth access, while
    # the arrangement stays (1, 2, 3) until then: the counters, not the
    # arrangement alone, decide when passes start to repeat.
    seq = RequestSequence.repeat((2,), 8)
    ledger = serve(FrequencyCount({1: 5}), ListState.initial(3), seq)
    assert ledger.per_request == (2,) * 6 + (1, 1)
    assert ledger.final_state.order == (2, 1, 3)


@given(
    inst=instance(max_m=8),
    k=st.integers(min_value=0, max_value=12),
    seeds=st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6),
)
@settings(max_examples=60)
def test_fc_fast_forward_with_seeded_counters(inst, k, seeds):
    state, block = inst
    policy = FrequencyCount(dict(zip(state.order, seeds)))
    for seq in (RequestSequence.repeat(block, k) if block else explicit_sequence(()), explicit_sequence(block * k)):
        check_serve(policy, state, seq)


@st.composite
def sparse_ids(draw, max_n=40, max_m=200):
    # Distinct ids drawn from a wide range, none of them 1..n and most of
    # them above 256, so a kernel cannot lean on an item being its own
    # index or on small ints being shared objects.
    n = draw(st.integers(min_value=1, max_value=max_n))
    ids = draw(st.lists(st.integers(min_value=n + 1, max_value=10**9), min_size=n, max_size=n, unique=True))
    m = draw(st.integers(min_value=0, max_value=max_m))
    requests = draw(st.lists(st.sampled_from(ids), min_size=m, max_size=m))
    perm = draw(st.permutations(list(range(1, n + 1))))
    return ListState(tuple(ids)), tuple(requests), perm


@given(inst=sparse_ids())
@settings(max_examples=80)
def test_trans_position_map_with_sparse_ids(inst):
    state, requests, perm = inst
    n = len(state.order)
    # The same ids requested as a repeated permutation: serve keys its
    # fast-forward on the configuration the position map keeps in step.
    k = max(1, len(requests) // n)
    repeated = RequestSequence.repeat([state.order[i - 1] for i in perm], k)
    for seq, model in itertools.product((explicit_sequence(requests), repeated), CostModel):
        check_serve(Transpose(), state, seq, model)


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("name", ["mtf", "fc"])
@given(inst=sparse_ids(), seeds=st.lists(st.integers(min_value=0, max_value=3), min_size=40, max_size=40))
@settings(max_examples=50)
def test_scan_kernels_with_sparse_ids(name, width, inst, seeds):
    # Ids above 0x10FFFF cannot be confused with the code points that
    # stand for them. Width 2 lowers the one-code-point limit so that
    # small lists take the two-code-point tokens of very long ones.
    state, requests, perm = inst
    n = len(state.order)
    k = max(1, len(requests) // n)
    repeated = RequestSequence.repeat([state.order[i - 1] for i in perm], k)
    if name == "mtf":
        rules = [MoveToFront()]
    else:
        # Seeded counters are in no particular order along the list, so the
        # rule can move an item past some but not all smaller counters.
        rules = [FrequencyCount(), FrequencyCount(dict(zip(state.order, seeds)))]
    limit = policies._ONE_CODE_POINT_ITEMS if width == 1 else 2
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(policies, "_ONE_CODE_POINT_ITEMS", limit)
        assert policies._encode(state.order)[1] == (width if n > 2 else 1)
        for policy, seq, model in itertools.product(rules, (explicit_sequence(requests), repeated), CostModel):
            check_serve(policy, state, seq, model)


@pytest.mark.parametrize("name", ["mtf", "fc"])
def test_two_code_point_tokens_report_missing_item(name, monkeypatch):
    monkeypatch.setattr(policies, "_ONE_CODE_POINT_ITEMS", 2)
    state = ListState((7, 3, 10**9, 5))
    assert policies._encode(state.order)[1] == 2
    seq = explicit_sequence((5, 10**9, 5, 3, 4, 7))
    with pytest.raises(ItemNotInListError) as exc_info:
        serve(POLICIES[name], state, seq)
    assert exc_info.value.item == 4
    assert exc_info.value.request_index == 4


@st.composite
def two_runs(draw, max_n=4):
    # One initial list, frequency-count counters for it or none, two
    # request prefixes (the second often a reordering of the first, so that
    # equal counters come up) and one more block to serve after either.
    n = draw(st.integers(min_value=1, max_value=max_n))
    start = draw(st.permutations(list(range(1, n + 1))))
    counters = draw(st.one_of(st.none(), st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)))
    items = st.lists(st.sampled_from(start), max_size=10)
    first = draw(items)
    second = draw(st.one_of(items, st.permutations(first)))
    return ListState(tuple(start)), counters, (first, second), draw(items)


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
@given(inst=two_runs())
@settings(max_examples=150)
def test_equal_run_states_serve_alike(name, inst):
    # Two runs from one list are in equal states exactly when the oracles
    # put them in equal arrangements and, for frequency count, give them
    # equal counters less their minimum; in equal states they then serve
    # any further block at the same costs into the same arrangements.
    state, counters, prefixes, block = inst
    policy = FrequencyCount(dict(zip(state.order, counters))) if name == "fc" and counters else POLICIES[name]
    runs, expected = [], []
    for prefix in prefixes:
        advance, run_state, arrangement = run = policy._start_run(state)
        advance(prefix, [], 1)
        if name == "fc":
            _, trace, after = fc_by_definition(state.order, policy.counters, prefix, CostModel.FULL)
            counts = [after.get(item, 0) for item in state.order]
            extra = {item: count - min(counts) for item, count in zip(state.order, counts)}
        else:
            _, trace = reference.run(name, list(state.order), prefix)
            extra = None
        order = trace[-1] if trace else state.order
        assert arrangement(run_state()) == order
        runs.append(run)
        expected.append((order, extra))
    (advance_1, state_1, arrangement_1), (advance_2, state_2, arrangement_2) = runs
    equal = state_1() == state_2()
    assert equal == (expected[0] == expected[1])
    if equal:
        assert hash(state_1()) == hash(state_2())
        costs_1, costs_2 = [], []
        for item in block:  # one request per call, against the whole block in one call
            advance_1((item,), costs_1, 1)
        advance_2(block, costs_2, 1)
        assert costs_1 == costs_2
        assert arrangement_1(state_1()) == arrangement_2(state_2())
        assert state_1() == state_2()


def serve_battery():
    """Fixed cases for ``check_serve``: (label, list, sequence). Each shape
    is built over a shuffle of 1..7 and over seven sparse ids, six of them
    above 256; one more case serves the empty list."""
    rng = random.Random(0)
    cases = []
    for ids in (list(range(1, 8)), rng.sample(range(257, 10**9), 6) + [3]):
        rng.shuffle(ids)
        n, state = len(ids), ListState(tuple(ids))
        stream = rng.choices(ids, range(n, 0, -1), k=SLICE + 5)
        block = rng.choices(ids[1:], k=2 * n)  # items repeated, and ids[0] missing
        cases += [
            ("stream across a slice boundary", state, explicit_sequence(stream)),
            ("repeated permutation", state, RequestSequence.repeat(rng.sample(ids, n), 3 * n)),
            ("repeated block", state, RequestSequence.repeat(block, 9)),
            ("head and cycle", state, RequestSequence(PeriodicView(ids[::-1], block[:5], n + 5 * 40 + 3))),
            ("zero passes", state, RequestSequence.repeat(ids, 0)),
        ]
    return cases + [("empty list", ListState(()), explicit_sequence(()))]


BATTERY_RULES = {
    "mtf": lambda order: MoveToFront(),
    "trans": lambda order: Transpose(),
    "fc": lambda order: FrequencyCount(),
    # Counters in no order along a shuffled list: an item can pass some
    # smaller counters but not all.
    "fc-seeded": lambda order: FrequencyCount({item: item % 4 for item in order}),
}


@pytest.mark.parametrize("rule", BATTERY_RULES)
def test_serve_battery(rule):
    # Seeded and hypothesis-free, so that a run shows the same cases every
    # time: every serving shape against the whole contract, on both models.
    for (label, state, seq), model in itertools.product(serve_battery(), CostModel):
        try:
            check_serve(BATTERY_RULES[rule](state.order), state, seq, model)
        except AssertionError as failure:
            raise AssertionError(f"{label}, {model.value} model over {state.order}") from failure
