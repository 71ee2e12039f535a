"""Policy behaviour, checked three ways: frozen examples, a naive
independent oracle, and the pure step/serve equivalence."""

import itertools

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
    serve,
)
from solist import policies
from solist.list_core import PeriodicView

import reference

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


def fold_steps(policy, state, requests, model=CostModel.FULL):
    costs = []
    for item in requests:
        outcome = policy.step(state, item, model)
        costs.append(outcome.cost)
        state = outcome.new_state
        policy = outcome.new_policy
    return tuple(costs), state, policy


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
    seq = explicit_sequence(requests)
    for model in CostModel:
        ledger = serve(POLICIES[name], state, seq, model)
        costs, final, policy = fold_steps(POLICIES[name], state, requests, model)
        oracle_costs, trace = reference.run(name, list(state.order), list(requests), model.value)
        assert ledger.per_request == costs == tuple(oracle_costs)
        assert ledger.grand_total == sum(costs)
        assert ledger.final_state == final
        if requests:
            assert final.order == trace[-1]
        if name == "fc":
            assert all(policy.counter(x) == requests.count(x) for x in state.order)


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
@given(inst=instance())
@settings(max_examples=60)
def test_serve_matches_naive_oracle(name, inst):
    state, requests = inst
    ledger = serve(POLICIES[name], state, explicit_sequence(requests))
    costs, trace = reference.run(name, list(state.order), list(requests))
    assert ledger.per_request == tuple(costs)
    if requests:
        assert ledger.final_state.order == trace[-1]


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
    n = len(state.order)
    for model in CostModel:
        ledger = serve(POLICIES[name], state, seq, model)
        plain = serve(POLICIES[name], state, explicit_sequence(seq.requests), model)
        assert ledger.per_request == plain.per_request
        assert ledger.grand_total == plain.grand_total
        assert ledger.final_state == plain.final_state
        costs, trace = reference.run(name, list(state.order), list(seq.requests), model.value)
        assert ledger.per_request == tuple(costs)
        assert ledger.pass_totals == tuple(
            sum(costs[start:start + n]) for start in range(0, len(costs), n)
        )
        assert [c.order for c in ledger.pass_end_configs] == trace[n - 1::n]


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
        requests = block * k
        ledger = serve(Transpose(), ListState(start), RequestSequence.repeat(block, k))
        costs, trace = reference.run("trans", list(start), list(requests))
        assert ledger.per_request == tuple(costs)
        assert ledger.pass_totals == (16, 16, 18, 15, 18, 15, 18, 15, 18)[:k]
        assert [c.order for c in ledger.pass_end_configs] == trace[6::7]
        assert ledger.final_state.order == trace[-1]


def one_pass_matches_the_oracle(name, state, seq):
    # A sequence that is not repetitions of one block is served whole, as
    # one pass: every request of its view, head and cycle, and no passes.
    for model in CostModel:
        ledger = serve(POLICIES[name], state, seq, model)
        costs, trace = reference.run(name, list(state.order), list(seq.requests), model.value)
        assert ledger.per_request == tuple(costs)
        assert ledger.final_state.order == trace[-1]
        assert ledger.pass_totals is None and ledger.pass_end_configs is None


def test_repeated_state_with_different_passes_is_not_replayed():
    # Two descending scans end in the same state, but the third scan is
    # ascending: with the first two as the view's head, the sequence has
    # no block, and the third scan is simulated, not copied.
    for name, n in itertools.product(POLICIES, (2, 3, 6)):
        down, up = tuple(range(n, 0, -1)), tuple(range(1, n + 1))
        seq = RequestSequence(PeriodicView(down + down, up, 3 * n))
        one_pass_matches_the_oracle(name, ListState.initial(n), seq)


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
def test_sequence_ending_partway_through_its_cycle_is_one_pass(name):
    # Five requests from a cycle of two: the trailing request is served.
    one_pass_matches_the_oracle(name, ListState.initial(3), RequestSequence(PeriodicView((), (1, 2), 5)))


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
    requests = block * k
    ledger = serve(policy, state, RequestSequence.repeat(block, k) if block else explicit_sequence(()))
    plain = serve(policy, state, explicit_sequence(requests))
    assert ledger.per_request == plain.per_request
    assert ledger.final_state == plain.final_state


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
    for seq in (explicit_sequence(requests), repeated):
        for model in CostModel:
            ledger = serve(Transpose(), state, seq, model)
            costs, final, _ = fold_steps(Transpose(), state, seq.requests, model)
            oracle_costs, trace = reference.run("trans", list(state.order), list(seq.requests), model.value)
            assert ledger.per_request == costs == tuple(oracle_costs)
            assert ledger.grand_total == sum(costs)
            assert ledger.final_state == final
            assert final.order == (trace[-1] if trace else state.order)
            if seq.block is not None:
                assert ledger.pass_totals == tuple(
                    sum(costs[start:start + n]) for start in range(0, len(costs), n)
                )
                assert [c.order for c in ledger.pass_end_configs] == trace[n - 1::n]


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
        for policy, seq, model in itertools.product(
            rules, (explicit_sequence(requests), repeated), CostModel
        ):
            ledger = serve(policy, state, seq, model)
            costs, final, after = fold_steps(policy, state, seq.requests, model)
            if name == "fc" and policy.counters:
                # reference.run starts frequency count from zero counters.
                oracle_costs, trace, counters = fc_by_definition(state.order, policy.counters, seq.requests, model)
                assert all(after.counter(item) == counters[item] for item in state.order)
            else:
                oracle_costs, trace = reference.run(name, list(state.order), list(seq.requests), model.value)
            assert ledger.per_request == costs == tuple(oracle_costs)
            assert ledger.grand_total == sum(costs)
            assert ledger.final_state == final
            assert final.order == (trace[-1] if trace else state.order)
            if seq.block is not None:
                assert ledger.pass_totals == tuple(
                    sum(costs[start:start + n]) for start in range(0, len(costs), n)
                )
                assert [c.order for c in ledger.pass_end_configs] == trace[n - 1::n]


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
