import dataclasses

import pytest
from hypothesis import given, strategies as st

from solist import (
    CostLedger,
    CostModel,
    FrequencyCount,
    InvalidParameterError,
    ListState,
    MoveToFront,
    Transpose,
    gen_t1,
    make_policy,
    serve,
)
from solist.list_core import PeriodicView

import reference


@st.composite
def state_and_item(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    perm = draw(st.permutations(list(range(1, n + 1))))
    item = draw(st.sampled_from(perm))
    return ListState(tuple(perm)), item


def test_position_of_state_after_two_ascending_transpose_passes():
    # (3,2,4,1) is where transpose leaves (1,2,3,4) after two ascending
    # passes; derive it with the naive oracle rather than trusting the
    # frozen tuple.
    _, trace = reference.run("trans", [1, 2, 3, 4], [1, 2, 3, 4] * 2)
    assert trace[-1] == (3, 2, 4, 1)
    assert trace[-1].index(4) + 1 == 3


def test_step_full_charges_position():
    assert MoveToFront().step(ListState((1, 2, 3, 4)), 4, CostModel.FULL).cost == 4


def test_step_partial_charges_comparisons():
    assert MoveToFront().step(ListState((1, 2, 3, 4)), 4, CostModel.PARTIAL).cost == 3
    assert MoveToFront().step(ListState((1, 2, 3, 4)), 1, CostModel.PARTIAL).cost == 0


def test_step_defaults_to_full():
    assert MoveToFront().step(ListState((1, 2, 3, 4)), 2).cost == 2


def test_cost_model_discount():
    assert CostModel.discount(CostModel.FULL) == 0
    assert CostModel.discount(CostModel.PARTIAL) == 1
    for model in ("partial", 1, None):
        with pytest.raises(InvalidParameterError):
            CostModel.discount(model)


def test_liststate_rejects_duplicates():
    with pytest.raises(InvalidParameterError):
        ListState((1, 2, 2))


def test_initial_builds_canonical_list():
    assert ListState.initial(4).order == (1, 2, 3, 4)
    assert ListState.initial(4) == ListState((1, 2, 3, 4))


def test_contains_and_n():
    state = ListState((5, 2, 9))
    assert state.n == 3


@given(state_and_item())
def test_partial_is_full_minus_one(si):
    state, item = si
    for policy in (MoveToFront(), Transpose(), FrequencyCount()):
        assert policy.step(state, item, CostModel.PARTIAL).cost == policy.step(state, item).cost - 1


@given(state_and_item())
def test_operations_preserve_item_set(si):
    state, item = si
    for policy in (MoveToFront(), Transpose()):
        result = policy.step(state, item).new_state
        assert sorted(result.order) == sorted(state.order)


@given(state_and_item())
def test_repeated_transpose_reaches_front(si):
    state, item = si
    for _ in range(state.order.index(item)):
        state = Transpose().step(state, item).new_state
    assert state.order[0] == item


@given(state_and_item())
def test_transpose_moves_one_adjacent_pair_or_nothing(si):
    state, item = si
    after = Transpose().step(state, item).new_state
    changed = [i for i, (a, b) in enumerate(zip(state.order, after.order)) if a != b]
    assert changed == [] or (len(changed) == 2 and changed[1] == changed[0] + 1)


def test_ledger_grand_total_is_sum_of_components():
    ledger = CostLedger(
        per_request=(1, 2, 3),
        final_state=ListState((1, 2, 3)),
    )
    assert ledger.grand_total == 6


def test_ledger_rejects_pass_totals_that_do_not_sum():
    with pytest.raises(InvalidParameterError):
        CostLedger(
            per_request=(1, 2, 3, 4),
            final_state=ListState((1, 2, 3, 4)),
            pass_totals=(3, 8),
            pass_end_configs=(ListState((1, 2, 3, 4)), ListState((1, 2, 3, 4))),
        )


def test_ledger_rejects_negative_costs():
    with pytest.raises(InvalidParameterError):
        CostLedger(
            per_request=(-1,),
            final_state=ListState((1,)),
        )


def test_ledger_rejects_negative_costs_in_the_cycle():
    with pytest.raises(InvalidParameterError):
        CostLedger(
            per_request=PeriodicView((3,), (-1,), 4),
            final_state=ListState((1,)),
        )


@st.composite
def views(draw):
    head = tuple(draw(st.lists(st.integers(0, 3), max_size=5)))
    cycle = tuple(draw(st.lists(st.integers(0, 3), max_size=4)))
    length = len(head) + (draw(st.integers(0, 12)) if cycle else 0)
    expanded = head + tuple(cycle[i % len(cycle)] for i in range(length - len(head))) if cycle else head
    return PeriodicView(head, cycle, length), expanded


@given(inst=views(), data=st.data())
def test_periodic_view_reads_as_its_expansion(inst, data):
    view, expanded = inst
    assert len(view) == len(expanded)
    assert tuple(view) == expanded
    assert view == expanded and expanded == view
    assert view != expanded + (9,)
    assert [view[i] for i in range(-len(expanded), len(expanded))] == list(expanded * 2)
    for index in (len(expanded), -len(expanded) - 1):
        with pytest.raises(IndexError):
            view[index]
    cut = data.draw(st.slices(len(expanded) + 2))
    assert view[cut] == expanded[cut]
    assert [view.total(stop) for stop in range(-1, len(expanded) + 2)] == [
        sum(expanded[:max(stop, 0)]) for stop in range(-1, len(expanded) + 2)
    ]
    assert view.total() == sum(expanded)
    assert sorted(view.stored()) == sorted(view.head + view.cycle[:len(expanded) - len(view.head)])
    # The same elements split another way: one more element in the head,
    # the cycle rotated to match.
    if len(expanded) > len(view.head) and view.cycle:
        other = PeriodicView(view.head + view.cycle[:1], view.cycle[1:] + view.cycle[:1], len(expanded))
        assert other == view
    with pytest.raises(TypeError):
        hash(view)


def test_periodic_views_with_unequal_periods():
    # (1, 2) and (1, 2, 1) agree on their first three elements and differ
    # at the fourth, inside their common period of six.
    assert PeriodicView((), (1, 2), 12) != PeriodicView((), (1, 2, 1), 12)
    assert PeriodicView((), (1, 2), 12) == PeriodicView((1, 2), (1, 2, 1, 2), 12)
    assert PeriodicView((), (1, 2), 12) != PeriodicView((), (1, 2), 10)


def test_membership_reads_only_the_stored_elements():
    compared = []

    class Probe:
        def __eq__(self, other):
            compared.append(other)
            assert len(compared) <= 3, "compared past the three stored elements"
            return False

    probes = (Probe(), Probe(), Probe())
    view = PeriodicView(probes[:1], probes[1:], 10**12)
    assert 7 not in view
    assert compared == [7, 7, 7]
    compared.clear()
    assert probes[2] in view
    # Every pass of mtf on t1 ends reversed, at any number of passes.
    configs = serve(make_policy("mtf"), ListState.initial(5), gen_t1(5, 10**12)).pass_end_configs
    assert ListState((5, 4, 3, 2, 1)) in configs
    assert ListState.initial(5) not in configs


def test_index_and_count_read_only_the_stored_elements():
    compared = []

    class Probe:
        def __eq__(self, other):
            compared.append(other)
            assert len(compared) <= 3, "compared past the three stored elements"
            return False

    probes = (Probe(), Probe(), Probe())
    view = PeriodicView(probes[:1], probes[1:], 10**12)
    with pytest.raises(ValueError):
        view.index(7)
    assert compared == [7, 7, 7]
    compared.clear()
    assert view.count(7) == 0
    assert compared == [7, 7, 7]
    compared.clear()
    assert view.index(probes[2]) == 2
    assert view.index(probes[2], 10**11) == 10**11
    assert view.index(probes[1], -3) == 10**12 - 3
    compared.clear()
    assert view.count(probes[2]) == (10**12 - 1) // 2
    # Every pass of mtf on t1 ends reversed, at any number of passes.
    configs = serve(make_policy("mtf"), ListState.initial(5), gen_t1(5, 10**12)).pass_end_configs
    assert configs.index(ListState((5, 4, 3, 2, 1))) == 0
    assert configs.count(ListState((5, 4, 3, 2, 1))) == 10**12
    assert configs.count(ListState.initial(5)) == 0


@given(inst=views(), data=st.data())
def test_index_and_count_match_the_expansion(inst, data):
    view, expanded = inst
    bounds = st.integers(-len(expanded) - 2, len(expanded) + 2)
    start, stop = data.draw(bounds), data.draw(bounds)
    for value in range(-1, 5):
        assert view.count(value) == expanded.count(value)
        for args in ((value,), (value, start), (value, start, stop)):
            try:
                expected = expanded.index(*args)
            except ValueError:
                with pytest.raises(ValueError):
                    view.index(*args)
            else:
                assert view.index(*args) == expected


def test_replace_revalidates_states_and_ledgers():
    # dataclasses.replace builds a new instance through __init__, so it
    # runs the same checks as the constructor.
    state = ListState((2, 1, 3))
    assert dataclasses.replace(state) == state
    with pytest.raises(InvalidParameterError):
        dataclasses.replace(state, order=(1, 1))
    ledger = serve(make_policy("trans"), ListState.initial(4), gen_t1(4, 10))
    assert dataclasses.replace(ledger) == ledger
    with pytest.raises(InvalidParameterError):
        dataclasses.replace(ledger, per_request=PeriodicView((3,), (-1,), 4))
    with pytest.raises(InvalidParameterError):
        dataclasses.replace(ledger, pass_totals=PeriodicView((), (1,), 10))


def test_periodic_view_rejects_impossible_shapes():
    with pytest.raises(InvalidParameterError):
        PeriodicView((1, 2), (), 3)
    with pytest.raises(InvalidParameterError):
        PeriodicView((1, 2), (3,), 1)
    with pytest.raises(InvalidParameterError):
        PeriodicView((), (1,), 2**63)
