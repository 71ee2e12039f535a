"""Repetition counts far beyond request-by-request simulation.

``serve`` keeps a ledger of repeated passes as the passes before the
first repeated pass-end state plus one cycle, so a run of k passes costs
the same at k = 10**12 as at k = 100. These tests check the closed forms
against it at such k, and check the compressed ledger, element by
element, against the naive oracle on the expanded requests.
"""

import pytest
from hypothesis import given, settings, strategies as st

from solist import (
    CostModel,
    ListState,
    RequestSequence,
    make_policy,
    predict,
    serve,
)
from solist.list_core import PeriodicView
from solist.seqgen import GENERATORS, Family

from helpers import check_serve, linux_only, solist_child

HUGE_KS = (10**6, 10**9, 10**12)


def _serve(algo, family, n, k, model=CostModel.FULL):
    return serve(make_policy(algo), ListState.initial(n), GENERATORS[family](n, k), model)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("algo", ["mtf", "trans"])
def test_closed_forms_at_huge_k(algo, family):
    for n in range(1, 61):
        # The transpose/t1 saturation break sits between k = n // 2 and the
        # next k; check both sides of it, then far past it.
        for k in (max(1, n // 2), n // 2 + 1) + HUGE_KS:
            ledger = _serve(algo, family, n, k)
            assert ledger.grand_total == predict(algo, family, n, k).total, (algo, family, n, k)
            assert len(ledger.pass_totals) == k
            assert len(ledger.per_request) == k * n


def test_trans_t1_cases_on_both_sides_of_saturation():
    seen = set()
    for n in range(1, 61):
        for k in (max(1, n // 2), n // 2 + 1, 10**12):
            seen.add(predict("trans", "T1", n, k).case_id)
    assert seen == {"3.1a", "3.1b", "3.1c"}


def test_frequency_count_on_ascending_scans_at_huge_k():
    # Every pass raises every counter by one, so the list never moves and
    # each pass costs n(n+1)/2.
    for n in range(1, 61):
        for k in HUGE_KS:
            assert _serve("fc", Family.T1, n, k).grand_total == k * n * (n + 1) // 2


@pytest.mark.parametrize("algo", ["mtf", "trans", "fc"])
def test_partial_model_at_huge_k(algo):
    for n in (1, 2, 9, 50):
        for family in Family:
            full = _serve(algo, family, n, 10**12).grand_total
            assert _serve(algo, family, n, 10**12, CostModel.PARTIAL).grand_total == full - 10**12 * n


@st.composite
def repeated_permutations(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    start = draw(st.permutations(list(range(1, n + 1))))
    perm = draw(st.permutations(list(range(1, n + 1))))
    k = draw(st.integers(min_value=0, max_value=4 * n + 2))
    return ListState(tuple(start)), RequestSequence.repeat(perm, k)


@st.composite
def repeated_blocks(draw, max_n=5):
    # Any block over the list, items repeated or missing, so that pass-end
    # states can cycle with periods above one; sometimes after a head of
    # other requests, which makes the sequence one pass that serve must
    # simulate in full.
    n = draw(st.integers(min_value=1, max_value=max_n))
    start = tuple(draw(st.permutations(list(range(1, n + 1)))))
    items = st.sampled_from(start)
    width = draw(st.integers(min_value=1, max_value=2 * n))
    block = tuple(draw(st.lists(items, min_size=width, max_size=width)))
    head = tuple(draw(st.lists(items, min_size=width, max_size=width))) * draw(st.integers(0, 2))
    k = draw(st.integers(min_value=0, max_value=8))
    return ListState(start), RequestSequence(PeriodicView(head, block, len(head) + width * k))


def _same_elements(view, expected, data):
    expected = tuple(expected)
    assert len(view) == len(expected)
    assert view == expected and expected == view
    assert tuple(view) == expected
    assert [view[i] for i in range(-len(expected), len(expected))] == list(expected * 2)
    cut = data.draw(st.slices(len(expected)))
    assert view[cut] == expected[cut]
    for index in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            view[index]


@pytest.mark.parametrize("name", ["mtf", "trans", "fc"])
@given(inst=st.one_of(repeated_permutations(), repeated_blocks()), data=st.data())
@settings(max_examples=100)
def test_compressed_ledger_matches_the_oracle(name, inst, data):
    state, seq = inst
    block = seq.block
    for model in CostModel:
        ledger, costs, trace = check_serve(make_policy(name), state, seq, model)
        _same_elements(ledger.per_request, costs, data)
        if block is None:  # served whole, as one pass
            continue
        n = len(block)
        _same_elements(ledger.pass_totals, [sum(costs[i:i + n]) for i in range(0, len(costs), n)], data)
        _same_elements(ledger.pass_end_configs, map(ListState, trace[n - 1::n]), data)
        # The ledger of a much longer run starts with this one. (Frequency
        # count need not repeat a state on a block that is not a
        # permutation: its counter gaps can grow without bound.)
        if name != "fc" or sorted(block) == sorted(state.order):
            longer = serve(make_policy(name), state, RequestSequence.repeat(block, 10**12), model)
            assert longer.pass_totals[:len(ledger.pass_totals)] == ledger.pass_totals
            assert longer.pass_end_configs[:len(ledger.pass_end_configs)] == ledger.pass_end_configs


@linux_only
def test_cli_simulates_a_trillion_passes_in_bounded_memory():
    result = solist_child("simulate", "--algo", "trans", "--seq", "t1", "--n", "50", "--k", str(10**12),
                          limit_mb=128, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"total {predict('trans', 'T1', 50, 10**12).total}\n"
