"""Integer-parameter and name validation, one table each for every
public entry point.

Each entry names one integer parameter, a call that passes the value
under test in that position, and the smallest integer it accepts. A
bool, a float, and anything below the minimum must be rejected with
InvalidParameterError. Repetition counts of generated sequences accept
k=0 (the empty sequence); the closed forms and the harness need k >= 1.

Each name lookup accepts its names in any case, and an enum its own
members, and rejects any other value with one message: the value as
passed and the names it knows.
"""

import sys

import pytest

from solist import (
    Algorithm,
    CostModel,
    Family,
    FrequencyCount,
    InvalidParameterError,
    ItemNotInListError,
    ListState,
    MoveToFront,
    ParseError,
    PeriodicView,
    RequestSequence,
    Transpose,
    crossover,
    expected_pass_costs,
    explicit_sequence,
    gen_t1,
    gen_t2,
    make_policy,
    mtf_t1,
    mtf_t2,
    parse_sequence_file,
    per_pass_profile,
    predict,
    serve,
    trans_t1,
    trans_t2,
    verify_grid,
)

ENTRY_POINTS = {
    "ListState.initial.n": (lambda v: ListState.initial(v), 1),
    "ListState.item": (lambda v: ListState((v,)), 1),
    "explicit_sequence.item": (lambda v: explicit_sequence((v,)), 1),
    # The value under test after a long valid prefix: the one-pass id check
    # fails and its item-by-item fallback must find the bad value.
    "ListState.item_after_1000": (lambda v: ListState(tuple(range(2, 1002)) + (v,)), 1),
    "explicit_sequence.item_after_1000": (lambda v: explicit_sequence((1,) * 1000 + (v,)), 1),
    "FrequencyCount.counter": (lambda v: FrequencyCount(counters={1: v}), 0),
    "FrequencyCount.counted_item": (lambda v: FrequencyCount(counters={v: 1}), 1),
    "gen_t1.n": (lambda v: gen_t1(v, 1), 1),
    "gen_t1.k": (lambda v: gen_t1(3, v), 0),
    "gen_t2.n": (lambda v: gen_t2(v, 1), 1),
    "gen_t2.k": (lambda v: gen_t2(3, v), 0),
    "RequestSequence.repeat.k": (lambda v: RequestSequence.repeat((2, 1, 3), v), 0),
    "RequestSequence.repeat.item": (lambda v: RequestSequence.repeat((v,), 1), 1),
    "predict.n": (lambda v: predict("trans", "T1", v, 1), 1),
    "predict.k": (lambda v: predict("trans", "T1", 3, v), 1),
    "expected_pass_costs.n": (lambda v: expected_pass_costs("mtf", "T2", v, 1), 1),
    "expected_pass_costs.k": (lambda v: expected_pass_costs("mtf", "T2", 3, v), 1),
    "per_pass_profile.n": (lambda v: per_pass_profile("mtf", "T1", v, 1), 1),
    "per_pass_profile.k": (lambda v: per_pass_profile("mtf", "T1", 3, v), 1),
    "crossover.n": (lambda v: crossover("T1", v, 3), 1),
    "crossover.k_max": (lambda v: crossover("T1", 3, v), 1),
    "verify_grid.n_lower": (lambda v: verify_grid(["mtf"], ["T1"], (v, 2), (1, 2)), 1),
    "verify_grid.n_upper": (lambda v: verify_grid(["mtf"], ["T1"], (1, v), (1, 2)), 1),
    "verify_grid.k_lower": (lambda v: verify_grid(["mtf"], ["T1"], (1, 2), (v, 2)), 1),
    "verify_grid.k_upper": (lambda v: verify_grid(["mtf"], ["T1"], (1, 2), (1, v)), 1),
}
for _fn in (mtf_t1, mtf_t2, trans_t1, trans_t2):
    ENTRY_POINTS[f"{_fn.__name__}.n"] = (lambda v, fn=_fn: fn(v, 1), 1)
    ENTRY_POINTS[f"{_fn.__name__}.k"] = (lambda v, fn=_fn: fn(3, v), 1)


@pytest.mark.parametrize("value", [True, 0, -1, 1.0], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_integer_parameters(entry, value):
    call, minimum = ENTRY_POINTS[entry]
    if type(value) is int and value >= minimum:
        call(value)
    else:
        with pytest.raises(InvalidParameterError):
            call(value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_smallest_accepted_value(entry):
    call, minimum = ENTRY_POINTS[entry]
    call(minimum)


# Every way to make requests, with one bad request among good ones.
REQUEST_ENTRY_POINTS = {
    "RequestSequence": lambda v: RequestSequence((2, v, 3)),
    "RequestSequence.cycle": lambda v: RequestSequence(PeriodicView((1,), (2, v), 5)),
    "RequestSequence.repeat": lambda v: RequestSequence.repeat((2, v, 3), 2),
    "explicit_sequence": lambda v: explicit_sequence((2, v, 3)),
}
for _rule in ("mtf", "trans", "fc"):
    REQUEST_ENTRY_POINTS[f"{_rule}.step"] = lambda v, rule=_rule: make_policy(rule).step(ListState.initial(3), v)
BAD_REQUESTS = [True, 1.0, 0, -1, "a"]


@pytest.mark.parametrize("value", BAD_REQUESTS, ids=repr)
@pytest.mark.parametrize("entry", sorted(REQUEST_ENTRY_POINTS))
def test_each_request_is_an_id(entry, value):
    with pytest.raises(InvalidParameterError) as caught:
        REQUEST_ENTRY_POINTS[entry](value)
    assert str(caught.value) == f"each request must be a positive integer, got {value!r}"


@pytest.mark.parametrize("value", BAD_REQUESTS, ids=repr)
def test_each_request_in_a_sequence_file_is_an_id(value):
    # A file holds text: an integer token reaches the same id check, and
    # any other token fails to parse as an integer first.
    with pytest.raises(ParseError) as caught:
        parse_sequence_file(f"2 {value} 3")
    if type(value) is int:
        assert str(caught.value) == f"bad sequence file: each request must be a positive integer, got {value!r}"
    else:
        assert str(caught.value) == f"expected an integer, got {str(value)!r}"


LOOKUPS = {
    "family": (Family, {"t1": Family.T1, "t2": Family.T2}),
    "algorithm": (Algorithm, {"mtf": Algorithm.MTF, "trans": Algorithm.TRANS}),
    "cost model": (CostModel, {"full": CostModel.FULL, "partial": CostModel.PARTIAL}),
    "policy": (make_policy, {"mtf": MoveToFront, "trans": Transpose, "fc": FrequencyCount}),
}


@pytest.mark.parametrize("kind", sorted(LOOKUPS))
def test_name_lookups(kind):
    lookup, names = LOOKUPS[kind]
    for name, expected in names.items():
        for spelling in (name, name.upper(), name.capitalize()):
            value = lookup(spelling)
            assert (type(value) if kind == "policy" else value) is expected
        if kind != "policy":
            assert lookup(expected) is expected
    # A member of another of the name enums is no name of this one.
    others = [member for enum in (Family, Algorithm, CostModel) if enum is not lookup for member in enum]
    for bad in ("t3", "", None, 1, *others):
        with pytest.raises(InvalidParameterError) as caught:
            lookup(bad)
        assert str(caught.value) == f"unknown {kind} {bad!r}; expected one of {list(names)}"


def test_each_name_table_is_built_once():
    # A name that is not a member's exact value reaches the enum's
    # _missing_; its table of members by lower-case value is built on the
    # first such lookup only, not on every one.
    from solist import errors

    for enum, name in ((Family, "t1"), (Algorithm, "MTF"), (CostModel, "Full")):
        enum(name)
        built = errors._members_by_value.cache_info().misses
        assert enum(name) is enum(name.swapcase())
        assert errors._members_by_value.cache_info().misses == built


HUGE = 10**5000  # 5001 digits: past CPython's default limit of 4300 for int-to-str conversion
HUGE_CALLS = {
    "ListState.initial": (lambda: ListState.initial(HUGE), InvalidParameterError),
    "ListState.initial.negative": (lambda: ListState.initial(-HUGE), InvalidParameterError),
    "ListState.repeated_item": (lambda: ListState((1, HUGE, HUGE)), InvalidParameterError),
    "gen_t1.k": (lambda: gen_t1(2, HUGE), InvalidParameterError),
    "RequestSequence.repeat.k": (lambda: RequestSequence.repeat((1,), HUGE), InvalidParameterError),
    "PeriodicView.length": (lambda: PeriodicView((), (), HUGE), InvalidParameterError),
    "verify_grid.k_upper": (lambda: verify_grid(["mtf"], ["t1"], (1, 1), (1, HUGE)), InvalidParameterError),
    "verify_grid.k_range": (lambda: verify_grid(["mtf"], ["t1"], (1, 1), (HUGE, 1)), InvalidParameterError),
    "FrequencyCount.counter": (lambda: FrequencyCount({HUGE: -1}), InvalidParameterError),
    "FrequencyCount.counted_item": (lambda: FrequencyCount({HUGE: 1}).step(ListState((1,)), 1), InvalidParameterError),
    "serve.item": (lambda: serve(make_policy("trans"), ListState((1,)), explicit_sequence((HUGE,))),
                   ItemNotInListError),
    "step.item": (lambda: make_policy("mtf").step(ListState((1,)), HUGE), ItemNotInListError),
    "make_policy": (lambda: make_policy(HUGE), InvalidParameterError),
    "CostModel.discount": (lambda: CostModel.discount(HUGE), InvalidParameterError),
    "serve.model": (lambda: serve(make_policy("mtf"), ListState((1,)), explicit_sequence((1,)), HUGE),
                    InvalidParameterError),
    "step.model": (lambda: make_policy("trans").step(ListState((1,)), 1, HUGE), InvalidParameterError),
    "verify_grid.model": (lambda: verify_grid(["mtf"], ["t1"], (1, 1), (1, 1), HUGE), InvalidParameterError),
}


@pytest.mark.parametrize("entry", sorted(HUGE_CALLS))
def test_a_huge_int_is_named_in_the_library_error(entry):
    # The message names the int, even one too long for str(): as its sign
    # and bit length, not a bare ValueError from the conversion.
    call, error = HUGE_CALLS[entry]
    with pytest.raises(error) as caught:
        call()
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        assert "-bit int>" in str(caught.value)
        assert len(str(caught.value)) < 200
