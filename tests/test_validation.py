"""Integer-parameter and name validation, one table each for every
public entry point.

Each entry names one integer parameter, a call that passes the value
under test in that position, and the smallest integer it accepts. A
bool, a float, and anything below the minimum must be rejected with
InvalidParameterError. Repetition counts of generated sequences accept
k=0 (the empty sequence); the closed forms and the harness need k >= 1.

Each name lookup accepts its names in any case and rejects any other
value with one message: the value as passed and the names it knows.
"""

import pytest

from solist import (
    Algorithm,
    CostModel,
    Family,
    FrequencyCount,
    InvalidParameterError,
    ListState,
    MoveToFront,
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
    per_pass_profile,
    predict,
    trans_t1,
    trans_t2,
    verify_grid,
)
from solist.closed_form import as_algorithm
from solist.errors import as_family

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


LOOKUPS = {
    "family": (as_family, {"t1": Family.T1, "t2": Family.T2}),
    "algorithm": (as_algorithm, {"mtf": Algorithm.MTF, "trans": Algorithm.TRANS}),
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
    for bad in ("t3", "", None, 1):
        with pytest.raises(InvalidParameterError) as caught:
            lookup(bad)
        assert str(caught.value) == f"unknown {kind} {bad!r}; expected one of {list(names)}"
