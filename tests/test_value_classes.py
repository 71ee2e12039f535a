"""The three rules and ``RequestSequence`` are immutable values: their
``repr``, equality, hashing, immutability, construction by keyword and by
position, pickling and copies. ``ListState`` and ``CostLedger`` stay
frozen dataclasses."""

import copy
import dataclasses
import pickle

import pytest

from solist import CostLedger, FrequencyCount, ListState, MoveToFront, PeriodicView, RequestSequence, Transpose

VALUES = [
    MoveToFront(),
    Transpose(),
    FrequencyCount(),
    FrequencyCount({2: 1, 5: 3}),
    RequestSequence((3, 1, 2)),
    RequestSequence(PeriodicView((4,), (1, 2, 3), 7)),
]


class _Subclass(Transpose):
    pass


def test_repr_names_the_class_and_its_fields():
    assert repr(MoveToFront()) == "MoveToFront()"
    assert repr(Transpose()) == "Transpose()"
    assert repr(FrequencyCount(counters={2: 1})) == "FrequencyCount(counters={2: 1})"
    sequence = RequestSequence(requests=PeriodicView((), (1, 2, 3), 6))
    assert repr(sequence) == "RequestSequence(requests=PeriodicView((), (1, 2, 3), 6))"


def test_values_are_equal_by_class_and_fields():
    assert MoveToFront() == MoveToFront() and Transpose() == Transpose()
    assert (MoveToFront() == Transpose()) is False
    assert MoveToFront().__eq__(Transpose()) is NotImplemented
    assert Transpose().__eq__(_Subclass()) is NotImplemented and Transpose() != _Subclass()
    assert MoveToFront() != "MoveToFront()"
    assert FrequencyCount({2: 1}) == FrequencyCount(counters={2: 1})
    assert FrequencyCount({2: 1}) != FrequencyCount({2: 2})
    assert RequestSequence((1, 2, 1, 2)) == RequestSequence(PeriodicView((), (1, 2), 4))
    assert RequestSequence((1, 2)) != RequestSequence((2, 1))


def test_rules_without_counters_hash_and_the_rest_do_not():
    assert hash(MoveToFront()) == hash(MoveToFront()) and hash(Transpose()) == hash(Transpose())
    assert len({MoveToFront(), MoveToFront(), Transpose()}) == 2
    for value in (FrequencyCount(), FrequencyCount({1: 1}), RequestSequence((1,))):
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_no_attribute_can_be_assigned_or_deleted(value):
    shown = repr(value)
    for name in ("counters", "requests", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, {})
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == shown


def test_fields_are_given_by_keyword_or_by_position():
    assert FrequencyCount(counters={1: 2}).counters == FrequencyCount({1: 2}).counters == {1: 2}
    assert RequestSequence(requests=(1, 2)) == RequestSequence((1, 2))
    assert RequestSequence(requests=(1, 2)).requests == (1, 2)
    for build in (lambda: MoveToFront(1), lambda: FrequencyCount({}, {}), lambda: RequestSequence(),
                  lambda: FrequencyCount(count={})):
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_pickle_and_copies_round_trip(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is type(value)
        assert copied == value
        assert repr(copied) == repr(value)


def test_list_state_and_cost_ledger_stay_dataclasses():
    assert dataclasses.is_dataclass(ListState) and dataclasses.is_dataclass(CostLedger)
