"""Formula evaluators, pinned values, and cross-checks against simulation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from solist import (
    Algorithm,
    CostModel,
    Family,
    InvalidParameterError,
    ListState,
    MoveToFront,
    Transpose,
    expected_pass_costs,
    gen_t1,
    gen_t2,
    mtf_t1,
    mtf_t2,
    per_pass_profile,
    predict,
    serve,
    trans_t1,
    trans_t2,
)
from solist import closed_form
from solist.closed_form import _exact_int

ns = st.integers(min_value=1, max_value=400)
ks = st.integers(min_value=1, max_value=400)


# Pinned totals. Each was computed two independent ways (formula and a
# request-by-request simulation) before being frozen here.

def test_mtf_t1_values():
    assert mtf_t1(4, 2).total == 26
    assert mtf_t1(4, 1).total == 10
    assert mtf_t1(1, 7).total == 7
    assert mtf_t1(5, 3).total == 65


def test_mtf_t2_values():
    assert mtf_t2(5, 3).total == 75
    assert mtf_t2(4, 1).total == 16
    assert mtf_t2(1, 5).total == 5


def test_trans_t1_values():
    assert trans_t1(4, 2).total == 21
    assert trans_t1(4, 1).total == 10
    assert trans_t1(4, 3).total == 33  # past saturation, n even
    assert trans_t1(5, 3).total == 48  # past saturation, n odd
    assert trans_t1(3, 1).total == 6
    assert trans_t1(1, 4).total == 4


def test_trans_t2_values():
    assert trans_t2(3, 1).total == 7
    assert trans_t2(4, 1).total == 12
    assert trans_t2(5, 2).total == 34
    assert trans_t2(2, 5).total == 20
    assert trans_t2(1, 6).total == 6


def test_mtf_t1_case_label():
    assert mtf_t1(4, 2).case_id == "1"


def test_mtf_t2_case_label():
    assert mtf_t2(4, 2).case_id == "2"


def test_trans_t1_case_dispatch():
    assert trans_t1(4, 2).case_id == "3.1a"  # even, at threshold k = n/2
    assert trans_t1(4, 3).case_id == "3.1b"  # even, past threshold
    assert trans_t1(5, 2).case_id == "3.1a"  # odd, at threshold k = (n-1)/2
    assert trans_t1(5, 3).case_id == "3.1c"  # odd, past threshold
    assert trans_t1(3, 1).case_id == "3.1a"
    assert trans_t1(1, 1).case_id == "3.1c"  # n=1 saturates immediately


def test_trans_t2_case_dispatch():
    assert trans_t2(4, 1).case_id == "3.2a"
    assert trans_t2(5, 1).case_id == "3.2b"


def test_prediction_fields_and_repr():
    prediction = predict("trans", "t1", 4, 2)
    assert (prediction.case_id, prediction.total) == ("3.1a", 21)
    assert repr(prediction) == "Prediction(case_id='3.1a', total=21)"
    with pytest.raises(AttributeError):
        prediction.total = 0


def test_predict_accepts_strings_and_enums():
    assert predict("trans", "T2", 4, 1) == trans_t2(4, 1)
    assert predict(Algorithm.MTF, Family.T1, 4, 2) == mtf_t1(4, 2)
    assert predict("MTF", "t2", 3, 1) == mtf_t2(3, 1)


def test_predict_rejects_unknown_names():
    with pytest.raises(InvalidParameterError):
        predict("lru", "T1", 3, 1)
    with pytest.raises(InvalidParameterError):
        predict("mtf", "T9", 3, 1)
    with pytest.raises(InvalidParameterError):
        predict("mtf", "perm_power", 3, 1)


@given(n=ns, k=ks)
def test_formulas_are_integral(n, k):
    # The integer division must never leave a remainder.
    for fn in (mtf_t1, mtf_t2, trans_t1, trans_t2):
        assert isinstance(fn(n, k).total, int)


def test_exact_int_rejects_a_remainder():
    assert _exact_int(24, 8, "case") == 3
    with pytest.raises(ArithmeticError, match="case evaluated to non-integer 7/2"):
        _exact_int(7, 2, "case")


@given(n=ns, k=st.integers(min_value=1, max_value=399))
def test_totals_strictly_increase_with_k(n, k):
    for fn in (mtf_t1, mtf_t2, trans_t1, trans_t2):
        assert fn(n, k + 1).total > fn(n, k).total


@given(n=ns)
def test_first_pass_costs_agree_across_evaluators(n):
    # With k=1, both rules pay the same on a given family: the scan cost
    # is fixed by the arrangement, not by how items move afterwards.
    assert mtf_t1(n, 1).total == trans_t1(n, 1).total == n * (n + 1) // 2


K_FAR = 10**12
# Even and odd n, small and large, so that every case, including 3.1a,
# has intervals with at least four points reaching far in k.
DEGREE_NS = (1, 2, 3, 8, 9, 10**6, 10**6 + 1, 2 * K_FAR, 2 * K_FAR + 1)
PAIRS = [(algorithm, family) for algorithm in Algorithm for family in (Family.T1, Family.T2)]


def _case_breaks(algorithm, family, n):
    """The values of k after which the closed form for (algorithm, family,
    n) changes case: the last k of each of its pieces but the open one."""
    return tuple(piece.last for piece in closed_form._pieces(algorithm, family, n)[:-1])


def _at(piece, k):
    return Fraction(piece.c0 + piece.c1 * k + piece.c2 * k * k, piece.denominator)


@pytest.mark.parametrize("n", [*range(1, 65), *DEGREE_NS])
def test_each_table_ends_in_one_open_piece_of_constant_steady_cost(n):
    for algorithm, family in PAIRS:
        *closed, steady = closed_form._pieces(algorithm, family, n)
        lasts = [piece.last for piece in closed]
        assert None not in lasts, (algorithm, family, n)
        assert lasts == sorted(set(lasts)), (algorithm, family, n)
        assert steady.last is None and steady.c2 == 0, (algorithm, family, n)
        # expected_pass_costs' cycle: the steady per-pass cost, an integer.
        assert steady.c1 % steady.denominator == 0, (algorithm, family, n)


@pytest.mark.parametrize("n", [*range(1, 65), *DEGREE_NS])
def test_each_piece_meets_the_next_at_its_last_k(n):
    # So that every pass from the last break on costs the steady amount,
    # which expected_pass_costs' head/cycle split relies on.
    for algorithm, family in PAIRS:
        pieces = closed_form._pieces(algorithm, family, n)
        for piece, after in zip(pieces, pieces[1:]):
            assert _at(piece, piece.last) == _at(after, piece.last), (algorithm, family, n, piece.case_id)


def _docstring_total(algorithm, family, n, k):
    """The case and total of (algorithm, family, n, k), from the formulas
    as the four evaluators' docstrings write them, in exact fractions."""
    if algorithm is Algorithm.MTF:
        if family is Family.T1:
            return "1", Fraction(n * n * (2 * k - 1) + n, 2)
        return "2", Fraction(k * n * n)
    if family is Family.T1:
        saturation = n // 2 if n % 2 == 0 else (n - 1) // 2
        if k <= saturation:
            return "3.1a", k * Fraction(n * n + n + k - 1, 2)
        if n % 2 == 0:
            return "3.1b", Fraction(n * n + 2 * n, 2) * Fraction(4 * k - 1, 4)
        return "3.1c", k * Fraction(n * n + 2 * n - 1, 2) - Fraction(n * n - 1, 8)
    if n % 2 == 0:
        return "3.2a", k * Fraction(n * n + 2 * n, 2)
    return "3.2b", k * (Fraction(n * n + 2 * n - 3, 2) + 1)


def test_predict_equals_the_docstring_formulas():
    for n in range(1, 121):
        for algorithm, family in PAIRS:
            for k in range(1, 121):
                prediction = predict(algorithm, family, n, k)
                assert (prediction.case_id, prediction.total) == _docstring_total(algorithm, family, n, k)
    for n in (*range(1, 121), *DEGREE_NS):
        saturation = n // 2
        for algorithm, family in PAIRS:
            for k in {saturation, saturation + 1, K_FAR} - {0}:
                prediction = predict(algorithm, family, n, k)
                assert (prediction.case_id, prediction.total) == _docstring_total(algorithm, family, n, k), (n, k)


def _split_before_the_table(algorithm, family, n, k):
    """expected_pass_costs' (head, cycle) as each pair spelled it out
    before the closed forms became one table."""
    first = n * (n + 1) // 2
    if (algorithm, family) == (Algorithm.MTF, Family.T1):
        return (first,), (n * n,)
    if (algorithm, family) == (Algorithm.MTF, Family.T2):
        return (), (n * n,)
    if family is Family.T1:
        saturation = n // 2
        return tuple(range(first, first + min(saturation, k))), (first + saturation,)
    if n % 2 == 0:
        return (), ((n * n + 2 * n) // 2,)
    return (), ((n * n + 2 * n - 3) // 2 + 1,)


def test_pass_costs_split_as_before_the_table():
    for n in range(2, 41):
        for algorithm, family in PAIRS:
            for k in range(1, n + 3):
                costs = expected_pass_costs(algorithm, family, n, k)
                assert (tuple(costs.head), tuple(costs.cycle)) == _split_before_the_table(algorithm, family, n, k)


def _case_intervals(algorithm, family, n):
    """The k-intervals within 1..K_FAR on which one case holds."""
    edges = [0, *(b for b in _case_breaks(algorithm, family, n) if b < K_FAR), K_FAR]
    return [(lo + 1, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]


def test_each_case_is_of_degree_at_most_two_in_k():
    # Each case is stored as a polynomial of degree at most 2 in k, and
    # crossover searches trans - mtf as one, so read through predict, each
    # case's total must have vanishing third differences in k.
    rng = random.Random(7)
    seen = set()
    for algorithm in Algorithm:
        for family in (Family.T1, Family.T2):
            for n in DEGREE_NS:
                for lo, hi in _case_intervals(algorithm, family, n):
                    if hi - lo < 3:
                        continue
                    starts = {lo, hi - 3, *(rng.randint(lo, hi - 3) for _ in range(20))}
                    for k in starts:
                        window = [predict(algorithm, family, n, k + i) for i in range(4)]
                        labels = {p.case_id for p in window}
                        assert len(labels) == 1, (algorithm, family, n, k, labels)
                        a, b, c, d = (p.total for p in window)
                        assert d - 3 * c + 3 * b - a == 0, (algorithm, family, n, k)
                        seen |= labels
    assert seen == {"1", "2", "3.1a", "3.1b", "3.1c", "3.2a", "3.2b"}


@pytest.mark.parametrize("n", [*range(1, 64), 10**6, 10**6 + 1, 2 * K_FAR, 2 * K_FAR + 1])
def test_trans_t1_case_changes_exactly_at_its_break(n):
    (saturation,) = _case_breaks(Algorithm.TRANS, Family.T1, n)
    past = "3.1b" if n % 2 == 0 else "3.1c"
    if saturation >= 1:
        assert trans_t1(n, saturation).case_id == "3.1a"
    assert trans_t1(n, saturation + 1).case_id == past
    for k in range(1, min(3 * n, 200)):
        assert trans_t1(n, k).case_id == ("3.1a" if k <= saturation else past)
    for algorithm, family in ((Algorithm.MTF, Family.T1), (Algorithm.MTF, Family.T2), (Algorithm.TRANS, Family.T2)):
        assert _case_breaks(algorithm, family, n) == ()


def test_case_boundary_even_n():
    # At k = n/2 the below-threshold expression must equal the
    # past-threshold expression extended down to the boundary.
    for n in range(2, 41, 2):
        k = n // 2
        at_boundary = trans_t1(n, k)
        assert at_boundary.case_id == "3.1a"
        extended = Fraction(n * n + 2 * n, 2) * Fraction(4 * k - 1, 4)
        assert extended == at_boundary.total


def test_case_boundary_odd_n():
    for n in range(3, 40, 2):
        k = (n - 1) // 2
        at_boundary = trans_t1(n, k)
        assert at_boundary.case_id == "3.1a"
        extended = Fraction(k * (n * n + 2 * n - 1), 2) - Fraction(n * n - 1, 8)
        assert extended == at_boundary.total


def test_descending_family_comparison():
    # On the descending family transpose beats move-to-front strictly for
    # n >= 3; at n = 2 the two rules perform the identical swap, so the
    # totals tie at 4k.
    for n in range(3, 30):
        for k in range(1, 6):
            assert trans_t2(n, k).total < mtf_t2(n, k).total
    for k in range(1, 6):
        assert trans_t2(2, k).total == mtf_t2(2, k).total == 4 * k


def test_ascending_family_comparison():
    # On the ascending family transpose wins strictly from the second
    # pass on (n >= 3); single passes always tie.
    for n in range(3, 30):
        for k in range(2, 6):
            assert trans_t1(n, k).total < mtf_t1(n, k).total


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=9), k=st.integers(min_value=1, max_value=9))
def test_formulas_match_simulation(n, k):
    initial = ListState.initial(n)
    assert mtf_t1(n, k).total == serve(MoveToFront(), initial, gen_t1(n, k)).grand_total
    assert mtf_t2(n, k).total == serve(MoveToFront(), initial, gen_t2(n, k)).grand_total
    assert trans_t1(n, k).total == serve(Transpose(), initial, gen_t1(n, k)).grand_total
    assert trans_t2(n, k).total == serve(Transpose(), initial, gen_t2(n, k)).grand_total


@given(n=st.integers(min_value=1, max_value=60), k=st.integers(min_value=1, max_value=40))
def test_pass_decomposition_sums_to_total(n, k):
    for algorithm in Algorithm:
        for family in (Family.T1, Family.T2):
            costs = expected_pass_costs(algorithm, family, n, k)
            assert len(costs) == k
            assert sum(costs) == predict(algorithm, family, n, k).total


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=8), k=st.integers(min_value=1, max_value=8))
def test_pass_decomposition_matches_simulated_passes(n, k):
    policies = {Algorithm.MTF: MoveToFront(), Algorithm.TRANS: Transpose()}
    generators = {Family.T1: gen_t1, Family.T2: gen_t2}
    for algorithm in Algorithm:
        for family in (Family.T1, Family.T2):
            ledger = serve(policies[algorithm], ListState.initial(n), generators[family](n, k))
            assert ledger.pass_totals == expected_pass_costs(algorithm, family, n, k)


def test_pass_decomposition_rejects_other_families():
    with pytest.raises(InvalidParameterError):
        expected_pass_costs("mtf", "explicit", 3, 1)
    with pytest.raises(InvalidParameterError):
        expected_pass_costs("trans", "perm_power", 3, 1)


def test_trans_t1_saturation_plateau():
    # Per-pass increments stop growing once the threshold is reached.
    costs = expected_pass_costs("trans", "T1", 6, 8)
    deltas = [b - a for a, b in zip(costs, costs[1:])]
    assert deltas == [1, 1, 1, 0, 0, 0, 0]


def test_partial_model_shift():
    # Under the comparison-only model every request costs one less, so a
    # k-pass prediction drops by exactly k * n.
    for n in range(1, 8):
        for k in range(1, 6):
            ledger = serve(Transpose(), ListState.initial(n), gen_t1(n, k), model=CostModel.PARTIAL)
            assert ledger.grand_total == trans_t1(n, k).total - k * n


LARGE_K = 10 ** 4


@pytest.mark.parametrize("algorithm", list(Algorithm))
@pytest.mark.parametrize("family", [Family.T1, Family.T2])
def test_formulas_match_long_simulations(algorithm, family):
    # One long fast-forwarded run per n; its prefix sums are the simulated
    # totals at every k, checked at both sides of trans's saturation
    # threshold and at the far end.
    for n in range(1, 31):
        costs = per_pass_profile(algorithm, family, n, LARGE_K).pass_costs
        for k in sorted({1, n // 2, n // 2 + 1, LARGE_K} - {0}):
            assert sum(costs[:k]) == predict(algorithm, family, n, k).total, (n, k)
