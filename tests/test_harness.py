import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from solist import (
    Algorithm,
    CostModel,
    Family,
    InvalidParameterError,
    ListState,
    SolistError,
    Transpose,
    crossover,
    expected_pass_costs,
    gen_t1,
    make_policy,
    per_pass_profile,
    predict,
    serve,
    verify_grid,
)
from solist import closed_form, harness
from solist.errors import check_int
from solist.harness import _first_divergence
from solist.list_core import PeriodicView
from solist.seqgen import GENERATORS


def test_single_cell_matches():
    report = verify_grid(["mtf"], ["T1"], (4, 4), (2, 2))
    assert len(report.cells) == 1
    cell = report.cells[0]
    assert cell.simulated == 26
    assert cell.predicted == 26
    assert cell.match
    assert cell.first_divergence is None
    assert report.passed
    assert report.mismatch_count == 0
    assert repr(cell) == (
        "GridCell(algorithm=<Algorithm.MTF: 'mtf'>, family=<Family.T1: 'T1'>, n=4, k=2, "
        "simulated=26, predicted=26, match=True, first_divergence=None)"
    )
    with pytest.raises(AttributeError):
        cell.match = False


def test_single_cell_partial_model():
    report = verify_grid(["trans"], ["T2"], (3, 3), (2, 2), model=CostModel.PARTIAL)
    cell = report.cells[0]
    # full total 14, minus one per request (6 requests)
    assert cell.simulated == 8
    assert cell.predicted == 8
    assert cell.match


def test_small_grid_passes():
    report = verify_grid(["mtf", "trans"], ["T1", "T2"], (1, 10), (1, 10))
    assert len(report.cells) == 400
    assert report.passed
    assert all(cell.match for cell in report.cells)


def test_cells_come_in_deterministic_order():
    report = verify_grid(["mtf", "trans"], ["T1", "T2"], (2, 3), (1, 2))
    keys = [(c.algorithm.value, c.family.value, c.n, c.k) for c in report.cells]
    assert keys == sorted(keys)
    again = verify_grid(["mtf", "trans"], ["T1", "T2"], (2, 3), (1, 2))
    assert report == again


def test_report_records_parameters():
    report = verify_grid(["mtf"], ["T2"], (2, 4), (1, 3), model=CostModel.PARTIAL)
    assert report._fields == ("algorithms", "families", "cells")
    assert report.algorithms == (Algorithm.MTF,)
    assert report.families == (Family.T2,)
    assert len(report.cells) == 3 * 3


def test_repeated_names_are_verified_once():
    report = verify_grid(["mtf", "MTF"], ["T1", "t1"], (1, 2), (1, 2))
    assert report.algorithms == (Algorithm.MTF,)
    assert report.families == (Family.T1,)
    assert len(report.cells) == 4


def _predict_off_by_one(monkeypatch):
    """Make every prediction verify_grid reads one more than the closed form's."""
    def off_by_one(*row):
        for true in closed_form._totals(*row):
            yield true._replace(total=true.total + 1)

    monkeypatch.setattr(harness, "_totals", off_by_one)


def test_injected_bad_predictor_reports_mismatches(monkeypatch):
    _predict_off_by_one(monkeypatch)
    report = verify_grid(["mtf"], ["T1"], (3, 4), (1, 2))
    assert not report.passed
    assert report.mismatch_count == 4
    for cell in report.cells:
        assert not cell.match
        assert cell.predicted == cell.simulated + 1
        # Totals disagree but every pass subtotal matches the structural
        # decomposition, so no pass is singled out.
        assert cell.first_divergence is None


def test_a_passing_grid_locates_no_divergence(monkeypatch):
    # The per-pass decomposition is read only to localize a mismatch, so a
    # grid whose every cell matches never asks for it.
    def unread(*args):
        raise AssertionError(f"expected_pass_costs{args} read on a passing grid")

    monkeypatch.setattr(harness, "expected_pass_costs", unread)
    for model in CostModel:
        assert verify_grid(["mtf", "trans"], ["T1", "T2"], (1, 8), (1, 8), model).passed


def test_first_divergence_localizes_wrong_pass():
    # A transpose ledger graded against the move-to-front decomposition
    # diverges at pass 2 (pass 1 costs the same under both rules).
    ledger = serve(Transpose(), ListState.initial(4), gen_t1(4, 3))
    index = _first_divergence(ledger.pass_totals, 4, Algorithm.MTF, Family.T1, CostModel.FULL)
    assert index == 5


def test_first_divergence_none_when_consistent():
    ledger = serve(Transpose(), ListState.initial(4), gen_t1(4, 3))
    assert _first_divergence(ledger.pass_totals, 4, Algorithm.TRANS, Family.T1, CostModel.FULL) is None


@pytest.mark.parametrize("model", list(CostModel))
@pytest.mark.parametrize("wrong", [False, True], ids=["true-predictor", "wrong-predictor"])
def test_prefix_reuse_matches_per_cell_serve(model, wrong, monkeypatch):
    # verify_grid serves each row once at k_hi and reads each cell off the
    # prefix of its passes; every cell must match a run of its own.
    if wrong:
        # Off by one in the total, and in pass 3 of the structural
        # decomposition (the first k of the grid), so that every cell
        # names a divergent pass. A pass's expected cost must not depend
        # on k, as in the real decomposition.
        _predict_off_by_one(monkeypatch)

        def third_pass_off(algorithm, family, n, k):
            costs = expected_pass_costs(algorithm, family, n, k)
            return PeriodicView(costs[:2] + (costs[2] + 1,) + costs[3:])

        monkeypatch.setattr(harness, "expected_pass_costs", third_pass_off)

    report = verify_grid(["mtf", "trans"], ["T1", "T2"], (1, 6), (3, 7), model)
    assert len(report.cells) == 2 * 2 * 6 * 5
    for cell in report.cells:
        sequence = GENERATORS[cell.family](cell.n, cell.k)
        ledger = serve(make_policy(cell.algorithm.value), ListState.initial(cell.n), sequence, model)
        assert cell.simulated == ledger.grand_total
        assert cell.match is not wrong
        if wrong:
            assert cell.first_divergence == 2 * cell.n + 1
            divergence = _first_divergence(ledger.pass_totals, cell.n, cell.algorithm, cell.family, model)
            assert cell.first_divergence == divergence
        else:
            assert cell.first_divergence is None


@pytest.mark.parametrize("model", list(CostModel))
def test_row_divergence_equals_per_cell_recomputation(model, monkeypatch):
    # verify_grid locates each row's first divergent pass once, at k_hi.
    # With a decomposition off in pass 4 (the same pass at every k), the
    # cells up to k = 3 name no pass and those from k = 4 on name pass 4;
    # each must equal a naive recomputation from a run of its own.
    _predict_off_by_one(monkeypatch)

    def fourth_pass_off(algorithm, family, n, k):
        costs = expected_pass_costs(algorithm, family, n, k)
        return PeriodicView(tuple(cost + (index == 3) for index, cost in enumerate(costs)))

    monkeypatch.setattr(harness, "expected_pass_costs", fourth_pass_off)
    lookups = []

    def counted(*args):
        lookups.append(args)
        return _first_divergence(*args)

    monkeypatch.setattr(harness, "_first_divergence", counted)
    report = verify_grid(["mtf", "trans"], ["T1", "T2"], (1, 5), (1, 7), model)
    assert report.mismatch_count == len(report.cells) == 2 * 2 * 5 * 7
    # One lookup per mismatched row, not one per mismatched cell: every
    # cell of a row shares its passes, so a lookup per cell repeats the
    # same O(n) walk k times on a failing grid.
    assert len(lookups) == 2 * 2 * 5
    for cell in report.cells:
        sequence = GENERATORS[cell.family](cell.n, cell.k)
        ledger = serve(make_policy(cell.algorithm.value), ListState.initial(cell.n), sequence, model)
        expected = fourth_pass_off(cell.algorithm, cell.family, cell.n, cell.k)
        if model is CostModel.PARTIAL:
            expected = tuple(cost - cell.n for cost in expected)
        naive = next(
            (p * cell.n + 1 for p, (got, want) in enumerate(zip(ledger.pass_totals, expected)) if got != want),
            None,
        )
        assert cell.first_divergence == naive
        assert cell.first_divergence == (3 * cell.n + 1 if cell.k >= 4 else None)


def test_verify_grid_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        verify_grid([], ["T1"], (1, 2), (1, 2))
    with pytest.raises(InvalidParameterError):
        verify_grid(["mtf"], [], (1, 2), (1, 2))
    with pytest.raises(InvalidParameterError):
        verify_grid(["mtf"], ["explicit"], (1, 2), (1, 2))
    with pytest.raises(InvalidParameterError):
        verify_grid(["mtf"], ["T1"], (3, 2), (1, 2))
    with pytest.raises(InvalidParameterError):
        verify_grid(["lfu"], ["T1"], (1, 2), (1, 2))


def test_per_pass_profile_ascending_transpose():
    profile = per_pass_profile("trans", "T1", 4, 4)
    assert profile.pass_costs == (10, 11, 12, 12)
    assert profile.pass_end_configs[-1].order == (3, 2, 4, 1)


def test_per_pass_profile_descending_restores_each_pass():
    for algo in ("mtf", "trans"):
        profile = per_pass_profile(algo, "T2", 5, 3)
        for config in profile.pass_end_configs:
            assert config.order == (1, 2, 3, 4, 5)


def test_per_pass_profile_mtf_reverses_each_ascending_pass():
    profile = per_pass_profile("mtf", "T1", 5, 3)
    assert profile.pass_costs == (15, 25, 25)
    for config in profile.pass_end_configs:
        assert config.order == (5, 4, 3, 2, 1)


def test_per_pass_law_for_ascending_transpose():
    # Pass i costs n(n+1)/2 + min(i-1, s), s = floor(n/2) for even n and
    # (n-1)/2 for odd n.
    for n in range(2, 21):
        s = n // 2 if n % 2 == 0 else (n - 1) // 2
        profile = per_pass_profile("trans", "T1", n, 20)
        base = n * (n + 1) // 2
        for i, cost in enumerate(profile.pass_costs, start=1):
            assert cost == base + min(i - 1, s)


def test_profile_costs_sum_to_prediction():
    for algo in ("mtf", "trans"):
        for fam in ("T1", "T2"):
            profile = per_pass_profile(algo, fam, 6, 5)
            assert sum(profile.pass_costs) == predict(algo, fam, 6, 5).total
            assert profile.pass_costs == expected_pass_costs(algo, fam, 6, 5)


def test_per_pass_profile_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        per_pass_profile("mtf", "explicit", 3, 1)


def test_crossover_descending_family():
    assert crossover("T2", 5, 10) == 1


def test_crossover_ascending_family():
    assert crossover("T1", 5, 10) == 2


def test_crossover_never_wins_on_two_items():
    # With two items, swapping with the predecessor and moving to the
    # front are the same operation, so the totals tie forever.
    assert crossover("T1", 2, 10) is None
    assert crossover("T2", 2, 10) is None


def test_crossover_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        crossover("T3", 5, 5)


def test_crossover_once_won_stays_won():
    # Scans a wide range; the scan itself raises if dominance breaks.
    for n in range(3, 12):
        for fam in ("T1", "T2"):
            assert crossover(fam, n, 40) is not None


def scan_crossover(family, n, k_max):
    """The linear scan that crossover's piecewise search replaced, kept as
    its differential oracle: two predictions for every k in 1..k_max."""
    family = Family(family)
    check_int(k_max, "k_max")
    k_star = None
    for k in range(1, k_max + 1):
        trans_total = predict(Algorithm.TRANS, family, n, k).total
        mtf_total = predict(Algorithm.MTF, family, n, k).total
        wins = trans_total < mtf_total
        if k_star is None and wins:
            k_star = k
        elif k_star is not None and not wins:
            raise SolistError(
                f"dominance broken at family={family.value} n={n} k={k}: "
                f"transpose won at k={k_star} but not at k={k}"
            )
    return k_star


def _outcome(search, *args):
    try:
        return search(*args)
    except SolistError as exc:
        return type(exc), str(exc)


@st.composite
def crossover_args(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    # Land k_max on, just below and just past transpose/t1's case break
    # n // 2 as often as anywhere else.
    at_break = max(1, n // 2 + draw(st.integers(min_value=-1, max_value=1)))
    k_max = draw(st.one_of(st.just(at_break), st.integers(min_value=1, max_value=3 * n + 5)))
    return draw(st.sampled_from(["T1", "T2"])), n, k_max


@settings(max_examples=200, deadline=None)
@given(args=crossover_args())
def test_crossover_equals_the_scan(args):
    assert crossover(*args) == scan_crossover(*args)


def test_crossover_equals_the_scan_on_a_grid():
    for family in ("T1", "T2"):
        for n in range(1, 41):
            for k_max in (1, 2, 3, 4, 5, 10, 57, 200):
                assert crossover(family, n, k_max) == scan_crossover(family, n, k_max)


def _defective_trans(monkeypatch, family, sign, p, q, shift=0, last=None, later=None):
    """Make transpose's total on ``family`` move-to-front's plus
    sign*(k - p)*(k - q) + shift, as one case piece; or, given ``last``,
    as the piece for k <= last, followed by a piece with the defect
    ``later``, another (sign, p, q, shift)."""
    family = Family(family)
    pieces = closed_form._pieces

    def defect(mtf, last, sign, p, q, shift):
        d = mtf.denominator
        return mtf._replace(last=last, case_id="defect", c0=mtf.c0 + d * (sign * p * q + shift),
                            c1=mtf.c1 - d * sign * (p + q), c2=mtf.c2 + d * sign)

    def defective(algorithm, family_, n):
        if (algorithm, family_) != (Algorithm.TRANS, family):
            return pieces(algorithm, family_, n)
        (mtf,) = pieces(Algorithm.MTF, family, n)
        if last is None:
            return (defect(mtf, None, sign, p, q, shift),)
        return defect(mtf, last, sign, p, q, shift), defect(mtf, None, *later)

    monkeypatch.setattr(closed_form, "_pieces", defective)


@pytest.mark.parametrize(
    "family, n, sign, p, q, k_max, k_star, broken",
    [
        # Convex: transpose wins strictly between p and q, loses again at q.
        ("T2", 6, 1, 5, 40, 100, 6, 40),
        ("T1", 30, 1, 5, 40, 100, 6, 40),
        # Convex with one winning k, at the vertex: a search run that ends
        # one k to either side of it misses the win.
        ("T2", 6, 1, 4, 6, 100, 5, 6),
        ("T1", 30, 1, 4, 6, 100, 5, 6),
        # Concave: transpose wins before p and loses again at p.
        ("T2", 6, -1, 10, 20, 100, 1, 10),
        ("T1", 30, -1, 25, 60, 100, 1, 25),
    ],
)
def test_broken_dominance_names_the_scans_k(monkeypatch, family, n, sign, p, q, k_max, k_star, broken):
    _defective_trans(monkeypatch, family, sign, p, q)
    with pytest.raises(SolistError) as scanned:
        scan_crossover(family, n, k_max)
    with pytest.raises(SolistError) as searched:
        crossover(family, n, k_max)
    assert str(searched.value) == str(scanned.value)
    assert f"transpose won at k={k_star} but not at k={broken}" in str(searched.value)


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(["T1", "T2"]),
    n=st.integers(min_value=1, max_value=40),
    sign=st.sampled_from([1, -1]),
    p=st.integers(min_value=-5, max_value=60),
    width=st.integers(min_value=0, max_value=40),
    shift=st.integers(min_value=-3, max_value=3),
    k_max=st.integers(min_value=1, max_value=90),
)
def test_defective_quadratics_match_the_scan(family, n, sign, p, width, shift, k_max):
    # Any trans - mtf of degree <= 2, convex or concave: the search must
    # return the scan's result or raise its error, word for word.
    with pytest.MonkeyPatch.context() as monkeypatch:
        _defective_trans(monkeypatch, family, sign, p, p + width, shift)
        assert _outcome(crossover, family, n, k_max) == _outcome(scan_crossover, family, n, k_max)


quadratic_defects = st.tuples(st.sampled_from([1, -1]), st.integers(min_value=-5, max_value=60),
                              st.integers(min_value=0, max_value=40), st.integers(min_value=-3, max_value=3))


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["T1", "T2"]),
    n=st.integers(min_value=1, max_value=40),
    before=quadratic_defects,
    after=quadratic_defects,
    last=st.integers(min_value=1, max_value=40),
    k_max=st.integers(min_value=1, max_value=90),
)
def test_two_piece_defects_match_the_scan(family, n, before, after, last, k_max):
    # A defective table whose transpose has two pieces, each any quadratic:
    # a win on one side of the break and a loss on the other is found by the
    # search across pieces, with the scan's result or its error, word for word.
    (sign, p, width, shift), (sign2, p2, width2, shift2) = before, after
    with pytest.MonkeyPatch.context() as monkeypatch:
        _defective_trans(monkeypatch, family, sign, p, p + width, shift, last, (sign2, p2, p2 + width2, shift2))
        assert _outcome(crossover, family, n, k_max) == _outcome(scan_crossover, family, n, k_max)


@pytest.mark.parametrize("model", list(CostModel))
@pytest.mark.parametrize("steady_pass_off", [False, True], ids=["true-passes", "steady-pass-off"])
def test_first_divergence_at_a_trillion_passes(model, steady_pass_off, monkeypatch):
    # An off-by-one prediction on one trans/t1 cell at k = 10**12: locating
    # the first divergent pass reads one period of each view, not 10**12
    # passes. With the steady per-pass cost off by one, pass 2 is the first
    # to diverge (request n + 1); with the true passes, none does.
    n = 3
    _predict_off_by_one(monkeypatch)
    if steady_pass_off:
        def passes_off(algorithm, family, n, k):
            costs = expected_pass_costs(algorithm, family, n, k)
            return PeriodicView(costs.head, tuple(cost + 1 for cost in costs.cycle), k)

        monkeypatch.setattr(harness, "expected_pass_costs", passes_off)
    expected = n + 1 if steady_pass_off else None

    # The same row at a k small enough to compare pass by pass.
    small = verify_grid(["trans"], ["T1"], (n, n), (1000, 1000), model).cells[0]
    assert small.first_divergence == expected

    tracemalloc.start()
    started = time.perf_counter()
    try:
        report = verify_grid(["trans"], ["T1"], (n, n), (10**12, 10**12), model)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (cell,) = report.cells
    assert not cell.match
    assert cell.first_divergence == expected
    assert elapsed < 0.5
    assert peak < 1_000_000
