"""Verification harness: formula-vs-simulation grids, per-pass structural
profiles, and the move-to-front vs transpose crossover search.

A grid cell simulates one (algorithm, family, n, k) configuration and
compares the simulated grand total with the closed-form prediction.
The closed forms are full-model totals; under another cost model the
prediction is that total less ``CostModel.discount`` per request, i.e.
per pass of n requests. Cells are assembled deterministically in
(algorithm, family, n, k) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .closed_form import Algorithm, Prediction, _case_breaks, as_algorithm, as_family, expected_pass_costs, predict
from .errors import InvalidParameterError, SolistError, check_int
from .list_core import CostLedger, CostModel, ListState, PeriodicView
from .policies import make_policy, serve
from .seqgen import GENERATORS, Family

__all__ = [
    "GridCell",
    "VerificationReport",
    "PassProfile",
    "CrossoverResult",
    "verify_grid",
    "per_pass_profile",
    "crossover",
]


@dataclass(frozen=True)
class GridCell:
    """One verified configuration. ``first_divergence`` is the 1-based
    index of the first request of the first pass whose simulated subtotal
    deviates from the predicted per-pass decomposition (None when the
    cell matches, or when every pass subtotal agrees and only the
    bookkeeping differs)."""

    algorithm: Algorithm
    family: Family
    n: int
    k: int
    simulated: int
    predicted: int
    match: bool
    first_divergence: int | None = None


@dataclass(frozen=True)
class VerificationReport:
    algorithms: tuple[Algorithm, ...]
    families: tuple[Family, ...]
    n_range: tuple[int, int]
    k_range: tuple[int, int]
    model: CostModel
    cells: tuple[GridCell, ...]

    @property
    def mismatches(self) -> tuple[GridCell, ...]:
        return tuple(cell for cell in self.cells if not cell.match)

    @property
    def mismatch_count(self) -> int:
        return len(self.mismatches)

    @property
    def passed(self) -> bool:
        return self.mismatch_count == 0


@dataclass(frozen=True)
class PassProfile:
    """Simulated per-pass costs and pass-end configurations (full model)."""

    algorithm: Algorithm
    family: Family
    n: int
    k: int
    pass_costs: tuple[int, ...]
    pass_end_configs: tuple[ListState, ...]


@dataclass(frozen=True)
class CrossoverResult:
    """Smallest repetition count at which transpose strictly beats
    move-to-front, or None if it never does within the searched range."""

    family: Family
    n: int
    k_star: int | None
    searched_k_max: int


def _check_range(bounds: tuple[int, int], name: str) -> tuple[int, int]:
    lo, hi = bounds
    check_int(lo, f"{name} lower bound")
    check_int(hi, f"{name} upper bound")
    if lo > hi:
        raise InvalidParameterError(f"{name} range is empty: {lo}..{hi}")
    return lo, hi


def _simulate(algorithm: Algorithm, family: Family, n: int, k: int, model: CostModel) -> CostLedger:
    sequence = GENERATORS[family](n, k)
    return serve(make_policy(algorithm.value), ListState.initial(n), sequence, model)


def _first_divergence(
    ledger: CostLedger, algorithm: Algorithm, family: Family, n: int, k: int, model: CostModel
) -> int | None:
    full = expected_pass_costs(algorithm, family, n, k)
    less = n * CostModel.discount(model)
    expected = PeriodicView(tuple(cost - less for cost in full.head), tuple(cost - less for cost in full.cycle), k)
    index = ledger.pass_totals.first_difference(expected)
    return None if index is None else index * n + 1


def verify_grid(
    algorithms: Iterable[Algorithm | str],
    families: Iterable[Family | str],
    n_range: tuple[int, int],
    k_range: tuple[int, int],
    model: CostModel = CostModel.FULL,
    predictor: Callable[[Algorithm, Family, int, int], Prediction] = predict,
) -> VerificationReport:
    """Compare simulation against prediction on every cell of the grid.

    ``predictor`` defaults to the closed-form evaluators; it is injectable
    so the mismatch-reporting path can be exercised directly.
    """
    algorithms = tuple(as_algorithm(a) for a in algorithms)
    families = tuple(as_family(f) for f in families)
    if not algorithms or not families:
        raise InvalidParameterError("need at least one algorithm and one family")
    n_lo, n_hi = _check_range(n_range, "n")
    k_lo, k_hi = _check_range(k_range, "k")
    discount = CostModel.discount(model)

    cells = []
    for algorithm in algorithms:
        for family in families:
            for n in range(n_lo, n_hi + 1):
                # The first k passes of a k_hi-pass run are the k-pass run,
                # so one simulation serves the whole row of k.
                ledger = _simulate(algorithm, family, n, k_hi, model)
                totals = ledger.pass_totals
                simulated = totals.total(k_lo - 1)
                # Pass i's expected cost does not depend on k, so the row's
                # first divergent request, found once at k_hi, is that of
                # every mismatched cell whose passes reach it (0: none).
                row_divergence = None
                for k in range(k_lo, k_hi + 1):
                    simulated += totals[k - 1]
                    predicted = predictor(algorithm, family, n, k).total - k * n * discount
                    match = simulated == predicted
                    divergence = None
                    if not match:
                        if row_divergence is None:
                            row_divergence = _first_divergence(ledger, algorithm, family, n, k_hi, model) or 0
                        if 0 < row_divergence <= (k - 1) * n + 1:
                            divergence = row_divergence
                    cells.append(
                        GridCell(algorithm, family, n, k, simulated, predicted, match, divergence)
                    )
    return VerificationReport(
        algorithms=algorithms,
        families=families,
        n_range=(n_lo, n_hi),
        k_range=(k_lo, k_hi),
        model=model,
        cells=tuple(cells),
    )


def per_pass_profile(algorithm: Algorithm | str, family: Family | str, n: int, k: int) -> PassProfile:
    """Full-model per-pass costs and pass-end configurations."""
    algorithm = as_algorithm(algorithm)
    family = as_family(family)
    check_int(k, "k")
    ledger = _simulate(algorithm, family, n, k, CostModel.FULL)
    return PassProfile(
        algorithm=algorithm,
        family=family,
        n=n,
        k=k,
        pass_costs=ledger.pass_totals,
        pass_end_configs=ledger.pass_end_configs,
    )


def _trans_minus_mtf(family: Family, n: int, k: int) -> int:
    return predict(Algorithm.TRANS, family, n, k).total - predict(Algorithm.MTF, family, n, k).total


def _piece(family: Family, n: int, a: int, b: int):
    """trans - mtf on k = a..b as a function of j = k - a, with the runs of
    j on which it is monotone."""
    if b - a < 3:
        values = [_trans_minus_mtf(family, n, k) for k in range(a, b + 1)]
        return values.__getitem__, [(j, j) for j in range(len(values))]
    # Both totals are of degree <= 2 in k on a case interval, so three
    # points fix the difference; the far end checks it.
    d0, d1, d2 = (_trans_minus_mtf(family, n, k) for k in (a, a + 1, a + 2))
    step, curve = d1 - d0, d2 - 2 * d1 + d0

    def value(j: int) -> int:
        return d0 + j * step + j * (j - 1) // 2 * curve

    m = b - a
    if _trans_minus_mtf(family, n, b) != value(m):
        raise ArithmeticError(
            f"trans - mtf for family={family.value} n={n} is not of degree <= 2 on k = {a}..{b}"
        )
    if not curve:
        return value, [(0, m)]
    # The first differences step + j*curve change sign at j = vertex.
    vertex = min(max(-(step // curve), 0), m)
    return value, [(0, vertex), (vertex, m)]


def _first_where(value, runs, start: int, holds) -> int | None:
    """Smallest j >= start in the runs at which ``holds(value(j))``, where
    ``value`` is monotone on each run (so ``holds`` is true on a prefix or
    a suffix of it)."""
    for lo, hi in runs:
        lo = max(lo, start)
        if lo > hi:
            continue
        if holds(value(lo)):
            return lo
        if not holds(value(hi)):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if holds(value(mid)):
                hi = mid
            else:
                lo = mid
        return hi
    return None


def crossover(family: Family | str, n: int, k_max: int) -> CrossoverResult:
    """Find the first k in 1..k_max at which transpose strictly beats
    move-to-front.

    Ties do not count as a win. Once a win is found, dominance must
    persist through k_max; the totals are arithmetic-like in k, so a
    broken dominance would mean a defective evaluator. The range is cut
    at the closed forms' case breaks; on each piece trans - mtf is a
    polynomial of degree <= 2 in k, fitted from four ``predict`` pairs
    and searched by bisection in O(log k_max) integer steps.
    """
    family = as_family(family)
    check_int(k_max, "k_max")
    # Evaluating k = 1 raises the same errors for a bad family or n as a
    # scan would, before n is used to place the breaks.
    _trans_minus_mtf(family, n, 1)
    breaks = {*_case_breaks(Algorithm.TRANS, family, n), *_case_breaks(Algorithm.MTF, family, n)}
    k_star = None
    a = 1
    for b in sorted(k for k in breaks if 1 <= k < k_max) + [k_max]:
        value, runs = _piece(family, n, a, b)
        start = 0
        if k_star is None:
            won = _first_where(value, runs, 0, lambda d: d < 0)
            if won is not None:
                k_star, start = a + won, won + 1
        if k_star is not None:
            lost = _first_where(value, runs, start, lambda d: d >= 0)
            if lost is not None:
                k = a + lost
                raise SolistError(
                    f"dominance broken at family={family.value} n={n} k={k}: "
                    f"transpose won at k={k_star} but not at k={k}"
                )
        a = b + 1
    return CrossoverResult(family=family, n=n, k_star=k_star, searched_k_max=k_max)
