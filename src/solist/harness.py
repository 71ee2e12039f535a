"""Verification harness: formula-vs-simulation grids and per-pass
structural profiles.

Each (algorithm, family, n) row of a grid is simulated once, at the
largest k; a cell reads its grand total off the first k passes of that
run and compares it with the closed-form prediction.
The closed forms are full-model totals; under another cost model the
prediction is that total less ``CostModel.discount`` per request, i.e.
per pass of n requests. Cells are graded one row at a time, in
deterministic (algorithm, family, n, k) order.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .closed_form import Algorithm, _totals, expected_pass_costs
from .errors import Family, InvalidParameterError, check_int, check_range, member
from .list_core import CostLedger, CostModel, ListState, PeriodicView
from .policies import make_policy, serve
from .seqgen import GENERATORS

__all__ = [
    "GridCell",
    "VerificationReport",
    "PassProfile",
    "verify_grid",
    "per_pass_profile",
]


class GridCell(NamedTuple):
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


class VerificationReport(NamedTuple):
    algorithms: tuple[Algorithm, ...]
    families: tuple[Family, ...]
    cells: tuple[GridCell, ...]

    @property
    def mismatch_count(self) -> int:
        return sum(not cell.match for cell in self.cells)

    @property
    def passed(self) -> bool:
        return self.mismatch_count == 0


class PassProfile(NamedTuple):
    """Simulated per-pass costs and pass-end configurations (full model),
    as the views of the run's ``CostLedger``."""

    pass_costs: PeriodicView
    pass_end_configs: PeriodicView


def _simulate(algorithm: Algorithm, family: Family, n: int, k: int, model: CostModel) -> CostLedger:
    sequence = GENERATORS[family](n, k)
    return serve(make_policy(algorithm.value), ListState.initial(n), sequence, model)


def _first_divergence(ledger: CostLedger, algorithm: Algorithm, family: Family, model: CostModel) -> int | None:
    n, k = ledger.final_state.n, len(ledger.pass_totals)
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
) -> VerificationReport:
    """Compare simulation against prediction on every cell of the grid (each rule or family once)."""
    report = _grid(algorithms, families, n_range, k_range, model)
    return report._replace(cells=tuple(report.cells))


def _grid(algorithms, families, n_range, k_range, model) -> VerificationReport:
    """``verify_grid``'s report, all checks made, with ``cells`` a generator that grades one row at a time."""
    algorithms = tuple(dict.fromkeys(member(Algorithm, name) for name in algorithms))
    families = tuple(dict.fromkeys(member(Family, name) for name in families))
    if not algorithms or not families:
        raise InvalidParameterError("need at least one algorithm and one family")
    n_lo, n_hi = check_range(n_range, "n")
    k_lo, k_hi = check_range(k_range, "k")
    discount = CostModel.discount(model)
    for family in families:
        GENERATORS[family](n_hi, k_hi)  # the last row asks the most of its generator: if it builds, every row does

    def cells():
        for algorithm in algorithms:
            for family in families:
                for n in range(n_lo, n_hi + 1):
                    # The first k passes of a k_hi-pass run are the k-pass run,
                    # so one simulation serves the whole row of k.
                    ledger = _simulate(algorithm, family, n, k_hi, model)
                    totals = ledger.pass_totals
                    simulated = totals.total(k_lo - 1)
                    # Pass i's expected cost does not depend on k, so the row's first divergent request (... until
                    # its first mismatch) is that of every mismatched cell whose passes reach it.
                    divergence = ...
                    predictions = _totals(algorithm, family, n, k_lo, k_hi)
                    for k, prediction in zip(range(k_lo, k_hi + 1), predictions):
                        simulated += totals[k - 1]
                        predicted = prediction.total - k * n * discount
                        match = simulated == predicted
                        if not match and divergence is ...:
                            divergence = _first_divergence(ledger, algorithm, family, model)
                        reached = not match and divergence is not None and divergence <= (k - 1) * n + 1
                        yield GridCell(algorithm, family, n, k, simulated, predicted, match,
                                       divergence if reached else None)
    return VerificationReport(algorithms, families, cells())


def per_pass_profile(algorithm: Algorithm | str, family: Family | str, n: int, k: int) -> PassProfile:
    """Full-model per-pass costs and pass-end configurations."""
    algorithm, family = member(Algorithm, algorithm), member(Family, family)
    check_int(k, "k")
    ledger = _simulate(algorithm, family, n, k, CostModel.FULL)
    return PassProfile(ledger.pass_totals, ledger.pass_end_configs)
