"""Exact closed-form total-cost evaluators for move-to-front and
transpose on the two repeated-permutation families, under the full cost
model.

Each (algorithm, family) pair's closed form is written once, in
``_pieces``, as its case pieces: each an integer polynomial
c0 + c1*k + c2*k^2 over a denominator of 1, 2 or 8 that holds up to its
last k. Every reader evaluates that table. The division is checked to
leave no remainder before the quotient is returned; nothing is ever
rounded. Transpose/t1 changes case once, past the saturation threshold
n // 2 (n/2 passes for even n, (n-1)/2 for odd n), after which the
per-pass cost stops growing; every other pair has one case for all k.

Case labels: "1" (mtf/t1), "2" (mtf/t2), "3.1a"/"3.1b"/"3.1c"
(trans/t1: below threshold, past threshold with n even, past threshold
with n odd), "3.2a"/"3.2b" (trans/t2: n even, n odd).

``crossover`` finds the first k at which transpose beats move-to-front.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, pairwise
from typing import Iterator, NamedTuple

from .errors import Family, SolistError, by_value, check_int

__all__ = [
    "Algorithm",
    "Prediction",
    "mtf_t1",
    "mtf_t2",
    "trans_t1",
    "trans_t2",
    "predict",
    "expected_pass_costs",
    "crossover",
]


class Algorithm(Enum):
    """Algorithms that have closed-form cost formulas."""

    MTF = "mtf"
    TRANS = "trans"

    _missing_ = by_value("algorithm")


class Prediction(NamedTuple):
    """An exact predicted grand total, and the label of the closed-form
    case that gave it."""

    case_id: str
    total: int


class _Piece(NamedTuple):
    """One case of a closed form: the total is (c0 + c1*k + c2*k^2) /
    denominator for every k up to ``last`` (None: every k after the
    previous piece's)."""

    last: int | None
    case_id: str
    c0: int
    c1: int
    c2: int
    denominator: int


def _pieces(algorithm: Algorithm, family: Family, n: int) -> tuple[_Piece, ...]:
    """The case pieces of (algorithm, family) at n, in increasing k; the
    last one is open. See the four evaluators' docstrings for the formulas."""
    if algorithm is Algorithm.MTF:
        if family is Family.T1:
            return (_Piece(None, "1", n - n * n, 2 * n * n, 0, 2),)
        return (_Piece(None, "2", 0, n * n, 0, 1),)
    if family is Family.T1:
        below = _Piece(n // 2, "3.1a", 0, n * n + n - 1, 1, 2)
        if n % 2 == 0:
            return below, _Piece(None, "3.1b", -(n * n + 2 * n), 4 * (n * n + 2 * n), 0, 8)
        return below, _Piece(None, "3.1c", 1 - n * n, 4 * (n * n + 2 * n - 1), 0, 8)
    if n % 2 == 0:
        return (_Piece(None, "3.2a", 0, n * n + 2 * n, 0, 2),)
    return (_Piece(None, "3.2b", 0, n * n + 2 * n - 1, 0, 2),)


def _exact_int(numerator: int, denominator: int, context: str) -> int:
    # Integrality is provable for every case; a trip here is a bug.
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{context} evaluated to non-integer {numerator}/{denominator}")
    return quotient


def _totals(algorithm: Algorithm, family: Family, n: int, k_lo: int, k_hi: int) -> Iterator[Prediction]:
    """The predictions at k = k_lo..k_hi, in order, from one table lookup."""
    check_int(n, "n")
    check_int(k_lo, "k")
    check_int(k_hi, "k")
    for last, case_id, c0, c1, c2, denominator in _pieces(algorithm, family, n):
        end, context = k_hi if last is None else min(last, k_hi), f"case {case_id}"
        for k in range(k_lo, end + 1):
            yield Prediction(case_id, _exact_int(c0 + k * (c1 + k * c2), denominator, context))
        k_lo = max(k_lo, end + 1)


def mtf_t1(n: int, k: int) -> Prediction:
    """Move-to-front on the ascending family: (n^2*(2k - 1) + n) / 2.

    The first pass costs n(n+1)/2 and every later pass costs n^2 because
    each pass leaves the list exactly reversed.
    """
    return next(_totals(Algorithm.MTF, Family.T1, n, k, k))


def mtf_t2(n: int, k: int) -> Prediction:
    """Move-to-front on the descending family: k * n^2.

    Every request finds its item at the back, and each pass restores the
    initial configuration.
    """
    return next(_totals(Algorithm.MTF, Family.T2, n, k, k))


def trans_t1(n: int, k: int) -> Prediction:
    """Transpose on the ascending family, dispatched on parity and k.

    Pass i costs n(n+1)/2 + min(i-1, s) where the saturation threshold s
    is n/2 for even n and (n-1)/2 for odd n. Below saturation the sum
    telescopes to k*(n^2 + n + k - 1)/2; past it the steady-state pass
    cost takes over:

      even n, k > n/2:      ((n^2 + 2n)/2) * (4k - 1)/4
      odd n,  k > (n-1)/2:  k*(n^2 + 2n - 1)/2 - (n^2 - 1)/8
    """
    return next(_totals(Algorithm.TRANS, Family.T1, n, k, k))


def trans_t2(n: int, k: int) -> Prediction:
    """Transpose on the descending family: a constant cost per pass.

    Each pass restores the initial configuration, costing (n^2 + 2n)/2
    for even n and (n^2 + 2n - 3)/2 + 1 for odd n.
    """
    return next(_totals(Algorithm.TRANS, Family.T2, n, k, k))


def predict(algorithm: Algorithm | str, family: Family | str, n: int, k: int) -> Prediction:
    """The closed form of (algorithm, family) at (n, k): what the matching evaluator above returns."""
    return next(_totals(Algorithm(algorithm), Family(family), n, k, k))


def expected_pass_costs(algorithm: Algorithm | str, family: Family | str, n: int, k: int) -> PeriodicView:
    """Per-pass decomposition of the predicted total, full cost model.

    Sums to ``predict(...).total``; used to localize any disagreement
    between a formula and a simulation down to the first divergent pass.
    Its head holds the first differences of the totals through the pass
    after the last case break, less the trailing ones equal to the steady
    per-pass cost, and its cycle that one cost, so it takes O(n) memory at
    any k. Each case piece meets the next at its last k, so every later
    pass costs the steady amount.
    """
    from .list_core import PeriodicView  # here, so that the closed forms load no simulation module
    algorithm, family = Algorithm(algorithm), Family(family)
    check_int(n, "n")
    check_int(k, "k")
    *cases, steady = _pieces(algorithm, family, n)
    cycle = _exact_int(steady.c1, steady.denominator, f"{algorithm.value}/{family.value.lower()} per pass")
    passes = min(k, cases[-1].last + 1 if cases else 1)
    totals = chain((0,), (prediction.total for prediction in _totals(algorithm, family, n, 1, passes)))
    head = [after - before for before, after in pairwise(totals)]
    while head and head[-1] == cycle:
        head.pop()
    return PeriodicView(tuple(head), (cycle,), k)


def _first_where(runs, start: int, holds) -> int | None:
    """Smallest k >= start in the runs (lo, hi, (e0, e1, e2)) at which
    ``holds(e0 + e1*k + e2*k^2)``, where that value is monotone on each
    run (so ``holds`` is true on a prefix or a suffix of it)."""
    for lo, hi, (e0, e1, e2) in runs:
        lo = max(lo, start)
        if lo > hi:
            continue

        def at(k: int) -> bool:
            return holds(e0 + k * (e1 + k * e2))

        if at(lo):
            return lo
        if not at(hi):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if at(mid):
                hi = mid
            else:
                lo = mid
        return hi
    return None


def crossover(family: Family | str, n: int, k_max: int) -> int | None:
    """The first k in 1..k_max at which transpose strictly beats
    move-to-front, or None if it never does there.

    Ties do not count as a win. Once a win is found, dominance must
    persist through k_max; the totals are arithmetic-like in k, so a
    broken dominance would mean a defective closed form. On each case
    piece of either closed form, trans - mtf is a quadratic in k, found
    by subtracting the two pieces' coefficients over a common
    denominator. Cut at those case breaks and at each quadratic's vertex,
    1..k_max becomes one list of runs on each of which the difference is
    monotone. One bisection search over the runs, in O(log k_max) integer
    steps per run, finds the first win; the same search from the next k
    finds any later loss.
    """
    family = Family(family)
    check_int(k_max, "k_max")
    check_int(n, "n")
    trans, mtf = _pieces(Algorithm.TRANS, family, n), _pieces(Algorithm.MTF, family, n)
    breaks = sorted({piece.last for piece in trans[:-1] + mtf[:-1] if 0 < piece.last < k_max})
    runs = []
    for a, b in zip([1] + [last + 1 for last in breaks], breaks + [k_max]):
        t, m = (next(piece for piece in pieces if piece.last is None or a <= piece.last) for pieces in (trans, mtf))
        # trans - mtf on a..b, times the positive t.denominator * m.denominator.
        e0, e1, e2 = e = [x * m.denominator - y * t.denominator for x, y in zip((t.c0, t.c1, t.c2), (m.c0, m.c1, m.c2))]
        # The steps e(k + 1) - e(k) = e1 + e2 + 2*e2*k change sign at k = vertex.
        vertex = min(max(-((e1 + e2) // (2 * e2)), a), b) if e2 else b
        runs += [(a, vertex, e), (vertex + 1, b, e)]
    k_star = _first_where(runs, 1, lambda d: d < 0)
    lost = None if k_star is None else _first_where(runs, k_star + 1, lambda d: d >= 0)
    if lost is not None:
        raise SolistError(
            f"dominance broken at family={family.value} n={n} k={lost}: "
            f"transpose won at k={k_star} but not at k={lost}"
        )
    return k_star
