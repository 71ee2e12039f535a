"""Exact closed-form total-cost evaluators for move-to-front and
transpose on the two repeated-permutation families, under the full cost
model.

Every evaluator works in exact integer arithmetic: each case is an
integer numerator over 2 or 8, and the division is checked to leave no
remainder before the quotient is returned; nothing is ever rounded. The
transpose/t1 evaluator dispatches on the parity of n and on whether k is
past the saturation threshold n // 2 (n/2 passes for even n, (n-1)/2 for
odd n), after which the per-pass cost stops growing. That threshold is the
only value of k at which a closed form changes case (``_case_breaks``), and
each case is a polynomial of degree at most 2 in k.

Case labels: "1" (mtf/t1), "2" (mtf/t2), "3.1a"/"3.1b"/"3.1c"
(trans/t1: below threshold, past threshold with n even, past threshold
with n odd), "3.2a"/"3.2b" (trans/t2: n even, n odd).

``crossover`` finds the first k at which transpose beats move-to-front.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import SolistError, check_int, choose
from .list_core import PeriodicView
from .seqgen import Family, as_family

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


@dataclass(frozen=True)
class Prediction:
    """An exact predicted grand total, and the label of the closed-form
    case that gave it."""

    case_id: str
    total: int


def _exact_int(numerator: int, denominator: int, context: str) -> int:
    # Integrality is provable for every case; a trip here is a bug.
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{context} evaluated to non-integer {numerator}/{denominator}")
    return quotient


def _case_breaks(algorithm: Algorithm, family: Family, n: int) -> tuple[int, ...]:
    """The values of k after which the closed form for (algorithm, family,
    n) changes case: transpose/t1 saturates after n // 2 passes, and every
    other pair has one case for all k."""
    if algorithm is Algorithm.TRANS and family is Family.T1:
        return (n // 2,)
    return ()


def mtf_t1(n: int, k: int) -> Prediction:
    """Move-to-front on the ascending family: (n^2*(2k - 1) + n) / 2.

    The first pass costs n(n+1)/2 and every later pass costs n^2 because
    each pass leaves the list exactly reversed.
    """
    check_int(n, "n")
    check_int(k, "k")
    total = _exact_int(n * n * (2 * k - 1) + n, 2, "mtf/t1")
    return Prediction("1", total)


def mtf_t2(n: int, k: int) -> Prediction:
    """Move-to-front on the descending family: k * n^2.

    Every request finds its item at the back, and each pass restores the
    initial configuration.
    """
    check_int(n, "n")
    check_int(k, "k")
    return Prediction("2", k * n * n)


def trans_t1(n: int, k: int) -> Prediction:
    """Transpose on the ascending family, dispatched on parity and k.

    Pass i costs n(n+1)/2 + min(i-1, s) where the saturation threshold s
    is n/2 for even n and (n-1)/2 for odd n. Below saturation the sum
    telescopes to k*(n^2 + n + k - 1)/2; past it the steady-state pass
    cost takes over:

      even n, k > n/2:      ((n^2 + 2n)/2) * (4k - 1)/4
      odd n,  k > (n-1)/2:  k*(n^2 + 2n - 1)/2 - (n^2 - 1)/8
    """
    check_int(n, "n")
    check_int(k, "k")
    (saturation,) = _case_breaks(Algorithm.TRANS, Family.T1, n)
    if k <= saturation:
        case_id = "3.1a"
        numerator, denominator = k * (n * n + n + k - 1), 2
    elif n % 2 == 0:
        case_id = "3.1b"
        numerator, denominator = (n * n + 2 * n) * (4 * k - 1), 8
    else:
        case_id = "3.1c"
        numerator, denominator = 4 * k * (n * n + 2 * n - 1) - (n * n - 1), 8
    total = _exact_int(numerator, denominator, "trans/t1")
    return Prediction(case_id, total)


def trans_t2(n: int, k: int) -> Prediction:
    """Transpose on the descending family: a constant cost per pass.

    Each pass restores the initial configuration, costing (n^2 + 2n)/2
    for even n and (n^2 + 2n - 3)/2 + 1 for odd n.
    """
    check_int(n, "n")
    check_int(k, "k")
    if n % 2 == 0:
        case_id = "3.2a"
        numerator = k * (n * n + 2 * n)
    else:
        case_id = "3.2b"
        numerator = k * (n * n + 2 * n - 1)  # 2k * ((n^2 + 2n - 3)/2 + 1)
    total = _exact_int(numerator, 2, "trans/t2")
    return Prediction(case_id, total)


_EVALUATORS = {
    (Algorithm.MTF, Family.T1): mtf_t1,
    (Algorithm.MTF, Family.T2): mtf_t2,
    (Algorithm.TRANS, Family.T1): trans_t1,
    (Algorithm.TRANS, Family.T2): trans_t2,
}


def as_algorithm(value: Algorithm | str) -> Algorithm:
    if isinstance(value, Algorithm):
        return value
    return choose({algorithm.value: algorithm for algorithm in Algorithm}, value, "algorithm")


def predict(algorithm: Algorithm | str, family: Family | str, n: int, k: int) -> Prediction:
    """Route to the matching evaluator for (algorithm, family)."""
    return _EVALUATORS[as_algorithm(algorithm), as_family(family)](n, k)


def expected_pass_costs(algorithm: Algorithm | str, family: Family | str, n: int, k: int) -> PeriodicView:
    """Per-pass decomposition of the predicted total, full cost model.

    Sums to ``predict(...).total``; used to localize any disagreement
    between a formula and a simulation down to the first divergent pass.
    Its head holds the passes before the per-pass cost settles (through
    transpose/t1's case break) and its cycle the one steady per-pass cost,
    so it takes O(n) memory at any k.
    """
    algorithm = as_algorithm(algorithm)
    family = as_family(family)
    check_int(n, "n")
    check_int(k, "k")
    first = n * (n + 1) // 2
    if algorithm is Algorithm.MTF:
        if family is Family.T1:
            return PeriodicView((first,), (n * n,), k)
        return PeriodicView((), (n * n,), k)
    if family is Family.T1:
        (saturation,) = _case_breaks(algorithm, family, n)
        return PeriodicView(tuple(range(first, first + min(saturation, k))), (first + saturation,), k)
    if n % 2 == 0:
        per_pass = (n * n + 2 * n) // 2
    else:
        per_pass = (n * n + 2 * n - 3) // 2 + 1
    return PeriodicView((), (per_pass,), k)


def _trans_minus_mtf(family: Family, n: int, k: int) -> int:
    return predict(Algorithm.TRANS, family, n, k).total - predict(Algorithm.MTF, family, n, k).total


def _piece(family: Family, n: int, a: int, b: int):
    """trans - mtf on k = a..b as a function of j = k - a, with the runs of
    j on which it is monotone."""
    # Both totals are of degree <= 2 in k on a case interval, so three
    # points fix the difference; the far end checks it. Past b, k = a + 1
    # and a + 2 may lie on the next case: the fit is still exact up to b.
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


def crossover(family: Family | str, n: int, k_max: int) -> int | None:
    """The first k in 1..k_max at which transpose strictly beats
    move-to-front, or None if it never does there.

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
    return k_star
