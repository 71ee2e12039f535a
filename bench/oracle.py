"""The benchmark's own exact arithmetic for every output it checks.

Nothing here imports solist. Family totals are the paper's per-pass costs
summed in Python integers, crossover points come from those totals, and
explicit request streams are served by a plain list walk. The CLI under
test must print exactly the text these functions build.
"""

from __future__ import annotations


def _scan_cost(n: int) -> int:
    """Cost of one pass over a list that is in request order: 1 + ... + n."""
    return n * (n + 1) // 2


def _sum_min(k: int, s: int) -> int:
    """sum(min(i, s) for i in range(k)) without the loop."""
    if k - 1 <= s:
        return k * (k - 1) // 2
    return s * (s + 1) // 2 + (k - 1 - s) * s


def family_total(algo: str, family: str, n: int, k: int) -> int:
    """Full-model grand total of `algo` serving `family` ('t1' or 't2') k times over 1..n."""
    if algo == "mtf":
        # t1: the first pass leaves the list reversed, so every later access is at the back.
        # t2: every pass finds each item at the back and restores the initial order.
        return _scan_cost(n) + (k - 1) * n * n if family == "t1" else k * n * n
    if algo == "trans":
        if family == "t1":
            # pass i costs one scan plus min(i - 1, n // 2): the saturation threshold.
            return k * _scan_cost(n) + _sum_min(k, n // 2)
        return k * ((n * n + 2 * n - n % 2) // 2)
    if algo == "fc":
        # t1 never reorders; t2 reverses the list in pass 1 and is a forward scan after it.
        return k * _scan_cost(n) if family == "t1" else n * n + (k - 1) * _scan_cost(n)
    raise ValueError(f"no exact total for {algo}/{family}")


def mtf_t1_per_pass_stdout(n: int, k: int) -> str:
    """`simulate --algo mtf --seq t1 --per-pass` output: every pass ends reversed."""
    config = " ".join(str(item) for item in range(n, 0, -1))
    lines = [f"pass {i} cost {_scan_cost(n) if i == 1 else n * n} config {config}" for i in range(1, k + 1)]
    lines.append(f"total {family_total('mtf', 't1', n, k)}")
    return "\n".join(lines) + "\n"


def crossover_k(family: str, n: int, kmax: int) -> int | None:
    """Smallest k <= kmax at which transpose costs strictly less than move-to-front."""
    for k in range(1, kmax + 1):
        if family_total("trans", family, n, k) < family_total("mtf", family, n, k):
            return k
    return None


def crossover_stdout(family: str, n_lo: int, n_hi: int, kmax: int) -> str:
    lines = ["family n k_star"]
    for n in range(n_lo, n_hi + 1):
        k_star = crossover_k(family, n, kmax)
        lines.append(f"{family.upper()} {n} {'none' if k_star is None else k_star}")
    return "\n".join(lines) + "\n"


def verify_stdout(algo: str, family: str, n_lo: int, n_hi: int, k_lo: int, k_hi: int) -> str:
    """`verify --algo algo --seq family` table output when every cell matches."""
    cells = (n_hi - n_lo + 1) * (k_hi - k_lo + 1)
    return (f"{algo} {family.upper()}: 0 mismatches / {cells} cells\n"
            f"verdict PASS ({cells} cells, 0 mismatches)\n")


def walk_total(algo: str, order: list[int], requests: list[int]) -> int:
    """Full-model total of serving `requests` from `order` by walking the list."""
    order = list(order)
    counts = dict.fromkeys(order, 0)
    total = 0
    for item in requests:
        pos = order.index(item)
        total += pos + 1
        if algo == "mtf":
            order.insert(0, order.pop(pos))
        elif algo == "trans":
            if pos:
                order[pos - 1], order[pos] = order[pos], order[pos - 1]
        elif algo == "fc":
            # Starting from zero counters the list stays sorted by count, so moving the
            # item ahead of every strictly smaller predecessor is the stable re-sort.
            counts[item] += 1
            dest = pos
            while dest and counts[order[dest - 1]] < counts[item]:
                dest -= 1
            order.insert(dest, order.pop(pos))
        else:
            raise ValueError(f"unknown rule {algo}")
    return total
